"""One benchmark run inside a fresh interpreter: the single closed-loop client.

Started by ``perfbench/run.py``; not meant to be run by hand. It imports
``oscillab`` from the checkout's ``src``, builds the workload's op list
from the seed, then runs passes over the op list one op after another until
``--seconds`` have elapsed. It prints one JSON object as its last stdout
line. With ``--setup-only`` it stops once the inputs exist and prints the
monotonic clock reading at that moment.

Untraced mode times every pass. Traced mode alternates untraced and traced
passes, starting untraced, so the tracing overhead is measured in the same
process.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from ops import REFERENCE_SEED, build_ops, check_output, run_op  # noqa: E402
from spans import LAYER_METRICS, Tracer  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(op_list, tracer=None) -> tuple:
    """Run every op once, in order. Returns (wall s, cpu s, [(code, out, err)])."""
    results = []
    t0, c0 = time.perf_counter(), _cpu_seconds()
    with tracer if tracer is not None else contextlib.nullcontext():
        for op in op_list:
            with tracer.span(f"op.{op.name}") if tracer is not None else contextlib.nullcontext():
                results.append(run_op(op))
    return time.perf_counter() - t0, _cpu_seconds() - c0, results


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "thread_caps": {k: os.environ.get(k, "") for k in THREAD_VARS},
    }


def load_reference(workload: str, seed: int) -> dict:
    """op name -> stored rows, or {} when the seed is not the recorded one."""
    if seed != REFERENCE_SEED:
        return {}
    with open(HERE / "reference.json") as fh:
        return json.load(fh)["workloads"][workload]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", default="")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import oscillab.cli  # noqa: F401  (set-up cost: the CLI and everything it imports)

    op_list = build_ops(args.workload, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    if not Path(oscillab.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: oscillab imported from {oscillab.cli.__file__}", file=sys.stderr)
        return 1

    reference = load_reference(args.workload, args.seed)
    first_out = {}
    walls = {False: [], True: []}
    cpus = []
    # per traced pass only its metrics are kept; the spans of the last one
    layer_values, last_tracer = [], None
    attempted = failed = 0
    problems = []
    traced = False
    start = time.perf_counter()
    while True:
        tracer = Tracer() if traced else None
        wall, cpu, results = run_pass(op_list, tracer)
        walls[traced].append(wall)
        if traced:
            layer_values.append(tracer.layer_metrics(wall))
            last_tracer = tracer
        else:
            cpus.append(cpu)
        for op, (code, out, err) in zip(op_list, results):
            attempted += 1
            bad = check_output(op, code, out, reference.get(op.name))
            if first_out.setdefault(op.name, out) != out:
                bad.append("output differs from the first pass")
            if bad:
                failed += 1
                problems.append({"op": op.name, "problems": bad[:5], "stderr": err[-2000:]})
        if args.trace:
            traced = not traced
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and (not args.trace or walls[True]):
            break

    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:10],
        "passes": {"untraced": walls[False], "traced": walls[True]},
        "env": environment(),
    }
    if args.trace:
        base = statistics.median(walls[False])
        for values in layer_values:
            values["trace.overhead_s"] = values["trace.run_s"] - base
        result["metrics"] = {
            name: statistics.median(v[name] for v in layer_values) for name, _ in LAYER_METRICS
        }
        result["module_self_share"] = last_tracer.module_self_share()
        if args.spans:
            last_tracer.write(args.spans)
    else:
        result["metrics"] = {
            "run_s": statistics.median(walls[False]),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
