"""oscillab benchmark: seeded experiment sweeps timed end to end and per module.

    python3 perfbench/run.py --workload composition --seed 0 --seconds 20 --trace 0

Run from the root of a checkout. ``--workload all`` runs every workload in
turn. One run starts one fresh child interpreter (``child.py``), the single
closed-loop client, which runs passes over the workload's op list for
``--seconds``; then it starts a few more children that stop after set-up,
to time set-up. BLAS/OpenMP threads are capped at the number of usable
cores. The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
(and the spans of the last traced pass go to ``.perfbench/``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from ops import WORKLOADS  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402
from child import THREAD_VARS  # noqa: E402

SETUP_PROBES = 7
# Every run must end within 180 s; the child gets what is left of this.
DEADLINE_S = 170.0

END_TO_END = (
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_rate", "ratio"),
)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown'
    when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _child(args: list, env: dict, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        timeout=max(timeout, 1.0),
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: int, trace: int, env: dict) -> dict:
    t_start = time.monotonic()
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    common = ["--workload", workload, "--seed", str(seed)]
    res = _child(
        [*common, "--seconds", str(seconds), "--trace", str(trace),
         "--spans", str(out_dir / f"{stem}-spans.jsonl.gz")],
        env,
        DEADLINE_S - (time.monotonic() - t_start),
    )
    metrics = res["metrics"]
    if not trace:
        setups = []
        for _ in range(SETUP_PROBES):
            t0 = time.monotonic()
            ready = _child([*common, "--setup-only"], env, 30.0)["ready"]
            setups.append(ready - t0)
        res["setup_runs_s"] = setups
        metrics["setup_s"] = statistics.median(setups)
        metrics["ok_rate"] = 1.0 - res["failed"] / res["attempted"]
    res["env"]["git_sha"] = git_sha()
    res["workload"], res["seed"], res["seconds"] = workload, seed, seconds
    (out_dir / f"{stem}.json").write_text(json.dumps(res, indent=1))
    return res


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "oscillab" / "cli.py").is_file():
        print(f"error: no oscillab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = {k: v for k, v in os.environ.items() if k != "OSCILLAB_OUT_DIR"}
    env.update({k: str(nproc) for k in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"

    units = dict(LAYER_METRICS if args.trace else END_TO_END)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads:
        try:
            res = run_workload(w, args.seed, args.seconds, args.trace, env)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
            print(f"error: workload {w}: {exc}", file=sys.stderr)
            return 1
        for p in res["problems"]:
            print(f"# {w} FAILED op {p['op']}: {'; '.join(p['problems'])}", file=sys.stderr)
        print(f"# {w} env {json.dumps(res['env'], sort_keys=True)}")
        for name, unit in units.items():
            print(f"{w:12s} {name:40s} {res['metrics'][name]:>14.6g} {unit}")
        if args.trace:
            share = ", ".join(f"{k} {v:.1%}" for k, v in res["module_self_share"].items())
            print(f"# {w} self-time share by module: {share}")
        summary["correct"] &= res["failed"] == 0
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        prefix = f"{w}." if len(workloads) > 1 else ""
        for name, unit in units.items():
            summary["metrics"][prefix + name] = {"value": res["metrics"][name], "unit": unit}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
