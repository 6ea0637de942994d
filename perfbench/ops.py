"""Seeded op lists for the benchmark workloads, how to run one op, and the
checks its output must pass.

An op is one CLI call (``oscillab.cli.main`` in-process, stdout captured)
or one library call sequence. The op list of a workload is a pure function
of the seed: map parameters, the trig seed, field amplitudes and output
times are drawn from continuous ranges, never filtered or rounded to dodge
a known defect.

``oscillab`` is imported inside the functions that run ops: ``run.py``
imports this module without the package on its path.
"""

from __future__ import annotations

import ast
import contextlib
import csv
import io
import math
import sys
import traceback
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("composition", "covering", "transport")

# Outputs at this seed are compared against perfbench/reference.json.
REFERENCE_SEED = 0
# Relative tolerance of that comparison (absolute floor ATOL for values near
# 0). Fit lines print 6 significant digits, so one unit in the last digit
# is up to 1e-5 of the value.
RTOL = 1e-6
FIT_RTOL = 1e-5
ATOL = 1e-12
# K_estimated is a finite-difference lower bound of K_analytic; this much
# relative excess is rounding, anything more is a wrong result.
K_FD_RTOL = 1e-6


@dataclass(frozen=True)
class Op:
    """One step of a workload.

    ``kind`` is "cli" (``args`` is the argv of ``oscillab.cli.main``) or
    "torus-cover" (``args`` is the strain time t of the torus shear and the
    grid size).
    ``keys`` are the CSV columns that identify a row; ``check`` names the
    invariant the rows must satisfy.
    """

    name: str
    kind: str
    args: tuple
    keys: tuple
    check: str = ""


def _draw_maps(rng, per_family: int) -> list:
    """Cycle strain / shear / twist; the k-th map of a family is drawn from
    the k-th of ``per_family`` equal slices of its continuous range, so every
    seed spans the range and the cost of a pass varies little between seeds."""
    ranges = (("strain:t", 0.25, 2.0), ("shear:lambda", 0.5, 6.0), ("twist:alpha", 0.5, 6.0))
    out = []
    for k in range(3 * per_family):
        key, lo, hi = ranges[k % 3]
        width = (hi - lo) / per_family
        out.append(f"{key}={lo + width * (k // 3 + rng.random()):.6f}")
    return out


def build_ops(workload: str, seed: int, grid_n: int = 256) -> list:
    """The op list of one workload pass; depends on nothing but its arguments."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    n = str(grid_n)
    if workload == "composition":
        maps = ";".join(_draw_maps(rng, 2))
        trig = int(rng.integers(0, 1_000_000))
        sweep = ("sweep", "--maps", maps, "--grid-n", n, "--stride", "8", "--seed", str(seed))
        return [
            Op("bmo-log", "cli", sweep + ("--kind", "bmo-composition", "--functions", "log"),
               ("params", "function"), "composition"),
            Op("bmo-holder", "cli", sweep + ("--kind", "bmo-composition", "--functions", "holder"),
               ("params", "function"), "composition"),
            Op("carleson-strip", "cli", sweep + ("--kind", "carleson"), ("params",)),
            Op("seminorm-2n", "cli",
               ("seminorm", "--f", f"trig:seed={trig}", "--grid-n", str(2 * grid_n), "--stride", "16"),
               ("name",)),
        ]
    if workload == "covering":
        maps = ";".join(_draw_maps(rng, 2))
        # the cover's ball count, and so its cost, grows with t: a narrow
        # range keeps the pass time steady between seeds
        t = rng.uniform(1.5, 2.0)
        return [
            Op("covering-window", "cli",
               ("sweep", "--kind", "covering", "--maps", maps, "--grid-n", n, "--seed", str(seed)),
               ("params",), "covering"),
            Op("cover-torus", "torus-cover", (f"{t:.6f}", n), ("map",), "cover"),
        ]
    if workload == "transport":
        lip = rng.uniform(0.5, 2.0)
        amp = lip / (2.0 * math.pi) ** 2
        trig = int(rng.integers(0, 1_000_000))
        # 100 Strang steps on every seed; only the output times are drawn
        dt, steps = 0.02, 100
        inner = sorted(int(k) for k in rng.choice(np.arange(1, steps), size=3, replace=False))
        strang_times = ",".join(f"{k * dt:.10g}" for k in [0, *inner, steps])
        plain_times = ",".join(["0"] + [f"{t:.4f}" for t in np.sort(rng.uniform(0.05, 2.5, 4))])
        return [
            Op("perturbed-cellular", "cli",
               ("perturbed", "--field", f"cellular:amp={amp:.8g}", "--u0", f"trig:seed={trig}",
                "--grid-n", n, "--stride", "16", "--box-lower", "0", "0", "--box-side", "1",
                "--dt", f"{dt:g}", "--times", strang_times),
               ("t",), "transport"),
            Op("transport-strain", "cli",
               ("transport", "--field", "strain", "--u0", "log", "--grid-n", n,
                "--stride", "16", "--times", plain_times),
               ("t",), "transport"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _sawtooth(y):
    u = np.mod(y, 1.0)
    return np.minimum(u, 1.0 - u)


def _torus_cover(t: str, n: str) -> int:
    """Certified Whitney cover on the unit torus: the sequence of acceptance
    criterion 02 (shear with a sawtooth profile, K = 2 e^t), plus the
    literal invariant checks of criterion 05."""
    from oscillab.cli import write_csv
    from oscillab.domain import Ball, Box, Grid
    from oscillab.maps import make_shear
    from oscillab.whitney import (
        check_cover_invariants,
        covering_statistic,
        image_mask,
        whitney_decompose,
    )

    t = float(t)
    grid = Grid(Box((0.0, 0.0), 1.0, periodic=True), int(n))
    ball = Ball((0.5, 0.5), 0.125)
    phi = make_shear(math.exp(t) - math.exp(-t), profile=_sawtooth, profile_lip=1.0)
    mask = image_mask(phi, ball, grid)
    cover = whitney_decompose(mask, source_ball=ball, map_name=phi.name)
    row = {"map": phi.name, "K_analytic": phi.K, "balls": len(cover.balls),
           "statistic": covering_statistic(cover, a=0.0, p=1.0)}
    row.update(check_cover_invariants(cover, mask))
    write_csv([row], sys.stdout)
    return 0


def run_op(op: Op) -> tuple:
    """Run one op with stdout and stderr captured; never raises.

    Returns (exit_code, stdout_text, stderr_text). An exception or a
    SystemExit from argparse becomes a nonzero exit code.
    """
    from oscillab import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if op.kind == "cli":
                code = cli.main(list(op.args))
            else:
                code = _torus_cover(*op.args)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an op that raises is a failed op, not a failed run
            traceback.print_exc(file=err)
            code = 1
    return code, out.getvalue(), err.getvalue()


def parse_output(text: str, keys: tuple) -> dict:
    """Rows of a CSV output (plus its ``# fit`` lines), keyed by identity.

    Data rows are keyed by the values of ``keys`` joined with "|"; fit lines
    become rows keyed "fit|<experiment>|<model>". Values stay text.
    """
    lines = text.splitlines()
    data = [ln for ln in lines if ln and not ln.startswith("#")]
    rows = {}
    if len(data) >= 2:
        for rec in csv.DictReader(data):
            rows["|".join(rec[k] for k in keys)] = {k: v for k, v in rec.items() if k not in keys}
    for ln in lines:
        if not ln.startswith("# fit "):
            continue
        parts = ln[len("# fit "):].split(" ", 1)
        body = parts[1] if len(parts) > 1 else ""
        if body.startswith("{"):
            flat = {}
            for model, vals in ast.literal_eval(body).items():
                for k, v in vals.items():
                    flat[f"{model}.{k}"] = repr(v)
            rows[f"fit|{parts[0]}"] = flat
        else:
            model, *fields = body.split(" ")
            rec = {}
            for f in fields:
                k, _, v = f.partition("=")
                for i, c in enumerate(v.split(",")):
                    rec[f"{k}{i}" if k == "coeffs" else k] = c
            rows[f"fit|{parts[0]}|{model}"] = rec
    return rows


def _num(v):
    try:
        return float(v)
    except ValueError:
        return None


def _close(a: str, b: str, rtol: float) -> bool:
    x, y = _num(a), _num(b)
    if x is None or y is None:
        return a == b
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    if math.isinf(x) or math.isinf(y):
        return x == y
    return abs(x - y) <= rtol * max(abs(x), abs(y)) + ATOL


def check_output(op: Op, code: int, text: str, reference: dict | None) -> list:
    """Problems with one op's result; an empty list means the op passed.

    ``reference`` maps row key -> {column: text}; only columns present in
    both are compared, so a dropped constant column or a new row order is
    not a wrong result.
    """
    if code != 0:
        return [f"exit code {code}"]
    rows = parse_output(text, op.keys)
    data = {k: r for k, r in rows.items() if not k.startswith("fit|")}
    if not data:
        return ["no data rows"]
    problems = []
    for key, row in data.items():
        for col, v in row.items():
            x = _num(v)
            if x is not None and not math.isfinite(x):
                problems.append(f"{key}: {col}={v} is not finite")
    problems += _invariants(op.check, data)
    if reference is not None:
        for key, ref in reference.items():
            got = rows.get(key)
            if got is None:
                problems.append(f"{key}: row missing")
                continue
            rtol = FIT_RTOL if key.startswith("fit|") else RTOL
            for col, v in ref.items():
                if col in got and not _close(got[col], v, rtol):
                    problems.append(f"{key}: {col}={got[col]} differs from reference {v}")
    return problems


def _invariants(check: str, data: dict) -> list:
    bad = []
    for key, row in data.items():
        if check == "composition":
            k_est, k_an = float(row["K_estimated"]), float(row["K_analytic"])
            if k_est > k_an * (1.0 + K_FD_RTOL):
                bad.append(f"{key}: K_estimated {k_est} exceeds K_analytic {k_an}")
        elif check in ("covering", "cover"):
            if float(row["uncovered_fraction"]) != 0.0:
                bad.append(f"{key}: uncovered_fraction {row['uncovered_fraction']}")
        if check == "cover":
            if not float(row["min_gap"]) > 0.0:
                bad.append(f"{key}: min_gap {row['min_gap']} not positive")
            if int(row["containment_violations"]) != 0:
                bad.append(f"{key}: {row['containment_violations']} containment violations")
    if check == "transport":
        start = [row for key, row in data.items() if float(key) == 0.0]
        if len(start) != 1 or abs(float(start[0]["ratio"]) - 1.0) > 1e-12:
            bad.append("ratio at t = 0 is not 1")
    return bad
