"""Tests of the benchmark harness itself (not part of the package suite).

    python3 -m pytest -q perfbench

Grids are smaller than in the benchmark (``grid_n=128``) to keep this fast;
the code paths are the same.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import child
import ops
from spans import LAYER_METRICS, Tracer

SEED = 7


def test_traced_pass_writes_identical_csv():
    for workload in ops.WORKLOADS:
        op_list = ops.build_ops(workload, SEED, grid_n=128)
        _, _, plain = child.run_pass(op_list)
        tracer = Tracer()
        _, _, traced = child.run_pass(op_list, tracer)
        for op, (code, out, err), (tcode, tout, _) in zip(op_list, plain, traced):
            assert code == 0, (workload, op.name, err)
            assert ops.check_output(op, code, out, None) == [], (workload, op.name)
            assert (tcode, tout) == (code, out), (workload, op.name)
        values = tracer.layer_metrics(1.0)
        assert set(values) | {"trace.overhead_s"} == {name for name, _ in LAYER_METRICS}
        assert values["domain.cells_in_ball.calls"] > 0
        assert not tracer.stack and tracer._restore == []


def test_tracer_restores_every_wrapped_function():
    import oscillab.domain as domain
    import oscillab.maps as maps
    import oscillab.whitney as whitney

    before = (domain.cells_in_ball, whitney.cells_in_ball, maps.VectorField.__call__)
    with Tracer():
        assert whitney.cells_in_ball is domain.cells_in_ball is not before[0]
        assert maps.VectorField.__call__ is not before[2]
    assert (domain.cells_in_ball, whitney.cells_in_ball, maps.VectorField.__call__) == before


def test_op_list_is_a_pure_function_of_the_seed():
    code = (
        "import ops; print(repr([ops.build_ops(w, %d) for w in ops.WORKLOADS]))" % SEED
    )
    outs = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=os.path.dirname(ops.__file__),
            env=env, capture_output=True, text=True, check=True,
        )
        outs.add(proc.stdout.strip())
    outs.add(repr([ops.build_ops(w, SEED) for w in ops.WORKLOADS]))
    assert len(outs) == 1
    for w in ops.WORKLOADS:
        assert ops.build_ops(w, SEED) != ops.build_ops(w, SEED + 1)


def test_forced_failures_are_counted_and_do_not_abort(monkeypatch):
    good = ops.Op("good", "cli", ("transport", "--grid-n", "32", "--times", "0,0.1"), ("t",),
                  "transport")
    # a user error (exit 2) and a crash: equal K from shear and twist makes
    # the log fit see a repeated abscissa and raise
    bad_exit = ops.Op("bad-kind", "cli", ("sweep", "--kind", "nope"), ("params",))
    crash = ops.Op("equal-k", "cli", (
        "sweep", "--kind", "bmo-composition", "--grid-n", "32", "--stride", "8",
        "--maps", "shear:lambda=2;twist:alpha=2;strain:t=1;strain:t=0.5"), ("params",))
    monkeypatch.setattr(child, "build_ops", lambda w, s: [bad_exit, crash, good])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert child.main(["--workload", "transport", "--seed", "1", "--seconds", "0"]) == 0
    res = json.loads(out.getvalue().splitlines()[-1])
    assert (res["attempted"], res["failed"]) == (3, 2)
    assert [p["op"] for p in res["problems"]] == ["bad-kind", "equal-k"]
    assert "Traceback" in res["problems"][1]["stderr"]


def test_reference_match_ignores_row_order_and_dropped_columns():
    op = ops.Op("x", "cli", (), ("params",))
    text = "params,K_phi,value\nb,2,1.5\na,2,0.25\n# fit x log coeffs=1.23457,2 residual=0.1\n"
    ref = {"a": {"value": "0.25", "gone": "1"}, "b": {"value": "1.5", "K_phi": "2"},
           "fit|x|log": {"coeffs0": "1.23456", "coeffs1": "2", "residual": "0.1"}}
    assert ops.check_output(op, 0, text, ref) == []
    assert ops.check_output(op, 0, text.replace("0.25", "0.250001"), ref) != []
    assert ops.check_output(op, 0, text.replace("1.23457", "1.23459"), ref) != []
    assert "a: row missing" in ops.check_output(op, 0, "params,value\nb,1.5\n", ref)
    assert ops.check_output(op, 0, "params,value\na,nan\n", None) != []
