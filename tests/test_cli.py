"""Sweep specs, map grammar, CSV output, determinism, CLI errors."""

import csv
import io
import math
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oscillab
from oscillab.cli import (
    MAP_BUILDERS,
    SweepSpec,
    _parser,
    _resolve_function,
    _spec,
    default_radii,
    fits_summary,
    main,
    parse_map,
    run_sweep,
    write_csv,
)
from oscillab.domain import Box, Grid
from oscillab.errors import SpecError


def test_parse_map_zoo():
    assert parse_map("identity").K == 2.0
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    assert parse_map("shear:lambda=1").K == pytest.approx(2.0 * golden)
    assert parse_map("strain:t=1").K == pytest.approx(2.0 * math.e)
    assert parse_map("rotation:angle=0.5").K == 2.0
    assert parse_map("translation:dx=0.25,dy=0.5").K == 2.0
    twist = parse_map("twist:alpha=2")
    assert twist.K > 2.0


# in-range draws for every key of every MAP_BUILDERS entry
MAP_PARAM_RANGES = {
    "identity": {},
    "shear": {"lambda": st.floats(-6.0, 6.0)},
    "strain": {"t": st.floats(-2.0, 2.0)},
    "twist": {"alpha": st.floats(-6.0, 6.0)},
    "rotation": {"angle": st.floats(-7.0, 7.0)},
    "translation": {"dx": st.floats(-1.0, 1.0), "dy": st.floats(-1.0, 1.0)},
    "stretch": {"factor": st.floats(0.25, 4.0)},
    "flow": {
        "psi": st.sampled_from(["sin", "strain"]),
        "t": st.floats(0.0, 1.0),
        "step": st.floats(0.002, 0.02),
        "amp": st.floats(0.0, 1.0 / (2 * math.pi) ** 2),
    },
}


@pytest.mark.parametrize("name", sorted(MAP_BUILDERS))
@settings(max_examples=25, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_map_table_property(name, data, seed):
    ranges = MAP_PARAM_RANGES[name]
    assert set(ranges) == set(MAP_BUILDERS[name][1])
    kv = {key: data.draw(strategy, label=key) for key, strategy in ranges.items()}
    spec = name + (":" + ",".join(f"{k}={v}" for k, v in kv.items()) if kv else "")
    phi = parse_map(spec)
    assert phi.K >= 2.0
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, (16, 2))
    np.testing.assert_allclose(phi.inverse(phi.forward(x)), x, rtol=0, atol=1e-6)


def test_parse_map_errors():
    with pytest.raises(SpecError):
        parse_map("wormhole")
    with pytest.raises(SpecError):
        parse_map("shear:lambda")
    with pytest.raises(SpecError):
        parse_map("strain:t=abc")


def test_spec_from_file_and_validation(tmp_path):
    path = tmp_path / "spec.txt"
    path.write_text(
        "# demo sweep\n"
        "kind=covering\n"
        "maps=shear:lambda=1;shear:lambda=2\n"
        "grid_n=64\n"
        "periodic=true\n"
        "box_lower=0,0\n"
        "box_side=1\n"
        "seed=7\n"
    )
    spec = SweepSpec.from_file(str(path))
    assert spec.kind == "covering"
    assert spec.maps == ["shear:lambda=1", "shear:lambda=2"]
    assert spec.grid_n == 64 and spec.periodic and spec.seed == 7
    with pytest.raises(SpecError):
        SweepSpec.from_dict({"kind": "nonsense"})


def test_default_radii_ladder():
    g = Grid(Box((-1.0, -1.0), 2.0), 128)
    radii = default_radii(g)
    assert radii[0] == pytest.approx(8 * g.h)
    assert radii[-1] <= g.box.side / 4 + 1e-12
    assert all(b == pytest.approx(2 * a) for a, b in zip(radii, radii[1:]))


def _small_bmo_spec():
    return SweepSpec.from_dict(
        {
            "kind": "bmo-composition",
            "maps": "strain:t=0.5;strain:t=1;strain:t=1.5;strain:t=2",
            "functions": "log",
            "grid_n": "64",
            "stride": "8",
            "seed": "3",
        }
    )


def test_run_sweep_rows_and_fits():
    rows, fits = run_sweep(_small_bmo_spec())
    assert len(rows) == 4
    for row in rows:
        assert row["ratio"] > 1.0
        assert abs(row["K_analytic"] - row["K_estimated"]) < 1e-6
    assert set(fits["log"]) == {"log", "power", "affine", "exp"}


def test_run_sweep_deterministic():
    spec = _small_bmo_spec()
    out1, out2 = io.StringIO(), io.StringIO()
    for out in (out1, out2):
        rows, fits = run_sweep(spec)
        write_csv(rows, out)
        for line in fits_summary(fits):
            out.write(line + "\n")
    assert out1.getvalue() == out2.getvalue()
    assert "# fit log log" in out1.getvalue()


def test_covering_sweep_negative_control():
    # a planted non-measure-preserving map inflates the covering statistic
    spec = SweepSpec.from_dict(
        {
            "kind": "covering",
            "maps": "identity;stretch:factor=3",
            "grid_n": "128",
        }
    )
    rows, _ = run_sweep(spec)
    by_map = {r["map"]: r["statistic"] for r in rows}
    assert by_map["stretch(3)"] > 2.5 * by_map["identity"]


def test_transport_rows_in_numeric_time_order(capsys):
    code = main(
        ["transport", "--grid-n", "32", "--stride", "16", "--dt", "0.1", "--times", "0,5,10,20"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split(",")[0] for ln in lines[1:5]] == ["0", "5", "10", "20"]


@pytest.mark.parametrize("command", ["transport", "perturbed"])
def test_series_ratio_is_relative_to_t0(command, capsys):
    # output times out of order: the base is still the t = 0 profile
    argv = [command, "--grid-n", "32", "--stride", "16", "--dt", "0.1", "--times", "1,0,0.5"]
    assert main(argv) == 0
    rows = {r["t"]: r for r in csv.DictReader(capsys.readouterr().out.splitlines())}
    assert rows["0"]["ratio"] == "1"


@pytest.mark.parametrize(
    "argv, named",
    [
        (["whitney", "--map", "shear:lamda=4", "--ball", "0,0,0.25"], "lamda"),
        (["transport", "--field", "strain:junk"], "junk"),
        (["transport", "--field", "constant:vz=1"], "vz"),
        (["transport", "--radii", "0.05"], "0.05"),
        (["perturbed", "--a", "0.5"], "--a"),
        (["sweep", "--spec", "{tmp}/perturbed.txt"], "a=0.5"),
        # spec-file keys that are no SweepSpec field, and a bad boolean
        (["sweep", "--spec", "{tmp}/field.txt"], "field"),
        (["sweep", "--spec", "{tmp}/u0.txt"], "u0"),
        (["sweep", "--spec", "{tmp}/grid-n.txt"], "grid-n"),
        (["sweep", "--spec", "{tmp}/ture.txt"], "ture"),
    ],
)
def test_user_input_is_not_dropped(argv, named, capsys, tmp_path):
    files = {"perturbed": "kind=perturbed\na=0.5", "field": "kind=transport\nfield=cellular",
             "u0": "kind=transport\nu0=trig", "grid-n": "kind=transport\ngrid-n=32",
             "ture": "kind=covering\nmaps=shear:lambda=1\nperiodic=ture"}
    for name, text in files.items():
        (tmp_path / f"{name}.txt").write_text(text + "\n")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert main(argv + ["--grid-n", "32"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err


def test_function_kwargs_parse_as_numbers():
    g = Grid(Box((-1.0, -1.0), 2.0), 32)
    fn, samples = _resolve_function("log:clamp=1e-3", g)
    np.testing.assert_array_equal(samples.values, fn(g.cell_centers()))
    assert fn(np.zeros((1, 2)))[0] == pytest.approx(math.log(1e-3))
    for f in ("log:clamp=1e-3", "checker:seed=3"):
        assert main(["seminorm", "--f", f, "--grid-n", "32", "--stride", "16"]) == 0


def test_main_seminorm_exit_code(capsys):
    code = main(
        ["seminorm", "--f", "log", "--grid-n", "64", "--stride", "16"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("name,")


def test_main_sweep_writes_file(tmp_path, monkeypatch):
    monkeypatch.setenv("OSCILLAB_OUT_DIR", str(tmp_path))
    code = main(
        [
            "sweep",
            "--kind",
            "bmo-composition",
            "--maps",
            "strain:t=0.5;strain:t=1",
            "--functions",
            "log",
            "--grid-n",
            "64",
            "--stride",
            "16",
            "--out",
            "rows.csv",
        ]
    )
    assert code == 0
    text = (tmp_path / "rows.csv").read_text()
    assert text.startswith("map,params,function")


def test_main_bad_map_is_clean_error(capsys, tmp_path):
    bad_spec = tmp_path / "bad.txt"
    bad_spec.write_text("kind=covering\ngrid_n=abc\n")
    line_box = tmp_path / "line.txt"
    line_box.write_text("kind=covering\nmaps=shear:lambda=1\nbox_lower=0\n")
    far_torus = tmp_path / "far.txt"
    far_torus.write_text("kind=bmo-composition\nperiodic=true\nbox_lower=0,0\nbox_side=1\n"
                         "maps=translation:dx=1e300\nfunctions=checker\ngrid_n=32\n")
    torus = ["--periodic", "--box-lower", "0", "0", "--box-side", "1", "--grid-n", "32"]
    bad_inputs = [
        ["whitney", "--map", "wormhole", "--ball", "0,0,0.2"],
        ["seminorm", "--f", "wormhole", "--grid-n", "32"],
        ["carleson", "--density", "wormhole", "--grid-n", "32"],
        ["seminorm", "--f", "log", "--grid-n", "48"],
        ["seminorm", "--f", "log", "--box-side", "0"],
        # equal K (shear and twist at 2) gives the growth fit a repeated x
        ["sweep", "--kind", "covering", "--grid-n", "32",
         "--maps", "shear:lambda=2;twist:alpha=2;strain:t=0.5;strain:t=1"],
        ["transport", "--field", "cellular:amp=x", "--grid-n", "32"],
        ["transport", "--times", "0,a", "--grid-n", "32"],
        # non-finite map and field keys
        ["carleson", "--grid-n", "32", "--map", "strain:t=nan"],
        ["transport", "--field", "constant:vx=nan", "--grid-n", "32"],
        # a zero or negative time step, a zero covering exponent
        ["sweep", "--grid-n", "32", "--maps", "flow:step=0"],
        ["sweep", "--grid-n", "32", "--maps", "flow:step=-0.01"],
        ["transport", "--dt", "0", "--grid-n", "32"],
        ["perturbed", "--dt", "0", "--grid-n", "32"],
        ["transport", "--dt", "-1", "--grid-n", "32"],
        ["sweep", "--kind", "covering", "--p", "0", "--grid-n", "32", "--maps", "strain:t=1"],
        # --out into a directory that does not exist
        ["sweep", "--grid-n", "32", "--maps", "strain:t=1",
         "--out", str(tmp_path / "no" / "x.csv")],
        ["seminorm", "--f", "log", "--radii", "0.1,x", "--grid-n", "32"],
        ["whitney", "--map", "strain:t=1", "--ball", "0,0", "--grid-n", "32"],
        ["whitney", "--map", "strain:t=1", "--ball", "0,0,0", "--grid-n", "32"],
        # strain is not a map of the torus
        ["whitney", "--periodic", "--map", "strain:t=0.5", "--ball", "0,0,0.25",
         "--grid-n", "32"],
        ["sweep", "--spec", str(bad_spec)],
        ["sweep", "--spec", str(line_box), "--grid-n", "32"],
        ["sweep", "--spec", str(tmp_path / "missing.txt")],
        ["seminorm", "--f", "log", "--grid-n", "32", "--stride", "0"],
        ["seminorm", "--f", "log", "--grid-n", "32", "--p", "0.5"],
        ["seminorm", "--f", "log", "--grid-n", "32", "--a", "2"],
        ["perturbed", "--dt", "0.03", "--times", "0,0.1", "--grid-n", "32"],
        ["perturbed", "--times=-0.1,0.1", "--grid-n", "32"],
        ["transport", "--grid-n", "32", "--times=-0.1,0.1"],
        # output times that are not finite
        ["transport", "--times", "0,inf", "--grid-n", "32"],
        ["perturbed", "--times", "0,inf", "--grid-n", "32"],
        ["transport", "--times", "0,nan", "--grid-n", "32"],
        ["perturbed", "--times", "0,nan", "--grid-n", "32"],
        # an output time that would take more steps than the cap
        ["transport", "--times", "0,1e300", "--grid-n", "32"],
        ["perturbed", "--times", "0,1e300", "--grid-n", "32"],
        # a negative seed, a nan radius, a map whose K overflows
        ["sweep", "--maps", "strain:t=1", "--seed", "-1", "--grid-n", "32"],
        ["seminorm", "--f", "log", "--radii", "0.5,nan", "--grid-n", "32"],
        ["carleson", "--map", "shear:lambda=1e200", "--grid-n", "32"],
        # a flow map of more steps than the cap, a perturbed field that
        # overflows, a composed function that is not finite
        ["sweep", "--maps", "flow:t=1e5,amp=1e-9", "--grid-n", "32"],
        ["perturbed", "--times", "0,400,800", "--dt", "0.5", "--grid-n", "32"],
        ["sweep", "--maps", "translation:dx=1e300", "--grid-n", "32"],
        # a gridded function or density on a torus, mapped too far to find its cell
        ["sweep", "--spec", str(far_torus)],
        ["carleson", "--density", "bmo", *torus, "--map", "translation:dx=1e300"],
        ["carleson", "--density", "bmo", *torus, "--map", "translation:dx=1e17"],
        # a grid too large to allocate, rejected before anything is
        ["seminorm", "--f", "log", "--grid-n", "1048576"],
        # empty ball families: no default radius fits, no center, no room
        ["seminorm", "--f", "log", "--grid-n", "16"],
        ["seminorm", "--f", "log", "--grid-n", "64", "--stride", "1000"],
        ["seminorm", "--f", "log", "--grid-n", "64", "--radii", "0.9"],
        ["carleson", "--grid-n", "16"],
        ["sweep", "--kind", "carleson", "--grid-n", "16", "--maps", "strain:t=1"],
        # builtin function keys: unknown, not an int, not a number
        ["seminorm", "--f", "log:junk=1", "--grid-n", "32"],
        ["seminorm", "--f", "trig:seed=2.7", "--grid-n", "32"],
        ["seminorm", "--f", "log:center=0.1", "--grid-n", "32"],
        # ... or a value the builtin cannot take
        ["seminorm", "--f", "trig:seed=-1", "--grid-n", "32"],
        ["seminorm", "--f", "sawtooth:k=0", "--grid-n", "32"],
        ["seminorm", "--f", "bump:radius=0", "--grid-n", "32"],
        # a constant has no composition ratio; a mapped point leaves the window
        ["sweep", "--maps", "strain:t=1", "--functions", "bump:radius=1e-6",
         "--grid-n", "64", "--stride", "8"],
        ["sweep", "--maps", "strain:t=1.3", "--functions", "checker",
         "--grid-n", "64", "--stride", "8"],
        # options a command does not read, and abbreviated options
        ["seminorm", "--f", "log", "--seed", "3"],
        ["seminorm", "--f", "log", "--out", "x.csv"],
        ["whitney", "--map", "strain:t=1", "--ball", "0,0,0.25", "--stride", "8"],
        ["whitney", "--map", "strain:t=1", "--ball", "0,0,0.25", "--radii", "0.1"],
        ["whitney", "--map", "strain:t=1", "--ball", "0,0,0.25", "--seed", "3"],
        ["carleson", "--p", "2"],
        ["carleson", "--a", "0.5"],
        ["carleson", "--seed", "3"],
        ["carleson", "--out", "c.txt"],
        ["transport", "--seed", "3"],
        ["perturbed", "--seed", "3"],
        ["perturbed", "--periodic"],
        ["perturbed", "--a", "0"],
        ["seminorm", "--f", "log", "--rad", "0.25"],
        ["seminorm", "--f", "log", "--str", "8"],
        ["sweep", "--func", "log"],
        # argparse usage errors: a bad value, a missing option, no such command
        ["seminorm", "--f", "log", "--grid-n", "abc"],
        ["seminorm", "--grid-n", "32"],
        ["wormhole"],
        [],
    ]
    for argv in bad_inputs:
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        err = err.splitlines()
        # a failing command prints no partial result
        assert out == "", argv
        assert len(err) == 1 and err[0].startswith("error:"), argv
        assert "np.float64" not in err[0], argv


def test_far_off_pullback_points_are_zero(capsys):
    # strain:t=50 sends most cell centers ~1e21 out of the window, beyond
    # the integer range of interpolate's cell index
    assert main(["carleson", "--density", "spike", "--map", "strain:t=50", "--grid-n", "32"]) == 0
    printed = dict(item.split("=", 1) for item in capsys.readouterr().out.split())
    assert all(math.isfinite(float(printed[key])) for key in ("norm", "sup", "K", "pullback_norm"))


def test_readme_examples_run(tmp_path):
    """Every ``oscillab`` line of README's command-line block, and its spec
    file, runs (at n = 32)."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [line for line in block.splitlines() if line.startswith("oscillab ")]
    assert commands
    spec = tmp_path / "spec.txt"
    spec.write_text(readme.split("### Sweep spec files", 1)[1].split("```", 2)[1])
    for line in commands + [f"oscillab sweep --spec {spec}"]:
        assert main(shlex.split(line)[1:] + ["--grid-n", "32"]) == 0, line


def test_options_override_spec_file_keys(tmp_path, capsys):
    (tmp_path / "covering.txt").write_text(
        "kind=covering\nmaps=shear:lambda=1\ngrid_n=64\nstride=8\n")
    (tmp_path / "carleson.txt").write_text(
        "kind=carleson\nmaps=strain:t=0.5;strain:t=1\ngrid_n=32\nstride=8\n")
    outputs = []
    for argv in (["--spec", f"{tmp_path}/covering.txt", "--grid-n", "32", "--kind", "carleson",
                  "--maps", "strain:t=0.5;strain:t=1"],
                 ["--spec", f"{tmp_path}/carleson.txt"]):
        assert main(["sweep", *argv]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[0].out.startswith("map,params,K_analytic,norm_in")


# per SweepSpec field: the field, a command line that sets it, its spec-file text
SPEC_INPUTS = [
    ("kind", "sweep --kind carleson", "carleson"),
    ("maps", "sweep --maps strain:t=1;shear:lambda=2", "strain:t=1;shear:lambda=2"),
    ("functions", "sweep --functions log;trig:seed=3", "log;trig:seed=3"),
    ("functions", "transport --u0 trig:seed=3", "trig:seed=3"),
    ("grid_n", "sweep --grid-n 32", "32"),
    ("box_lower", "transport --box-lower 0 0.5", "0,0.5"),
    ("box_side", "transport --box-side 1", "1"),
    ("periodic", "transport --periodic", "true"),
    ("stride", "sweep --stride 8", "8"),
    ("radii", "transport --radii 0.25,0.5", "0.25,0.5"),
    ("p", "sweep --p 2", "2"),
    ("a", "sweep --a 0.5", "0.5"),
    ("density", "carleson --density top", "top"),
    ("field_name", "transport --field constant:vx=2", "constant:vx=2"),
    ("times", "transport --times 0,1,3", "0,1,3"),
    ("dt", "transport --dt 0.05", "0.05"),
    ("seed", "sweep --seed 3", "3"),
    ("out", "sweep --out x.csv", "x.csv"),
]


@pytest.mark.parametrize("key, command, text", SPEC_INPUTS)
def test_option_and_spec_key_give_equal_specs(key, command, text, tmp_path):
    assert {row[0] for row in SPEC_INPUTS} == {f.name for f in fields(SweepSpec)}
    from_option = _spec(_parser().parse_args(shlex.split(command)))
    path = tmp_path / "spec.txt"
    path.write_text(f"kind={from_option.kind}\n{key}={text}\n")
    assert from_option == SweepSpec.from_file(str(path))
    assert getattr(from_option, key) != getattr(SweepSpec(), key)


def test_cli_import_leaves_scipy_submodules_unloaded():
    # each scipy submodule is imported by the function that uses it, so a
    # command pays only for what it runs
    code = (
        "import sys, oscillab.cli; print(' '.join(m for m in ('scipy.optimize', "
        "'scipy.sparse', 'scipy.spatial', 'scipy.ndimage') if m in sys.modules))"
    )
    src = str(Path(oscillab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == ""
