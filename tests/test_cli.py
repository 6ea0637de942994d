"""Sweep specs, map grammar, CSV output, determinism, CLI errors."""

import io
import math

import numpy as np
import pytest

from oscillab.cli import (
    SweepSpec,
    _resolve_function,
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


def test_function_kwargs_parse_as_numbers():
    g = Grid(Box((-1.0, -1.0), 2.0), 32)
    fn = _resolve_function("log:clamp=1e-3", g)
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


def test_main_bad_map_is_clean_error(capsys):
    bad_inputs = [
        ["whitney", "--map", "wormhole", "--ball", "0,0,0.2"],
        ["seminorm", "--f", "wormhole", "--grid-n", "32"],
        ["carleson", "--density", "wormhole", "--grid-n", "32"],
        ["seminorm", "--f", "log", "--grid-n", "48"],
        ["seminorm", "--f", "log", "--box-side", "0"],
        # equal K (shear and twist at 2) gives the growth fit a repeated x
        ["sweep", "--kind", "covering", "--grid-n", "32",
         "--maps", "shear:lambda=2;twist:alpha=2;strain:t=0.5;strain:t=1"],
    ]
    for argv in bad_inputs:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), argv
