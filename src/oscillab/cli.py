"""Experiment orchestration: map grammar, sweeps, fits, CSV output, CLI.

Maps, vector fields and builtin functions share one grammar,
``name:key=value,key=value`` — e.g. ``shear:lambda=4``, ``strain:t=2``,
``flow:psi=sin,t=1,step=0.01``, ``cellular:amp=0.02,k=2``, ``log:clamp=1e-3``.
An unknown map, field or function name or key, or a value that does not
parse as its key's type, is a user error.

Sweep specs are plain-text key=value files; identical spec plus seed
reproduces byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import carleson as carl
from . import corpus, maps
from .domain import Ball, Box, Grid, GridFunction, ball_family
from .errors import OscillabError, SpecError, UnknownName, ZeroSeminorm
from .fits import FitResult, fit_models
from .oscillation import OscillationParams, compose, seminorm
from .transport import (
    TransportProblem,
    perturbed_growth_comparison,
    solve_perturbed,
    solve_transport,
)
from .whitney import covering_statistic, image_mask, shell_histogram, whitney_decompose


def _cast(text: str, like, what: str):
    """``text`` converted to ``like`` if it is a type, else to the type of
    ``like``; SpecError if it does not parse."""
    try:
        return (like if isinstance(like, type) else type(like))(text)
    except ValueError:
        raise SpecError(f"bad value {text!r} for {what}") from None


def _floats(text: str, what: str) -> list:
    """Comma-separated numbers, as given on the command line or in a spec file."""
    return [_cast(v, 0.0, what) for v in text.split(",")]


def _parse_named(text: str) -> tuple:
    """Split ``name:key=value,key=value`` into (name, {key: value text})."""
    name, _, rest = text.partition(":")
    kv = {}
    for item in rest.split(",") if rest else ():
        key, eq, value = item.partition("=")
        if not eq:
            raise SpecError(f"bad parameter {item!r} in {text!r}")
        kv[key] = value
    return name, kv


# amplitude giving the cellular field Lipschitz constant 1
_UNIT_AMP = 1.0 / (2 * math.pi) ** 2


def _flow(psi: str, t: float, step: float, amp: float) -> maps.BiLipMap:
    fields = {"sin": lambda: maps.cellular_field(amp), "strain": maps.strain_field}
    if psi not in fields:
        raise SpecError(f"unknown stream function {psi!r}")
    return maps.integrate_flow(fields[psi](), t, step)


# name -> (builder, {key: default}); the builder takes the values in key order
# and each value is cast to the type of its default.
MAP_BUILDERS = {
    "identity": (maps.make_identity, {}),
    "shear": (maps.make_shear, {"lambda": 1.0}),
    "strain": (maps.make_linear_strain, {"t": 1.0}),
    "twist": (maps.make_hat_twist, {"alpha": 1.0}),
    "rotation": (maps.make_rotation, {"angle": math.pi / 2}),
    "translation": (lambda dx, dy: maps.make_translation((dx, dy)), {"dx": 0.0, "dy": 0.0}),
    "stretch": (maps.make_stretch, {"factor": 2.0}),
    "flow": (_flow, {"psi": "sin", "t": 1.0, "step": 0.01, "amp": _UNIT_AMP}),
}

FIELD_BUILDERS = {
    "strain": (maps.strain_field, {}),
    "constant": (lambda vx, vy: maps.constant_field((vx, vy)), {"vx": 1.0, "vy": 0.0}),
    "cellular": (maps.cellular_field, {"amp": _UNIT_AMP, "k": 1}),
}


# builtin function name -> {key: type}; corpus.builtin_function fills in the
# defaults, some of which depend on the grid (the log clamp is 2h)
FUNCTION_KEYS = {
    "log": {"clamp": float},
    "holder": {"a": float},
    "sawtooth": {"k": int},
    "trig": {"seed": int, "modes": int},
    "bump": {"radius": float},
    "checker": {"seed": int},
}


def _given(text: str, kv: dict, keys: dict, what: str) -> dict:
    """The values in ``kv``, each cast to the type of ``keys[key]`` (a default
    or a type); SpecError for a key not in ``keys``."""
    unknown = sorted(set(kv) - set(keys))
    if unknown:
        raise SpecError(f"unknown {what} parameter {', '.join(unknown)} in {text!r}")
    return {key: _cast(v, keys[key], f"{key} in {text!r}") for key, v in kv.items()}


def _build(table: dict, what: str, text: str):
    name, kv = _parse_named(text)
    if name not in table:
        raise SpecError(f"unknown {what} {name!r}")
    builder, defaults = table[name]
    given = _given(text, kv, defaults, what)
    values = [given.get(key, default) for key, default in defaults.items()]
    try:
        return builder(*values)
    except (ArithmeticError, ValueError) as exc:
        raise SpecError(f"bad parameters in {what} spec {text!r}: {exc}") from exc


def parse_map(spec: str) -> maps.BiLipMap:
    """Build a zoo map from its grammar string."""
    return _build(MAP_BUILDERS, "map", spec)


def _resolve_field(spec: str) -> maps.VectorField:
    return _build(FIELD_BUILDERS, "vector field", spec)


def _resolve_function(spec: str, grid: Grid):
    name, kv = _parse_named(spec)
    if name not in FUNCTION_KEYS:
        raise UnknownName(f"unknown builtin function {name!r}")
    return corpus.builtin_function(name, grid, **_given(spec, kv, FUNCTION_KEYS[name], "function"))


@dataclass
class SweepSpec:
    """Fully serializable description of one experiment sweep."""

    kind: str
    maps: list = field(default_factory=list)
    functions: list = field(default_factory=lambda: ["log"])
    grid_n: int = 128
    box_lower: tuple = (-1.0, -1.0)
    box_side: float = 2.0
    periodic: bool = False
    stride: int = 16
    radii: list = field(default_factory=list)
    p: float = 1.0
    a: float = 0.0
    density: str = "strip"
    field_name: str = "strain"
    times: list = field(default_factory=lambda: [0.0, 0.5, 1.0, 1.5, 2.0])
    dt: float = 0.02
    seed: int = 0
    out: str = "-"

    def validate(self):
        bad = []
        if self.kind not in RUNNERS:
            bad.append(f"kind={self.kind!r}")
        if self.grid_n < 8:
            bad.append(f"grid_n={self.grid_n}")
        if self.kind == "perturbed" and self.a != 0:
            # the sharp-prefactor fit models the a = 0 seminorm
            bad.append(f"a={self.a:g} (perturbed needs a=0)")
        if bad:
            raise SpecError("invalid sweep spec: " + ", ".join(bad))

    def grid(self) -> Grid:
        return Grid(Box(self.box_lower, self.box_side, self.periodic), self.grid_n)

    def family(self, grid: Grid):
        radii = self.radii or default_radii(grid)
        return ball_family(grid, self.stride, radii)

    @classmethod
    def from_file(cls, path: str) -> "SweepSpec":
        kv = {}
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                k, _, v = line.partition("=")
                if not _:
                    raise SpecError(f"bad spec line {line!r}")
                kv[k.strip()] = v.strip()
        return cls.from_dict(kv)

    @classmethod
    def from_dict(cls, kv: dict) -> "SweepSpec":
        spec = cls(kind=kv.get("kind", ""))
        if "maps" in kv:
            spec.maps = [m for m in kv["maps"].split(";") if m]
        if "functions" in kv:
            spec.functions = [f for f in kv["functions"].split(";") if f]
        for key in ("grid_n", "stride", "seed", "p", "a", "dt", "box_side"):
            if key in kv:
                setattr(spec, key, _cast(kv[key], getattr(spec, key), key))
        if "box_lower" in kv:
            spec.box_lower = tuple(_floats(kv["box_lower"], "box_lower"))
        if "periodic" in kv:
            spec.periodic = kv["periodic"].lower() in ("1", "true", "yes")
        if "radii" in kv:
            spec.radii = _floats(kv["radii"], "radii")
        if "times" in kv:
            spec.times = _floats(kv["times"], "times")
        for key in ("density", "field_name", "out"):
            if key in kv:
                setattr(spec, key, kv[key])
        spec.validate()
        return spec


def default_radii(grid: Grid) -> list:
    """Dyadic radius ladder from 8 cells up to a quarter of the box."""
    radii = []
    r = 8 * grid.h
    while r <= grid.box.side / 4 + 1e-12:
        radii.append(r)
        r *= 2
    return radii


def _sample(fn, grid: Grid) -> GridFunction:
    if isinstance(fn, GridFunction):
        return fn
    return GridFunction.from_callable(grid, fn)


def _growth_fits(points: dict, grid: Grid) -> dict:
    """Growth-law fits against K for every point set large enough to fit."""
    return {key: fit_models(pts, eps_max=float(grid.d))
            for key, pts in sorted(points.items()) if len(pts) >= 4}


def _run_composition(spec: SweepSpec, grid: Grid):
    family = spec.family(grid)
    params = OscillationParams(p=spec.p, a=spec.a, d=grid.d)
    rows, points = [], {}
    for fname in spec.functions:
        fn = _resolve_function(fname, grid)
        f = _sample(fn, grid)
        s_in = seminorm(f, params, family).value
        for mspec in spec.maps:
            phi = parse_map(mspec)
            if s_in <= 0:
                raise ZeroSeminorm("cannot form a composition ratio for a constant")
            if isinstance(fn, GridFunction):
                composed = compose(f, phi)
            else:
                composed = GridFunction.from_callable(
                    grid, lambda x, fn=fn, phi=phi: fn(phi.forward(x))
                )
            ratio = seminorm(composed, params, family).value / s_in
            k_est = maps.estimate_K(phi, seed=spec.seed, box=grid.box)
            rows.append({"map": phi.name, "params": mspec, "function": fname,
                         "K_analytic": phi.K, "K_estimated": k_est, "seminorm_in": s_in,
                         "seminorm_out": ratio * s_in, "ratio": ratio})
            points.setdefault(fname, []).append((phi.K, ratio))
    return rows, _growth_fits(points, grid)


def _run_covering(spec: SweepSpec, grid: Grid):
    ball = Ball(tuple(grid.box.center), grid.box.side / 8.0)
    rows, pts = [], []
    for mspec in spec.maps:
        phi = parse_map(mspec)
        mask = image_mask(phi, ball, grid)
        cover = whitney_decompose(mask, source_ball=ball, map_name=phi.name)
        stat = covering_statistic(cover, a=spec.a, p=spec.p)
        hist = shell_histogram(cover, phi.K)
        rows.append({"map": phi.name, "params": mspec, "K_analytic": phi.K, "statistic": stat,
                     "covered_mass_fraction": hist.covered_mass_fraction,
                     "shell_decay_constant": hist.decay_constant,
                     "uncovered_fraction": cover.uncovered_fraction})
        pts.append((phi.K, stat))
    return rows, _growth_fits({"covering": pts}, grid)


def _run_carleson(spec: SweepSpec, grid: Grid):
    family = spec.family(grid)
    mu = corpus.builtin_density(spec.density, grid)
    base = carl.carleson_norm(mu, family).value
    rows, pts = [], []
    for mspec in spec.maps:
        phi = parse_map(mspec)
        grown = carl.carleson_norm(carl.pullback(mu, phi), family).value
        y = (grown - base) / mu.sup_norm**2
        rows.append({"map": phi.name, "params": mspec, "K_analytic": phi.K,
                     "norm_in": base, "norm_out": grown, "growth": y})
        pts.append((phi.K, y))
    return rows, _growth_fits({"carleson": pts}, grid)


def _run_series(spec: SweepSpec, grid: Grid, solve, fit):
    """Seminorm of the solution at each of ``spec.times``, relative to t = 0.

    ``solve(spec, grid, v, fn, u0)`` returns one GridFunction per output
    time; ``fit(v, pts)`` fits the (t, ratio) points with t > 0.
    """
    v = _resolve_field(spec.field_name)
    fn = _resolve_function(spec.functions[0], grid)
    u0 = _sample(fn, grid)
    family = spec.family(grid)
    params = OscillationParams(p=spec.p, a=spec.a, d=grid.d)
    base = seminorm(u0, params, family).value
    rows, pts = [], []
    for t, u in zip(spec.times, solve(spec, grid, v, fn, u0)):
        # a snapshot equal to u0 (the t = 0 rows) reuses its seminorm
        val = base if np.array_equal(u.values, u0.values) else seminorm(u, params, family).value
        rows.append({"t": t, "seminorm": val, "ratio": val / base,
                     "l2": float(np.sqrt(np.mean(u.values**2))),
                     "min": float(u.values.min()), "max": float(u.values.max())})
        if t > 0:
            pts.append((t, val / base))
    return rows, ({spec.kind: fit(v, pts)} if len(pts) >= 4 else {})


def _solve_transport(spec: SweepSpec, grid: Grid, v, fn, u0) -> list:
    return solve_transport(TransportProblem(v, fn, grid, max(spec.times), spec.dt), spec.times)


def _solve_perturbed(spec: SweepSpec, grid: Grid, v, fn, u0) -> list:
    return solve_perturbed(v, u0, max(spec.times), spec.dt, spec.times)


RUNNERS = {
    "bmo-composition": _run_composition,
    "holder": _run_composition,
    "covering": _run_covering,
    "carleson": _run_carleson,
    "transport": functools.partial(
        _run_series, solve=_solve_transport,
        fit=lambda v, pts: fit_models(pts, models=("affine", "exp"))),
    "perturbed": functools.partial(
        _run_series, solve=_solve_perturbed,
        fit=lambda v, pts: perturbed_growth_comparison([(v.lip, t, r) for t, r in pts])),
}


def run_sweep(spec: SweepSpec):
    """Execute one sweep; returns (csv_rows, fits) with deterministic order."""
    spec.validate()
    rows, fits = RUNNERS[spec.kind](spec, spec.grid())
    rows.sort(key=lambda r: tuple(r.values()))
    return rows, fits


def write_csv(rows, stream) -> None:
    if not rows:
        stream.write("empty\n")
        return
    writer = csv.DictWriter(stream, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: f"{v:.10g}" if isinstance(v, float) else v for k, v in row.items()})


def fits_summary(fits: dict) -> list:
    lines = []
    for key in sorted(fits):
        entry = fits[key]
        if isinstance(entry, dict) and all(isinstance(v, FitResult) for v in entry.values()):
            for model in sorted(entry):
                f = entry[model]
                coeffs = ",".join(f"{c:.6g}" for c in f.coeffs)
                lines.append(f"# fit {key} {model} coeffs={coeffs} residual={f.residual:.6g}")
        else:
            lines.append(f"# fit {key} {entry}")
    return lines


@contextlib.contextmanager
def _output(out: str):
    """stdout for "-" or "", else a file (relative to $OSCILLAB_OUT_DIR if set)."""
    if out in ("-", ""):
        yield sys.stdout
        return
    with open(os.path.join(os.environ.get("OSCILLAB_OUT_DIR", ""), out), "w") as fh:
        yield fh


def _write_rows(out: str, rows, fit_lines) -> None:
    with _output(out) as stream:
        write_csv(rows, stream)
        for line in fit_lines:
            stream.write(line + "\n")


def _grid(args) -> Grid:
    return Grid(Box(tuple(args.box_lower), args.box_side, args.periodic), args.grid_n)


def _radii(args) -> list:
    return _floats(args.radii, "--radii") if args.radii else []


def _cmd_sweep(args) -> int:
    if args.spec:
        spec = SweepSpec.from_file(args.spec)
    else:
        spec = SweepSpec.from_dict(
            {"kind": args.kind, "maps": args.maps, "functions": args.functions,
             "grid_n": str(args.grid_n), "stride": str(args.stride),
             "a": str(args.a), "p": str(args.p)}
        )
    if args.seed is not None:
        spec.seed = args.seed
    rows, fits = run_sweep(spec)
    _write_rows(args.out or spec.out, rows, fits_summary(fits) or ["# NoFit"])
    return 0


def _cmd_transport(args) -> int:
    spec = SweepSpec(
        kind=args.command, functions=[args.u0], field_name=args.field,
        times=_floats(args.times, "--times"), dt=args.dt, grid_n=args.grid_n,
        box_lower=tuple(args.box_lower), box_side=args.box_side, periodic=args.periodic,
        stride=args.stride, radii=_radii(args), a=args.a, p=args.p, seed=args.seed,
    )
    rows, fits = run_sweep(spec)
    _write_rows(args.out, rows, fits_summary(fits))
    return 0


def _cmd_seminorm(args) -> int:
    grid = _grid(args)
    f = _sample(_resolve_function(args.f, grid), grid)
    family = ball_family(grid, args.stride, _radii(args) or default_radii(grid))
    est = seminorm(f, OscillationParams(p=args.p, a=args.a, d=grid.d), family)
    print("name,p,a,seminorm,argmax_center,argmax_radius")
    cx = ";".join(f"{c:.6g}" for c in est.argmax_ball.center)
    print(f"{args.f},{args.p:g},{args.a:g},{est.value:.10g},{cx},{est.argmax_ball.radius:.6g}")
    return 0


def _cmd_whitney(args) -> int:
    grid = _grid(args)
    phi = parse_map(args.map)
    ball = _floats(args.ball, "--ball")
    if len(ball) != 3:
        raise SpecError(f"--ball takes cx,cy,r, got {args.ball!r}")
    ball = Ball(tuple(ball[:2]), ball[2])
    mask = image_mask(phi, ball, grid)
    cover = whitney_decompose(mask, source_ball=ball, map_name=phi.name)
    with _output(args.out) as stream:
        stream.write("k,center_x,center_y,radius,dist_to_complement\n")
        for k, (b, ratio) in enumerate(zip(cover.balls, cover.whitney_ratios)):
            dist = 2.0 * b.radius / ratio
            stream.write(
                f"{k},{b.center[0]:.10g},{b.center[1]:.10g},{b.radius:.10g},{dist:.10g}\n"
            )
        stat = covering_statistic(cover, a=args.a, p=args.p)
        stream.write(f"# covering_statistic,{stat:.10g}\n")
        stream.write(f"# uncovered_fraction,{cover.uncovered_fraction:.10g}\n")
    return 0


def _cmd_carleson(args) -> int:
    grid = _grid(args)
    mu = corpus.builtin_density(args.density, grid)
    family = ball_family(grid, args.stride, _radii(args) or default_radii(grid))
    norm = carl.carleson_norm(mu, family)
    print(f"density={args.density} norm={norm.value:.10g} sup={mu.sup_norm:.10g}")
    if args.map:
        phi = parse_map(args.map)
        grown = carl.carleson_norm(carl.pullback(mu, phi), family)
        print(f"map={phi.name} K={phi.K} pullback_norm={grown.value:.10g}")
    return 0


def _add_sizes(p):
    p.add_argument("--grid-n", type=int, default=128, dest="grid_n")
    p.add_argument("--stride", type=int, default=16)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--a", type=float, default=0.0)


def _add_common(p, periodic_default=False):
    _add_sizes(p)
    p.add_argument("--box-side", type=float, default=2.0, dest="box_side")
    p.add_argument("--box-lower", type=float, nargs=2, default=[-1.0, -1.0], dest="box_lower")
    p.add_argument("--periodic", action="store_true", default=periodic_default)
    p.add_argument("--radii", type=str, default="")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default="-")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="oscillab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seminorm", help="oscillation seminorm of a builtin or file")
    p.add_argument("--f", required=True)
    _add_common(p)
    p.set_defaults(run=_cmd_seminorm)

    p = sub.add_parser("whitney", help="whitney cover of a mapped ball")
    p.add_argument("--map", required=True)
    p.add_argument("--ball", required=True, help="cx,cy,r")
    _add_common(p)
    p.set_defaults(run=_cmd_whitney)

    p = sub.add_parser("carleson", help="carleson norm and pull-back")
    p.add_argument("--density", default="strip")
    p.add_argument("--map", default="")
    _add_common(p)
    p.set_defaults(run=_cmd_carleson)

    for name, help_, field_, u0, periodic in (
        ("transport", "transport growth sweep", "strain", "log", False),
        ("perturbed", "riesz-perturbed transport sweep", "cellular", "trig", True),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--field", default=field_)
        p.add_argument("--u0", default=u0)
        p.add_argument("--dt", type=float, default=0.02)
        p.add_argument("--times", default="0,0.5,1,1.5,2")
        _add_common(p, periodic_default=periodic)
        p.set_defaults(run=_cmd_transport)

    p = sub.add_parser("sweep", help="run a sweep spec file")
    p.add_argument("--spec", default="")
    p.add_argument("--kind", default="bmo-composition")
    p.add_argument("--maps", default="")
    p.add_argument("--functions", default="log")
    _add_sizes(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=str, default="")
    p.set_defaults(run=_cmd_sweep)

    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except OscillabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
