"""Experiment orchestration: map grammar, sweeps, fits, CSV output, CLI.

Map grammar: ``name:key=value,key=value`` — e.g. ``shear:lambda=4``,
``strain:t=2``, ``twist:alpha=4``, ``flow:psi=sin,t=1,step=0.01``,
``rotation:angle=1.5707963``, ``translation:dx=0.25,dy=0``.

Sweep specs are plain-text key=value files; identical spec plus seed
reproduces byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import carleson as carl
from . import corpus, maps
from .domain import Ball, Box, Grid, GridFunction, ball_family
from .errors import OscillabError, SpecError
from .fits import FitResult, fit_models
from .oscillation import OscillationParams, composition_ratio, seminorm
from .transport import (
    TransportProblem,
    perturbed_growth_comparison,
    solve_perturbed,
    solve_transport,
)
from .whitney import covering_statistic, image_mask, shell_histogram, whitney_decompose


def parse_map(spec: str) -> maps.BiLipMap:
    """Build a zoo map from its grammar string."""
    name, _, rest = spec.partition(":")
    kv = {}
    if rest:
        for item in rest.split(","):
            k, _, v = item.partition("=")
            if not _:
                raise SpecError(f"bad map parameter {item!r} in {spec!r}")
            kv[k] = v
    try:
        if name == "identity":
            return maps.make_identity()
        if name == "shear":
            return maps.make_shear(float(kv.get("lambda", 1.0)))
        if name == "strain":
            return maps.make_linear_strain(float(kv.get("t", 1.0)))
        if name == "twist":
            return maps.make_hat_twist(float(kv.get("alpha", 1.0)))
        if name == "rotation":
            return maps.make_rotation(float(kv.get("angle", math.pi / 2)))
        if name == "translation":
            return maps.make_translation(
                (float(kv.get("dx", 0.0)), float(kv.get("dy", 0.0)))
            )
        if name == "stretch":
            return maps.make_stretch(float(kv.get("factor", 2.0)))
        if name == "flow":
            psi = kv.get("psi", "sin")
            if psi == "sin":
                v = maps.cellular_field(float(kv.get("amp", 1.0 / (2 * math.pi) ** 2)))
            elif psi == "strain":
                v = maps.strain_field()
            else:
                raise SpecError(f"unknown stream function {psi!r}")
            return maps.integrate_flow(
                v, float(kv.get("t", 1.0)), float(kv.get("step", 0.01))
            )
    except (TypeError, ValueError) as exc:
        raise SpecError(f"bad parameters in map spec {spec!r}: {exc}") from exc
    raise SpecError(f"unknown map {name!r}")


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

    KINDS = ("bmo-composition", "holder", "covering", "carleson", "transport", "perturbed")

    def validate(self):
        bad = []
        if self.kind not in self.KINDS:
            bad.append(f"kind={self.kind!r}")
        if self.grid_n < 8:
            bad.append(f"grid_n={self.grid_n}")
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
        for key, cast in (
            ("grid_n", int),
            ("stride", int),
            ("seed", int),
            ("p", float),
            ("a", float),
            ("dt", float),
            ("box_side", float),
        ):
            if key in kv:
                setattr(spec, key, cast(kv[key]))
        if "box_lower" in kv:
            spec.box_lower = tuple(float(v) for v in kv["box_lower"].split(","))
        if "periodic" in kv:
            spec.periodic = kv["periodic"].lower() in ("1", "true", "yes")
        if "radii" in kv:
            spec.radii = [float(v) for v in kv["radii"].split(",")]
        if "times" in kv:
            spec.times = [float(v) for v in kv["times"].split(",")]
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


def _resolve_function(name: str, grid: Grid):
    base, _, rest = name.partition(":")
    kv = {}
    if rest:
        for item in rest.split(","):
            k, _, v = item.partition("=")
            try:
                kv[k] = float(v)
            except ValueError:
                kv[k] = v
    return corpus.builtin_function(base, grid, **kv)


def _sample(fn, grid: Grid) -> GridFunction:
    if isinstance(fn, GridFunction):
        return fn
    return GridFunction.from_callable(grid, fn)


def run_sweep(spec: SweepSpec):
    """Execute one sweep; returns (csv_rows, fits) with deterministic order."""
    spec.validate()
    grid = spec.grid()
    rows = []
    fits: dict = {}
    if spec.kind in ("bmo-composition", "holder"):
        family = spec.family(grid)
        params = OscillationParams(p=spec.p, a=spec.a, d=grid.d)
        points_by_fn: dict = {}
        for fname in spec.functions:
            fn = _resolve_function(fname, grid)
            f = _sample(fn, grid)
            s_in = seminorm(f, params, family).value
            for mspec in spec.maps:
                phi = parse_map(mspec)
                composed = None
                if not isinstance(fn, GridFunction):
                    composed = GridFunction.from_callable(
                        grid, lambda x, fn=fn, phi=phi: fn(phi.forward(x))
                    )
                ratio = composition_ratio(f, phi, params, family, composed=composed)
                k_est = maps.estimate_K(phi, seed=spec.seed, box=grid.box)
                rows.append(
                    {
                        "map": phi.name,
                        "params": mspec,
                        "function": fname,
                        "K_analytic": phi.K,
                        "K_estimated": k_est,
                        "seminorm_in": s_in,
                        "seminorm_out": ratio * s_in,
                        "ratio": ratio,
                    }
                )
                points_by_fn.setdefault(fname, []).append((phi.K, ratio))
        for fname, pts in sorted(points_by_fn.items()):
            if len(pts) >= 4:
                fits[fname] = fit_models(pts, eps_max=float(grid.d))
    elif spec.kind == "covering":
        ball = Ball(tuple(grid.box.center), grid.box.side / 8.0)
        pts = []
        for mspec in spec.maps:
            phi = parse_map(mspec)
            mask = image_mask(phi, ball, grid)
            cover = whitney_decompose(mask, source_ball=ball, map_name=phi.name)
            stat = covering_statistic(cover, a=spec.a, p=spec.p)
            hist = shell_histogram(cover, phi.K)
            rows.append(
                {
                    "map": phi.name,
                    "params": mspec,
                    "K_analytic": phi.K,
                    "statistic": stat,
                    "covered_mass_fraction": hist.covered_mass_fraction,
                    "shell_decay_constant": hist.decay_constant,
                    "uncovered_fraction": cover.uncovered_fraction,
                }
            )
            pts.append((phi.K, stat))
        if len(pts) >= 4:
            fits["covering"] = fit_models(pts, eps_max=float(grid.d))
    elif spec.kind == "carleson":
        family = spec.family(grid)
        mu = corpus.builtin_density(spec.density, grid)
        base = carl.carleson_norm(mu, family).value
        pts = []
        for mspec in spec.maps:
            phi = parse_map(mspec)
            grown = carl.carleson_norm(carl.pullback(mu, phi), family).value
            y = (grown - base) / mu.sup_norm**2
            rows.append(
                {
                    "map": phi.name,
                    "params": mspec,
                    "K_analytic": phi.K,
                    "norm_in": base,
                    "norm_out": grown,
                    "growth": y,
                }
            )
            pts.append((phi.K, y))
        if len(pts) >= 4:
            fits["carleson"] = fit_models(pts, eps_max=float(grid.d))
    elif spec.kind == "transport":
        v = _resolve_field(spec.field_name)
        fn = _resolve_function(spec.functions[0], grid)
        prob = TransportProblem(v, fn, grid, max(spec.times), spec.dt)
        family = spec.family(grid)
        params = OscillationParams(p=spec.p, a=spec.a, d=grid.d)
        sols = solve_transport(prob, spec.times)
        base = seminorm(sols[0], params, family).value
        pts = []
        for t, u in zip(spec.times, sols):
            val = seminorm(u, params, family).value
            rows.append(
                {
                    "t": t,
                    "seminorm": val,
                    "ratio": val / base,
                    "l2": float(np.sqrt(np.mean(u.values**2))),
                    "min": float(u.values.min()),
                    "max": float(u.values.max()),
                }
            )
            if t > 0:
                pts.append((t, val / base))
        if len(pts) >= 4:
            fits["transport"] = fit_models(pts, models=("affine", "exp"))
    elif spec.kind == "perturbed":
        v = _resolve_field(spec.field_name)
        fn = _resolve_function(spec.functions[0], grid)
        omega0 = _sample(fn, grid)
        family = spec.family(grid)
        params = OscillationParams(p=spec.p, a=0.0, d=grid.d)
        sols = solve_perturbed(v, omega0, max(spec.times), spec.dt, spec.times)
        base = seminorm(omega0, params, family).value
        runs = []
        for t, w in zip(spec.times, sols):
            val = seminorm(w, params, family).value
            rows.append(
                {
                    "t": t,
                    "seminorm": val,
                    "ratio": val / base,
                    "l2": float(np.sqrt(np.mean(w.values**2))),
                    "min": float(w.values.min()),
                    "max": float(w.values.max()),
                }
            )
            if t > 0:
                runs.append((v.lip, t, val / base))
        if len(runs) >= 4:
            fits["perturbed"] = perturbed_growth_comparison(runs)
    rows.sort(key=lambda r: tuple(r.values()))
    return rows, fits


def _resolve_field(name: str) -> maps.VectorField:
    base, _, rest = name.partition(":")
    kv = dict(item.split("=") for item in rest.split(",") if "=" in item)
    if base == "strain":
        return maps.strain_field()
    if base == "constant":
        return maps.constant_field(
            (float(kv.get("vx", 1.0)), float(kv.get("vy", 0.0)))
        )
    if base == "cellular":
        return maps.cellular_field(
            float(kv.get("amp", 1.0 / (2 * math.pi) ** 2)), int(kv.get("k", 1))
        )
    raise SpecError(f"unknown vector field {name!r}")


def write_csv(rows, stream) -> None:
    if not rows:
        stream.write("empty\n")
        return
    writer = csv.DictWriter(stream, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _fmt(v) for k, v in row.items()})


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.10g}"
    return v


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


def _open_out(out: str):
    if out in ("-", ""):
        return sys.stdout, False
    directory = os.environ.get("OSCILLAB_OUT_DIR", "")
    path = os.path.join(directory, out) if directory else out
    return open(path, "w"), True


def _cmd_sweep(args) -> int:
    if args.spec:
        spec = SweepSpec.from_file(args.spec)
    else:
        kv = {
            "kind": args.kind,
            "maps": args.maps or "",
            "functions": args.functions,
            "grid_n": str(args.grid_n),
            "stride": str(args.stride),
            "a": str(args.a),
            "p": str(args.p),
        }
        if args.seed is not None:
            kv["seed"] = str(args.seed)
        spec = SweepSpec.from_dict(kv)
    if args.seed is not None:
        spec.seed = args.seed
    rows, fits = run_sweep(spec)
    stream, close = _open_out(args.out or spec.out)
    try:
        write_csv(rows, stream)
        for line in fits_summary(fits):
            stream.write(line + "\n")
        if not fits:
            stream.write("# NoFit\n")
    finally:
        if close:
            stream.close()
    return 0


def _cmd_seminorm(args) -> int:
    grid = Grid(Box(tuple(args.box_lower), args.box_side, args.periodic), args.grid_n)
    fn = _resolve_function(args.f, grid)
    f = _sample(fn, grid)
    radii = [float(r) for r in args.radii.split(",")] if args.radii else default_radii(grid)
    family = ball_family(grid, args.stride, radii)
    params = OscillationParams(p=args.p, a=args.a, d=grid.d)
    est = seminorm(f, params, family)
    print("name,p,a,seminorm,argmax_center,argmax_radius")
    cx = ";".join(f"{c:.6g}" for c in est.argmax_ball.center)
    print(f"{args.f},{args.p:g},{args.a:g},{est.value:.10g},{cx},{est.argmax_ball.radius:.6g}")
    return 0


def _cmd_whitney(args) -> int:
    grid = Grid(Box(tuple(args.box_lower), args.box_side, args.periodic), args.grid_n)
    phi = parse_map(args.map)
    cx, cy, r = (float(v) for v in args.ball.split(","))
    ball = Ball((cx, cy), r)
    mask = image_mask(phi, ball, grid)
    cover = whitney_decompose(mask, source_ball=ball, map_name=phi.name)
    stream, close = _open_out(args.out)
    try:
        stream.write("k,center_x,center_y,radius,dist_to_complement\n")
        for k, (b, ratio) in enumerate(zip(cover.balls, cover.whitney_ratios)):
            dist = 2.0 * b.radius / ratio
            stream.write(
                f"{k},{b.center[0]:.10g},{b.center[1]:.10g},{b.radius:.10g},{dist:.10g}\n"
            )
        stat = covering_statistic(cover, a=args.a, p=args.p)
        stream.write(f"# covering_statistic,{stat:.10g}\n")
        stream.write(f"# uncovered_fraction,{cover.uncovered_fraction:.10g}\n")
    finally:
        if close:
            stream.close()
    return 0


def _cmd_carleson(args) -> int:
    grid = Grid(Box(tuple(args.box_lower), args.box_side, args.periodic), args.grid_n)
    mu = corpus.builtin_density(args.density, grid)
    radii = [float(r) for r in args.radii.split(",")] if args.radii else default_radii(grid)
    family = ball_family(grid, args.stride, radii)
    norm = carl.carleson_norm(mu, family)
    print(f"density={args.density} norm={norm.value:.10g} sup={mu.sup_norm:.10g}")
    if args.map:
        phi = parse_map(args.map)
        grown = carl.carleson_norm(carl.pullback(mu, phi), family)
        print(f"map={phi.name} K={phi.K} pullback_norm={grown.value:.10g}")
    return 0


def _cmd_transport(args, perturbed: bool) -> int:
    grid = Grid(Box(tuple(args.box_lower), args.box_side, args.periodic), args.grid_n)
    spec = SweepSpec(
        kind="perturbed" if perturbed else "transport",
        functions=[args.u0],
        grid_n=args.grid_n,
        box_lower=tuple(args.box_lower),
        box_side=args.box_side,
        periodic=args.periodic,
        stride=args.stride,
        a=args.a,
        p=args.p,
        dt=args.dt,
        times=[float(t) for t in args.times.split(",")],
        field_name=args.field,
        seed=args.seed,
    )
    rows, fits = run_sweep(spec)
    stream, close = _open_out(args.out)
    try:
        write_csv(rows, stream)
        for line in fits_summary(fits):
            stream.write(line + "\n")
    finally:
        if close:
            stream.close()
    return 0


def _add_common(p, periodic_default=False):
    p.add_argument("--grid-n", type=int, default=128, dest="grid_n")
    p.add_argument("--stride", type=int, default=16)
    p.add_argument("--box-side", type=float, default=2.0, dest="box_side")
    p.add_argument(
        "--box-lower", type=float, nargs=2, default=[-1.0, -1.0], dest="box_lower"
    )
    p.add_argument("--periodic", action="store_true", default=periodic_default)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--radii", type=str, default="")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default="-")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="oscillab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seminorm", help="oscillation seminorm of a builtin or file")
    p.add_argument("--f", required=True)
    _add_common(p)

    p = sub.add_parser("whitney", help="whitney cover of a mapped ball")
    p.add_argument("--map", required=True)
    p.add_argument("--ball", required=True, help="cx,cy,r")
    _add_common(p)

    p = sub.add_parser("carleson", help="carleson norm and pull-back")
    p.add_argument("--density", default="strip")
    p.add_argument("--map", default="")
    _add_common(p)

    p = sub.add_parser("transport", help="transport growth sweep")
    p.add_argument("--field", default="strain")
    p.add_argument("--u0", default="log")
    p.add_argument("--dt", type=float, default=0.02)
    p.add_argument("--times", default="0,0.5,1,1.5,2")
    _add_common(p)

    p = sub.add_parser("perturbed", help="riesz-perturbed transport sweep")
    p.add_argument("--field", default="cellular")
    p.add_argument("--u0", default="trig")
    p.add_argument("--dt", type=float, default=0.02)
    p.add_argument("--times", default="0,0.5,1,1.5,2")
    _add_common(p, periodic_default=True)

    p = sub.add_parser("sweep", help="run a sweep spec file")
    p.add_argument("--spec", default="")
    p.add_argument("--kind", default="bmo-composition")
    p.add_argument("--maps", default="")
    p.add_argument("--functions", default="log")
    p.add_argument("--grid-n", type=int, default=128, dest="grid_n")
    p.add_argument("--stride", type=int, default=16)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=str, default="")

    args = parser.parse_args(argv)
    try:
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "seminorm":
            return _cmd_seminorm(args)
        if args.command == "whitney":
            return _cmd_whitney(args)
        if args.command == "carleson":
            return _cmd_carleson(args)
        if args.command == "transport":
            return _cmd_transport(args, perturbed=False)
        if args.command == "perturbed":
            return _cmd_transport(args, perturbed=True)
    except OscillabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
