"""Experiment orchestration: map grammar, sweeps, fits, CSV output, CLI.

Maps, vector fields, builtin functions and densities share one grammar,
``name:key=value,key=value`` — e.g. ``shear:lambda=4``, ``strain:t=2``,
``flow:psi=sin,t=1,step=0.01``, ``cellular:amp=0.02,k=2``, ``log:clamp=1e-3`` —
and one table shape, ``name -> (builder, {key: default})``, resolved by
``_build``. An unknown name or key, or a value that does not parse as its
key's type, is a user error.

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
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import carleson as carl
from . import corpus, maps
from .domain import Ball, Box, Grid, GridFunction, Sup, ball_family
from .errors import BadParameter, OscillabError, SpecError, ZeroSeminorm
from .fits import FitResult, fit_models
from .oscillation import OscillationParams, compose, seminorm
from .transport import perturbed_growth_comparison, solve_perturbed, solve_transport
from .whitney import covering_statistic, image_mask, shell_histogram, whitney_decompose


def _cast(text: str, like, what: str):
    """``text`` converted to ``like`` if it is a type, else to the type of
    ``like``; SpecError if it does not parse."""
    try:
        return (like if isinstance(like, type) else type(like))(text)
    except ValueError:
        raise SpecError(f"bad value {text!r} for {what}") from None


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


# name -> (builder, {key: default}), the shape of corpus.FUNCTIONS and
# corpus.DENSITIES; the builder takes the values in key order.
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


def _given(text: str, kv: dict, keys: dict, what: str) -> dict:
    """The values in ``kv``, each cast to the type of ``keys[key]`` (a default
    or a type); SpecError for a key not in ``keys`` or a nan or inf value."""
    unknown = sorted(set(kv) - set(keys))
    if unknown:
        raise SpecError(f"unknown {what} parameter {', '.join(unknown)} in {text!r}")
    given = {key: _cast(v, keys[key], f"{key} in {text!r}") for key, v in kv.items()}
    for key, value in given.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise SpecError(f"{what} parameter {key} in {text!r} must be finite")
    return given


def _build(table: dict, what: str, text: str, *head):
    """``builder(*head, *values)`` for the entry of ``table`` that ``text``
    names: each key's value in key order, the given one cast to the type of its
    default, else the default, or None for a key listed by its type. SpecError
    for an unknown name or key, a value that does not parse or is not finite,
    or one the builder cannot take."""
    name, kv = _parse_named(text)
    if name not in table:
        raise SpecError(f"unknown {what} {name!r}")
    builder, defaults = table[name]
    given = _given(text, kv, defaults, what)
    values = [given.get(key, None if isinstance(default, type) else default)
              for key, default in defaults.items()]
    try:
        return builder(*head, *values)
    except (ArithmeticError, ValueError) as exc:
        raise SpecError(f"bad parameters in {what} spec {text!r}: {exc}") from exc


def parse_map(spec: str) -> maps.BiLipMap:
    """Build a zoo map from its grammar string; SpecError if its distortion K
    overflows (``shear:lambda=1e200``)."""
    phi = _build(MAP_BUILDERS, "map", spec)
    if not math.isfinite(phi.K):
        raise SpecError(f"map {spec!r} has distortion K = {phi.K:g}; it must be finite")
    return phi


def _resolve_function(spec: str, grid: Grid) -> GridFunction:
    """The builtin function of ``spec`` on ``grid``; a key value the builtin
    cannot take (``trig:seed=-1``, ``bump:radius=0``) is a SpecError."""
    fn = _build(corpus.FUNCTIONS, "builtin function", spec, grid)
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return fn if isinstance(fn, GridFunction) else GridFunction.from_callable(grid, fn)
    except (ArithmeticError, ValueError) as exc:
        raise SpecError(f"bad parameters in builtin function spec {spec!r}: {exc}") from exc


@dataclass
class SweepSpec:
    """Fully serializable description of one experiment sweep. Its fields are
    the spec-file keys and the command-line options, parsed by ``_parse``."""

    kind: str = ""
    maps: list[str] = field(default_factory=list)
    functions: list[str] = field(default_factory=lambda: ["log"])
    grid_n: int = 128
    box_lower: tuple[float, ...] = (-1.0, -1.0)
    box_side: float = 2.0
    periodic: bool = False
    stride: int = 16
    radii: list[float] = field(default_factory=list)
    p: float = 1.0
    a: float = 0.0
    density: str = "strip"
    field_name: str = "strain"
    times: list[float] = field(default_factory=lambda: [0.0, 0.5, 1.0, 1.5, 2.0])
    dt: float = 0.02
    seed: int = 0
    out: str = "-"

    def validate(self, sweep: bool = True):
        """SpecError naming every bad field; ``sweep=False`` leaves out the
        kind, for a subcommand that runs no sweep."""
        bad = []
        if sweep and self.kind not in RUNNERS:
            bad.append(f"kind={self.kind!r}")
        if self.seed < 0:
            bad.append(f"seed={self.seed} (must be nonnegative)")
        if self.grid_n > 2048:  # a 2048^2 field is 32 MiB; a larger grid is refused unallocated
            bad.append(f"grid_n={self.grid_n} (at most 2048)")
        if not all(0 < r < math.inf for r in self.radii):
            radii = ",".join(f"{r:g}" for r in self.radii)
            bad.append(f"radii={radii} (each must be finite and positive)")
        if len(self.box_lower) != 2:
            bad.append(f"box_lower={self.box_lower} (takes x,y)")
        h = self.box_side / max(self.grid_n, 1)  # Box and Grid reject h <= 0
        if h > 0 and not sys.float_info.min <= h * h < math.inf:
            bad.append(f"box_side={self.box_side:g} (its cell area (box_side/grid_n)^2 "
                       "must be a normal float)")
        elif h > 0 and not (self.box_side / 2) * (self.box_side / 2) < math.inf:
            # the largest ball radius of a family; its square bounds membership
            bad.append(f"box_side={self.box_side:g} (its squared half side (box_side/2)^2 "
                       "must be finite)")
        elif h > 0 and not all(abs(v) / h < 2.0**52 for v in self.box_lower):
            # as in interpolate: there float64 no longer tells one cell from the next
            lower = ",".join(f"{v:g}" for v in self.box_lower)
            bad.append(f"box_lower={lower} (must lie less than 2^52 cells from 0)")
        if self.kind in ("transport", "perturbed") and len(self.functions) != 1:
            bad.append(f"functions={';'.join(self.functions)!r} ({self.kind} takes one)")
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
        return cls.from_dict(_read_spec(path))

    @classmethod
    def from_dict(cls, kv: dict) -> "SweepSpec":
        """The spec whose fields are the text values of ``kv``."""
        spec = cls(**_parse_fields(kv))
        spec.validate()
        return spec


_FIELD_TYPES = get_type_hints(SweepSpec)
_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse(text, hint, what: str):
    """A field value from its text: ``;``-separated names, ``,``-separated
    numbers (or a list of number texts, as ``--box-lower`` gives), a
    boolean, a number or a string; SpecError if it does not parse."""
    if hint is bool:
        if text.lower() not in _BOOLEANS:
            raise SpecError(f"bad value {text!r} for {what}")
        return _BOOLEANS[text.lower()]
    if get_args(hint)[:1] == (str,):
        return [item for item in text.split(";") if item]
    if get_origin(hint) in (list, tuple):
        items = text.split(",") if isinstance(text, str) else text
        return get_origin(hint)(_cast(item, float, what) for item in items)
    return _cast(text, hint, what)


def _parse_fields(kv: dict, name=str) -> dict:
    """The text values of ``kv`` parsed by their SweepSpec fields; ``name(key)``
    names a key in an error. A key that is no field is a SpecError."""
    unknown = sorted(set(kv) - set(_FIELD_TYPES))
    if unknown:
        raise SpecError(f"unknown sweep spec key {', '.join(unknown)}")
    return {key: _parse(text, _FIELD_TYPES[key], name(key)) for key, text in kv.items()}


def _read_spec(path: str) -> dict:
    """The ``key=value`` lines of a spec file as {key: text}; ``#`` starts a comment."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise SpecError(f"cannot read spec file {path!r}: {exc.strerror}") from None
    kv = {}
    for line in lines:
        line = line.partition("#")[0].strip()
        if not line:
            continue
        k, eq, v = line.partition("=")
        if not eq:
            raise SpecError(f"bad spec line {line!r}")
        kv[k.strip()] = v.strip()
    return kv


def default_radii(grid: Grid) -> list:
    """Dyadic radius ladder from 8 cells up to a quarter of the box."""
    radii = []
    r = 8 * grid.h
    while r <= grid.box.side / 4 * (1 + 1e-12):
        radii.append(r)
        r *= 2
    return radii


def _growth_fits(points: dict) -> dict:
    """Growth-law fits against K for every point set large enough to fit."""
    return {key: fit_models(pts) for key, pts in sorted(points.items()) if len(pts) >= 4}


def _seminorm(f: GridFunction, params: OscillationParams, family) -> Sup:
    """``seminorm``, with a value that overflows an error."""
    est = seminorm(f, params, family)
    if not math.isfinite(est.value):
        raise BadParameter(f"the oscillation overflows at p {params.p:g}: "
                           "a deviation to the power p exceeds the float range")
    return est


def _run_composition(spec: SweepSpec, grid: Grid):
    family = spec.family(grid)
    params = OscillationParams(p=spec.p, a=spec.a)
    # each map is built and its K estimated once, not once per function
    phis = [parse_map(mspec) for mspec in spec.maps]
    k_ests = [maps.estimate_K(phi, seed=spec.seed, box=grid.box) for phi in phis]
    rows, points = [], {}
    for fname in spec.functions:
        f = _resolve_function(fname, grid)
        s_in = _seminorm(f, params, family).value
        for mspec, phi, k_est in zip(spec.maps, phis, k_ests):
            if s_in <= 0:
                raise ZeroSeminorm("cannot form a composition ratio for a constant")
            ratio = _seminorm(compose(f, phi), params, family).value / s_in
            rows.append({"map": phi.name, "params": mspec, "function": fname,
                         "K_analytic": phi.K, "K_estimated": k_est, "seminorm_in": s_in,
                         "seminorm_out": ratio * s_in, "ratio": ratio})
            points.setdefault(fname, []).append((phi.K, ratio))
    return rows, _growth_fits(points)


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
    return rows, _growth_fits({"covering": pts})


def _run_carleson(spec: SweepSpec, grid: Grid):
    family = spec.family(grid)
    mu = _build(corpus.DENSITIES, "builtin density", spec.density, grid)
    base = carl.carleson_norm(mu, family).value
    rows, pts = [], []
    for mspec in spec.maps:
        phi = parse_map(mspec)
        grown = carl.carleson_norm(carl.pullback(mu, phi), family).value
        y = (grown - base) / mu.sup_norm**2
        rows.append({"map": phi.name, "params": mspec, "K_analytic": phi.K,
                     "norm_in": base, "norm_out": grown, "growth": y})
        pts.append((phi.K, y))
    return rows, _growth_fits({"carleson": pts})


def _run_series(spec: SweepSpec, grid: Grid, solve, fit):
    """Seminorm of the solution at each of ``spec.times``, relative to t = 0.

    ``solve(spec, v, u0)`` returns one GridFunction per output time;
    ``fit(v, pts)`` fits the (t, ratio) points with t > 0.
    """
    v = _build(FIELD_BUILDERS, "vector field", spec.field_name)
    u0 = _resolve_function(spec.functions[0], grid)
    family = spec.family(grid)
    params = OscillationParams(p=spec.p, a=spec.a)
    base = _seminorm(u0, params, family).value
    if base <= 0:
        raise ZeroSeminorm(f"cannot form a growth ratio for the constant initial profile "
                           f"{spec.functions[0]!r}")
    rows, pts = [], []
    for t, u in zip(spec.times, solve(spec, v, u0)):
        # a snapshot equal to u0 (the t = 0 rows) reuses its seminorm
        val = base if np.array_equal(u.values, u0.values) else _seminorm(u, params, family).value
        rows.append({"t": t, "seminorm": val, "ratio": val / base,
                     "l2": float(np.sqrt(np.mean(u.values**2))),
                     "min": float(u.values.min()), "max": float(u.values.max())})
        if t > 0:
            pts.append((t, val / base))
    return rows, ({spec.kind: fit(v, pts)} if len(pts) >= 4 else {})


def _solve_transport(spec: SweepSpec, v, u0) -> list:
    return solve_transport(v, u0, spec.dt, spec.times)


def _solve_perturbed(spec: SweepSpec, v, u0) -> list:
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
    path = os.path.join(os.environ.get("OSCILLAB_OUT_DIR", ""), out)
    try:
        fh = open(path, "w")
    except OSError as exc:
        raise SpecError(f"cannot write {path!r}: {exc.strerror}") from None
    with fh:
        yield fh


def _write_rows(out: str, rows, fit_lines) -> None:
    with _output(out) as stream:
        write_csv(rows, stream)
        for line in fit_lines:
            stream.write(line + "\n")


def _spec(args) -> SweepSpec:
    """The SweepSpec of a subcommand: the keys of the ``sweep --spec`` file (or
    else the subcommand's kind), then the options given, whose dests are fields."""
    kind = "bmo-composition" if args.command == "sweep" else args.command
    kv = _read_spec(args.spec) if getattr(args, "spec", "") else {"kind": kind}
    given = {key: text for key, text in vars(args).items() if key in _FIELD_TYPES}
    options = _parse_fields(given, lambda key: "--" + key.replace("_", "-"))
    spec = SweepSpec(**{**_parse_fields(kv), **options})
    spec.validate(sweep=args.run is _cmd_run)
    return spec


def _cmd_run(args) -> int:
    spec = _spec(args)
    rows, fits = run_sweep(spec)
    nofit = ["# NoFit"] if args.command == "sweep" else []
    _write_rows(spec.out, rows, fits_summary(fits) or nofit)
    return 0


def _cmd_seminorm(args) -> int:
    spec = _spec(args)
    grid = spec.grid()
    f = _resolve_function(args.f, grid)
    est = _seminorm(f, OscillationParams(p=spec.p, a=spec.a), spec.family(grid))
    cx = ";".join(f"{c:.6g}" for c in est.argmax_ball.center)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["name", "p", "a", "seminorm", "argmax_center", "argmax_radius"])
    writer.writerow([args.f, f"{spec.p:g}", f"{spec.a:g}", f"{est.value:.10g}", cx,
                     f"{est.argmax_ball.radius:.6g}"])
    return 0


def _cmd_whitney(args) -> int:
    spec = _spec(args)
    grid = spec.grid()
    phi = parse_map(args.map)
    ball = _parse(args.ball, list[float], "--ball")
    if len(ball) != 3:
        raise SpecError(f"--ball takes cx,cy,r, got {args.ball!r}")
    ball = Ball(tuple(ball[:2]), ball[2])
    mask = image_mask(phi, ball, grid)
    cover = whitney_decompose(mask, source_ball=ball, map_name=phi.name)
    stat = covering_statistic(cover, a=spec.a, p=spec.p)  # before any row is written
    with _output(spec.out) as stream:
        stream.write("k,center_x,center_y,radius,dist_to_complement\n")
        dist = 2.0 * cover.radii / cover.whitney_ratios
        rows = zip(cover.centers.tolist(), cover.radii.tolist(), dist.tolist())
        for k, ((x, y), r, to_complement) in enumerate(rows):
            stream.write(f"{k},{x:.10g},{y:.10g},{r:.10g},{to_complement:.10g}\n")
        stream.write(f"# covering_statistic,{stat:.10g}\n")
        stream.write(f"# uncovered_fraction,{cover.uncovered_fraction:.10g}\n")
    return 0


def _cmd_carleson(args) -> int:
    spec = _spec(args)
    grid = spec.grid()
    mu = _build(corpus.DENSITIES, "builtin density", spec.density, grid)
    family = spec.family(grid)
    norm = carl.carleson_norm(mu, family)
    # printed only once every line is computed, so a failure prints nothing
    lines = [f"density={spec.density} norm={norm.value:.10g} sup={mu.sup_norm:.10g}"]
    if args.map:
        phi = parse_map(args.map)
        grown = carl.carleson_norm(carl.pullback(mu, phi), family)
        lines.append(f"map={phi.name} K={phi.K} pullback_norm={grown.value:.10g}")
    print("\n".join(lines))
    return 0


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are SpecErrors (exit 2, one ``error:`` line)
    and that takes no abbreviation: ``carleson --p 2`` is not ``--periodic 2``.
    It records only the options given, as text."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, argument_default=argparse.SUPPRESS, **kwargs)

    def error(self, message):
        raise SpecError(message)


# an option records its text under the SweepSpec field of its name (the dest
# of --grid-n is grid_n); these options need more add_argument keywords
_OPTIONS = {
    "--box-lower": {"nargs": 2},
    "--periodic": {"action": "store_const", "const": "true"},
    "--field": {"dest": "field_name", "metavar": "FIELD"},
    "--u0": {"dest": "functions", "metavar": "U0"},
}
_BOX = "--grid-n --box-side --box-lower"


def _add(p, names: str) -> None:
    for name in names.split():
        p.add_argument(name, **_OPTIONS.get(name, {}))


@functools.cache
def _parser() -> _Parser:
    """The command line, built once; each subcommand takes exactly the options it reads."""
    parser = _Parser(prog="oscillab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seminorm", help="oscillation seminorm of a builtin function")
    p.add_argument("--f", required=True)
    _add(p, f"{_BOX} --periodic --stride --radii --p --a")
    p.set_defaults(run=_cmd_seminorm)

    p = sub.add_parser("whitney", help="whitney cover of a mapped ball")
    p.add_argument("--map", required=True)
    p.add_argument("--ball", required=True, help="cx,cy,r")
    _add(p, f"{_BOX} --periodic --p --a --out")
    p.set_defaults(run=_cmd_whitney)

    p = sub.add_parser("carleson", help="carleson norm and pull-back")
    _add(p, "--density")
    p.add_argument("--map", default="")
    _add(p, f"{_BOX} --periodic --stride --radii")
    p.set_defaults(run=_cmd_carleson)

    p = sub.add_parser("transport", help="transport growth sweep")
    _add(p, f"--field --u0 --dt --times {_BOX} --stride --radii --out --periodic --p --a")
    p.set_defaults(run=_cmd_run)

    # perturbed always runs on the torus and fits the a = 0 seminorm
    p = sub.add_parser("perturbed", help="riesz-perturbed transport sweep")
    _add(p, f"--field --u0 --dt --times {_BOX} --stride --radii --out --p")
    p.set_defaults(run=_cmd_run, periodic="true", field_name="cellular", functions="trig")

    p = sub.add_parser("sweep", help="run a sweep spec file")
    p.add_argument("--spec", default="")
    _add(p, "--kind --maps --functions --grid-n --stride --p --a --seed --out")
    p.set_defaults(run=_cmd_run)
    return parser


def main(argv=None) -> int:
    """Run one subcommand."""
    try:
        args = _parser().parse_args(argv)
        return args.run(args)
    except OscillabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
