"""Builtin test functions and densities used by experiments and the CLI.

The function corpus spans the regimes the growth laws address: an unbounded
logarithmic singularity (the canonical bounded-mean-oscillation function),
Hoelder cusps, 1-Lipschitz sawtooths, seeded random trigonometric
polynomials, and smooth bumps. Each builtin is a vectorized callable over
(N, d) point arrays, so it can be sampled directly or composed analytically
with a map. ``FUNCTIONS`` and ``DENSITIES`` are the tables the command line
resolves names in.
"""

from __future__ import annotations

import math

import numpy as np

from .carleson import CarlesonDensity, bmo_to_carleson, default_shell_count, density_from_callable
from .domain import Box, Grid, GridFunction
from .errors import BadParameter


def _dist_to(pts: np.ndarray, center, box: Box | None = None) -> np.ndarray:
    disp = pts - np.asarray(center, dtype=float)
    if box is not None:
        disp = box.wrap_displacement(disp)
    return np.sqrt(np.einsum("ij,ij->i", disp, disp))


def log_singularity(center=(0.0, 0.0), clamp: float = 1e-3, box: Box | None = None):
    """log |x - c|, clamped at radius ``clamp`` so samples stay finite.

    The clamp replaces a puncture of the singular cell neighborhood; choose
    it about two grid spacings so that balls of admissible radius are
    insensitive to it.
    """

    def fn(pts):
        return np.log(np.maximum(_dist_to(pts, center, box), clamp))

    return fn


def holder_cusp(a: float, center=(0.0, 0.0), box: Box | None = None):
    """|x - c|^a: the canonical function with finite (p, a) oscillation."""

    def fn(pts):
        return _dist_to(pts, center, box) ** a

    return fn


def sawtooth(k: int = 1):
    """1-Lipschitz periodic triangle wave in x with k teeth per unit length."""

    def fn(pts):
        u = np.mod(pts[:, 0] * k, 1.0)
        return np.minimum(u, 1.0 - u) / k

    return fn


# Most modes of a trig polynomial: sampling it costs one sine pass over the
# grid per mode, and its coefficients take 32 bytes per mode.
_TRIG_MODES_MAX = 1024


def trig_poly(seed: int = 0, modes: int = 3):
    """Seeded random trigonometric polynomial on the unit torus, of at most
    ``_TRIG_MODES_MAX`` modes (BadParameter otherwise; 0 modes is zero)."""
    if not 0 <= modes <= _TRIG_MODES_MAX:
        raise BadParameter(f"trig modes must be in [0, {_TRIG_MODES_MAX}], got {modes}")
    rng = np.random.default_rng(seed)
    ks = rng.integers(1, 4, size=(modes, 2))
    amps = rng.normal(size=modes) / modes
    phases = rng.uniform(0, 2 * math.pi, size=modes)

    def fn(pts):
        out = np.zeros(len(pts))
        for (k1, k2), amp, ph in zip(ks, amps, phases):
            out += amp * np.sin(2 * math.pi * (k1 * pts[:, 0] + k2 * pts[:, 1]) + ph)
        return out

    return fn


def smooth_bump(center=(0.0, 0.0), radius: float = 0.5, box: Box | None = None):
    """Compactly supported smooth bump of unit height."""

    def fn(pts):
        r = _dist_to(pts, center, box) / radius
        out = np.zeros(len(pts))
        inside = r < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - r[inside] ** 2))
        return out

    return fn


def checkerboard(grid: Grid, seed: int | None = None) -> GridFunction:
    """Cell-aligned +-1 pattern; random when seeded, alternating otherwise."""
    n, d = grid.n, grid.d
    if seed is None:
        idx = np.indices((n,) * d).sum(axis=0)
        vals = np.where(idx % 2 == 0, 1.0, -1.0).ravel()
    else:
        rng = np.random.default_rng(seed)
        vals = rng.choice([-1.0, 1.0], size=grid.size)
    return GridFunction(grid, vals)


def _center(grid: Grid) -> tuple:
    return tuple(grid.box.center)


def _torus(grid: Grid) -> Box | None:
    return grid.box if grid.box.periodic else None


# name -> (builder, {key: default}), the shape of ``cli.MAP_BUILDERS``: the
# builder takes the grid, then each key's value in key order. A key whose
# default depends on the grid is listed by its type and reaches the builder as
# None when omitted: the log clamp is two grid spacings and the bump radius a
# quarter of the side. Every center is the box center.
FUNCTIONS = {
    "log": (lambda grid, clamp: log_singularity(
        _center(grid), 2.0 * grid.h if clamp is None else clamp, _torus(grid)), {"clamp": float}),
    "holder": (lambda grid, a: holder_cusp(a, _center(grid), _torus(grid)), {"a": 0.5}),
    "sawtooth": (lambda grid, k: sawtooth(k), {"k": 1}),
    "trig": (lambda grid, seed, modes: trig_poly(seed, modes), {"seed": 0, "modes": 3}),
    "bump": (lambda grid, radius: smooth_bump(
        _center(grid), grid.box.side / 4.0 if radius is None else radius, _torus(grid)),
        {"radius": float}),
    "checker": (checkerboard, {"seed": int}),
}


def strip_density_beta(center_x: float = 0.0):
    """beta(t, x) = 1 on the vertical strip |x1 - c| <= t.

    The box mass over a ball scales with the ball volume, so the density is
    Carleson with sup norm 1; pulling back by a strain that widens the strip
    grows the norm affinely in the log of the distortion.
    """

    def beta(t, pts):
        return (np.abs(pts[:, 0] - center_x) <= t).astype(float)

    return beta


def _unit_cells(grid: Grid, shell: int, cells) -> CarlesonDensity:
    """Density 1 on ``cells`` of one dyadic shell, 0 elsewhere; height half the side."""
    vals = np.zeros((default_shell_count(grid), grid.size))
    vals[shell, cells] = 1.0
    return CarlesonDensity(grid, grid.box.side / 2.0, vals)


def _middle_cell(grid: Grid) -> int:
    """The flat index of cell (n/2, ..., n/2), one nearest the box center
    (the nearest one for odd n)."""
    return int(np.ravel_multi_index((grid.n // 2,) * grid.d, (grid.n,) * grid.d))


# builtin densities, in the shape of FUNCTIONS (they take no key):
# 'strip' : unit density on a widening vertical strip (sup-controlled);
# 'top'   : unit density on the top dyadic shell only, at height T = side/2,
#           which only a ball of radius side/2 reaches; of the families the
#           command line builds only a torus one holds such a ball, so the
#           norm is about log 2 there and 0 on a window;
# 'spike' : a single cell by the box center, on the lowest shell (not
#           sup-controlled);
# 'bmo'   : approximate-identity density of the log singularity (periodic).
DENSITIES = {
    "strip": (lambda grid: density_from_callable(
        grid, grid.box.side / 2.0, strip_density_beta(float(grid.box.center[0]))), {}),
    "top": (lambda grid: _unit_cells(grid, 0, slice(None)), {}),
    "spike": (lambda grid: _unit_cells(grid, -1, _middle_cell(grid)), {}),
    "bmo": (lambda grid: bmo_to_carleson(
        GridFunction.from_callable(grid, FUNCTIONS["log"][0](grid, None))), {}),
}


def builtin_density(name: str, grid: Grid) -> CarlesonDensity:
    """The builtin density ``name`` on ``grid``."""
    return DENSITIES[name][0](grid)
