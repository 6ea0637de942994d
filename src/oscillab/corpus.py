"""Builtin test functions and densities used by experiments and the CLI.

The function corpus spans the regimes the growth laws address: an unbounded
logarithmic singularity (the canonical bounded-mean-oscillation function),
Hoelder cusps, 1-Lipschitz sawtooths, seeded random trigonometric
polynomials, and smooth bumps. Each builtin is a vectorized callable over
(N, d) point arrays, so it can be sampled directly or composed analytically
with a map.
"""

from __future__ import annotations

import math

import numpy as np

from .domain import Box, Grid, GridFunction
from .errors import UnknownName


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


def trig_poly(seed: int = 0, modes: int = 3):
    """Seeded random trigonometric polynomial on the unit torus."""
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


# builtin function name -> (builder taking the grid and the given keys,
# {key: type}); an omitted key takes its default, some of which depend on the
# grid: the log clamp is two grid spacings and every center is the box center
FUNCTIONS = {
    "log": (lambda grid, clamp=None: log_singularity(
        _center(grid), 2.0 * grid.h if clamp is None else clamp, _torus(grid)), {"clamp": float}),
    "holder": (lambda grid, a=0.5: holder_cusp(a, _center(grid), _torus(grid)), {"a": float}),
    "sawtooth": (lambda grid, k=1: sawtooth(k), {"k": int}),
    "trig": (lambda grid, seed=0, modes=3: trig_poly(seed, modes), {"seed": int, "modes": int}),
    "bump": (lambda grid, radius=None: smooth_bump(
        _center(grid), grid.box.side / 4.0 if radius is None else radius, _torus(grid)),
        {"radius": float}),
    "checker": (lambda grid, seed=None: checkerboard(grid, seed), {"seed": int}),
}


def builtin_function(name: str, grid: Grid, **given):
    """The corpus function ``name`` on ``grid``, with the keys in ``given``.

    Returns a vectorized callable (or a GridFunction for cell-aligned
    builtins).
    """
    if name not in FUNCTIONS:
        raise UnknownName(f"unknown builtin function {name!r}")
    return FUNCTIONS[name][0](grid, **given)


def strip_density_beta(center_x: float = 0.0):
    """beta(t, x) = 1 on the vertical strip |x1 - c| <= t.

    The box mass over a ball scales with the ball volume, so the density is
    Carleson with sup norm 1; pulling back by a strain that widens the strip
    grows the norm affinely in the log of the distortion.
    """

    def beta(t, pts):
        return (np.abs(pts[:, 0] - center_x) <= t).astype(float)

    return beta


def builtin_density(name: str, grid: Grid):
    """Resolve a builtin density by name.

    'strip'  : unit density on a widening vertical strip (sup-controlled);
    'top'    : unit density on the top dyadic shell only (norm log 2);
    'spike'  : a single cell on the lowest shell (not sup-controlled);
    'bmo'    : approximate-identity density of the log singularity (periodic).
    """
    from .carleson import (
        CarlesonDensity,
        bmo_to_carleson,
        default_shell_count,
        density_from_callable,
    )

    T = grid.box.side / 2.0
    shells = default_shell_count(grid)
    if name == "strip":
        beta = strip_density_beta(float(grid.box.center[0]))
        return density_from_callable(grid, T, beta)
    if name == "top":
        vals = np.zeros((shells, grid.size))
        vals[0] = 1.0
        return CarlesonDensity(grid, T, vals)
    if name == "spike":
        vals = np.zeros((shells, grid.size))
        vals[-1, grid.size // 2] = 1.0
        return CarlesonDensity(grid, T, vals)
    if name == "bmo":
        g = GridFunction.from_callable(grid, builtin_function("log", grid))
        return bmo_to_carleson(g)
    raise UnknownName(f"unknown builtin density {name!r}")
