"""Geometric primitives: boxes, grids, balls, pixel masks and distance fields.

Everything is cell-centered: the grid samples a function at
``lower + (i + 1/2) h`` per axis, which keeps periodic wrap free of
double-counted nodes and makes lattice translations exact relabelings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadGrid, BadParameter, BadRadius, DegenerateMask, EmptyBall

# volume of the unit ball in d dimensions, d = 1, 2, 3
_UNIT_BALL_VOLUME = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}


def unit_ball_volume(d: int) -> float:
    return _UNIT_BALL_VOLUME[d]


@dataclass(frozen=True)
class Box:
    """Axis-aligned cube window, optionally with opposite faces identified."""

    lower: tuple
    side: float
    periodic: bool = False

    def __post_init__(self):
        low = tuple(float(v) for v in self.lower)
        object.__setattr__(self, "lower", low)
        if not self.side > 0:
            raise BadGrid("box side must be positive")
        if self.d not in (1, 2, 3):
            raise BadGrid("only dimensions 1..3 are supported")

    @property
    def d(self) -> int:
        return len(self.lower)

    @property
    def upper(self) -> tuple:
        return tuple(v + self.side for v in self.lower)

    @property
    def center(self) -> np.ndarray:
        return np.asarray(self.lower) + 0.5 * self.side

    def wrap_displacement(self, disp: np.ndarray) -> np.ndarray:
        """Shortest representative of a displacement on the (possible) torus."""
        if not self.periodic:
            return disp
        return disp - self.side * np.round(disp / self.side)

    def contains(self, x: np.ndarray) -> np.ndarray:
        if self.periodic:
            return np.ones(np.asarray(x).shape[:-1], dtype=bool)
        x = np.asarray(x)
        low = np.asarray(self.lower)
        return np.all((x >= low) & (x <= low + self.side), axis=-1)


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid with n (a power of two) cells per axis."""

    box: Box
    n: int

    def __post_init__(self):
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise BadGrid(f"grid size n={self.n} must be a power of two, at least 8")

    @property
    def d(self) -> int:
        return self.box.d

    @property
    def h(self) -> float:
        return self.box.side / self.n

    @property
    def size(self) -> int:
        return self.n**self.d

    @property
    def cell_volume(self) -> float:
        return self.h**self.d

    def axis_centers(self) -> np.ndarray:
        """Cell-center coordinates along one axis, offset by the axis lower bound."""
        return (np.arange(self.n) + 0.5) * self.h

    def cell_centers(self) -> np.ndarray:
        """All cell centers as an (n^d, d) array, C-ordered over axis indices."""
        axes = [np.asarray(self.box.lower)[k] + self.axis_centers() for k in range(self.d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def flat_index(self, idx: tuple) -> np.ndarray:
        return np.ravel_multi_index(idx, (self.n,) * self.d, mode="wrap")


@dataclass(frozen=True)
class Ball:
    """Euclidean ball; on periodic boxes membership uses the wrapped metric."""

    center: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(v) for v in self.center))
        if not self.radius > 0:
            raise BadParameter(f"ball radius must be positive, got {self.radius:g}")

    @property
    def d(self) -> int:
        return len(self.center)

    @property
    def volume(self) -> float:
        return unit_ball_volume(self.d) * self.radius**self.d


@dataclass(frozen=True)
class GridFunction:
    """Real scalar samples at the cell centers of a grid (flat, C-ordered)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).ravel()
        if vals.size != self.grid.size:
            raise ValueError("value array does not match grid size")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid function values must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_callable(cls, grid: Grid, fn) -> "GridFunction":
        """Sample ``fn`` (vectorized over an (N, d) array) at the cell centers."""
        return cls(grid, np.asarray(fn(grid.cell_centers()), dtype=float))

    @property
    def field(self) -> np.ndarray:
        return self.values.reshape((self.grid.n,) * self.grid.d)

    def __add__(self, other):
        if isinstance(other, GridFunction):
            return GridFunction(self.grid, self.values + other.values)
        return GridFunction(self.grid, self.values + other)

    def __mul__(self, scalar):
        return GridFunction(self.grid, self.values * scalar)

    __rmul__ = __mul__


@dataclass(frozen=True)
class PixelMask:
    """Open set represented by the cells whose centers lie inside it."""

    grid: Grid
    bits: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=bool).ravel()
        if bits.size != self.grid.size:
            raise ValueError("mask does not match grid size")
        object.__setattr__(self, "bits", bits)

    @property
    def count(self) -> int:
        return int(self.bits.sum())

    @property
    def area(self) -> float:
        return self.count * self.grid.cell_volume


@dataclass(frozen=True)
class DistanceField:
    """Distance of each cell center to the mask complement (0 on complement)."""

    grid: Grid
    dist: np.ndarray


def cells_in_ball(grid: Grid, ball: Ball) -> np.ndarray:
    """Flat indices of cells whose centers lie in the ball (wrapped if periodic).

    Restricts the search to the bounding box of the ball, so the cost scales
    with the ball, not the grid.
    """
    n, h, d = grid.n, grid.h, grid.d
    low = np.asarray(grid.box.lower)
    center = np.asarray(ball.center)
    per_axis = []
    for k in range(d):
        i_lo = int(np.floor((center[k] - ball.radius - low[k]) / h - 0.5))
        i_hi = int(np.ceil((center[k] + ball.radius - low[k]) / h - 0.5))
        idx = np.arange(i_lo, i_hi + 1)
        if grid.box.periodic:
            idx = np.unique(idx % n)
        else:
            idx = idx[(idx >= 0) & (idx < n)]
        per_axis.append(idx)
    if any(len(idx) == 0 for idx in per_axis):
        raise EmptyBall(f"ball {ball} misses the grid")
    mesh = np.meshgrid(*per_axis, indexing="ij")
    coords = np.stack(
        [low[k] + (mesh[k] + 0.5) * h for k in range(d)], axis=-1
    ).reshape(-1, d)
    disp = grid.box.wrap_displacement(coords - center)
    inside = np.einsum("ij,ij->i", disp, disp) <= ball.radius**2
    if not inside.any():
        raise EmptyBall(f"no cell center inside ball {ball}")
    flat = grid.flat_index(tuple(m.ravel()[inside] for m in mesh))
    return flat


def ball_average(f: GridFunction, ball: Ball) -> float:
    """Mean of f over the cells whose centers lie in the ball."""
    cells = cells_in_ball(f.grid, ball)
    return float(f.values[cells].mean())


def ball_oscillation(f: GridFunction, ball: Ball, p: float = 1.0) -> float:
    """L^p mean deviation of f from its ball average, over cells in the ball."""
    if p < 1:
        raise ValueError("p must be at least 1")
    cells = cells_in_ball(f.grid, ball)
    vals = f.values[cells]
    dev = np.abs(vals - vals.mean())
    return float(np.mean(dev**p) ** (1.0 / p))


def distance_transform(mask: PixelMask) -> DistanceField:
    """Exact Euclidean distance of each cell center to the mask complement.

    scipy's linear-time transform (Maurer, Qi and Raghavan 2003), exact up to
    the cell-center discretization of the complement (error at most
    h * sqrt(d)); complement cells carry zero. Periodic masks are padded
    by half a period of wrapped cells per side, which holds the shortest
    wrapped displacement (at most n/2 cells per axis) of every central cell.
    """
    from scipy.ndimage import distance_transform_edt

    grid = mask.grid
    if mask.count == 0 or mask.count == grid.size:
        raise DegenerateMask("mask must be neither empty nor full")
    pad = grid.n // 2 if grid.box.periodic else 0
    bits = np.pad(mask.bits.reshape((grid.n,) * grid.d), pad, mode="wrap")
    dist = distance_transform_edt(bits, sampling=grid.h)
    center = (slice(pad, pad + grid.n),) * grid.d
    return DistanceField(grid, dist[center].ravel())


def ball_family(grid: Grid, centers_stride: int, radii) -> list:
    """Deterministic ball family: stride sub-grid of centers times all radii.

    A finite stand-in for the supremum over all balls; refining the stride
    only adds members, so any seminorm computed over it is a lower bound.
    On non-periodic boxes, balls not fully inside the window are dropped.
    """
    if centers_stride < 1:
        raise BadParameter(f"stride must be at least 1, got {centers_stride}")
    h = grid.h
    radii = [float(r) for r in radii]
    for r in radii:
        if r < 4 * h - 1e-12:
            raise BadRadius(f"radius {r} below 4h = {4 * h}")
        if r > grid.box.side / 2 + 1e-12:
            raise BadRadius(f"radius {r} above half the box side")
    low = np.asarray(grid.box.lower)
    idx = np.arange(centers_stride // 2, grid.n, centers_stride)
    axes = [low[k] + (idx + 0.5) * h for k in range(grid.d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([m.ravel() for m in mesh], axis=-1)
    balls = []
    for r in radii:
        for c in centers:
            if not grid.box.periodic:
                if np.any(c - low < r) or np.any(low + grid.box.side - c < r):
                    continue
            balls.append(Ball(tuple(c), r))
    return balls


def interpolate(grid: Grid, values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of cell-centered samples at arbitrary points.

    Periodic boxes wrap; non-periodic ones clamp to the outer half-cell so
    that every point of the closed window is valid (the caller is expected to
    have range-checked points against the window).
    """
    n, h, d = grid.n, grid.h, grid.d
    low = np.asarray(grid.box.lower)
    field = np.asarray(values).reshape((n,) * d)
    u = (np.asarray(points) - low) / h - 0.5
    i0 = np.floor(u).astype(np.intp)
    w = u - i0
    if grid.box.periodic:
        gather = lambda idx: idx % n
    else:
        lo_clip = np.clip(i0, 0, n - 2)
        w = w + (i0 - lo_clip)
        w = np.clip(w, 0.0, 1.0)
        i0 = lo_clip
        gather = lambda idx: np.clip(idx, 0, n - 1)
    out = np.zeros(len(u))
    for corner in range(1 << d):
        weight = np.ones(len(u))
        idx = []
        for k in range(d):
            bit = (corner >> k) & 1
            weight *= w[:, k] if bit else (1.0 - w[:, k])
            idx.append(gather(i0[:, k] + bit))
        out += weight * field[tuple(idx)]
    return out
