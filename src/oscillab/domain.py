"""Geometric primitives: boxes, grids, balls, pixel masks and distance fields.

Everything is cell-centered: the grid samples a function at
``lower + (i + 1/2) h`` per axis, which keeps periodic wrap free of
double-counted nodes and makes lattice translations exact relabelings.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import BadGrid, BadParameter, BadRadius, DegenerateMask, EmptyBall, EmptyFamily

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
    inside = _inside(grid, center, ball.radius, mesh).ravel()
    if not inside.any():
        raise EmptyBall(f"no cell center inside ball {ball}")
    flat = grid.flat_index(tuple(m.ravel()[inside] for m in mesh))
    return flat


def points_in_ball(box: Box, points: np.ndarray, center, radius: float) -> np.ndarray:
    """Whether each point (last axis d) lies in the closed ball, measured by
    the wrapped displacement on a torus; ``center`` broadcasts against ``points``."""
    disp = box.wrap_displacement(points - np.asarray(center))
    return np.einsum("...j,...j->...", disp, disp) <= radius**2


def _inside(grid: Grid, center: np.ndarray, radius: float, cells) -> np.ndarray:
    """Whether the cell centers lie in the ball; ``cells`` holds one integer
    index array per axis, and ``center`` (last axis d) broadcasts against them."""
    low = np.asarray(grid.box.lower)
    coords = np.stack([low[k] + (cells[k] + 0.5) * grid.h for k in range(grid.d)], axis=-1)
    return points_in_ball(grid.box, coords, center, radius)


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


# Cap on the cells of one gathered (balls x cells) index block, so the
# working set of a reduction does not grow with the family.
_BLOCK_CELLS = 1 << 16


class BallFamily(Sequence):
    """Immutable ball family compiled for one grid.

    Balls that are lattice translates of each other (same radius, same
    sub-cell center offset, the same verdict of ``cells_in_ball``'s test on
    the cells that tie with the sphere up to rounding and, on a window, a
    bounding box of cells inside it) form a group that stores integer center
    cells and one stencil of cell offsets, taken from ``cells_in_ball`` on
    the group's first ball. Any other ball is a group of its own. As a
    sequence it holds the balls in the order they were given.
    """

    def __init__(self, grid: Grid, balls):
        self.grid = grid
        self._balls = tuple(balls)
        if not self._balls:
            raise EmptyFamily("ball family is empty")
        n, h, d = grid.n, grid.h, grid.d
        low = np.asarray(grid.box.lower)
        centers = np.array([b.center for b in self._balls], dtype=float).reshape(-1, d)
        radii = np.array([b.radius for b in self._balls])
        u = (centers - low) / h - 0.5
        cells = np.rint(u)
        offset = u - cells
        cells = cells.astype(np.intp)
        if grid.box.periodic:
            cells %= n
            alone = np.zeros(len(radii), dtype=bool)
        else:
            # the bounding box cells_in_ball searches, unclipped
            i_lo = np.floor((centers - radii[:, None] - low) / h - 0.5)
            i_hi = np.ceil((centers + radii[:, None] - low) / h - 0.5)
            alone = np.any((i_lo < 0) | (i_hi > n - 1), axis=1)
        # offsets equal up to rounding share a key (their tie cells are
        # checked below); a ball that is nobody's translate gets its own key
        keys = zip(radii.tolist(), map(tuple, np.round(offset, 12).tolist()))
        groups = {}
        for k, key in enumerate(keys):
            groups.setdefault(-k - 1 if alone[k] else key, []).append(k)
        self._strides = n ** np.arange(d - 1, -1, -1)
        self._groups = []  # (first compiled position, center cells, offsets, stencil)
        parts = [part for members in groups.values()
                 for part in _agreeing(grid, members, centers, cells, offset, radii)]
        order, start = [], 0
        for members in parts:
            first = members[0]
            found = cells_in_ball(grid, self._balls[first])
            offsets = np.stack(np.unravel_index(found, (n,) * d), axis=-1) - cells[first]
            if grid.box.periodic:
                offsets = (offsets + n // 2) % n - n // 2  # shortest wrap
            stencil = offsets @ self._strides
            sort = np.argsort(stencil)
            self._groups.append((start, cells[members], offsets[sort], stencil[sort]))
            order += members
            start += len(members)
        self.order = np.array(order)

    def __len__(self) -> int:
        return len(self._balls)

    def __getitem__(self, i):
        return self._balls[i]

    def blocks(self):
        """Yield (start, stop, idx): ``idx[k]`` holds the flat cell indices of
        the ball at compiled position ``start + k`` in ``cells_in_ball`` order.

        Compiled position j is ball ``self[self.order[j]]``; one block never
        spans two groups and holds at most about ``_BLOCK_CELLS`` cells.
        On a torus, a ball that crosses the seam has its cells wrapped axis
        by axis and sorted back into ascending (``cells_in_ball``) order;
        its wrapped stencil is a few ascending runs, which a stable sort
        merges in close to linear time.
        """
        n, d = self.grid.n, self.grid.d
        for start, cells, offsets, stencil in self._groups:
            per = max(1, _BLOCK_CELLS // len(stencil))
            lowest, highest = offsets.min(axis=0), offsets.max(axis=0)
            for lo in range(0, len(cells), per):
                block = cells[lo:lo + per]
                idx = (block @ self._strides)[:, None] + stencil
                if self.grid.box.periodic:
                    wraps = np.any((block + lowest < 0) | (block + highest >= n), axis=1)
                    if wraps.any():
                        # Grid makes n a power of two, so & (n - 1) is the wrap % n
                        moved, flat = block[wraps], 0
                        for k in range(d):
                            flat = flat * n + ((moved[:, k, None] + offsets[:, k]) & (n - 1))
                        idx[wraps] = np.sort(flat, axis=1, kind="stable")
                yield start + lo, start + lo + len(block), idx

    def sup(self, rows) -> tuple:
        """Largest value over the family and the first ball (in family order)
        that attains it; ``rows(ball, idx)`` returns the values of one block,
        whose balls all share the radius of ``ball``."""
        vals = np.empty(len(self))
        for start, stop, idx in self.blocks():
            pos = self.order[start:stop]
            vals[pos] = rows(self._balls[pos[0]], idx)
        k = int(np.argmax(vals))
        return float(vals[k]), self._balls[k]

    @classmethod
    def on(cls, grid: Grid, family) -> "BallFamily":
        """``family`` compiled for ``grid``; a family already compiled for it is reused."""
        if isinstance(family, BallFamily) and family.grid == grid:
            return family
        return cls(grid, family)


def _agreeing(grid: Grid, members: list, centers, cells, offset, radii) -> list:
    """``members`` (balls with one radius and one sub-cell offset) split into
    parts whose balls agree on every cell whose center lies within rounding
    of their sphere, so that within a part membership is a translate.

    Elsewhere the translate is exact up to rounding far below the margin; on
    boxes with dyadic coordinates the tie cells agree as well.
    """
    if len(members) == 1:
        return [members]
    h, radius, delta = grid.h, float(radii[members[0]]), offset[members[0]]
    reach = int(math.ceil(radius / h)) + 1
    steps = np.arange(-reach, reach + 1)
    gap = functools.reduce(np.add.outer, [((steps - c) * h) ** 2 for c in delta])
    near = np.argwhere(np.abs(gap - radius**2) <= 1e-9 * radius**2) - reach
    if not len(near):
        return [members]
    idx = cells[members][:, None, :] + near
    if grid.box.periodic:
        idx %= grid.n
    parts = {}
    inside = _inside(grid, centers[members][:, None, :], radius, np.moveaxis(idx, -1, 0))
    for k, row in zip(members, inside):
        parts.setdefault(row.tobytes(), []).append(k)
    return list(parts.values())


def ball_family(grid: Grid, centers_stride: int, radii) -> BallFamily:
    """Deterministic ball family: stride sub-grid of centers times all radii.

    A finite stand-in for the supremum over all balls, so any seminorm
    computed over it is a lower bound. Centers sit at cells
    ``stride // 2 + k * stride``.
    On non-periodic boxes, balls not fully inside the window are dropped.
    Raises EmptyFamily when no ball remains.
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
        keep = centers
        if not grid.box.periodic:
            inside = (centers - low >= r) & (low + grid.box.side - centers >= r)
            keep = centers[np.all(inside, axis=1)]
        balls += [Ball(tuple(c), r) for c in keep]
    if not radii:
        raise EmptyFamily("ball family is empty: no radius given")
    if not balls:
        raise EmptyFamily(
            f"ball family is empty: no ball of radius {', '.join(f'{r:g}' for r in radii)} "
            f"with center stride {centers_stride} fits the grid"
        )
    return BallFamily(grid, balls)


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
