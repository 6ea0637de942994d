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
from typing import NamedTuple

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


class _Group(NamedTuple):
    """Balls that are lattice translates of each other, at the family
    positions ``members``; ``runs`` cuts their stencil into stretches of
    consecutive cells along the last axis."""

    members: np.ndarray  # (balls,) family positions, ascending
    cells: np.ndarray  # (balls, d) center cells
    offsets: np.ndarray  # (c, d) cell offsets from the center, in stencil order
    stencil: np.ndarray  # (c,) flat cell offsets, ascending
    runs: np.ndarray  # (runs, d + 1): leading offsets, first and last offset on the last axis


class BallFamily(Sequence):
    """Immutable ball family compiled for one grid, from the (k, d) array of
    its centers and the (k,) array of its radii.

    Balls that are lattice translates of each other (same radius, same
    sub-cell center offset, the same verdict of ``cells_in_ball``'s test on
    the cells that tie with the sphere up to rounding and, on a window, a
    bounding box of cells inside it) form a group that stores integer center
    cells and one stencil of cell offsets, taken from ``cells_in_ball`` on
    the group's first ball. Any other ball is a group of its own. As a
    sequence it holds the balls in the order they were given, each built as
    a ``Ball`` when asked for; ``radii``, ``volumes`` and ``counts`` hold
    each ball's radius, volume and number of cells in that order.
    """

    def __init__(self, grid: Grid, centers, radii):
        self.grid = grid
        n, h, d = grid.n, grid.h, grid.d
        self.centers = centers = np.asarray(centers, dtype=float).reshape(-1, d)
        self.radii = radii = np.asarray(radii, dtype=float)
        if not len(radii):
            raise EmptyFamily("ball family is empty")
        low = np.asarray(grid.box.lower)
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
        self._groups = []
        self.counts = np.empty(len(radii), dtype=np.intp)
        self.volumes = np.empty(len(radii))
        parts = [part for members in groups.values()
                 for part in _agreeing(grid, members, centers, cells, offset, radii)]
        for members in parts:
            first = self[members[0]]
            found = cells_in_ball(grid, first)
            offsets = np.stack(np.unravel_index(found, (n,) * d), axis=-1) - cells[members[0]]
            if grid.box.periodic:
                offsets = (offsets + n // 2) % n - n // 2  # shortest wrap
            stencil = offsets @ self._strides
            sort = np.argsort(stencil)
            offsets, stencil = offsets[sort], stencil[sort]
            # a run ends where a leading offset changes or the last one skips
            cut = np.flatnonzero(np.any(np.diff(offsets[:, :-1], axis=0) != 0, axis=1)
                                 | (np.diff(offsets[:, -1]) != 1)) + 1
            ends = np.r_[cut, len(offsets)] - 1
            runs = np.column_stack([offsets[np.r_[0, cut]], offsets[ends, -1]])
            members = np.array(members)
            self._groups.append(_Group(members, cells[members], offsets, stencil, runs))
            self.counts[members] = len(stencil)
            self.volumes[members] = first.volume
        # ball_sums pads a torus row on each side by the farthest run end
        self._margin = 0
        if grid.box.periodic:
            self._margin = int(max(max(-g.runs[:, -2].min(), g.runs[:, -1].max())
                                   for g in self._groups))
        # A ball_sums sum over c cells rounds by at most c eps (2 w^2 + c + 1)
        # max|values| (running sums over lines of w cells, two of them and
        # one addition per run, at most c runs); a gathered c-cell sum or
        # mean rounds by a relative c eps. The slack exceeds three times the
        # first per cell and eight times the second, room enough for the
        # bounds built on up to three ball sums.
        w = n + 2 * self._margin
        self.sum_slack = 8 * np.finfo(float).eps * (w * w + int(self.counts.max()))

    def __len__(self) -> int:
        return len(self.radii)

    def __getitem__(self, i) -> Ball:
        return Ball(tuple(self.centers[i].tolist()), float(self.radii[i]))

    def blocks(self, select=None):
        """Yield (balls, idx): ``idx[k]`` holds the flat cell indices of the
        ball at family position ``balls[k]``, in ``cells_in_ball`` order.

        ``select``, a boolean mask over the family, keeps only the balls it
        marks. One block never spans two groups and holds at most about
        ``_BLOCK_CELLS`` cells. On a torus, a ball that crosses the seam has
        its cells wrapped axis by axis and sorted back into ascending
        (``cells_in_ball``) order; its wrapped stencil is a few ascending
        runs, which a stable sort merges in close to linear time.
        """
        n, d = self.grid.n, self.grid.d
        for group in self._groups:
            members, cells = group.members, group.cells
            if select is not None:
                keep = select[members]
                members, cells = members[keep], cells[keep]
            per = max(1, _BLOCK_CELLS // len(group.stencil))
            lowest, highest = group.offsets.min(axis=0), group.offsets.max(axis=0)
            for lo in range(0, len(members), per):
                block = cells[lo:lo + per]
                idx = (block @ self._strides)[:, None] + group.stencil
                if self.grid.box.periodic:
                    wraps = np.any((block + lowest < 0) | (block + highest >= n), axis=1)
                    if wraps.any():
                        # Grid makes n a power of two, so & (n - 1) is the wrap % n
                        moved, flat = block[wraps], 0
                        for k in range(d):
                            flat = flat * n + ((moved[:, k, None] + group.offsets[:, k]) & (n - 1))
                        idx[wraps] = np.sort(flat, axis=1, kind="stable")
                yield members[lo:lo + per], idx

    def ball_sums(self, values) -> np.ndarray:
        """Sums of ``values`` (shape (..., n^d)) over the cells of each ball,
        shape (..., len(self)) in family order.

        A ball's sum takes one difference of prefix sums along the last axis
        per run of its stencil: about 2R + 1 lookups for a ball R cells wide,
        not about pi R^2 cells. A torus pads that axis with wrapped cells and
        wraps the leading axes with ``& (n - 1)``. Over a ball of c cells the
        sum is within ``sum_slack * c * max|values|`` of the exact one. The
        lookups go in chunks of at most about ``_BLOCK_CELLS`` per field.
        """
        n, d, m = self.grid.n, self.grid.d, self._margin
        periodic = self.grid.box.periodic
        values = np.asarray(values, dtype=float)
        lines = values.reshape(-1, n ** (d - 1), n)
        if m:
            lines = np.pad(lines, [(0, 0), (0, 0), (m, m)], mode="wrap")
        width = n + 2 * m + 1
        prefix = np.zeros(lines.shape[:-1] + (width,))
        np.cumsum(lines, axis=-1, out=prefix[..., 1:])
        prefix = prefix.reshape(len(prefix), -1)
        out = np.empty((len(prefix), len(self)))
        for group in self._groups:
            runs = group.runs
            per = max(1, _BLOCK_CELLS // len(runs))
            for lo in range(0, len(group.cells), per):
                block = group.cells[lo:lo + per]
                row = 0
                for k in range(d - 1):
                    i = block[:, k, None] + runs[:, k]
                    row = row * n + (i & (n - 1) if periodic else i)
                base = row * width + block[:, -1, None] + m
                first, past = base + runs[:, -2], base + runs[:, -1] + 1
                at = group.members[lo:lo + per]
                for sums, field in zip(out, prefix):
                    sums[at] = (field.take(past) - field.take(first)).sum(axis=1)
        return out.reshape(values.shape[:-1] + (len(self),))

    def sup(self, rows, bound) -> tuple:
        """Largest value over the family and the first ball (in family order)
        that attains it; ``rows(ball, idx)`` returns the values of the balls
        whose cells ``idx`` holds, one row each, all of the radius of ``ball``.

        ``bound`` holds an upper bound on each ball's value as ``rows``
        computes it, in family order; ``seminorm`` and ``carleson_norm``
        build theirs from ``ball_sums`` with ``sum_slack`` added for
        rounding, and an infinite bound gathers every ball. The ball with the
        top bound in each group is gathered first, and after that only the
        balls whose bound reaches the best value found so far. A ball left
        out is below that value and a gathered one is reduced as before, so
        value and argmax equal those of a gather of every ball, bit for bit.
        """
        vals = np.full(len(self), -np.inf)
        select = np.zeros(len(self), dtype=bool)
        select[[g.members[np.argmax(bound[g.members])] for g in self._groups]] = True
        for _ in range(2):
            for balls, idx in self.blocks(select):
                vals[balls] = rows(self[balls[0]], idx)
            # then the balls not yet gathered whose bound reaches the best value
            select = (bound >= vals.max()) & np.isneginf(vals)
        k = int(np.argmax(vals))
        return float(vals[k]), self[k]

    @classmethod
    def on(cls, grid: Grid, balls) -> "BallFamily":
        """``balls`` compiled for ``grid``; a family already compiled for it is reused."""
        if isinstance(balls, BallFamily) and balls.grid == grid:
            return balls
        balls = list(balls)
        return cls(grid, [b.center for b in balls], [b.radius for b in balls])


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
    if not radii:
        raise EmptyFamily("ball family is empty: no radius given")
    low = np.asarray(grid.box.lower)
    idx = np.arange(centers_stride // 2, grid.n, centers_stride)
    axes = [low[k] + (idx + 0.5) * h for k in range(grid.d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([m.ravel() for m in mesh], axis=-1)
    keep = [centers] * len(radii)
    if not grid.box.periodic:
        keep = [centers[np.all((centers - low >= r) & (low + grid.box.side - centers >= r), axis=1)]
                for r in radii]
    sizes = [len(c) for c in keep]
    if not sum(sizes):
        raise EmptyFamily(
            f"ball family is empty: no ball of radius {', '.join(f'{r:g}' for r in radii)} "
            f"with center stride {centers_stride} fits the grid"
        )
    return BallFamily(grid, np.concatenate(keep), np.repeat(radii, sizes))


def interpolate(grid: Grid, values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of cell-centered samples at arbitrary points.

    Periodic boxes wrap; non-periodic ones clamp to the outer half-cell so
    that every point of the closed window is valid (the caller is expected to
    have range-checked points against the window). On a periodic box a
    point 2^52 cells or more from the lower corner raises BadParameter:
    there consecutive float64 values are a cell or more apart, so the point
    has lost its cell (and the cell index would overflow from about 2^63).
    """
    n, h, d = grid.n, grid.h, grid.d
    low = np.asarray(grid.box.lower)
    field = np.asarray(values).reshape((n,) * d)
    points = np.asarray(points)
    u = (points - low) / h - 0.5
    if grid.box.periodic:
        far = ~np.all(np.abs(u) < 2.0**52, axis=1)
        if far.any():
            bad = ", ".join(f"{x:g}" for x in points[far][0])
            raise BadParameter(f"point ({bad}) is too far from the box to place in a cell")
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
