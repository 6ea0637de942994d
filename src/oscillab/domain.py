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

from .errors import (BadGrid, BadParameter, BadRadius, DegenerateMask, EmptyBall, EmptyFamily,
                     OutOfDomain)

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
        n, d = self.n, self.d
        axis = self.axis_centers()
        out = np.empty((n,) * d + (d,))
        for k in range(d):
            out[..., k] = (self.box.lower[k] + axis).reshape((n,) + (1,) * (d - 1 - k))
        return out.reshape(-1, d)

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
        try:
            finite = math.isfinite(self.radius**self.d)
        except OverflowError:
            finite = False
        if not finite:  # volume, and at d = 2 points_in_ball, take radius^d
            raise BadParameter(f"ball radius {self.radius:g} is too large "
                               f"(radius^{self.d} must be a finite float)")

    @property
    def d(self) -> int:
        return len(self.center)

    @property
    def volume(self) -> float:
        return unit_ball_volume(self.d) * self.radius**self.d


class Sup(NamedTuple):
    """The sup of a value over a ball family and the first ball that attains it."""

    value: float
    argmax_ball: Ball


class Balls(Sequence):
    """The balls of the (k, d) array ``centers`` and the (k,) array ``radii``,
    in that order, each built as a ``Ball`` when asked for."""

    def __init__(self, centers: np.ndarray, radii: np.ndarray):
        self.centers, self.radii = centers, radii

    def __len__(self) -> int:
        return len(self.radii)

    def __getitem__(self, i) -> Ball:
        return Ball(tuple(self.centers[i].tolist()), float(self.radii[i]))


@dataclass(frozen=True)
class GridFunction:
    """Real scalar samples at the cell centers of a grid (flat, C-ordered),
    and the vectorized callable ``fn`` they sample, if there is one."""

    grid: Grid
    values: np.ndarray
    fn: object = None

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
        return cls(grid, np.asarray(fn(grid.cell_centers()), dtype=float), fn)

    def at(self, points: np.ndarray) -> np.ndarray:
        """The function at the (N, d) ``points``: ``fn`` itself, else the
        multilinear interpolation of the samples (wrapping on a torus), where
        a point outside a non-periodic window raises OutOfDomain."""
        if self.fn is not None:
            return np.asarray(self.fn(points), dtype=float)
        if not self.grid.box.periodic:
            inside = self.grid.box.contains(points)
            if not inside.all():
                bad = ", ".join(f"{x:g}" for x in points[~inside][0])
                raise OutOfDomain(f"mapped point ({bad}) leaves the window")
        return interpolate(self.grid, self.values, points)


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


def _lattice(grid: Grid, centers, radii) -> tuple:
    """Per ball of the (k, d) ``centers`` and (k,) ``radii``: the nearest cell,
    the center's offset from that cell's center in cells (rounded to 1e-12,
    -0.0 as 0.0) and, per axis, the first and last cell offset from that
    cell that ``cells_in_ball`` tests."""
    u = (np.asarray(centers, dtype=float) - np.asarray(grid.box.lower)) / grid.h - 0.5
    cells = np.rint(u)
    delta = np.round(u - cells, 12) + 0.0
    reach = np.asarray(radii, dtype=float)[:, None] / grid.h
    return cells.astype(np.intp), delta, np.floor(delta - reach), np.ceil(delta + reach)


def cells_in_ball(grid: Grid, ball: Ball) -> np.ndarray:
    """Flat indices, ascending, of the cells whose centers lie in the ball.

    Membership is decided in cell units. With c the cell nearest the ball's
    center and delta the center's offset from c's center in cells (rounded
    to 1e-12), the cell k cells from c is inside iff sum (k - delta)^2 <=
    (r/h)^2, with k - delta taken as its shortest wrap on a torus. So balls
    of one radius and one delta hold the same cells, translated, wherever
    they sit, and the test neither squares h nor depends on the box's scale.
    The search covers the ball's bounding box of cells, so the cost scales
    with the ball, not the grid. On a torus it visits each cell once, in
    wrapped order, and one stable sort of the flat indices puts them back in
    ascending order.
    """
    n = grid.n
    cells, delta, lo, hi = (a[0] for a in _lattice(grid, [ball.center], [ball.radius]))
    per_axis, gaps = [], []
    for c, dk, first, last in zip(cells.tolist(), delta, lo, hi):
        if grid.box.periodic:
            k = np.arange(first, min(last, first + n - 1) + 1)  # each cell once
            e = k - dk
            e -= n * np.round(e / n)
            idx = (c + k.astype(np.intp)) % n
        else:
            k = np.arange(max(first, -c), min(last, n - 1 - c) + 1)
            idx, e = c + k.astype(np.intp), k - dk
        per_axis.append(idx)
        gaps.append(e * e)
    if any(len(idx) == 0 for idx in per_axis):
        raise EmptyBall(f"ball {ball} misses the grid")
    inside = functools.reduce(np.add.outer, gaps) <= (ball.radius / grid.h) ** 2
    if not inside.any():
        raise EmptyBall(f"no cell center inside ball {ball}")
    mesh = np.meshgrid(*per_axis, indexing="ij")
    return np.sort(grid.flat_index(tuple(m[inside] for m in mesh)), kind="stable")


def points_in_ball(box: Box, points: np.ndarray, center, radius: float) -> np.ndarray:
    """Whether each point (last axis d) lies in the closed ball, measured by
    the wrapped displacement on a torus; ``center`` broadcasts against ``points``."""
    disp = box.wrap_displacement(points - np.asarray(center))
    return np.einsum("...j,...j->...", disp, disp) <= radius**2


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


# Cap on the cells of one gathered index block (balls x cells, or shifts x
# cells in a distance transform), so the working set of a reduction does not
# grow with its input.
_BLOCK_CELLS = 1 << 16


def distance_transform(mask: PixelMask) -> DistanceField:
    """Exact Euclidean distance of each cell center to the mask complement.

    Each mask cell gets sqrt of the float minimum, over the complement cells,
    of the sum of (h * disp_k)^2 over the axes in order, disp the cell
    displacement (wrapped on a torus); complement cells carry zero. This is
    exact up to the cell-center discretization of the complement (error at
    most h * sqrt(d)). The transform is separable (Felzenszwalb and
    Huttenlocher 2012), in ``_edt``: the runs of mask cells along axis 0
    give each cell its squared distance within its line, and each later
    axis is a min-plus pass over shifts. Rounding is monotone, so a float minimum of the per-axis sums
    passes through each stage unchanged, and the result equals the direct
    minimum over all complement cells bit for bit. On a dyadic side every
    such sum is exact, so it also equals scipy's ``distance_transform_edt``.

    The transform sees the smallest array that holds every cell's nearest
    complement cell:

    - On a window, the mask's bounding box widened by one cell per side and
      clipped to the grid. A complement cell outside that box is farther
      from every cell of the box than its per-axis clamp onto the box, and
      that clamp lies on the widened ring, outside the mask, so it is a
      complement cell too.
    - On a torus, the grid wrap-padded by p = min(n/2, ceil((count /
      omega_d)^(1/d) + sqrt(d)/2)) cells per side, omega_d the volume of
      the unit ball. If a mask cell is D cells from the complement, every
      cell whose center is nearer than D to it is a mask cell, and those
      cells cover the ball of radius D - sqrt(d)/2 around it. While that
      radius is at most n/2 the ball does not overlap its wrapped copies,
      so count >= omega_d (D - sqrt(d)/2)^d and D <= p: the nearest
      complement cell, at most D cells away per axis, lies inside the
      padded array. A larger radius makes count >= omega_d (n/2)^d and p =
      n/2, half a period, which holds every shortest wrapped displacement.

    Cost: the first axis is O(cells). A min-plus pass shifts only the cells
    whose value a shift can still lower, and a cell leaves it within about
    twice the root of its value in cells. In two dimensions that root is
    the cell's distance, so the work is O(cells x R), R the largest
    distance in cells. By the count argument above R <= (count /
    omega_d)^(1/d) + sqrt(d)/2 on a torus, and on a window whose mask keeps
    off the grid's edge; a window mask that fills the grid up to its edge
    can reach R ~ n. In three dimensions the middle pass may shift a cell
    up to the padded length (p on a torus).
    """
    grid = mask.grid
    n, d, count = grid.n, grid.d, mask.count
    if count == 0 or count == grid.size:
        raise DegenerateMask("mask must be neither empty nor full")
    bits = mask.bits.reshape((n,) * d)
    if grid.box.periodic:
        reach = (count / unit_ball_volume(d)) ** (1.0 / d) + math.sqrt(d) / 2
        pad = min(n // 2, math.ceil(reach))
        return DistanceField(grid, _edt(np.pad(bits, pad, mode="wrap"), grid.h, pad).ravel())
    rows = [np.flatnonzero(bits.any(axis=tuple(j for j in range(d) if j != k))) for k in range(d)]
    support = tuple(slice(max(r[0] - 1, 0), min(r[-1] + 2, n)) for r in rows)
    dist = np.zeros((n,) * d)
    dist[support] = _edt(bits[support], grid.h, 0)
    return DistanceField(grid, dist.ravel())


def _edt(bits: np.ndarray, h: float, pad: int) -> np.ndarray:
    """Distance of each cell of ``bits`` to its nearest False cell, on the
    cells at least ``pad`` cells from every face (each axis loses ``pad``
    cells per side, after its own pass)."""
    d = bits.ndim
    f = _line_distances(bits, h, pad)
    axes = [*range(1, d), 0]  # the original axis of each axis of f
    for k in range(1, d):
        at = axes.index(k)
        g = np.moveaxis(f, at, 0)
        rest = g.shape[1:]
        f = _min_plus(np.ascontiguousarray(g).reshape(len(g), -1), h, pad)
        f = f.reshape((-1,) + rest)
        axes = [k, *axes[:at], *axes[at + 1:]]
    return np.transpose(np.sqrt(f, out=f), np.argsort(axes))


def _line_distances(bits: np.ndarray, h: float, pad: int) -> np.ndarray:
    """(h * k)^2, k the cells from each cell of ``bits`` to the nearest False
    cell of its line along axis 0 (inf if there is none), with axis 0 moved
    last and cropped by ``pad`` per side."""
    length, width = bits.shape[0], bits.shape[0] - 2 * pad
    # each line framed by one False cell per side, so no run of True cells
    # crosses from one line into the next
    framed = np.zeros(bits.shape[1:] + (length + 2,), dtype=bool)
    framed[..., 1:-1] = np.moveaxis(bits, 0, -1)
    flat = framed.ravel()
    step = np.diff(flat.view(np.int8))
    first, last = np.flatnonzero(step == 1) + 1, np.flatnonzero(step == -1)
    # the False cell before and after each run; a frame cell is none
    before = np.where(first % (length + 2) == 1, -np.inf, first - 1)
    after = np.where(last % (length + 2) == length, np.inf, last + 1)
    runs = last - first + 1
    cells = np.flatnonzero(flat)
    k = np.minimum(cells - np.repeat(before, runs), np.repeat(after, runs) - cells)
    k *= h
    np.square(k, out=k)
    line, at = np.divmod(cells, length + 2)
    at -= 1 + pad
    kept = (at >= 0) & (at < width)
    out = np.zeros(bits.shape[1:] + (width,))
    out.reshape(-1, width)[line[kept], at[kept]] = k[kept]
    return out


def _min_plus(g: np.ndarray, h: float, pad: int) -> np.ndarray:
    """min over shifts j of g[pad + i + j] + (h * j)^2 along axis 0 of the
    (length, lines) array ``g``, for i < length - 2 * pad.

    On a torus (pad > 0) the shifts stop at pad, which holds every nearest
    complement cell; on a window they run to the line's length, and a shift
    past an end of the line reads inf. A cell is shifted only while its
    value exceeds (h * j)^2, since no later shift can lower it. The cells go
    in blocks of at most a quarter of ``_BLOCK_CELLS``, each through runs of
    shifts that double in length (at most four values per block cell
    gathered at a time) and stop at the block's largest value; after a run
    the cells it settled leave.
    """
    length, lines = g.shape
    reach = pad or length - 1
    parab = np.square(h * np.arange(reach + 1, dtype=float))
    out = g[pad : length - pad].copy()
    flat = out.ravel()
    # on a torus no shift leaves g; on a window each line gets one inf cell
    # per end, and take's "clip" sends every read past them to the first or
    # last of those inf cells
    source = g if pad else np.pad(g, ((1, 1), (0, 0)), constant_values=np.inf)
    origin = (pad or 1) * lines  # the flat position in source of out's first cell
    todo = np.flatnonzero(flat > parab[1])
    block = max(1, min(len(todo), _BLOCK_CELLS // 4))
    index = np.empty(4 * block, dtype=np.intp)
    ahead, behind = np.empty(4 * block), np.empty(4 * block)
    for lo in range(0, len(todo), block):
        pos = todo[lo : lo + block]
        cur = flat[pos]
        j, run = 1, 1
        while len(pos):
            stop = min(j + run, j + len(index) // len(pos),
                       int(np.searchsorted(parab, cur.max(), "right")))
            if stop <= j:
                break
            shape = (stop - j, len(pos))
            size = shape[0] * shape[1]
            shift = np.arange(j * lines, stop * lines, lines)[:, None]
            idx = index[:size].reshape(shape)
            up, down = ahead[:size].reshape(shape), behind[:size].reshape(shape)
            np.take(source, np.add(pos, shift + origin, out=idx), out=up, mode="clip")
            np.take(source, np.subtract(idx, 2 * shift, out=idx), out=down, mode="clip")
            np.minimum(up, down, out=up)
            up += parab[j:stop, None]
            np.minimum(cur, np.minimum.reduce(up, axis=0), out=cur)
            if stop > reach:
                break
            keep = cur > parab[stop]
            flat[pos] = cur
            pos, cur = pos[keep], cur[keep]
            j, run = stop, 2 * run
        flat[pos] = cur
    return out


class _Group(NamedTuple):
    """Balls that are lattice translates of each other, at the family
    positions ``members``; ``runs`` cuts their stencil into stretches of
    consecutive cells along the last axis."""

    members: np.ndarray  # (balls,) family positions, ascending
    cells: np.ndarray  # (balls, d) center cells
    offsets: np.ndarray  # (c, d) cell offsets from the center, in stencil order
    stencil: np.ndarray  # (c,) flat cell offsets, ascending
    runs: np.ndarray  # (runs, d + 1): leading offsets, first and last offset on the last axis


class BallFamily(Balls):
    """Immutable ball family compiled for one grid, from the (k, d) array of
    its centers and the (k,) array of its radii.

    Balls of one radius and one sub-cell center offset, the key on which
    ``cells_in_ball`` decides membership, are lattice translates of each
    other and form a group that stores integer center cells and one stencil
    of cell offsets, taken from ``cells_in_ball`` on the group's first ball.
    On a window, a ball whose searched cells leave the grid has its stencil
    clipped and is a group of its own. As ``Balls`` it holds the balls in
    the order they were given; ``volumes`` and ``counts`` hold each ball's
    volume and number of cells in that order.
    """

    def __init__(self, grid: Grid, centers, radii):
        self.grid = grid
        n, d = grid.n, grid.d
        centers = np.asarray(centers, dtype=float).reshape(-1, d)
        radii = np.asarray(radii, dtype=float)
        super().__init__(centers, radii)
        if not len(radii):
            raise EmptyFamily("ball family is empty")
        cells, delta, lo, hi = _lattice(grid, centers, radii)
        if grid.box.periodic:
            cells %= n
            alone = np.zeros(len(radii), dtype=bool)
        else:
            # cells_in_ball clips the cells it searches (lo..hi from the
            # center cell, per axis) to the grid; such a ball is no translate
            alone = np.any((cells + lo < 0) | (cells + hi > n - 1), axis=1)
        # A group is ranked by its first ball, and keeps its balls in family order.
        rank = np.arange(len(radii))
        shared = np.flatnonzero(~alone)
        if len(shared):
            keys = np.column_stack([radii, delta])[shared]
            # each key row as one opaque value; delta holds no -0.0, so equal
            # keys have equal bytes
            rows = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
            _, head, key = np.unique(rows, return_index=True, return_inverse=True)
            rank[shared] = shared[head][key]
        order = np.argsort(rank, kind="stable")
        self._strides = n ** np.arange(d - 1, -1, -1)
        self._groups = []
        self.counts = np.empty(len(radii), dtype=np.intp)
        self.volumes = np.empty(len(radii))
        for members in np.split(order, np.flatnonzero(np.diff(rank[order])) + 1):
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
            self._groups.append(_Group(members, cells[members], offsets, stencil, runs))
            self.counts[members] = len(stencil)
            self.volumes[members] = first.volume
        # ball_sums pads a torus on each side of every axis by the farthest offset
        self._margin = 0
        if grid.box.periodic:
            self._margin = int(max(np.abs(g.offsets).max() for g in self._groups))
        # A ball_sums sum over c cells rounds by at most c eps (2 w^2 + c + 1)
        # max|values| (running sums over lines of w cells, two of them and
        # one addition per run, at most c runs); a gathered c-cell sum or
        # mean rounds by a relative c eps. The slack exceeds three times the
        # first per cell and eight times the second, room enough for the
        # bounds built on up to three ball sums.
        w = n + 2 * self._margin
        self.sum_slack = 8 * np.finfo(float).eps * (w * w + int(self.counts.max()))

    def blocks(self, select=None):
        """Yield (balls, idx): ``idx[k]`` holds the flat cell indices of the
        ball at family position ``balls[k]``, in ``cells_in_ball`` order.

        ``select``, a boolean mask over the family, keeps only the balls it
        marks. One block never spans two groups and holds at most about
        ``_BLOCK_CELLS`` cells. On a window a row is the ball's center cell
        plus the stencil. On a torus every row has its cells wrapped axis by
        axis and sorted back into ascending (``cells_in_ball``) order: a row
        that stays off the seam is ascending already, and one that crosses
        it is a few ascending runs, so a stable sort (timsort) takes close to
        linear time either way.
        """
        n, d = self.grid.n, self.grid.d
        for group in self._groups:
            members, cells = group.members, group.cells
            if select is not None:
                keep = select[members]
                members, cells = members[keep], cells[keep]
            per = max(1, _BLOCK_CELLS // len(group.stencil))
            for lo in range(0, len(members), per):
                block = cells[lo:lo + per]
                if not self.grid.box.periodic:
                    yield members[lo:lo + per], (block @ self._strides)[:, None] + group.stencil
                    continue
                # Grid makes n a power of two, so & (n - 1) is the wrap % n
                flat = 0
                for k in range(d):
                    flat = flat * n + ((block[:, k, None] + group.offsets[:, k]) & (n - 1))
                yield members[lo:lo + per], np.sort(flat, axis=1, kind="stable")

    def ball_sums(self, values, which=None) -> np.ndarray:
        """Sums of ``values`` (shape (..., n^d)) over the cells of each ball,
        shape (..., len(self)) in family order. With ``which``, one index per
        ball into the rows of a 2-D ``values`` that is the same for every
        ball of a group (as one per radius is), each ball is summed over its
        own row only, shape (len(self),).

        A ball's sum takes one difference of prefix sums along the last axis
        per run of its stencil: about 2R + 1 lookups for a ball R cells wide,
        not about pi R^2 cells. A torus is padded on each side of every axis
        with the wrapped cells its balls reach, so on a torus as on a window
        a run's prefix index is the ball's center cell plus a fixed offset.
        Over a ball of c cells the sum is within ``sum_slack * c *
        max|values|`` of the exact one. The lookups go in chunks of at most
        about ``_BLOCK_CELLS`` per field.
        """
        n, d, m = self.grid.n, self.grid.d, self._margin
        values = np.asarray(values, dtype=float)
        cube = values.reshape((-1,) + (n,) * d)
        if m:
            cube = np.pad(cube, [(0, 0)] + [(m, m)] * d, mode="wrap")
        side = n + 2 * m
        lines = cube.reshape(len(cube), -1, side)
        prefix = np.zeros(lines.shape[:-1] + (side + 1,))
        np.cumsum(lines, axis=-1, out=prefix[..., 1:])
        prefix = prefix.reshape(len(prefix), -1)
        out = np.empty((len(prefix) if which is None else 1, len(self)))
        # prefix-array strides per axis: a run's first index is affine in its
        # ball's center cell, and its end lies the run's length past it
        strides = np.r_[side ** np.arange(d - 2, -1, -1) * (side + 1), 1]
        for group in self._groups:
            runs = group.runs
            per = max(1, _BLOCK_CELLS // len(runs))
            start = runs[:, :-1] @ strides
            length = runs[:, -1] - runs[:, -2] + 1
            bases = (group.cells + m) @ strides
            for lo in range(0, len(group.cells), per):
                first = bases[lo:lo + per, None] + start
                past = first + length
                at = group.members[lo:lo + per]
                fields = prefix if which is None else prefix[which[at[0]]][None]
                for sums, field in zip(out, fields):
                    sums[at] = (field.take(past) - field.take(first)).sum(axis=1)
        if which is not None:
            return out[0]
        return out.reshape(values.shape[:-1] + (len(self),))

    def sup(self, rows, bound) -> Sup:
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
        return Sup(float(vals[k]), self[k])

    @classmethod
    def on(cls, grid: Grid, balls) -> "BallFamily":
        """``balls`` compiled for ``grid``; a family already compiled for it is reused."""
        if isinstance(balls, BallFamily) and balls.grid == grid:
            return balls
        balls = list(balls)
        return cls(grid, [b.center for b in balls], [b.radius for b in balls])


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
        if r < 4 * h * (1 - 1e-12):
            raise BadRadius(f"radius {r} below 4h = {4 * h}")
        if r > grid.box.side / 2 * (1 + 1e-12):
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
