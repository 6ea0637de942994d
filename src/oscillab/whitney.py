"""Whitney covers of map images and the covering-sum statistic.

The image of a ball under a measure-preserving bi-Lipschitz map is an open
set; a dyadic stopping-time subdivision of the window produces disjoint
cubes whose size is comparable to their distance to the complement. Each
accepted cube contributes its (slightly shrunken) inscribed ball, so the
balls are strictly disjoint while the doubled balls still cover every cell
of the set.

The work follows the image, which holds |B| of mass however large the
grid: the mask is rasterized through phi^-1 in blocks of cell centers, and
the subdivision runs only over the mask's bounding box, widened to whole
blocks of the largest cube that can fit in it; both give the bits of a
whole-grid pass.

A cover holds its balls as arrays of centers and radii and builds a
``Ball`` only when one is asked for. Its radii are dyadic, about log2(n)
distinct values, so the covering statistic and the shell histogram compute
each radius's term once and spread it back to the balls. They add the
terms ball by ball, left to right, and so equal a loop over the balls bit
for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import (
    _BLOCK_CELLS,
    Ball,
    BallFamily,
    Balls,
    Box,
    Grid,
    PixelMask,
    cells_in_ball,  # noqa: F401  (perfbench's tracer wraps whitney.cells_in_ball)
    distance_transform,
    preimage_in_ball,
    unit_ball_volume,
)
from .errors import BadParameter, DegenerateMask, OutOfDomain, RadiusViolation
from .maps import BiLipMap, require_torus_map
from .oscillation import rho

# inscribed balls are shrunk by this factor so adjacent cubes' balls
# cannot touch; doubled balls still cover the cube diagonal (0.995 > 1/sqrt2)
_BALL_SHRINK = 0.995


def image_mask(phi: BiLipMap, ball: Ball, grid: Grid) -> PixelMask:
    """Rasterize phi(B): a cell is inside iff its preimage lies in B.

    Membership through the inverse map leaves no rasterization holes, which
    forward point-dumping would. On a periodic box phi must be a map of the
    torus (``maps.require_torus_map``, as in ``compose`` and ``pullback``;
    NotTorusMap otherwise): membership there counts every periodic copy of B.
    Both hypotheses, the torus one on a 1-in-61 sample of centers, are
    checked before any center is mapped; the centers then go through phi^-1
    in blocks (``domain.preimage_in_ball``), so the pass holds no grid-sized
    array but the mask itself, on a window as on a torus.
    """
    require_torus_map(phi, grid)
    if not grid.box.periodic:
        # the preimage samples themselves are fine; what must stay inside the
        # window is the set we rasterize, which is a subset of the grid by
        # construction. Guard instead that the ball image could fit at all.
        fwd_center = phi.forward(np.asarray(ball.center))
        if not grid.box.contains(fwd_center[None, :])[0]:
            raise OutOfDomain("mapped ball center leaves the window")
    return PixelMask(grid, preimage_in_ball(grid, phi.inverse, ball))


@dataclass(frozen=True, eq=False)
class WhitneyCover:
    """Disjoint balls inside an open set whose doubles cover it.

    The balls are held as arrays, in the cover's order: ``centers`` is
    (k, d) and ``radii`` is (k,). ``balls`` is the ``Balls`` sequence over
    them. ``whitney_ratios`` certifies comparability of ball size and
    boundary distance: diameter of the ball over the distance from its
    center to the complement, one entry per ball.
    """

    centers: np.ndarray
    radii: np.ndarray
    source_ball: Ball
    map_name: str
    whitney_ratios: np.ndarray
    uncovered_fraction: float

    @property
    def balls(self) -> Balls:
        return Balls(self.centers, self.radii)


def _accepted_cubes(bits2d: np.ndarray, dist2d: np.ndarray, h: float) -> np.ndarray:
    """The (i0, j0, m) cubes of the stopping-time quadtree, as rows in
    ascending (i0, j0, m) order.

    A block is accepted when it lies inside the set and, for m > 1, its
    distance to the complement less a cell diagonal is at least its own
    diagonal; it is split when it meets the set and is not accepted. No
    block wider than ``top``, the largest power of two no longer than the
    shorter side of the set's bounding box, lies inside the set, so every
    such block that meets the set is split, and the top-level blocks that
    meet the set are all active. So the pass runs only over the bounding
    box widened to whole blocks of side ``top``: one numpy pass per level
    m = top, top/2, ..., 1, read from 2x2-pooled pyramids of the mask (any,
    all) and of the distance field (min) over that region. It gives the
    cubes of the whole-grid pass from m = n down, and none for an empty set.
    """
    rows, cols = np.flatnonzero(bits2d.any(axis=1)), np.flatnonzero(bits2d.any(axis=0))
    if len(rows) == 0:
        return np.empty((0, 3), dtype=np.intp)
    side = int(min(rows[-1] - rows[0], cols[-1] - cols[0])) + 1
    top = 1 << (side.bit_length() - 1)
    i0, j0 = rows[0] // top * top, cols[0] // top * top
    i1, j1 = (rows[-1] // top + 1) * top, (cols[-1] // top + 1) * top
    region = np.s_[i0:i1, j0:j1]

    def pool(levels, ufunc):
        a = levels[-1]
        levels.append(ufunc.reduce((a[::2, ::2], a[1::2, ::2], a[::2, 1::2], a[1::2, 1::2])))

    anys, alls, mins = [bits2d[region]], [bits2d[region]], [dist2d[region]]
    while len(anys) < top.bit_length():
        pool(anys, np.logical_or)
        pool(alls, np.logical_and)
        pool(mins, np.minimum)
    found = []
    active = np.ones(anys[-1].shape, dtype=bool)
    for level in range(len(anys) - 1, -1, -1):
        m = 1 << level
        accept = active & alls[level]
        if m > 1:
            diam = m * h * math.sqrt(2.0)
            accept &= mins[level] - h * math.sqrt(2.0) >= diam
        i, j = np.nonzero(accept)
        found.append(np.stack([i0 + i * m, j0 + j * m, np.full_like(i, m)], axis=1))
        active = (active & anys[level] & ~accept).repeat(2, axis=0).repeat(2, axis=1)
    cubes = np.concatenate(found)
    return cubes[np.lexsort(cubes.T[::-1])]


def whitney_decompose(mask: PixelMask, source_ball: Ball, map_name: str = "") -> WhitneyCover:
    """Dyadic Whitney cover of a 2-D pixel mask.

    Top-down quadtree (``_accepted_cubes``) over the mask's bounding box,
    one numpy pass per level: a cube is accepted when it sits inside the
    set and its (conservatively measured) distance to the complement is at
    least its diameter; single in-set cells are accepted unconditionally,
    so every set cell belongs to some cube and the doubled inscribed balls
    cover the set exactly.
    """
    grid = mask.grid
    if grid.d != 2:
        raise ValueError("whitney covers are implemented for d = 2")
    if mask.count == 0:
        raise DegenerateMask("empty mask")
    dist = distance_transform(mask)
    bits2d = mask.bits.reshape(grid.n, grid.n)
    dist2d = dist.values.reshape(grid.n, grid.n)
    h = grid.h
    cube = _accepted_cubes(bits2d, dist2d, h).astype(float)
    m = cube[:, 2:]
    centers = np.asarray(grid.box.lower) + (cube[:, :2] + m / 2.0) * h
    radii = _BALL_SHRINK * (m[:, 0] * h) / 2.0
    ratios = 2.0 * radii / dist.at(centers)

    covered = np.zeros(grid.size, dtype=bool)
    for _, idx in BallFamily(grid, centers, 2.0 * radii).blocks():
        covered[idx] = True
    uncovered = float((mask.bits & ~covered).sum()) / mask.count
    return WhitneyCover(centers, radii, source_ball, map_name, ratios, uncovered)


def _min_gap(centers: np.ndarray, radii: np.ndarray, box: Box) -> float:
    """Smallest center distance (wrapped on a torus) minus radius sum over
    all pairs of balls; inf for fewer than two balls.

    A sort-and-sweep (Shamos and Hoey 1975). The smallest gap between
    neighbours in the order along any axis (cyclic on a torus) bounds the
    minimum from above, so a pair can attain it only if its distance along
    that axis (forward around the circle on a torus) from its first ball is
    at most the bound plus that ball's radius and the largest radius. The
    sweep runs along the axis that leaves the fewest such pairs, as a set
    stretched along one axis crowds its balls together along the other. It
    evaluates the pairs one offset in that order at a time, in blocks of at
    most ``_BLOCK_CELLS`` pairs, each gap by the same expression, so the
    result is the exact minimum over all pairs.
    """
    k = len(radii)
    if k < 2:
        return math.inf
    xs = centers - np.asarray(box.lower)
    if box.periodic:
        # in [0, side]: np.mod(-1e-17, 1.0) is 1.0, which sorts last and is
        # still one side behind its copy in the second lap
        xs = np.mod(xs, box.side)
    pos = np.arange(k)
    nxt, stop = ((pos + 1) % k, pos + k) if box.periodic else (pos[1:], k)

    def gaps(cs, rs, a, b):
        # rounding is symmetric, so fl(c - c') = -fl(c' - c) and the gap of
        # a pair does not depend on which ball comes first
        d = np.linalg.norm(box.wrap_displacement(cs[b] - cs[a]), axis=1)
        return d - (rs[b] + rs[a])

    sweeps = []
    for x in xs.T:
        order = np.argsort(x, kind="stable")
        sweeps.append((x[order], centers[order], radii[order]))
    best = min(float(gaps(cs, rs, pos[: len(nxt)], nxt).min()) for _, cs, rs in sweeps)
    reach = best + float(radii.max()) + 1e-9 * box.side

    def last(x, rs):
        # the partners of position a are a + 1, ..., last[a] - 1 (mod k)
        ahead = np.concatenate([x, x + box.side]) if box.periodic else x
        return np.minimum(np.searchsorted(ahead, x + rs + reach, side="right"), stop)

    ends = [last(x, rs) for x, _, rs in sweeps]
    axis = int(np.argmin([np.maximum(end - pos - 1, 0).sum() for end in ends]))
    (_, cs, rs), end = sweeps[axis], ends[axis]
    # the neighbours a + 1 are in the bound already
    step, a = 2, pos
    while len(a := a[end[a] > a + step]):
        for lo in range(0, len(a), _BLOCK_CELLS):
            part = a[lo : lo + _BLOCK_CELLS]
            best = min(best, float(gaps(cs, rs, part, (part + step) % k).min()))
        step += 1
    return best


def check_cover_invariants(cover: WhitneyCover, mask: PixelMask) -> dict:
    """Literal checks of the cover invariants; returns the measured slacks.

    Keys: min_gap (smallest center distance, wrapped on a torus, minus
    radius sum over all pairs, positive for disjointness; see ``_min_gap``),
    uncovered_fraction, ratio_min/ratio_max, max_radius,
    containment_violations (ball cells outside the mask).
    """
    centers, radii = cover.centers, cover.radii
    contain_bad = 0
    for _, idx in BallFamily(mask.grid, centers, radii).blocks():
        contain_bad += int((~mask.bits[idx]).sum())
    return {
        "min_gap": _min_gap(centers, radii, mask.grid.box),
        "uncovered_fraction": cover.uncovered_fraction,
        "ratio_min": float(np.min(cover.whitney_ratios)),
        "ratio_max": float(np.max(cover.whitney_ratios)),
        "max_radius": float(radii.max()),
        "containment_violations": contain_bad,
    }


def covering_statistic(cover: WhitneyCover, a: float = 0.0, p: float = 1.0) -> float:
    """Mass-weighted gauge sum of the cover, normalized by the source ball.

    ((1/|B|) sum_k |O_k| rho_a(r_B / r_k)^p)^(1/p); stays bounded by a
    constant multiple of rho_a of the map distortion when the cover comes
    from a measure-preserving image.

    Each distinct radius's term is computed once, and the terms are summed
    ball by ball, left to right, as a running sum over the balls adds them.
    An a that is not finite and nonnegative, a sum that overflows and a
    positive sum whose root underflows to 0 raise BadParameter.
    """
    if not 0 < p < math.inf:
        raise BadParameter(f"p {p:g} must be finite and positive")
    if not 0 <= a < math.inf:
        raise BadParameter(f"a {a:g} must be finite and nonnegative")
    r_b = cover.source_ball.radius
    vol_b = cover.source_ball.volume
    d = cover.centers.shape[1]
    radii, first, which = np.unique(cover.radii, return_index=True, return_inverse=True)
    terms = np.empty(len(radii))
    try:
        # in ball order, so the first radius too large in ball order is named
        for k in np.argsort(first):
            r = float(radii[k])
            if r > r_b * (1.0 + 1e-9):
                raise RadiusViolation(f"cover ball radius {r} exceeds source radius {r_b}")
            terms[k] = unit_ball_volume(d) * r**d * rho(a, max(r_b / r, 1.0)) ** p
        with np.errstate(over="ignore"):
            # np.add.accumulate adds strictly left to right, from 0.0
            total = float(np.add.accumulate(np.r_[0.0, terms[which]])[-1])
        stat = (total / vol_b) ** (1.0 / p)
    except OverflowError:
        stat = math.inf
    if not math.isfinite(stat):
        raise BadParameter(f"the covering sum overflows at a {a:g}, p {p:g}")
    if stat == 0 and total > 0:
        raise BadParameter(f"the root of the covering sum underflows to 0 at p {p:g}")
    return stat


@dataclass(frozen=True)
class ShellHistogram:
    """Dyadic-radius mass profile of a cover.

    ``masses[l]`` is the total ball area with radius in
    [2^-l r_B, 2^-(l-1) r_B); ``decay_constant`` is the smallest C with
    masses[l] <= C * K * 2^-l * |B| for all shells (reported only when the
    map distortion K is known).
    """

    levels: list
    masses: list
    covered_mass_fraction: float
    decay_constant: float | None


def shell_histogram(cover: WhitneyCover, k_phi: float | None = None) -> ShellHistogram:
    """Bucket the cover's ball areas by dyadic radius relative to r_B.

    Level and area are computed once per distinct radius; each shell's mass
    adds its balls' areas left to right in ball order.
    """
    r_b = cover.source_ball.radius
    vol_b = cover.source_ball.volume
    d = cover.centers.shape[1]
    radii, which = np.unique(cover.radii, return_inverse=True)
    radii = radii.tolist()
    lvl = np.array([int(math.floor(math.log2(max(r_b / r, 1.0)) + 1e-12)) for r in radii])[which]
    vol = np.array([unit_ball_volume(d) * r**d for r in radii])[which]
    levels = np.unique(lvl).tolist()
    masses = [float(np.add.accumulate(vol[lvl == l])[-1]) for l in levels]
    decay = None
    if k_phi is not None:
        decay = max(
            m / (k_phi * 2.0 ** (-l) * vol_b) for l, m in zip(levels, masses)
        )
    return ShellHistogram(levels, masses, sum(masses) / vol_b, decay)
