"""Whitney covers of map images and the covering-sum statistic.

The image of a ball under a measure-preserving bi-Lipschitz map is an open
set; a dyadic stopping-time subdivision of the window produces disjoint
cubes whose size is comparable to their distance to the complement. Each
accepted cube contributes its (slightly shrunken) inscribed ball, so the
balls are strictly disjoint while the doubled balls still cover every cell
of the set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import (
    Ball,
    BallFamily,
    Box,
    Grid,
    PixelMask,
    cells_in_ball,  # noqa: F401  (perfbench's tracer wraps whitney.cells_in_ball)
    distance_transform,
    interpolate,
    points_in_ball,
)
from .errors import BadParameter, DegenerateMask, NotTorusMap, OutOfDomain, RadiusViolation
from .maps import BiLipMap
from .oscillation import rho

# inscribed balls are shrunk by this factor so adjacent cubes' balls
# cannot touch; doubled balls still cover the cube diagonal (0.995 > 1/sqrt2)
_BALL_SHRINK = 0.995

# every _TORUS_STRIDE-th cell center is checked by _require_torus_map; a
# prime stride spreads the sample over all rows of a power-of-two grid
_TORUS_STRIDE = 61


def _require_torus_map(phi: BiLipMap, grid: Grid) -> None:
    """Raise NotTorusMap unless phi^-1(x + L e_k) - phi^-1(x) is a lattice
    vector (to 1e-9 L) for every axis k on a strided sample of centers."""
    side = grid.box.side
    x = grid.cell_centers()[::_TORUS_STRIDE]
    pre = phi.inverse(x)
    for k in range(grid.d):
        shifted = x.copy()
        shifted[:, k] += side
        q = (phi.inverse(shifted) - pre) / side
        if not np.abs(q - np.round(q)).max() <= 1e-9:
            raise NotTorusMap(
                f"map {phi.name} is not a torus map: a period along axis {k} "
                "does not map to a period"
            )


def image_mask(phi: BiLipMap, ball: Ball, grid: Grid) -> PixelMask:
    """Rasterize phi(B): a cell is inside iff its preimage lies in B.

    Membership through the inverse map leaves no rasterization holes, which
    forward point-dumping would. On a periodic box phi must be a map of the
    torus (NotTorusMap otherwise): membership there counts every periodic
    copy of B.
    """
    centers = grid.cell_centers()
    pre = phi.inverse(centers)
    if grid.box.periodic:
        _require_torus_map(phi, grid)
    else:
        # the preimage samples themselves are fine; what must stay inside the
        # window is the set we rasterize, which is a subset of the grid by
        # construction. Guard instead that the ball image could fit at all.
        fwd_center = phi.forward(np.asarray(ball.center))
        if not grid.box.contains(fwd_center[None, :])[0]:
            raise OutOfDomain("mapped ball center leaves the window")
    return PixelMask(grid, points_in_ball(grid.box, pre, ball.center, ball.radius))


@dataclass(frozen=True)
class WhitneyCover:
    """Disjoint balls inside an open set whose doubles cover it.

    ``whitney_ratios`` certifies comparability of ball size and boundary
    distance: diameter of the ball over the distance from its center to the
    complement, one entry per ball.
    """

    balls: list
    source_ball: Ball
    map_name: str
    whitney_ratios: list
    uncovered_fraction: float

    @property
    def radii(self) -> np.ndarray:
        return np.array([b.radius for b in self.balls])


def _accepted_cubes(bits2d: np.ndarray, dist2d: np.ndarray, h: float) -> np.ndarray:
    """The (i0, j0, m) cubes of the stopping-time quadtree, as rows in
    ascending (i0, j0, m) order.

    One numpy pass per level m = n, n/2, ..., 1 over the blocks that the
    level above split, read from 2x2-pooled pyramids of the mask (any, all)
    and of the distance field (min). A block is accepted when it lies inside
    the set and, for m > 1, its distance to the complement less a cell
    diagonal is at least its own diagonal; it is split when it meets the set
    and is not accepted.
    """
    def pool(levels, ufunc):
        a = levels[-1]
        levels.append(ufunc.reduce((a[::2, ::2], a[1::2, ::2], a[::2, 1::2], a[1::2, 1::2])))

    anys, alls, mins = [bits2d], [bits2d], [dist2d]
    while len(anys[-1]) > 1:
        pool(anys, np.logical_or)
        pool(alls, np.logical_and)
        pool(mins, np.minimum)
    found = []
    active = np.ones((1, 1), dtype=bool)
    for level in range(len(anys) - 1, -1, -1):
        m = 1 << level
        accept = active & alls[level]
        if m > 1:
            diam = m * h * math.sqrt(2.0)
            accept &= mins[level] - h * math.sqrt(2.0) >= diam
        i, j = np.nonzero(accept)
        found.append(np.stack([i * m, j * m, np.full_like(i, m)], axis=1))
        active = (active & anys[level] & ~accept).repeat(2, axis=0).repeat(2, axis=1)
    cubes = np.concatenate(found)
    return cubes[np.lexsort(cubes.T[::-1])]


def whitney_decompose(mask: PixelMask, source_ball: Ball, map_name: str = "") -> WhitneyCover:
    """Dyadic Whitney cover of a 2-D pixel mask.

    Top-down quadtree (``_accepted_cubes``), one numpy pass per level: a
    cube is accepted when it sits inside the set and its (conservatively
    measured) distance to the complement is at least its diameter; single
    in-set cells are accepted unconditionally, so every set cell belongs to
    some cube and the doubled inscribed balls cover the set exactly.
    """
    grid = mask.grid
    if grid.d != 2:
        raise ValueError("whitney covers are implemented for d = 2")
    if mask.count == 0:
        raise DegenerateMask("empty mask")
    dist = distance_transform(mask)
    bits2d = mask.bits.reshape(grid.n, grid.n)
    dist2d = dist.dist.reshape(grid.n, grid.n)
    h = grid.h
    cube = _accepted_cubes(bits2d, dist2d, h).astype(float)
    m = cube[:, 2:]
    centers = np.asarray(grid.box.lower) + (cube[:, :2] + m / 2.0) * h
    radii = _BALL_SHRINK * (m[:, 0] * h) / 2.0
    ratios = (2.0 * radii / interpolate(grid, dist.dist, centers)).tolist()
    balls = [Ball(c, r) for c, r in zip(centers.tolist(), radii.tolist())]

    covered = np.zeros(grid.size, dtype=bool)
    for _, idx in BallFamily(grid, centers, 2.0 * radii).blocks():
        covered[idx] = True
    uncovered = float((mask.bits & ~covered).sum()) / mask.count
    return WhitneyCover(balls, source_ball, map_name, ratios, uncovered)


def _min_gap(centers: np.ndarray, radii: np.ndarray, box: Box) -> float:
    """Smallest center distance (wrapped on a torus) minus radius sum over
    all pairs of balls; inf for fewer than two balls.

    A KD-tree (periodic on a torus) gives each ball its nearest neighbour;
    the smallest gap over those pairs bounds the minimum from above, so only
    the pairs closer than that bound plus twice the largest radius can
    attain it. The gap of a pair is always evaluated by the same expression,
    so the result is the exact minimum over all pairs.
    """
    if len(radii) < 2:
        return math.inf
    from scipy.spatial import cKDTree

    pts, boxsize = centers, None
    if box.periodic:
        pts = np.mod(centers - np.asarray(box.lower), box.side)
        pts[pts >= box.side] = 0.0  # np.mod(-1e-17, 1.0) is 1.0
        boxsize = box.side
    tree = cKDTree(pts, boxsize=boxsize)

    def gaps(pairs):
        i, j = pairs.min(axis=1), pairs.max(axis=1)
        d = np.linalg.norm(box.wrap_displacement(centers[j] - centers[i]), axis=1)
        return d - (radii[j] + radii[i])

    _, nearest = tree.query(pts, k=2)
    own = np.arange(len(pts))
    # a coincident center may come back first, in place of the ball itself
    other = np.where(nearest[:, 1] == own, nearest[:, 0], nearest[:, 1])
    bound = float(gaps(np.stack([own, other], axis=1)).min())
    reach = bound + 2.0 * float(radii.max()) + 1e-9 * box.side
    close = tree.query_pairs(reach, output_type="ndarray")
    return float(gaps(close).min(initial=bound))


def check_cover_invariants(cover: WhitneyCover, mask: PixelMask) -> dict:
    """Literal checks of the cover invariants; returns the measured slacks.

    Keys: min_gap (smallest center distance, wrapped on a torus, minus
    radius sum over all pairs, positive for disjointness; see ``_min_gap``),
    uncovered_fraction, ratio_min/ratio_max, max_radius,
    containment_violations (ball cells outside the mask).
    """
    radii = cover.radii
    centers = np.array([b.center for b in cover.balls])
    contain_bad = 0
    for _, idx in BallFamily(mask.grid, centers, radii).blocks():
        contain_bad += int((~mask.bits[idx]).sum())
    return {
        "min_gap": _min_gap(centers, radii, mask.grid.box),
        "uncovered_fraction": cover.uncovered_fraction,
        "ratio_min": float(min(cover.whitney_ratios)),
        "ratio_max": float(max(cover.whitney_ratios)),
        "max_radius": float(radii.max()),
        "containment_violations": contain_bad,
    }


def covering_statistic(cover: WhitneyCover, a: float = 0.0, p: float = 1.0) -> float:
    """Mass-weighted gauge sum of the cover, normalized by the source ball.

    ((1/|B|) sum_k |O_k| rho_a(r_B / r_k)^p)^(1/p); stays bounded by a
    constant multiple of rho_a of the map distortion when the cover comes
    from a measure-preserving image.
    """
    if not 0 < p < math.inf:
        raise BadParameter(f"p {p:g} must be finite and positive")
    r_b = cover.source_ball.radius
    vol_b = cover.source_ball.volume
    total = 0.0
    for ball in cover.balls:
        if ball.radius > r_b * (1.0 + 1e-9):
            raise RadiusViolation(
                f"cover ball radius {ball.radius} exceeds source radius {r_b}"
            )
        total += ball.volume * rho(a, max(r_b / ball.radius, 1.0)) ** p
    return (total / vol_b) ** (1.0 / p)


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
    """Bucket the cover's ball areas by dyadic radius relative to r_B."""
    r_b = cover.source_ball.radius
    vol_b = cover.source_ball.volume
    buckets: dict = {}
    for ball in cover.balls:
        ratio = max(r_b / ball.radius, 1.0)
        lvl = int(math.floor(math.log2(ratio) + 1e-12))
        buckets[lvl] = buckets.get(lvl, 0.0) + ball.volume
    levels = sorted(buckets)
    masses = [buckets[l] for l in levels]
    decay = None
    if k_phi is not None:
        decay = max(
            m / (k_phi * 2.0 ** (-l) * vol_b) for l, m in zip(levels, masses)
        )
    return ShellHistogram(levels, masses, sum(masses) / vol_b, decay)
