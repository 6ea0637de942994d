"""Whitney covers of mapped balls and the covering-lemma statistic."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscillab import whitney
from oscillab.domain import Ball, Box, Grid, PixelMask, cells_in_ball, distance_transform
from oscillab.errors import BadParameter, NotTorusMap, RadiusViolation
from oscillab.maps import (
    compose_maps,
    make_hat_twist,
    make_identity,
    make_linear_strain,
    make_rotation,
    make_shear,
)
from oscillab.oscillation import rho
from oscillab.whitney import (
    WhitneyCover,
    _accepted_cubes,
    _min_gap,
    check_cover_invariants,
    covering_statistic,
    image_mask,
    shell_histogram,
    whitney_decompose,
)

BIG = Box((-2.0, -2.0), 4.0, periodic=False)
TORUS = Box((0.0, 0.0), 1.0, periodic=True)


def test_image_mask_area_matches_ball():
    g = Grid(BIG, 256)
    ball = Ball((0.0, 0.0), 0.4)
    for phi in (make_identity(), make_shear(1.5), make_linear_strain(0.6)):
        mask = image_mask(phi, ball, g)
        area = mask.count * g.cell_volume
        assert abs(area - ball.volume) / ball.volume < 0.03


def test_identity_disk_cover_frozen():
    # frozen reference run: unit-window disk of radius 0.5 at n = 256
    g = Grid(Box((-1.0, -1.0), 2.0), 256)
    ball = Ball((0.0, 0.0), 0.5)
    mask = image_mask(make_identity(), ball, g)
    cover = whitney_decompose(mask, source_ball=ball)
    assert len(cover.balls) == 2428
    stat = covering_statistic(cover, a=0.0, p=1.0)
    assert abs(stat - 2.485636) < 1e-4
    hist = shell_histogram(cover)
    assert abs(hist.covered_mass_fraction - 0.779016) < 1e-4
    # the largest inscribed ball sits an eighth of the source radius
    assert max(b.radius for b in cover.balls) <= ball.radius / 8.0


def test_cover_invariants_identity_disk():
    g = Grid(Box((-1.0, -1.0), 2.0), 128)
    ball = Ball((0.0, 0.0), 0.5)
    mask = image_mask(make_identity(), ball, g)
    cover = whitney_decompose(mask, source_ball=ball)
    inv = check_cover_invariants(cover, mask)
    assert inv["min_gap"] > 0.0  # strict disjointness
    assert inv["containment_violations"] == 0
    assert 0.125 <= inv["ratio_min"] and inv["ratio_max"] <= 4.0
    assert inv["max_radius"] <= ball.radius
    assert cover.uncovered_fraction == 0.0


def test_randomized_instances_invariants():
    g = Grid(BIG, 128)
    rng = np.random.default_rng(11)
    for i in range(6):
        cx, cy = rng.uniform(-0.3, 0.3, size=2)
        ball = Ball((cx, cy), rng.uniform(0.2, 0.4))
        phi = (
            make_shear(rng.uniform(0.5, 2.5))
            if i % 2
            else make_rotation(rng.uniform(0, 2 * math.pi), center=(cx, cy))
        )
        mask = image_mask(phi, ball, g)
        cover = whitney_decompose(mask, source_ball=ball, map_name=phi.name)
        inv = check_cover_invariants(cover, mask)
        assert inv["min_gap"] > 0.0
        assert 0.125 <= inv["ratio_min"] and inv["ratio_max"] <= 4.0
        assert inv["max_radius"] <= ball.radius * (1 + 1e-9)
        assert inv["containment_violations"] == 0
        assert cover.uncovered_fraction <= 0.02


def test_covering_statistic_radius_guard():
    g = Grid(BIG, 128)
    small = Ball((0.0, 0.0), 0.05)
    mask = image_mask(make_identity(), Ball((0.0, 0.0), 0.4), g)
    cover = whitney_decompose(mask, source_ball=small)
    with pytest.raises(RadiusViolation):
        covering_statistic(cover, a=0.0, p=1.0)


def test_covering_statistic_parameters():
    # balls of the source radius have gauge log 1 = 0 at a = 0: a true 0
    ball = Ball((0.5, 0.5), 0.25)
    cover = _hand_cover([(0.5, 0.5), (0.0, 0.0)], [0.25, 0.25], ball)
    assert covering_statistic(cover, a=0.0, p=1.0) == 0.0
    cover = _hand_cover([(0.5, 0.5)], [0.125], ball)
    for a, p in ((-1.0, 1.0), (math.nan, 1.0), (math.inf, 1.0), (0.0, 1e-300)):
        with pytest.raises(BadParameter):
            covering_statistic(cover, a=a, p=p)


def test_statistic_isometry_invariant():
    g = Grid(BIG, 128)
    ball = Ball((0.0, 0.0), 0.4)
    base = covering_statistic(
        whitney_decompose(image_mask(make_identity(), ball, g), source_ball=ball)
    )
    rot = make_rotation(math.pi / 2, center=(0.0, 0.0))
    turned = covering_statistic(
        whitney_decompose(image_mask(rot, ball, g), source_ball=ball)
    )
    assert abs(base - turned) < 1e-9


def test_statistic_grows_with_distortion():
    g = Grid(BIG, 128)
    ball = Ball((0.0, 0.0), 0.3)
    stats = []
    for t in (0.0, 0.5, 1.0):
        phi = make_linear_strain(t) if t else make_identity()
        mask = image_mask(phi, ball, g)
        stats.append(
            covering_statistic(whitney_decompose(mask, source_ball=ball), a=0.0, p=1.0)
        )
    # distortion strictly increases the statistic over the identity...
    assert stats[1] > stats[0] and stats[2] > stats[0]
    # ...but boundedness keeps it within a small multiple of the base value
    assert stats[2] <= 4.0 * stats[0]


def test_shell_histogram_mass_and_decay():
    g = Grid(BIG, 256)
    ball = Ball((0.0, 0.0), 0.4)
    phi = make_linear_strain(0.8)
    cover = whitney_decompose(image_mask(phi, ball, g), source_ball=ball)
    hist = shell_histogram(cover, k_phi=phi.K)
    total = sum(hist.masses)
    # the shell masses add up to the covered area: between 70% and 100% of |B|
    assert 0.7 <= total / ball.volume <= 1.0
    assert hist.covered_mass_fraction == pytest.approx(total / ball.volume)
    # every shell obeys the K 2^-l |B| envelope with the reported constant
    for lvl, mass in zip(hist.levels, hist.masses):
        assert mass <= hist.decay_constant * phi.K * 2.0**-lvl * ball.volume + 1e-12


def test_composite_map_cover():
    g = Grid(BIG, 128)
    ball = Ball((0.1, -0.1), 0.3)
    phi = compose_maps(make_shear(1.0), make_hat_twist(2.0, center=(0.1, -0.1)))
    mask = image_mask(phi, ball, g)
    cover = whitney_decompose(mask, source_ball=ball, map_name=phi.name)
    inv = check_cover_invariants(cover, mask)
    assert inv["min_gap"] > 0.0 and inv["containment_violations"] == 0


def _hand_cover(centers, radii, source_ball):
    """A cover built from its arrays, with unit Whitney ratios."""
    radii = np.array(radii, dtype=float)
    return WhitneyCover(np.array(centers, dtype=float).reshape(-1, 2), radii, source_ball, "",
                        np.ones(len(radii)), 0.0)


def test_cover_gap_wraps_on_torus():
    # two balls overlapping across the seam x = 0 ~ 1: centers 0.04 apart
    g = Grid(TORUS, 64)
    cover = _hand_cover([(0.02, 0.5), (0.98, 0.5)], [0.03, 0.03], Ball((0.5, 0.5), 0.25))
    mask = PixelMask(g, np.ones(g.size, dtype=bool))
    assert check_cover_invariants(cover, mask)["min_gap"] < 0


def _subdivide(bits2d, dist2d, h, i0, j0, m, out):
    """Recursive stopping-time scan, the reference of ``_accepted_cubes``;
    appends the accepted (i0, j0, m) cubes."""
    block = bits2d[i0 : i0 + m, j0 : j0 + m]
    if not block.any():
        return
    if block.all():
        if m == 1:
            out.append((i0, j0, m))
            return
        diam = m * h * math.sqrt(2.0)
        dq = dist2d[i0 : i0 + m, j0 : j0 + m].min() - h * math.sqrt(2.0)
        if dq >= diam:
            out.append((i0, j0, m))
            return
    if m == 1:
        return
    half = m // 2
    for di in (0, half):
        for dj in (0, half):
            _subdivide(bits2d, dist2d, h, i0 + di, j0 + dj, half, out)


def _brute_min_gap(cover, box):
    """Smallest wrapped center distance minus radius sum, over every pair."""
    centers = np.array([b.center for b in cover.balls])
    radii = cover.radii
    min_gap = math.inf
    for i in range(len(radii) - 1):
        d = np.linalg.norm(box.wrap_displacement(centers[i + 1 :] - centers[i]), axis=1)
        min_gap = min(min_gap, float((d - (radii[i + 1 :] + radii[i])).min()))
    return min_gap


@pytest.mark.parametrize("box", [BIG, TORUS])
def test_cover_gap_beyond_nearest_neighbours(box):
    # every ball's nearest center belongs to a ball with a wider gap, so the
    # smallest gap (a, b) is found only within the nearest-neighbour bound
    # plus twice the largest radius; on the torus it also crosses the seam,
    # and one center sits a rounding error below the box, which folds to 0
    if box.periodic:
        a, b, r, up, small, want = (0.04, 0.5), (0.94, 0.5), 0.03, 0.095, 0.02, 0.04
        extra = [Ball((-1e-17, 0.2), small)]
    else:
        a, b, r, up, small, want = (-0.6, 0.0), (0.45, 0.0), 0.5, 0.8, 0.1, 0.05
        extra = []
    balls = [Ball(a, r), Ball(b, r), Ball((a[0], a[1] + up), small),
             Ball((b[0], b[1] + up), small), *extra]
    cover = _hand_cover([b.center for b in balls], [b.radius for b in balls],
                        Ball((0.5, 0.5), 1.0))
    g = Grid(box, 64)
    gap = check_cover_invariants(cover, PixelMask(g, np.ones(g.size, dtype=bool)))["min_gap"]
    assert gap == _brute_min_gap(cover, box)
    assert gap == pytest.approx(want)


def test_cover_gap_of_coincident_centers():
    # the KD-tree may return a coincident center before the ball itself
    g = Grid(TORUS, 64)
    cover = _hand_cover([(0.3, 0.3), (0.3, 0.3), (0.6, 0.6)], [0.1, 0.05, 0.05],
                        Ball((0.5, 0.5), 0.25))
    mask = PixelMask(g, np.ones(g.size, dtype=bool))
    assert check_cover_invariants(cover, mask)["min_gap"] == -(0.05 + 0.1)


@settings(max_examples=300)
@given(box=st.sampled_from([BIG, TORUS, Box((-0.3, 0.1), 1.7, periodic=True)]),
       k=st.integers(2, 40), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-3, 0.05, 0.4]), seam=st.booleans(),
       coincident=st.booleans(), lattice=st.sampled_from([None, 0, 1]),
       block=st.sampled_from([1, 3, whitney._BLOCK_CELLS]))
@example(box=TORUS, k=2, seed=0, scale=0.05, seam=True, coincident=False, lattice=None, block=1)
@example(box=BIG, k=2, seed=1, scale=0.4, seam=False, coincident=True, lattice=0, block=1)
# the smallest gap crosses the seam along the sweep, between balls that are
# no neighbours there
@example(box=TORUS, k=12, seed=164, scale=0.4, seam=False, coincident=False, lattice=None,
         block=3)
def test_min_gap_equals_brute_force(box, k, seed, scale, seam, coincident, lattice, block):
    # the sweep's exact minimum over every pair; a draw may put centers on
    # and just below the seams, coincide, share one coordinate along an
    # axis (``lattice``) or overlap (the largest radius scale), and small
    # blocks cut its passes
    rng = np.random.default_rng(seed)
    lower, side = np.asarray(box.lower), box.side
    centers = lower + rng.uniform(0.0, side, (k, 2))
    if seam:
        below = np.nextafter(lower, -np.inf)
        top = np.nextafter(lower + side, -np.inf)
        for row, value in zip(rng.integers(0, k, 4), (lower, below, top, lower - 1e-17)):
            axis = rng.integers(0, 2)
            centers[row, axis] = value[axis]
    if coincident:
        centers[rng.integers(0, k, k // 2 + 1)] = centers[rng.integers(0, k)]
    if lattice is not None:
        centers[:, lattice] = lower[lattice] + side * np.floor(
            (centers[:, lattice] - lower[lattice]) / side * 4) / 4
    radii = rng.uniform(0.0, scale * side, k)
    cover = _hand_cover(centers, radii, Ball((0.5, 0.5), 1.0))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(whitney, "_BLOCK_CELLS", block)
        gap = _min_gap(cover.centers, cover.radii, box)
    assert gap == _brute_min_gap(cover, box)


def _sawtooth(y):
    u = np.mod(y, 1.0)
    return np.minimum(u, 1.0 - u)


def _edt_shapes(monkeypatch) -> list:
    """Shapes of the arrays handed to the package's distance transform from
    now on."""
    import oscillab.domain

    shapes, edt = [], oscillab.domain._edt

    def spy(bits, *args):
        shapes.append(bits.shape)
        return edt(bits, *args)

    monkeypatch.setattr(oscillab.domain, "_edt", spy)
    return shapes


def test_torus_cover_transforms_a_reduced_pad(monkeypatch):
    # criterion 02's sawtooth-shear covers: the image of a ball of radius
    # 1/8 fills about 5% of the torus, so the wrap pad stays under n/2
    g = Grid(TORUS, 256)
    ball = Ball((0.5, 0.5), 0.125)
    sawtooth = lambda y: np.minimum(np.mod(y, 1.0), 1.0 - np.mod(y, 1.0))
    shapes = _edt_shapes(monkeypatch)
    for t in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
        phi = make_shear(math.exp(t) - math.exp(-t), profile=sawtooth, profile_lip=1.0)
        whitney_decompose(image_mask(phi, ball, g), source_ball=ball)
        pad = (shapes[-1][0] - g.n) // 2
        assert shapes[-1] == (g.n + 2 * pad,) * 2 and pad < g.n // 2
    assert len(shapes) == 6


@pytest.mark.parametrize("phi, center", [(make_linear_strain(0.6), (0.3, -0.5)),
                                         (make_identity(), (-1.9, 1.8))])
def test_window_cover_transforms_the_mask_support(monkeypatch, phi, center):
    # the mask's bounding box plus a ring of one cell, clipped to the grid
    # where the mask touches the window's edge
    g = Grid(BIG, 256)
    ball = Ball(center, 0.4)
    mask = image_mask(phi, ball, g)
    rows = np.nonzero(mask.bits.reshape(g.n, g.n))
    want = tuple(min(r.max() + 2, g.n) - max(r.min() - 1, 0) for r in rows)
    shapes = _edt_shapes(monkeypatch)
    whitney_decompose(mask, source_ball=ball)
    assert shapes == [want]
    assert want[0] * want[1] < g.size // 4


def test_image_mask_rejects_non_torus_map():
    # strain does not carry the period lattice to itself: on the torus its
    # mask used to count cells near every periodic copy of the ball
    g = Grid(TORUS, 128)
    ball = Ball((0.5, 0.5), 0.125)
    with pytest.raises(NotTorusMap):
        image_mask(make_linear_strain(0.5), ball, g)
    # an integer shear and criterion 02's sawtooth shear are torus maps
    for phi in (make_shear(3.0), make_shear(math.exp(1.0) - math.exp(-1.0), _sawtooth)):
        area = image_mask(phi, ball, g).count * g.cell_volume
        assert abs(area - ball.volume) / ball.volume < 0.03


def _criterion_05_masks():
    """The 20 random (mask, source ball, map) instances of acceptance criterion 05."""
    g = Grid(BIG, 128)
    rng = np.random.default_rng(11)
    for i in range(20):
        cx, cy = rng.uniform(-0.3, 0.3, size=2)
        ball = Ball((cx, cy), rng.uniform(0.15, 0.35))
        kind = i % 4
        if kind == 0:
            phi = make_shear(rng.uniform(0.5, 3.0))
        elif kind == 1:
            phi = make_rotation(rng.uniform(0, 2 * math.pi), center=(cx, cy))
        elif kind == 2:
            phi = make_linear_strain(rng.uniform(0.2, 0.9))
        else:
            phi = compose_maps(
                make_shear(rng.uniform(0.5, 2.0)), make_rotation(rng.uniform(0, 3))
            )
        yield image_mask(phi, ball, g), ball, phi


def test_cover_gathers_match_per_ball_loop():
    cases = list(_criterion_05_masks())
    # a torus image that wraps across the seam (an integer shear is a torus map)
    seam = Ball((0.05, 0.5), 0.2)
    cases.append((image_mask(make_shear(2.0), seam, Grid(TORUS, 128)), seam, make_shear(2.0)))
    violations = 0
    for mask, ball, phi in cases:
        g = mask.grid
        cover = whitney_decompose(mask, source_ball=ball, map_name=phi.name)
        covered = np.zeros(g.size, dtype=bool)
        for b in cover.balls:
            covered[cells_in_ball(g, Ball(b.center, 2.0 * b.radius))] = True
        assert cover.uncovered_fraction == float((mask.bits & ~covered).sum()) / mask.count
        # checked against its own mask and against one shrunk by three cells
        shrunk = PixelMask(g, mask.bits & (distance_transform(mask).dist > 3 * g.h))
        for checked in (mask, shrunk):
            bad = sum(int((~checked.bits[cells_in_ball(g, b)]).sum()) for b in cover.balls)
            inv = check_cover_invariants(cover, checked)
            assert inv["containment_violations"] == bad
            violations += bad
    assert violations > 0


@settings(max_examples=20)
@given(
    kind=st.sampled_from(["strain", "shear", "twist", "torus"]),
    n=st.sampled_from([64, 128]),
    size=st.floats(0.0, 1.0),
    cx=st.floats(0.0, 1.0),
    cy=st.floats(0.0, 1.0),
    r=st.floats(0.0, 1.0),
)
def test_whitney_engine_matches_recursive_reference(kind, n, size, cx, cy, r):
    # window masks of random strains, shears and twists, and torus masks of
    # criterion 02's sawtooth shear whose source ball may cross the seam
    if kind == "torus":
        g = Grid(TORUS, n)
        ball = Ball((cx, cy), 0.05 + 0.15 * r)
        t = 0.5 + 1.5 * size
        phi = make_shear(math.exp(t) - math.exp(-t), _sawtooth)
    else:
        g = Grid(BIG, n)
        center = (0.6 * cx - 0.3, 0.6 * cy - 0.3)
        ball = Ball(center, 0.15 + 0.2 * r)
        phi = {
            "strain": lambda: make_linear_strain(0.2 + size),
            "shear": lambda: make_shear(0.5 + 2.5 * size),
            "twist": lambda: make_hat_twist(0.5 + 5.5 * size, center=center),
        }[kind]()
    mask = image_mask(phi, ball, g)
    cover = whitney_decompose(mask, source_ball=ball, map_name=phi.name)
    bits2d = mask.bits.reshape(n, n)
    dist2d = distance_transform(mask).dist.reshape(n, n)
    ref: list = []
    _subdivide(bits2d, dist2d, g.h, 0, 0, n, ref)
    np.testing.assert_array_equal(_accepted_cubes(bits2d, dist2d, g.h), np.array(sorted(ref)))
    inv = check_cover_invariants(cover, mask)
    assert inv["min_gap"] == _brute_min_gap(cover, g.box)
    assert inv["min_gap"] > 0.0
    assert cover.uncovered_fraction == 0.0


def _loop_covering_statistic(cover, a=0.0, p=1.0):
    """The per-ball loop ``covering_statistic`` replaced, kept as its reference."""
    r_b = cover.source_ball.radius
    vol_b = cover.source_ball.volume
    total = 0.0
    for ball in cover.balls:
        if ball.radius > r_b * (1.0 + 1e-9):
            raise RadiusViolation(
                f"cover ball radius {ball.radius} exceeds source radius {r_b}"
            )
        total += ball.volume * rho(a, max(r_b / ball.radius, 1.0)) ** p
    stat = (total / vol_b) ** (1.0 / p)
    if stat == 0 < total:
        # the root of a positive sum is out of range, as an overflowing sum is
        raise OverflowError("the root of the covering sum underflows to 0")
    return stat


def _loop_shell_histogram(cover, k_phi=None):
    """The per-ball loop ``shell_histogram`` replaced, kept as its reference."""
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
    return levels, masses, sum(masses) / vol_b, decay


@settings(max_examples=100)
@given(
    r_b=st.floats(0.05, 1.0),
    # radii as fractions of r_B: dyadic ones, as a Whitney cover has, any
    # others, and a few above 1, which the statistic rejects
    pool=st.lists(st.integers(0, 12).map(lambda j: 0.995 * 2.0**-j) | st.floats(1e-3, 1.0),
                  min_size=1, max_size=6, unique=True),
    over=st.lists(st.floats(1.0, 1.5, exclude_min=True), max_size=2, unique=True),
    count=st.integers(1, 300),
    a=st.floats(0.0, 1.0),
    p=st.floats(0.0, 4.0, exclude_min=True),
    k_phi=st.none() | st.floats(1.0, 50.0),
    seed=st.integers(0, 2**16),
)
def test_cover_reductions_equal_per_ball_loops(r_b, pool, over, count, a, p, k_phi, seed):
    # radii repeat in no particular order; the statistic, the masses and the
    # decay constant equal the per-ball loops bit for bit, a radius above r_B
    # is named as the loop names it, and where the loop's sum overflows (at a
    # tiny p, 1/p does) the statistic raises BadParameter
    rng = np.random.default_rng(seed)
    fractions = pool + over
    radii = [r_b * fractions[k] for k in rng.integers(0, len(fractions), count)]
    centers = rng.uniform(-1.0, 1.0, (count, 2))
    cover = _hand_cover(centers, radii, Ball((0.0, 0.0), r_b))
    try:
        want = _loop_covering_statistic(cover, a=a, p=p)
        want = want if math.isfinite(want) else BadParameter
    except RadiusViolation as exc:
        want = str(exc)
    except OverflowError:
        want = BadParameter
    try:
        got = covering_statistic(cover, a=a, p=p)
    except RadiusViolation as exc:
        got = str(exc)
    except BadParameter:
        got = BadParameter
    assert got == want
    hist = shell_histogram(cover, k_phi)
    assert (hist.levels, hist.masses, hist.covered_mass_fraction,
            hist.decay_constant) == _loop_shell_histogram(cover, k_phi)


@settings(max_examples=20)
@given(periodic=st.booleans(), k=st.integers(-60, 60), ci=st.integers(8, 56),
       cj=st.integers(8, 56), r=st.integers(3, 20))
@example(periodic=True, k=-60, ci=8, cj=30, r=20)
@example(periodic=False, k=60, ci=40, cj=20, r=12)
def test_cover_is_invariant_under_dyadic_dilation(periodic, k, ci, cj, r):
    # a mask of cells (a disk in cell units, wrapped on the torus) on a box
    # scaled by 2^k: the same cubes and the same min_gap / side
    i, j = np.indices((64, 64))
    di, dj = i - ci, j - cj
    if periodic:
        di, dj = (di + 32) % 64 - 32, (dj + 32) % 64 - 32
    bits = di**2 + dj**2 < r**2
    found = []
    for box in (Box((0.0, 0.0), 1.0, periodic),
                Box((0.0, math.ldexp(-3.0, k)), math.ldexp(1.0, k), periodic)):
        g = Grid(box, 64)
        mask = PixelMask(g, bits)
        low = np.asarray(box.lower)
        source = Ball(low + box.side * np.array([ci + 0.5, cj + 0.5]) / 64, box.side / 2)
        cover = whitney_decompose(mask, source_ball=source)
        found.append((len(cover.radii), check_cover_invariants(cover, mask)["min_gap"] / box.side))
    assert found[0] == found[1]
