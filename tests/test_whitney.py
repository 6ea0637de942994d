"""Whitney covers of mapped balls and the covering-lemma statistic."""

import math

import numpy as np
import pytest

from oscillab.domain import Ball, Box, Grid, PixelMask, cells_in_ball, distance_transform
from oscillab.errors import NotTorusMap, RadiusViolation
from oscillab.maps import (
    compose_maps,
    make_hat_twist,
    make_identity,
    make_linear_strain,
    make_rotation,
    make_shear,
)
from oscillab.whitney import (
    WhitneyCover,
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


def test_cover_gap_wraps_on_torus():
    # two balls overlapping across the seam x = 0 ~ 1: centers 0.04 apart
    g = Grid(TORUS, 64)
    balls = [Ball((0.02, 0.5), 0.03), Ball((0.98, 0.5), 0.03)]
    cover = WhitneyCover(balls, Ball((0.5, 0.5), 0.25), "", [1.0, 1.0], 0.0)
    mask = PixelMask(g, np.ones(g.size, dtype=bool))
    assert check_cover_invariants(cover, mask)["min_gap"] < 0


def _sawtooth(y):
    u = np.mod(y, 1.0)
    return np.minimum(u, 1.0 - u)


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
