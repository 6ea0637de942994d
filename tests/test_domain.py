"""Grids, balls, masks, distance transforms, interpolation."""

import math

import numpy as np
import pytest

from oscillab.domain import (
    Ball,
    BallFamily,
    Box,
    Grid,
    GridFunction,
    PixelMask,
    ball_average,
    ball_family,
    ball_oscillation,
    cells_in_ball,
    distance_transform,
    interpolate,
)
from oscillab.errors import BadRadius, DegenerateMask, EmptyBall, EmptyFamily


WINDOW = Box((-1.0, -1.0), 2.0, periodic=False)
TORUS = Box((0.0, 0.0), 1.0, periodic=True)


def test_box_contains_and_wrap():
    assert WINDOW.contains(np.array([[0.0, 0.0], [0.99, -0.99]])).all()
    assert not WINDOW.contains(np.array([[1.5, 0.0]])).any()
    # displacement of 0.9 across a unit torus wraps to -0.1
    d = TORUS.wrap_displacement(np.array([[0.9, -0.9]]))
    assert np.allclose(d, [[-0.1, 0.1]])


def test_grid_rejects_bad_n():
    with pytest.raises(ValueError):
        Grid(WINDOW, 48)  # not a power of two
    with pytest.raises(ValueError):
        Grid(WINDOW, 4)  # below minimum


def test_cell_centers_layout():
    g = Grid(WINDOW, 8)
    c = g.cell_centers()
    assert c.shape == (64, 2)
    assert np.isclose(c[:, 0].min(), -1.0 + g.h / 2)
    assert np.isclose(c[:, 0].max(), 1.0 - g.h / 2)


def test_ball_volume():
    assert np.isclose(Ball((0, 0), 2.0).volume, math.pi * 4.0)


def test_cells_in_ball_count_tracks_area():
    g = Grid(WINDOW, 128)
    ball = Ball((0.1, -0.2), 0.3)
    count = len(cells_in_ball(g, ball))
    assert abs(count * g.cell_volume - ball.volume) / ball.volume < 0.03


def test_cells_in_ball_periodic_wraps():
    g = Grid(TORUS, 64)
    near_corner = Ball((0.01, 0.01), 0.1)
    count = len(cells_in_ball(g, near_corner))
    central = Ball((0.5, 0.5), 0.1)
    assert abs(count - len(cells_in_ball(g, central))) <= 8


def test_ball_average_and_oscillation_linear():
    g = Grid(WINDOW, 128)
    c = g.cell_centers()
    f = GridFunction(g, c[:, 0])
    ball = Ball((0.2, 0.2), 0.4)
    # a linear function averages to its value at the ball center
    assert abs(ball_average(f, ball) - 0.2) < 1e-3
    # constant functions have zero oscillation at every p
    const = GridFunction(g, np.full(g.size, 3.7))
    assert ball_oscillation(const, ball, p=1.0) < 1e-12
    assert ball_oscillation(const, ball, p=2.0) < 1e-12


def test_ball_oscillation_checker_exact():
    g = Grid(TORUS, 64)
    idx = np.indices((64, 64)).sum(axis=0)
    f = GridFunction(g, np.where(idx % 2 == 0, 1.0, -1.0).ravel())
    osc = ball_oscillation(f, Ball((0.5, 0.5), 0.25), p=1.0)
    # +-1 pattern with near-zero mean oscillates by about 1
    assert 0.9 < osc <= 1.0


def test_empty_ball_raises():
    g = Grid(WINDOW, 64)
    with pytest.raises(EmptyBall):
        ball_average(GridFunction(g, np.zeros(g.size)), Ball((5.0, 5.0), 0.05))


def test_gridfunction_rejects_nonfinite():
    g = Grid(WINDOW, 8)
    vals = np.zeros(g.size)
    vals[3] = np.nan
    with pytest.raises(ValueError):
        GridFunction(g, vals)


def test_ball_family_filters_and_validates():
    g = Grid(WINDOW, 64)
    fam = ball_family(g, 8, [8 * g.h])
    assert len(fam) > 0
    # non-periodic: every ball fully inside the window
    for b in fam:
        assert (
            abs(b.center[0]) + b.radius <= 1.0 + 1e-12
            and abs(b.center[1]) + b.radius <= 1.0 + 1e-12
        )
    with pytest.raises(BadRadius):
        ball_family(g, 8, [g.h])  # below the 4-cell floor
    with pytest.raises(BadRadius):
        ball_family(g, 8, [g.box.side])  # above half the box


def test_ball_family_empty_is_an_error():
    g = Grid(WINDOW, 64)
    with pytest.raises(EmptyFamily):
        ball_family(g, 1000, [8 * g.h])  # no center on the stride sub-grid
    with pytest.raises(EmptyFamily):
        ball_family(g, 16, [0.9])  # no center far enough from the edge
    with pytest.raises(EmptyFamily):
        ball_family(g, 16, [])
    with pytest.raises(EmptyFamily):
        BallFamily.on(g, [])


@pytest.mark.parametrize("box, n, stride", [
    (WINDOW, 256, 8), (WINDOW, 512, 16), (Box((0.0, 0.0), 1.0, periodic=True), 256, 16),
    # the torus wrap, axis by axis, in every supported dimension
    (Box((0.0,), 1.0, periodic=True), 64, 4),
    (Box((0.0, 0.0, 0.0), 1.0, periodic=True), 32, 8),
    (Box((-0.75, 0.5), 2.5, periodic=True), 128, 8),
])
def test_translated_stencils_equal_cells_in_ball(box, n, stride):
    # the benchmark families, and tori of each dimension: every ball's
    # gathered row is its cells_in_ball
    g = Grid(box, n)
    radii = [8 * g.h * 2**k for k in range(int(math.log2(n / 32)) + 1)]
    fam = ball_family(g, stride, radii)
    assert len(fam._groups) == len(radii)  # one stencil per radius
    seen = 0
    for balls, idx in fam.blocks():
        for k, row in zip(balls, idx):
            assert np.array_equal(row, cells_in_ball(g, fam[k]))
            seen += 1
    assert seen == len(fam)


@pytest.mark.parametrize("box, n", [
    (Box((0.0,), 1.0, periodic=True), 64), (Box((-1.0,), 2.0, periodic=False), 64),
    (TORUS, 32), (WINDOW, 32), (Box((0.1, 0.3), 1.7, periodic=True), 32),
    (Box((0.0, 0.0, 0.0), 1.0, periodic=True), 16), (Box((-1.0, -1.0, -1.0), 2.0), 16),
])
def test_ball_sums_match_gathered_row_sums(box, n):
    # a family whose balls cross the seam of a torus, radius side/2, and a
    # plain list of balls anywhere (on the window, across its edge)
    g = Grid(box, n)
    radii = [4 * g.h, 6.5 * g.h, box.side / 4] + ([box.side / 2] if box.periodic else [])
    rng = np.random.default_rng(n)
    low, side = np.asarray(box.lower), box.side
    loose = [Ball(low + side * rng.choice([0.0, 0.5, 1.0, rng.random()], box.d),
                  side * rng.uniform(0.1, 0.5)) for _ in range(30)]
    fam = BallFamily.on(g, list(ball_family(g, 3, radii)) + loose)
    cells = [cells_in_ball(g, b) for b in fam]
    assert fam.counts.tolist() == [len(c) for c in cells]
    positive = 1.0 + rng.random(g.size)
    signed = rng.normal(size=g.size)
    sums = fam.ball_sums(np.stack([positive, signed]))
    assert sums.shape == (2, len(fam))
    np.testing.assert_allclose(sums[0], [positive[c].sum() for c in cells], rtol=1e-12, atol=0)
    # the documented rounding allowance, against exactly rounded sums
    exact = np.array([math.fsum(signed[c]) for c in cells])
    assert np.all(np.abs(sums[1] - exact) <= fam.sum_slack * fam.counts * np.abs(signed).max())
    np.testing.assert_array_equal(fam.ball_sums(signed), sums[1])
    # a family of one two-cell ball across the seam of the first axis: no
    # run on the last axis reaches past its center cell
    tiny = Ball(low + g.h * np.r_[n - 0.1, np.full(box.d - 1, 0.5)], 0.7 * g.h)
    expect = positive[cells_in_ball(g, tiny)].sum()
    assert BallFamily.on(g, [tiny]).ball_sums(positive)[0] == pytest.approx(expect, rel=1e-12)


def test_ball_family_periodic_keeps_boundary_centers():
    g = Grid(TORUS, 64)
    fam = ball_family(g, 8, [8 * g.h])
    assert len(fam) == 64  # full 8x8 sub-grid survives on the torus


def test_distance_transform_disk():
    g = Grid(WINDOW, 128)
    c = g.cell_centers()
    rr = np.sqrt((c**2).sum(axis=1))
    mask = PixelMask(g, rr < 0.6)
    df = distance_transform(mask)
    analytic = np.maximum(0.6 - rr, 0.0)
    err = np.abs(df.dist - analytic)[mask.bits].max()
    assert err <= g.h * math.sqrt(2)
    # complement cells carry zero distance
    assert np.all(df.dist[~mask.bits] == 0.0)


def test_distance_transform_half_plane():
    g = Grid(WINDOW, 128)
    c = g.cell_centers()
    mask = PixelMask(g, c[:, 0] < 0.2)
    df = distance_transform(mask)
    analytic = np.maximum(0.2 - c[:, 0], 0.0)
    assert np.abs(df.dist - analytic)[mask.bits].max() <= g.h * math.sqrt(2)


def test_distance_transform_periodic_band():
    g = Grid(TORUS, 64)
    c = g.cell_centers()
    mask = PixelMask(g, np.abs(c[:, 0] - 0.5) < 0.25)
    df = distance_transform(mask)
    analytic = np.maximum(0.25 - np.abs(c[:, 0] - 0.5), 0.0)
    assert np.abs(df.dist - analytic)[mask.bits].max() <= g.h * math.sqrt(2)


def _brute_force_distance(mask):
    """Distance to the nearest complement cell center, by exhaustive search."""
    g = mask.grid
    idx = np.indices((g.n,) * g.d).reshape(g.d, -1).T
    outside = idx[~mask.bits]
    dist = np.zeros(g.size)
    for i in np.flatnonzero(mask.bits):
        disp = outside - idx[i]
        if g.box.periodic:
            disp = (disp + g.n // 2) % g.n - g.n // 2
        dist[i] = np.sqrt(((g.h * disp) ** 2).sum(axis=1).min())
    return dist


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("d,n", [(1, 8), (1, 64), (2, 8), (2, 32), (3, 8), (3, 16)])
def test_distance_transform_matches_brute_force(d, n, periodic):
    box = Box((0.0,) * d, 1.0, periodic) if periodic else Box((-1.0,) * d, 2.0)
    g = Grid(box, n)
    rng = np.random.default_rng([d, n, periodic])
    for inside in (0.5, 0.9, 0.99):
        bits = rng.random(g.size) < inside
        bits[:2] = (True, False)  # neither empty nor full
        mask = PixelMask(g, bits)
        assert np.array_equal(distance_transform(mask).dist, _brute_force_distance(mask))


def test_distance_transform_degenerate():
    g = Grid(WINDOW, 64)
    with pytest.raises(DegenerateMask):
        distance_transform(PixelMask(g, np.ones(g.size, dtype=bool)))
    with pytest.raises(DegenerateMask):
        distance_transform(PixelMask(g, np.zeros(g.size, dtype=bool)))


def test_interpolate_exact_at_centers_and_linear():
    g = Grid(WINDOW, 64)
    c = g.cell_centers()
    vals = 2.0 * c[:, 0] - 0.5 * c[:, 1]
    # exact at the sample points
    assert np.allclose(interpolate(g, vals, c), vals)
    # multilinear reproduces affine functions between interior centers
    pts = np.array([[0.1234, -0.3456], [0.5, 0.25]])
    assert np.allclose(interpolate(g, vals, pts), 2.0 * pts[:, 0] - 0.5 * pts[:, 1])


def test_interpolate_periodic_wrap():
    g = Grid(TORUS, 64)
    c = g.cell_centers()
    vals = np.sin(2 * np.pi * c[:, 0])
    seam = np.array([[0.0, 0.5], [1.0 - 1e-12, 0.5]])
    out = interpolate(g, vals, seam)
    assert abs(out[0] - out[1]) < 1e-6
