"""Grids, balls, masks, distance transforms, interpolation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    points_in_ball,
    _edt,
)
from oscillab.cli import default_radii
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
    # one row per radius, each ball summed over its own radius's row only
    _, which = np.unique(fam.radii, return_inverse=True)
    rows = rng.normal(size=(which.max() + 1, g.size))
    np.testing.assert_array_equal(fam.ball_sums(rows, which),
                                  fam.ball_sums(rows)[which, np.arange(len(fam))])
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
    # a dyadic side, where every sum of squares is exact, and two sides where
    # rounding decides between displacements of equal integer length
    for side in (1.0 if periodic else 2.0, 0.7, 1.7):
        g = Grid(Box((0.0 if periodic else -1.0,) * d, side, periodic), n)
        rng = np.random.default_rng([d, n, periodic])
        for inside in (0.5, 0.9, 0.99):
            bits = rng.random(g.size) < inside
            bits[:2] = (True, False)  # neither empty nor full
            mask = PixelMask(g, bits)
            assert np.array_equal(distance_transform(mask).dist, _brute_force_distance(mask))


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("d,n", [(1, 64), (2, 32), (2, 256), (3, 16)])
def test_distance_transform_matches_scipy_on_dyadic_grids(d, n, periodic):
    # on a dyadic side every (h k)^2 and every sum of them is exact, so
    # scipy's transform of the whole grid (wrap-padded by half a period on a
    # torus) gives the same floats
    from scipy.ndimage import distance_transform_edt

    rng = np.random.default_rng([d, n, periodic, 1])
    pad = n // 2 if periodic else 0
    for side, lower in ((1.0, 0.0), (0.25, -3.0), (8.0, 5.5)):
        g = Grid(Box((lower,) * d, side, periodic), n)
        for inside in (0.5, 0.95, 0.999):
            bits = rng.random((n,) * d) < inside
            bits.flat[:2] = (True, False)  # neither empty nor full
            full = distance_transform_edt(np.pad(bits, pad, mode="wrap"), sampling=g.h)
            want = full[(slice(pad, pad + n),) * d].ravel()
            got = distance_transform(PixelMask(g, bits)).dist
            assert got.tobytes() == want.tobytes()


def _edt_on_whole_grid(mask):
    """The package's transform of the whole window, or of the torus grid
    wrap-padded by half a period per side."""
    g = mask.grid
    pad = g.n // 2 if g.box.periodic else 0
    bits = np.pad(mask.bits.reshape((g.n,) * g.d), pad, mode="wrap")
    return _edt(bits, g.h, pad).ravel()


@st.composite
def _blob_masks(draw):
    """A mask of up to three blobs (disks in cell units, stretched along
    some axes) or a single cell, on a window or torus of any corner and
    side; a boundary blob is centered on or next to the grid's edge, so on
    a torus it crosses the seam."""
    d = draw(st.integers(1, 3))
    n = draw(st.sampled_from({1: [8, 64, 256], 2: [8, 32, 64], 3: [8, 16]}[d]))
    side = draw(st.sampled_from([1.0, 2.0, 0.7, 1.7, 3.1, 1e-3]))
    lower = draw(st.tuples(*[st.floats(-10.0, 10.0)] * d))
    g = Grid(Box(lower, side, draw(st.booleans())), n)
    kind = draw(st.sampled_from(["blobs", "boundary", "cell"]))
    bits = np.zeros(g.size, dtype=bool)
    if kind == "cell":
        bits[draw(st.integers(0, g.size - 1))] = True
        return PixelMask(g, bits)
    cells = np.indices((n,) * d).reshape(d, -1).T
    for _ in range(draw(st.integers(1, 3))):
        center = np.array(draw(st.tuples(*[st.floats(0.0, n - 1.0)] * d)))
        if kind == "boundary":
            axis = draw(st.integers(0, d - 1))
            center[axis] = draw(st.sampled_from([-0.5, 0.0, 0.5, n - 1.5, n - 1.0, n - 0.5]))
        stretch = np.array(draw(st.tuples(*[st.sampled_from([1.0, 1.0, 2.0, 3.0])] * d)))
        # a radius of a cell or more holds the cell nearest the center
        radius = draw(st.floats(1.0, n / 3))
        disp = cells - center
        if g.box.periodic:
            disp -= n * np.round(disp / n)
        bits |= ((disp / stretch) ** 2).sum(axis=1) <= radius**2
    bits[0] &= not bits.all()  # neither empty nor full
    return PixelMask(g, bits)


@settings(max_examples=200)
@given(_blob_masks())
def test_distance_transform_matches_whole_grid_transform(mask):
    # the transform of the mask's support (window) or of the reduced wrap
    # pad (torus) equals the whole-grid one bit for bit
    want = _edt_on_whole_grid(mask)
    assert distance_transform(mask).dist.tobytes() == want.tobytes()


def test_cell_centers_match_meshgrid():
    for d in (1, 2, 3):
        g = Grid(Box((0.1, -0.3, 7.0)[:d], 1.7, periodic=d == 2), 16)
        low = np.asarray(g.box.lower)
        mesh = np.meshgrid(*[low[k] + g.axis_centers() for k in range(d)], indexing="ij")
        want = np.stack([m.ravel() for m in mesh], axis=-1)
        got = g.cell_centers()
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


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


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("d, n", [(1, 64), (2, 32), (3, 16)])
def test_cells_in_ball_matches_brute_force_on_dyadic_boxes(d, n, periodic):
    # an oracle that shares no code with cells_in_ball's cell-unit rule:
    # every cell center tested in absolute coordinates, exact on these
    # boxes. Lattice radii put cell centers on the sphere, and centers sit
    # on cell centers, on cell corners and at random dyadic points.
    box = Box((0.0,) * d, 1.0, periodic) if periodic else Box((-1.0,) * d, 2.0)
    g = Grid(box, n)
    low, h = np.asarray(box.lower), g.h
    rng = np.random.default_rng([d, n, periodic])
    radii = [k * h for k in (1, 2, 3, 5, n // 4)] + ([box.side / 2] if periodic else [])
    spots = [rng.integers(0, n, d) + 0.5 for _ in range(4)]
    spots += [rng.integers(0, n + 1, d) + 0.0 for _ in range(4)]
    spots += [rng.integers(0, 256 * n, d) / 256 for _ in range(8)]
    centers = g.cell_centers()
    for spot in spots:
        center = low + spot * h
        for r in radii:
            want = np.flatnonzero(points_in_ball(box, centers, center, r))
            if not len(want):
                continue
            np.testing.assert_array_equal(cells_in_ball(g, Ball(center, r)), want)


def _moved_cells(g, cells, move):
    """Flat cell indices moved by the integer vector ``move``, wrapped, ascending."""
    idx = np.stack(np.unravel_index(cells, (g.n,) * g.d), axis=-1) + move
    return np.sort(g.flat_index(tuple(idx.T)))


ODD_BOXES = [Box((0.1, 0.3), 1.7), Box((-0.3, 0.7), 3.1, periodic=True)]


@pytest.mark.parametrize("box", ODD_BOXES)
def test_cells_in_ball_commutes_with_cell_moves(box):
    # on boxes whose corner and side are not dyadic, a ball moved by whole
    # cells holds the original's cells moved by the same amount
    g = Grid(box, 64)
    low, h = np.asarray(box.lower), g.h
    rng = np.random.default_rng(7)
    for _ in range(90):
        r = h * rng.choice([4, 8, 16])
        spot = rng.integers(17, 47, 2) + rng.choice([0.5, 0.0, 0.25], 2)
        move = rng.integers(-16, 17, 2)
        if not box.periodic:
            move = np.clip(move, 17 - spot.astype(int), 46 - spot.astype(int))
        ball = Ball(low + (spot + 0.5) * h, r)
        moved = Ball(low + (spot + move + 0.5) * h, r)
        np.testing.assert_array_equal(cells_in_ball(g, moved),
                                      _moved_cells(g, cells_in_ball(g, ball), move))


@pytest.mark.parametrize("box", ODD_BOXES)
def test_lattice_family_is_one_group_per_radius(box):
    g = Grid(box, 64)
    radii = default_radii(g)
    fam = ball_family(g, 4, radii)
    assert len(radii) == 2 and len(fam._groups) == 2
