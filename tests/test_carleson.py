"""Carleson densities, box masses, norms, pull-backs, SC class."""

import math

import numpy as np
import pytest

from oscillab.carleson import (
    CarlesonDensity,
    bmo_to_carleson,
    box_mass,
    carleson_norm,
    default_shell_count,
    density_from_callable,
    pullback,
    pullback_set_mass,
    sc_class_check,
)
from oscillab.cli import _resolve_function
from oscillab.corpus import builtin_density, strip_density_beta
from oscillab.domain import (
    Ball,
    Box,
    Grid,
    GridFunction,
    ball_family,
    cells_in_ball,
    interpolate,
)
from oscillab.errors import HeightExceeded, NonPeriodic
from oscillab.maps import make_linear_strain, make_rotation, make_translation

WINDOW = Box((-1.0, -1.0), 2.0, periodic=False)
TORUS = Box((0.0, 0.0), 1.0, periodic=True)

LOG2 = math.log(2.0)


def test_shell_levels_and_default_count():
    g = Grid(WINDOW, 128)
    assert default_shell_count(g) == 6  # heights from T down to 4 cells
    mu = builtin_density("top", g)
    assert mu.t_levels[0] == 1.0
    assert np.allclose(np.diff(np.log2(mu.t_levels)), -1.0)


def test_top_shell_norm_exact():
    # unit density on the single shell t = T: mass of a radius-T box is
    # |B| log 2 exactly, so the norm over such boxes is log 2
    g = Grid(WINDOW, 128)
    mu = builtin_density("top", g)
    family = [Ball((0.0, 0.0), 1.0)]
    norm = carleson_norm(mu, family).value
    cells = len(cells_in_ball(g, family[0]))
    expect = cells * g.cell_volume * LOG2 / family[0].volume
    assert norm == pytest.approx(expect)
    assert norm == pytest.approx(LOG2, rel=0.03)


def test_box_mass_height_guard():
    g = Grid(WINDOW, 128)
    mu = builtin_density("strip", g)
    with pytest.raises(HeightExceeded):
        box_mass(mu, Ball((0.0, 0.0), 2.0))
    with pytest.raises(HeightExceeded):
        carleson_norm(mu, [Ball((0.0, 0.0), 0.5), Ball((0.0, 0.0), 2.0)])


def test_density_shape_validation():
    g = Grid(WINDOW, 128)
    with pytest.raises(ValueError):
        CarlesonDensity(g, 1.0, np.zeros(g.size))  # missing shell axis


def test_strip_density_is_carleson_and_sc():
    g = Grid(WINDOW, 256)
    mu = builtin_density("strip", g)
    fam = ball_family(g, 32, [0.0625, 0.125, 0.25, 0.5])
    norm = carleson_norm(mu, fam)
    # frozen reference for the standard configuration
    assert norm.value == pytest.approx(1.4494832433, abs=1e-8)
    assert sc_class_check(mu, fam)


def test_spike_density_not_sup_controlled():
    g = Grid(WINDOW, 256)
    mu = builtin_density("spike", g)
    fam = ball_family(g, 32, [0.0625, 0.125, 0.25, 0.5])
    assert not sc_class_check(mu, fam)


def test_pullback_by_isometry_preserves_norm():
    g = Grid(WINDOW, 128)
    mu = builtin_density("strip", g)
    fam = ball_family(g, 16, [0.0625, 0.125, 0.25])
    base = carleson_norm(mu, fam).value
    # rotating the frame by a quarter turn maps the strip onto an equivalent
    # horizontal one; the norm over the symmetric family is unchanged
    quarter = make_rotation(math.pi / 2)
    turned = carleson_norm(pullback(mu, quarter), fam).value
    assert turned == pytest.approx(base, rel=1e-6)


def test_pullback_density_vs_set_form():
    g = Grid(WINDOW, 256)
    mu = builtin_density("strip", g)
    phi = make_linear_strain(-1.0)
    pb = pullback(mu, phi)
    ball = Ball((0.0, 0.0), 0.25)
    m_density = box_mass(pb, ball)
    m_set = pullback_set_mass(mu, phi, ball)
    assert m_density == pytest.approx(m_set, rel=0.01)


def test_gridded_pullback_is_zero_outside_the_window():
    g = Grid(WINDOW, 32)
    mu = builtin_density("top", g)
    assert mu.beta is None
    phi = make_linear_strain(1.0)
    pts = phi.forward(g.cell_centers())
    inside = g.box.contains(pts)
    assert inside.any() and not inside.all()
    pb = pullback(mu, phi)
    assert np.all(pb.values[:, ~inside] == 0.0)
    for j in range(mu.shells):
        assert np.array_equal(pb.values[j, inside], interpolate(g, mu.values[j], pts[inside]))


def test_pullback_keeps_callable():
    g = Grid(WINDOW, 128)
    mu = density_from_callable(g, 1.0, strip_density_beta(0.0))
    pb = pullback(mu, make_translation((0.3, 0.0)))
    assert pb.beta is not None
    # translated strip: beta(t, x) = 1 iff |x1 + 0.3| <= t
    pts = np.array([[-0.3, 0.0], [0.5, 0.0]])
    assert np.allclose(pb.beta(0.1, pts), [1.0, 0.0])


def test_strip_pullback_grows_with_contraction():
    g = Grid(WINDOW, 256)
    mu = builtin_density("strip", g)
    fam = ball_family(g, 32, [0.0625, 0.125, 0.25, 0.5])
    base = carleson_norm(mu, fam).value
    grown = carleson_norm(pullback(mu, make_linear_strain(-1.0)), fam).value
    assert grown > base * 1.3
    # naive ceiling: pull-back norm never exceeds K^d times the original
    assert grown <= 1.1 * make_linear_strain(-1.0).K ** 2 * base


def test_scaled_density_quadratic_norm():
    g = Grid(WINDOW, 128)
    mu = builtin_density("strip", g)
    fam = ball_family(g, 16, [0.125, 0.25])
    base = carleson_norm(mu, fam).value
    doubled = carleson_norm(mu.scaled(2.0), fam).value
    assert doubled == pytest.approx(4.0 * base, rel=1e-12)
    assert mu.scaled(2.0).sup_norm == pytest.approx(2.0 * mu.sup_norm)


def test_bmo_to_carleson_basics():
    g = Grid(TORUS, 128)
    gf = _resolve_function("log", g)
    mu = bmo_to_carleson(gf)
    assert mu.shells == default_shell_count(g)
    fam = ball_family(g, 16, [0.0625, 0.125, 0.25])
    norm = carleson_norm(mu, fam).value
    assert norm > 0.0
    # quadratic scaling carries over from the linear construction
    mu2 = bmo_to_carleson(GridFunction(g, 2.0 * gf.values))
    assert carleson_norm(mu2, fam).value == pytest.approx(4.0 * norm, rel=1e-10)


def test_bmo_to_carleson_needs_torus():
    g = Grid(WINDOW, 64)
    gf = GridFunction(g, np.arange(g.size, dtype=float))
    with pytest.raises(NonPeriodic):
        bmo_to_carleson(gf)
