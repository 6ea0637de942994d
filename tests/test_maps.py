"""Map zoo, distortion estimation, flows, measure preservation."""

import math

import numpy as np
import pytest

from oscillab.domain import Box, Grid
from oscillab.errors import StepTooLarge, ViolatedBound
from oscillab.maps import (
    cellular_field,
    check_inverse_consistency,
    check_lip_inverse_bound,
    check_measure_preserving,
    compose_maps,
    constant_field,
    estimate_K,
    fd_jacobian,
    integrate_flow,
    make_hat_twist,
    make_identity,
    make_linear_strain,
    make_rotation,
    make_shear,
    make_stretch,
    make_translation,
    strain_field,
)

BOX = Box((-1.0, -1.0), 2.0)


def test_identity_and_isometry_K():
    assert make_identity().K == 2.0
    assert abs(estimate_K(make_rotation(0.7), seed=0, box=BOX) - 2.0) < 1e-9
    assert abs(estimate_K(make_translation((0.3, -0.1)), seed=0, box=BOX) - 2.0) < 1e-9


def test_shear_distortion_closed_form():
    # unit shear: max singular value (1 + sqrt 5)/2, K twice that
    phi = make_shear(1.0)
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    assert abs(phi.K - 2.0 * golden) < 1e-12
    assert abs(estimate_K(phi, seed=1, box=BOX) - phi.K) < 1e-8


def test_strain_distortion():
    phi = make_linear_strain(1.0)
    assert abs(phi.K - 2.0 * math.e) < 1e-12
    assert abs(estimate_K(phi, seed=1, box=BOX) - phi.K) < 1e-7


def test_K_at_least_two_everywhere():
    for phi in (
        make_identity(),
        make_shear(0.5),
        make_linear_strain(0.3),
        make_hat_twist(2.0),
    ):
        assert estimate_K(phi, seed=2, box=BOX) >= 2.0 - 1e-12


def test_compose_submultiplicative():
    a, b = make_shear(1.0), make_linear_strain(0.5)
    ab = compose_maps(a, b)
    k_ab = estimate_K(ab, seed=3, box=BOX)
    # K(a o b) <= K(a) K(b) / 2 for operator-norm products
    assert k_ab <= a.K * b.K / 2.0 + 1e-9
    assert check_inverse_consistency(ab, box=BOX) < 1e-9


def test_inverse_consistency_zoo():
    for phi in (
        make_shear(2.0),
        make_linear_strain(1.5),
        make_hat_twist(3.0),
        make_rotation(1.1, center=(0.2, 0.2)),
    ):
        assert check_inverse_consistency(phi, box=BOX) < 1e-9


def test_measure_preserving_zoo():
    from oscillab.domain import Ball

    g = Grid(BOX, 128)
    # test ball small enough that every preimage stays inside the window
    ball = Ball((0.0, 0.0), 0.25)
    for phi in (make_shear(2.0), make_linear_strain(1.0), make_hat_twist(2.5)):
        rep = check_measure_preserving(phi, g, test_ball=ball)
        assert rep.max_det_error < 1e-6
        assert rep.mass_error < 0.05


def test_stretch_is_not_measure_preserving():
    g = Grid(BOX, 128)
    rep = check_measure_preserving(make_stretch(1.5), g)
    assert rep.max_det_error > 0.1  # det = 1.5 everywhere


def test_lip_inverse_bound_2d_equality():
    # measure preservation in the plane forces equal operator norms
    for phi in (make_shear(1.7), make_linear_strain(0.8), make_hat_twist(2.0)):
        check_lip_inverse_bound(phi, samples=200, seed=4, box=BOX)
    with pytest.raises(ViolatedBound):
        check_lip_inverse_bound(make_stretch(2.0), samples=200, seed=4, box=BOX)


def test_fd_jacobian_exact_on_linear():
    phi = make_linear_strain(0.5)
    J = fd_jacobian(phi.forward, np.array([[0.1, 0.2]]))
    expect = np.diag([math.exp(0.5), math.exp(-0.5)])
    assert np.abs(J[0] - expect).max() < 1e-9


def test_flow_matches_closed_form_strain():
    phi = integrate_flow(strain_field(), 1.0, 0.01)
    exact = make_linear_strain(1.0)
    pts = np.array([[0.3, -0.4], [0.01, 0.9]])
    assert np.abs(phi.forward(pts) - exact.forward(pts)).max() < 1e-8
    assert np.abs(phi.inverse(pts) - exact.inverse(pts)).max() < 1e-8


def test_flow_volume_and_gronwall():
    g = Grid(BOX, 64)
    for field, t in ((strain_field(), 2.0), (cellular_field(0.05, 1), 1.0)):
        phi = integrate_flow(field, t, 0.01)
        rep = check_measure_preserving(phi, g)
        assert rep.max_det_error < 1e-6
        K = estimate_K(phi, samples=1500, seed=5, box=BOX)
        assert K <= 2.1 * math.exp(field.lip * t)


def test_flow_step_guard():
    with pytest.raises(StepTooLarge):
        integrate_flow(strain_field(), 1.0, 0.6)


def test_constant_field_flow_translates():
    phi = integrate_flow(constant_field((0.5, -0.25)), 2.0, 0.1)
    pts = np.array([[0.0, 0.0]])
    assert np.allclose(phi.forward(pts), [[1.0, -0.5]], atol=1e-12)


def test_divergence_residual_cellular():
    v = cellular_field(0.2, 2)
    pts = Grid(BOX, 64).cell_centers()[::13]
    assert v.divergence_residual(pts) < 1e-6


def test_twist_distortion_bounded():
    alpha = 3.0
    phi = make_hat_twist(alpha)
    K = estimate_K(phi, samples=1500, seed=6, box=BOX)
    sigma = (alpha + math.sqrt(alpha**2 + 4.0)) / 2.0
    assert K <= 2.0 * sigma + 1e-6
