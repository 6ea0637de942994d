"""Semi-Lagrangian transport, spectral multiplier, Strang splitting."""

import math

import numpy as np
import pytest

from oscillab.cli import SweepSpec, run_sweep
from oscillab.domain import Box, Grid, GridFunction
from oscillab.errors import NonPeriodic, StepTooLarge
from oscillab.corpus import log_singularity, trig_poly
from oscillab.maps import cellular_field, constant_field, strain_field
from oscillab.transport import (
    RieszOperator,
    TransportProblem,
    apply_riesz,
    perturbed_growth_comparison,
    solve_perturbed,
    solve_transport,
)

TORUS = Box((0.0, 0.0), 1.0, periodic=True)
WINDOW = Box((-1.0, -1.0), 2.0, periodic=False)


def test_step_guard():
    g = Grid(WINDOW, 64)
    with pytest.raises(StepTooLarge):
        TransportProblem(strain_field(), log_singularity(), g, 1.0, 0.5)


def test_constant_advection_is_translation():
    g = Grid(TORUS, 64)
    v = constant_field((0.25, 0.0))
    fn = trig_poly(seed=2, modes=3)
    prob = TransportProblem(v, fn, g, 1.0, 0.05)
    (u1,) = solve_transport(prob, [1.0])
    shifted = fn(g.cell_centers() - np.array([0.25, 0.0]))
    assert np.abs(u1.values - shifted).max() < 1e-9


def test_transport_constant_along_characteristics():
    # u(t, phi_t(x)) = u0(x): check by composing with the forward flow
    from oscillab.maps import integrate_flow

    g = Grid(WINDOW, 64)
    v = strain_field()
    fn = log_singularity(clamp=2 * g.h)
    prob = TransportProblem(v, fn, g, 1.0, 0.02)
    (u1,) = solve_transport(prob, [1.0])
    phi = integrate_flow(v, 1.0, 0.02)
    centers = g.cell_centers()
    inside = np.abs(phi.forward(centers)).max(axis=1) < 1.0
    # interpolation error blows up at the logarithmic singularity; skip it
    inside &= np.linalg.norm(centers, axis=1) > 0.15
    pushed = phi.forward(centers[inside])
    from oscillab.domain import interpolate

    vals_along = interpolate(g, u1.values, pushed)
    assert np.abs(vals_along - fn(centers[inside])).max() < 0.05


def test_growth_report_a0_affine_wins():
    # the transport sweep's own fit, over its rows with t > 0
    h = Grid(WINDOW, 128).h
    _, fits = run_sweep(SweepSpec(
        kind="transport", functions=["log"], field_name="strain",
        times=[0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0], dt=0.05, grid_n=128, stride=16,
        p=2.0, radii=[8 * h * 2**k for k in range(3)],
    ))
    assert fits["transport"]["affine"].residual < fits["transport"]["exp"].residual


def test_riesz_multiplier_properties():
    g = Grid(TORUS, 64)
    R = RieszOperator(g)
    assert R.multiplier.min() >= 0.0 and R.multiplier.max() <= 1.0
    assert R.multiplier[0, 0] == 0.0  # mean is untouched
    rng = np.random.default_rng(3)
    f1 = GridFunction(g, rng.normal(size=g.size))
    f2 = GridFunction(g, rng.normal(size=g.size))
    lhs = float(np.dot(R.apply(f1).values, f2.values))
    rhs = float(np.dot(f1.values, R.apply(f2).values))
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)
    # L2 contraction on the mean-free subspace
    mean_free = GridFunction(g, f1.values - f1.values.mean())
    assert np.linalg.norm(apply_riesz(mean_free).values) <= np.linalg.norm(
        mean_free.values
    )


def test_riesz_eigenfunction():
    # sin(2 pi y) has k = (0, 1): multiplier value exactly 1
    g = Grid(TORUS, 64)
    c = g.cell_centers()
    f = GridFunction(g, np.sin(2 * np.pi * c[:, 1]))
    out = apply_riesz(f)
    assert np.abs(out.values - f.values).max() < 1e-12
    # sin(2 pi x) has k = (1, 0): multiplier value exactly 0
    fx = GridFunction(g, np.sin(2 * np.pi * c[:, 0]))
    assert np.abs(apply_riesz(fx).values).max() < 1e-12


def test_riesz_needs_torus():
    with pytest.raises(NonPeriodic):
        RieszOperator(Grid(WINDOW, 64))


def test_perturbed_time_validation():
    g = Grid(TORUS, 64)
    w0 = GridFunction.from_callable(g, trig_poly(seed=1))
    u = cellular_field(0.02, 1)
    with pytest.raises(ValueError):
        solve_perturbed(u, w0, 1.0, 0.3, [1.0])  # t_end not a multiple of dt
    with pytest.raises(ValueError):
        solve_perturbed(u, w0, 1.0, 0.25, [0.3])  # output time off the grid


def test_perturbed_l2_spectral_bound():
    g = Grid(TORUS, 128)
    w0 = GridFunction.from_callable(g, trig_poly(seed=1, modes=4))
    u = cellular_field(0.0506, 1)
    times = [0.5, 1.0, 1.5]
    sols = solve_perturbed(u, w0, 1.5, 0.0625, times)
    for t, s in zip(times, sols):
        ratio = np.linalg.norm(s.values) / np.linalg.norm(w0.values)
        assert ratio <= math.exp(1.05 * t)


def test_perturbed_growth_comparison_recovers_sharp_model():
    # synthetic data generated by the sharp prefactor model itself
    runs = []
    for lip in (1.0, 2.0):
        for t in (0.5, 1.0, 1.5, 2.0):
            runs.append((lip, t, (1.0 + lip * t) * math.exp(0.3 * t)))
    cmp = perturbed_growth_comparison(runs)
    assert cmp["sharp"]["residual"] < 1e-5
    assert abs(cmp["sharp"]["c"] - 0.3) < 1e-4
    assert cmp["rough"]["residual"] > 0.1
