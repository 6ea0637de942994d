"""Semi-Lagrangian transport, spectral multiplier, Strang splitting."""

import math

import numpy as np
import pytest

from oscillab.cli import SweepSpec, run_sweep
from oscillab.domain import Box, Grid, GridFunction
from oscillab.errors import BadParameter, NonPeriodic, StepTooLarge
from oscillab.corpus import log_singularity, trig_poly
from oscillab.maps import cellular_field, constant_field, strain_field
from oscillab.transport import (
    RieszOperator,
    _advection_matrix,
    _catmull_rom_matrix,
    perturbed_growth_comparison,
    solve_perturbed,
    solve_transport,
)

TORUS = Box((0.0, 0.0), 1.0, periodic=True)
WINDOW = Box((-1.0, -1.0), 2.0, periodic=False)


def test_step_guard():
    g = Grid(WINDOW, 64)
    with pytest.raises(StepTooLarge):
        solve_transport(strain_field(), GridFunction.from_callable(g, log_singularity()), 0.5,
                        [1.0])


def test_constant_advection_is_translation():
    g = Grid(TORUS, 64)
    v = constant_field((0.25, 0.0))
    fn = trig_poly(seed=2, modes=3)
    (u1,) = solve_transport(v, GridFunction.from_callable(g, fn), 0.05, [1.0])
    shifted = fn(g.cell_centers() - np.array([0.25, 0.0]))
    assert np.abs(u1.values - shifted).max() < 1e-9


def test_transport_constant_along_characteristics():
    # u(t, phi_t(x)) = u0(x): check by composing with the forward flow
    from oscillab.maps import integrate_flow

    g = Grid(WINDOW, 64)
    v = strain_field()
    fn = log_singularity(clamp=2 * g.h)
    (u1,) = solve_transport(v, GridFunction.from_callable(g, fn), 0.02, [1.0])
    phi = integrate_flow(v, 1.0, 0.02)
    centers = g.cell_centers()
    inside = np.abs(phi.forward(centers)).max(axis=1) < 1.0
    # interpolation error blows up at the logarithmic singularity; skip it
    inside &= np.linalg.norm(centers, axis=1) > 0.15
    pushed = phi.forward(centers[inside])
    from oscillab.domain import interpolate

    vals_along = interpolate(g, u1.values, pushed)
    assert np.abs(vals_along - fn(centers[inside])).max() < 0.05


def test_transport_feet_carried_in_order_asked():
    # unsorted, duplicated times; each snapshot is within tolerance of a
    # single-time solve, which integrates from t = 0
    g = Grid(TORUS, 64)
    u0 = GridFunction.from_callable(g, trig_poly(seed=8, modes=3))
    v = cellular_field(0.03, 1)
    times = [1.5, 0.3, 0.0, 1.5, 0.75]
    sols = solve_transport(v, u0, 0.02, times)
    assert len(sols) == len(times)
    for t, sol in zip(times, sols):
        (alone,) = solve_transport(v, u0, 0.02, [t])
        assert np.abs(sol.values - alone.values).max() <= 1e-9 * np.abs(alone.values).max()
    assert np.array_equal(sols[2].values, u0.values)


def test_strain_transport_matches_analytic_feet():
    # the backward feet of v = (x, -y) are (x e^-t, y e^t)
    g = Grid(WINDOW, 64)
    fn = log_singularity(clamp=2 * g.h)
    times = [0.4, 1.0, 0.0, 0.7]
    centers = g.cell_centers()
    u0 = GridFunction.from_callable(g, fn)
    for t, sol in zip(times, solve_transport(strain_field(), u0, 0.02, times)):
        feet = centers * np.array([math.exp(-t), math.exp(t)])
        assert np.abs(sol.values - fn(feet)).max() <= 1e-8


def test_transport_time_validation():
    with pytest.raises(BadParameter):  # a negative output time
        solve_transport(constant_field((0.25, 0.0)),
                        GridFunction.from_callable(Grid(TORUS, 32), trig_poly(seed=2)), 0.05,
                        [0.0, -0.1])


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
    assert np.linalg.norm(R.apply(mean_free).values) <= np.linalg.norm(
        mean_free.values
    )


def test_riesz_eigenfunction():
    # sin(2 pi y) has k = (0, 1): multiplier value exactly 1
    g = Grid(TORUS, 64)
    c = g.cell_centers()
    R = RieszOperator(g)
    f = GridFunction(g, np.sin(2 * np.pi * c[:, 1]))
    out = R.apply(f)
    assert np.abs(out.values - f.values).max() < 1e-12
    # sin(2 pi x) has k = (1, 0): multiplier value exactly 0
    fx = GridFunction(g, np.sin(2 * np.pi * c[:, 0]))
    assert np.abs(R.apply(fx).values).max() < 1e-12


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
    for t in (1.25, -0.25):  # output time outside [0, t_end]
        with pytest.raises(ValueError):
            solve_perturbed(u, w0, 1.0, 0.25, [0.0, t])


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


def _catmull_rom_loop(grid, field, pts):
    """Per-point separable Catmull-Rom stencil loop on a periodic grid: the
    reference for the rows of the compiled advection matrix."""
    n = grid.n
    u = (pts - np.asarray(grid.box.lower)) / grid.h - 0.5
    i0 = np.floor(u).astype(int)
    s = u - i0

    def weights(t):
        t2, t3 = t * t, t * t * t
        return (
            -0.5 * t + t2 - 0.5 * t3,
            1.0 - 2.5 * t2 + 1.5 * t3,
            0.5 * t + 2.0 * t2 - 1.5 * t3,
            -0.5 * t2 + 0.5 * t3,
        )

    wx = weights(s[:, 0])
    wy = weights(s[:, 1])
    out = np.zeros(len(pts))
    for a in range(4):
        ix = np.mod(i0[:, 0] + a - 1, n)
        for b in range(4):
            iy = np.mod(i0[:, 1] + b - 1, n)
            out += wx[a] * wy[b] * field[ix, iy]
    return out


@pytest.mark.parametrize("box", [TORUS, Box((-1.0, -1.0), 2.0, periodic=True)])
@pytest.mark.parametrize("n", [8, 64])
def test_catmull_rom_matrix_matches_stencil_loop(box, n):
    g = Grid(box, n)
    rng = np.random.default_rng(n)
    low, side = np.asarray(box.lower), box.side
    # random points, cell centers, and points on the seam and its edges
    edge = np.array([0.0, 1e-17, g.h / 2, side - g.h / 2, side - 1e-15, side])
    seam = low + np.stack(np.meshgrid(edge, edge, indexing="ij"), axis=-1).reshape(-1, 2)
    pts = np.concatenate([low + side * rng.random((3000, 2)), g.cell_centers(), seam])
    mat = _catmull_rom_matrix(g, pts)
    assert mat.shape == (len(pts), g.size) and mat.nnz == 16 * len(pts)
    for _ in range(3):
        field = rng.normal(size=(n, n))
        assert np.array_equal(mat @ field.ravel(), _catmull_rom_loop(g, field, pts))


def test_merged_steps_match_unmerged_strang():
    g = Grid(TORUS, 64)
    w0 = GridFunction.from_callable(g, trig_poly(seed=4, modes=4))
    u, dt, times = cellular_field(0.03, 1), 0.05, [0.0, 0.35, 1.0]
    advect, riesz = _advection_matrix(u, g, dt), RieszOperator(g)
    field, ref = w0.values.reshape(64, 64), {0: w0.values}
    for k in range(1, 21):
        field = riesz.half_step(field, dt / 2)
        field = (advect @ field.ravel()).reshape(64, 64)
        field = riesz.half_step(field, dt / 2)
        ref[k] = field.ravel()
    for t, sol in zip(times, solve_perturbed(u, w0, 1.0, dt, times)):
        want = ref[round(t / dt)]
        assert np.abs(sol.values - want).max() <= 1e-12 * np.abs(want).max()


def test_zero_field_is_pure_multiplier():
    g = Grid(TORUS, 64)
    w0 = GridFunction.from_callable(g, trig_poly(seed=5, modes=4))
    m = RieszOperator(g).multiplier
    times = [0.5, 1.0]
    for t, sol in zip(times, solve_perturbed(cellular_field(0.0, 1), w0, 1.0, 0.1, times)):
        spec = np.fft.fft2(w0.values.reshape(64, 64)) * np.exp(t * m)
        want = np.real(np.fft.ifft2(spec)).ravel()
        assert np.abs(sol.values - want).max() <= 1e-12 * np.abs(want).max()


def test_perturbed_snapshots_in_order_asked():
    g = Grid(TORUS, 32)
    w0 = GridFunction.from_callable(g, trig_poly(seed=6, modes=3))
    u = cellular_field(0.02, 1)
    # unsorted and duplicated times, and t_end past the last output time
    times = [1.0, 0.5, 0.5, 0.0, 0.25]
    sols = solve_perturbed(u, w0, 1.5, 0.05, times)
    ordered = [0.0, 0.25, 0.5, 1.0]
    ref = dict(zip(ordered, solve_perturbed(u, w0, 1.0, 0.05, ordered)))
    assert len(sols) == len(times)
    for t, sol in zip(times, sols):
        assert np.array_equal(sol.values, ref[t].values)
    assert np.array_equal(sols[3].values, w0.values)
