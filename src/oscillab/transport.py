"""Transport by backward characteristics and the Riesz-perturbed variant.

The plain transport solve follows each output cell back along the flow in
one long integration (no step-to-step interpolation, which would diffuse
oscillation and fake better growth than true). The perturbed equation adds
a spectral multiplier term and is advanced by Strang splitting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Grid, GridFunction, interpolate
from .errors import BadParameter, NonPeriodic, OutOfDomain, StepTooLarge
from .maps import VectorField, _rk4
from .fits import rms_relative


@dataclass(frozen=True)
class TransportProblem:
    """Advection of an initial profile by a divergence-free field."""

    v: VectorField
    u0: object  # GridFunction or callable over (N, d) points
    grid: Grid
    t_end: float
    step: float

    def __post_init__(self):
        if self.step * self.v.lip > 0.1 and self.v.lip > 0:
            raise StepTooLarge(
                f"step {self.step} too large for Lipschitz constant {self.v.lip}"
            )


def _evaluate_initial(u0, grid: Grid, pts: np.ndarray) -> np.ndarray:
    if isinstance(u0, GridFunction):
        if not grid.box.periodic:
            inside = grid.box.contains(pts)
            if not inside.all():
                raise OutOfDomain("characteristic foot leaves the window")
        return interpolate(u0.grid, u0.values, pts)
    return np.asarray(u0(pts), dtype=float)


def solve_transport(prob: TransportProblem, times) -> list:
    """Solution snapshots by one long backward integration per output time."""
    centers = prob.grid.cell_centers()
    out = []
    for t in times:
        if t == 0:
            vals = _evaluate_initial(prob.u0, prob.grid, centers)
        else:
            feet = _rk4(lambda y: -prob.v(y), centers, t, prob.step)
            if prob.grid.box.periodic:
                low = np.asarray(prob.grid.box.lower)
                feet = low + np.mod(feet - low, prob.grid.box.side)
            vals = _evaluate_initial(prob.u0, prob.grid, feet)
        out.append(GridFunction(prob.grid, vals))
    return out


class RieszOperator:
    """Fourier multiplier k2^2 / |k|^2 on a periodic grid; zero on the mean.

    Real, even and valued in [0, 1], hence self-adjoint with unit norm
    on the mean-free subspace.
    """

    def __init__(self, grid: Grid):
        if not grid.box.periodic:
            raise NonPeriodic("spectral multiplier needs a periodic grid")
        if grid.d != 2:
            raise ValueError("implemented for d = 2")
        self.grid = grid
        k = np.fft.fftfreq(grid.n, d=grid.h)
        kx, ky = np.meshgrid(k, k, indexing="ij")
        ksq = kx**2 + ky**2
        with np.errstate(invalid="ignore", divide="ignore"):
            m = np.where(ksq > 0, ky**2 / np.where(ksq > 0, ksq, 1.0), 0.0)
        self.multiplier = m

    def apply(self, omega: GridFunction) -> GridFunction:
        n = self.grid.n
        spec = np.fft.fft2(omega.values.reshape(n, n))
        out = np.real(np.fft.ifft2(spec * self.multiplier))
        return GridFunction(self.grid, out.ravel())

    def half_step(self, field: np.ndarray, dt_half: float) -> np.ndarray:
        spec = np.fft.fft2(field)
        return np.real(np.fft.ifft2(spec * np.exp(dt_half * self.multiplier)))


def apply_riesz(omega: GridFunction) -> GridFunction:
    return RieszOperator(omega.grid).apply(omega)


def _cubic_interp_periodic(grid: Grid, field: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Separable Catmull-Rom interpolation of a periodic cell-centered field.

    Fourth-order accurate for smooth data; the semi-Lagrangian step uses it
    so that per-step interpolation error stays far below the splitting
    error and second-order convergence in dt is actually observable.
    """
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


def solve_perturbed(
    u_field: VectorField,
    omega0: GridFunction,
    t_end: float,
    dt: float,
    times,
    riesz: RieszOperator | None = None,
) -> list:
    """Strang splitting for advection plus a spectral multiplier source.

    Per step: half multiplier, full semi-Lagrangian advection over dt,
    half multiplier. Second order in dt by symmetry; u is a prescribed
    steady divergence-free field.
    """
    grid = omega0.grid
    if not grid.box.periodic:
        raise NonPeriodic("perturbed solve needs a periodic grid")
    if dt * u_field.lip > 0.5:
        raise StepTooLarge(f"dt {dt} times Lip {u_field.lip} exceeds 0.5")
    if riesz is None:
        riesz = RieszOperator(grid)
    n = grid.n
    low = np.asarray(grid.box.lower)
    centers = grid.cell_centers()
    nsteps = int(round(t_end / dt))
    if abs(nsteps * dt - t_end) > 1e-9 * max(t_end, 1.0):
        raise BadParameter(f"t_end {t_end:g} must be a multiple of dt {dt:g}")
    for t in times:
        if abs(round(t / dt) * dt - t) > 1e-9 * max(1.0, t_end):
            raise BadParameter(f"output time {t:g} must be a multiple of dt {dt:g}")
    want = set(int(round(t / dt)) for t in times)

    field = omega0.values.reshape(n, n).copy()
    out = {}
    if 0 in want:
        out[0] = GridFunction(grid, field.ravel().copy())
    advect_substep = min(dt, 0.1 / max(u_field.lip, 1e-12))
    for k in range(1, nsteps + 1):
        field = riesz.half_step(field, dt / 2.0)
        feet = _rk4(lambda y: -u_field(y), centers, dt, advect_substep)
        feet = low + np.mod(feet - low, grid.box.side)
        field = _cubic_interp_periodic(grid, field, feet).reshape(n, n)
        field = riesz.half_step(field, dt / 2.0)
        if k in want:
            out[k] = GridFunction(grid, field.ravel().copy())
    return [out[int(round(t / dt))] for t in times]


def perturbed_growth_comparison(runs, fit_c_bounds=(-6.0, 4.0)) -> dict:
    """Compare sharp and rough prefactor models across a field sweep.

    ``runs`` is a list of (lip, t, ratio) with ratio the seminorm growth of
    the solution. Both models share a single fitted exponential rate c:
    sharp predicts ratio ~ (1 + lip * t) e^(c t), rough predicts
    ratio ~ e^(lip * t) e^(c t). Returns each model's rate and RMS relative
    residual on the identical points.
    """
    from scipy.optimize import minimize_scalar

    data = [(float(l), float(t), float(r)) for l, t, r in runs]
    lips = np.array([d[0] for d in data])
    ts = np.array([d[1] for d in data])
    ys = np.array([d[2] for d in data])

    def resid(c, rough):
        base = np.exp(lips * ts) if rough else (1.0 + lips * ts)
        return rms_relative(base * np.exp(c * ts), ys)

    res_sharp = minimize_scalar(
        lambda c: resid(c, rough=False), bounds=fit_c_bounds, method="bounded"
    )
    res_rough = minimize_scalar(
        lambda c: resid(c, rough=True), bounds=fit_c_bounds, method="bounded"
    )
    return {
        "sharp": {"c": float(res_sharp.x), "residual": float(res_sharp.fun)},
        "rough": {"c": float(res_rough.x), "residual": float(res_rough.fun)},
    }
