"""Transport by backward characteristics and the Riesz-perturbed variant.

The plain transport solve follows each output cell back along the flow and
evaluates the initial profile at the foot. The field is steady, so the feet
are carried from one output time to the next, but the profile is never
interpolated from step to step, which would diffuse oscillation and fake
better growth than true. The perturbed equation adds a spectral multiplier
term and is advanced by Strang splitting. Its field is steady and its step
fixed, so the semi-Lagrangian advection step is built once, as one sparse
Catmull-Rom matrix over the backward feet, and adjacent multiplier half
steps are merged into one real-FFT step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .domain import _BLOCK_CELLS, Grid, GridFunction, interpolate
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
        if not 0 < self.step < math.inf:
            raise BadParameter(f"time step {self.step:g} must be finite and positive")
        if self.step * self.v.lip > 0.1 and self.v.lip > 0:
            raise StepTooLarge(
                f"step {self.step} too large for Lipschitz constant {self.v.lip}"
            )


def _require_finite(times) -> None:
    """BadParameter for an output time that is nan or infinite."""
    for t in times:
        if not math.isfinite(t):
            raise BadParameter(f"output time {t:g} must be finite")


def _evaluate_initial(u0, grid: Grid, pts: np.ndarray) -> np.ndarray:
    if isinstance(u0, GridFunction):
        if not grid.box.periodic:
            inside = grid.box.contains(pts)
            if not inside.all():
                raise OutOfDomain("characteristic foot leaves the window")
        return interpolate(u0.grid, u0.values, pts)
    return np.asarray(u0(pts), dtype=float)


def solve_transport(prob: TransportProblem, times) -> list:
    """Solution snapshots at ``times`` (each in [0, t_end]), in the order asked.

    For a steady field the backward flow composes, Phi_{-t2} =
    Phi_{-(t2 - t1)} o Phi_{-t1}, so the RK4 feet of the cell centers are
    carried from one output time to the next in increasing order. Feet are
    wrapped onto the torus only to evaluate ``u0``; a t = 0 snapshot is ``u0``
    at the cell centers.
    """
    _require_finite(times)
    for t in times:
        if not 0 <= t <= prob.t_end:
            raise BadParameter(f"output time {t:g} is outside [0, {prob.t_end:g}]")
    grid = prob.grid
    low = np.asarray(grid.box.lower)
    feet, now, out = grid.cell_centers(), 0.0, {}
    for t in sorted(set(times)):
        feet = _rk4(lambda y: -prob.v(y), feet, t - now, prob.step)
        now = t
        at = low + np.mod(feet - low, grid.box.side) if grid.box.periodic and t > 0 else feet
        out[t] = GridFunction(grid, _evaluate_initial(prob.u0, grid, at))
    return [out[t] for t in times]


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

    def half_step(self, field: np.ndarray, tau: float) -> np.ndarray:
        """exp(tau * m) applied to a real (n, n) field by one real FFT pair."""
        n = self.grid.n
        spec = np.fft.rfft2(field) * np.exp(tau * self.multiplier[:, : n // 2 + 1])
        return np.fft.irfft2(spec, s=(n, n))


def _catmull_rom_matrix(grid: Grid, pts: np.ndarray) -> csr_matrix:
    """Separable Catmull-Rom interpolation at ``pts`` of a periodic
    cell-centered field, as a sparse (points, cells) matrix.

    Fourth-order accurate for smooth data; the semi-Lagrangian step uses it
    so that per-step interpolation error stays far below the splitting
    error and second-order convergence in dt is actually observable. Each
    row holds its 16 weights ``wx[a] * wy[b]`` in (a, b) order, unsorted,
    so a product sums them in the order of a per-point stencil loop. Rows
    are built in blocks, which keeps the weight temporaries small.
    """
    n = grid.n
    low = np.asarray(grid.box.lower)
    data = np.empty((len(pts), 16))
    cols = np.empty((len(pts), 16), dtype=np.int32)
    rows = _BLOCK_CELLS // 16
    for r0 in range(0, len(pts), rows):
        u = (pts[r0 : r0 + rows] - low) / grid.h - 0.5
        i0 = np.floor(u).astype(int)
        t = u - i0
        t2, t3 = t * t, t * t * t
        w = (
            -0.5 * t + t2 - 0.5 * t3,
            1.0 - 2.5 * t2 + 1.5 * t3,
            0.5 * t + 2.0 * t2 - 1.5 * t3,
            -0.5 * t2 + 0.5 * t3,
        )
        for a in range(4):
            ix = np.mod(i0[:, 0] + a - 1, n)
            for b in range(4):
                iy = np.mod(i0[:, 1] + b - 1, n)
                data[r0 : r0 + rows, 4 * a + b] = w[a][:, 0] * w[b][:, 1]
                cols[r0 : r0 + rows, 4 * a + b] = ix * n + iy
    indptr = np.arange(0, 16 * len(pts) + 1, 16, dtype=np.int32)
    mat = csr_matrix((data.ravel(), cols.ravel(), indptr), shape=(len(pts), grid.size))
    mat.has_sorted_indices = False
    return mat


def _advection_matrix(u_field: VectorField, grid: Grid, dt: float) -> csr_matrix:
    """One semi-Lagrangian step of length dt on a periodic grid: the field
    at the backward RK4 feet of the cell centers, wrapped onto the torus."""
    low = np.asarray(grid.box.lower)
    substep = min(dt, 0.1 / max(u_field.lip, 1e-12))
    feet = _rk4(lambda y: -u_field(y), grid.cell_centers(), dt, substep)
    return _catmull_rom_matrix(grid, low + np.mod(feet - low, grid.box.side))


def solve_perturbed(
    u_field: VectorField,
    omega0: GridFunction,
    t_end: float,
    dt: float,
    times,
) -> list:
    """Strang splitting for advection plus a spectral multiplier source.

    Per step: half multiplier, full semi-Lagrangian advection over dt,
    half multiplier. Second order in dt by symmetry; u is a prescribed
    steady divergence-free field, so the advection step is one sparse
    matrix built once. The closing half step of one step and the opening
    half step of the next are merged into one ``exp(dt * m)``; they are
    split only where a snapshot is taken.
    """
    grid = omega0.grid
    if not grid.box.periodic:
        raise NonPeriodic("perturbed solve needs a periodic grid")
    if not 0 < dt < math.inf:
        raise BadParameter(f"time step {dt:g} must be finite and positive")
    if dt * u_field.lip > 0.5:
        raise StepTooLarge(f"dt {dt} times Lip {u_field.lip} exceeds 0.5")
    _require_finite(times)
    riesz = RieszOperator(grid)
    n = grid.n
    nsteps = int(round(t_end / dt))
    if abs(nsteps * dt - t_end) > 1e-9 * max(t_end, 1.0):
        raise BadParameter(f"t_end {t_end:g} must be a multiple of dt {dt:g}")
    for t in times:
        if abs(round(t / dt) * dt - t) > 1e-9 * max(1.0, t_end):
            raise BadParameter(f"output time {t:g} must be a multiple of dt {dt:g}")
        if not 0 <= round(t / dt) <= nsteps:
            raise BadParameter(f"output time {t:g} is outside [0, {t_end:g}]")
    want = set(int(round(t / dt)) for t in times)
    last = max(want, default=0)  # later steps change no snapshot

    field = omega0.values.reshape(n, n).copy()
    out = {0: GridFunction(grid, field.ravel())}
    if last:
        advect = _advection_matrix(u_field, grid, dt)
        field = riesz.half_step(field, dt / 2.0)
    for k in range(1, last + 1):
        field = (advect @ field.ravel()).reshape(n, n)
        if k not in want:
            field = riesz.half_step(field, dt)
            continue
        field = riesz.half_step(field, dt / 2.0)
        out[k] = GridFunction(grid, field.ravel())
        if k < last:
            field = riesz.half_step(field, dt / 2.0)
    return [out[int(round(t / dt))] for t in times]


def perturbed_growth_comparison(runs) -> dict:
    """Compare sharp and rough prefactor models across a field sweep.

    ``runs`` is a list of (lip, t, ratio) with ratio the seminorm growth of
    the solution. Both models share a single fitted exponential rate c:
    sharp predicts ratio ~ (1 + lip * t) e^(c t), rough predicts
    ratio ~ e^(lip * t) e^(c t), with c searched in [-6, 4]. Returns each
    model's rate and RMS relative residual on the identical points.
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
        lambda c: resid(c, rough=False), bounds=(-6.0, 4.0), method="bounded"
    )
    res_rough = minimize_scalar(
        lambda c: resid(c, rough=True), bounds=(-6.0, 4.0), method="bounded"
    )
    return {
        "sharp": {"c": float(res_sharp.x), "residual": float(res_sharp.fun)},
        "rough": {"c": float(res_rough.x), "residual": float(res_rough.fun)},
    }
