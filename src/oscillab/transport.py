"""Transport by backward characteristics and the Riesz-perturbed variant.

The plain transport solve follows each output cell back along the flow and
evaluates the initial profile at the foot. The field is steady, so the feet
are carried from one output time to the next, one blocked RK4 pass over
negative time per output time, but the profile is never interpolated from
step to step, which would diffuse oscillation and fake better growth than
true. The perturbed equation adds a spectral multiplier term and is
advanced by Strang splitting. Its field is steady and its step fixed, so
the semi-Lagrangian advection step is built once, as one sparse Catmull-Rom
matrix over the backward feet, and adjacent multiplier half steps are
merged into one real-FFT step.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .domain import _BLOCK_CELLS, Grid, GridFunction
from .errors import BadParameter, NonPeriodic, StepTooLarge
from .maps import MAX_STEPS, VectorField, _rk4, require_periodic_field
from .fits import bounded_minimum, rms_relative

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix


def _check_times(times, t_end: float, step: float) -> None:
    """BadParameter unless every output time is finite and in [0, t_end] and
    reaching t_end takes at most MAX_STEPS steps of length ``step``."""
    for t in times:
        if not math.isfinite(t):
            raise BadParameter(f"output time {t:g} must be finite")
        if not 0 <= t <= t_end:
            raise BadParameter(f"output time {t:g} is outside [0, {t_end:g}]")
    if not t_end / step <= MAX_STEPS:
        raise BadParameter(
            f"t_end {t_end:g} takes {t_end / step:.3g} steps of {step:g}, "
            f"more than the cap of {MAX_STEPS}"
        )


def solve_transport(v: VectorField, u0: GridFunction, step: float, times) -> list:
    """Snapshots of the profile ``u0`` advected by the divergence-free field
    v with RK4 steps of length ``step``, at ``times`` (each nonnegative), in
    the order asked; on a torus v must be periodic (NotTorusMap otherwise).

    For a steady field the backward flow composes, Phi_{-t2} =
    Phi_{-(t2 - t1)} o Phi_{-t1}, so the RK4 feet of the cell centers are
    carried from one output time to the next in increasing order. A snapshot
    is ``u0.at`` the feet, which are wrapped onto the torus only for it; a
    t = 0 snapshot is ``u0`` at the cell centers.
    """
    grid = u0.grid
    if not 0 < step < math.inf:
        raise BadParameter(f"time step {step:g} must be finite and positive")
    if step * v.lip > 0.1 and v.lip > 0:
        raise StepTooLarge(f"step {step} too large for Lipschitz constant {v.lip}")
    _check_times(times, max(times, default=0.0), step)
    require_periodic_field(v, grid)
    low = np.asarray(grid.box.lower)
    feet, now, out = grid.cell_centers(), 0.0, {}
    for t in sorted(set(times)):
        feet = _rk4(v, feet, now - t, step)
        now = t
        pts = low + np.mod(feet - low, grid.box.side) if grid.box.periodic and t > 0 else feet
        out[t] = GridFunction(grid, u0.at(pts))
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
        self._factors = {}

    def apply(self, omega: GridFunction) -> GridFunction:
        n = self.grid.n
        spec = np.fft.fft2(omega.values.reshape(n, n))
        out = np.real(np.fft.ifft2(spec * self.multiplier))
        return GridFunction(self.grid, out.ravel())

    def half_step(self, field: np.ndarray, tau: float) -> np.ndarray:
        """exp(tau * m) applied to a real (n, n) field by one real FFT pair;
        the factor is computed once per tau (a solve uses dt and dt / 2)."""
        n = self.grid.n
        factor = self._factors.get(tau)
        if factor is None:
            factor = self._factors[tau] = np.exp(tau * self.multiplier[:, : n // 2 + 1])
        return np.fft.irfft2(np.fft.rfft2(field) * factor, s=(n, n))


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
    from scipy.sparse import csr_matrix

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
        # per point and axis, the weights and (wrapped) cells i0 - 1 .. i0 + 2
        w = np.stack(
            (
                -0.5 * t + t2 - 0.5 * t3,
                1.0 - 2.5 * t2 + 1.5 * t3,
                0.5 * t + 2.0 * t2 - 1.5 * t3,
                -0.5 * t2 + 0.5 * t3,
            ),
            axis=-1,
        )
        # Grid makes n a power of two, so & (n - 1) is the wrap % n
        i = (i0[..., None] + np.arange(-1, 3)) & (n - 1)
        np.multiply(w[:, 0, :, None], w[:, 1, None, :], out=data[r0 : r0 + rows].reshape(-1, 4, 4))
        cols[r0 : r0 + rows] = (i[:, 0, :, None] * n + i[:, 1, None, :]).reshape(-1, 16)
    indptr = np.arange(0, 16 * len(pts) + 1, 16, dtype=np.int32)
    mat = csr_matrix((data.ravel(), cols.ravel(), indptr), shape=(len(pts), grid.size))
    mat.has_sorted_indices = False
    return mat


def _advection_matrix(u_field: VectorField, grid: Grid, dt: float) -> csr_matrix:
    """One semi-Lagrangian step of length dt on a periodic grid: the field
    at the backward RK4 feet of the cell centers, wrapped onto the torus."""
    low = np.asarray(grid.box.lower)
    substep = min(dt, 0.1 / max(u_field.lip, 1e-12))
    feet = _rk4(u_field, grid.cell_centers(), -dt, substep)
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
    split only where a snapshot is taken. A field that overflows raises
    BadParameter; a velocity that is not periodic raises NotTorusMap.
    """
    grid = omega0.grid
    if not grid.box.periodic:
        raise NonPeriodic("perturbed solve needs a periodic grid")
    if not 0 < dt < math.inf:
        raise BadParameter(f"time step {dt:g} must be finite and positive")
    if dt * u_field.lip > 0.5:
        raise StepTooLarge(f"dt {dt} times Lip {u_field.lip} exceeds 0.5")
    _check_times(times, t_end, dt)
    require_periodic_field(u_field, grid)
    riesz = RieszOperator(grid)
    n = grid.n
    nsteps = int(round(t_end / dt))
    if abs(nsteps * dt - t_end) > 1e-9 * max(t_end, 1.0):
        raise BadParameter(f"t_end {t_end:g} must be a multiple of dt {dt:g}")
    for t in times:
        if abs(round(t / dt) * dt - t) > 1e-9 * max(1.0, t_end):
            raise BadParameter(f"output time {t:g} must be a multiple of dt {dt:g}")
    want = set(int(round(t / dt)) for t in times)
    last = max(want, default=0)  # later steps change no snapshot

    field = omega0.values.reshape(n, n).copy()
    out = {0: GridFunction(grid, field.ravel())}
    if last:
        advect = _advection_matrix(u_field, grid, dt)
        field = riesz.half_step(field, dt / 2.0)
    # m lies in [0, 1], so the field may grow like e^t; past t ~ 700 a field
    # of size 1 overflows, which numpy flags (or a snapshot shows)
    k = 0
    try:
        with np.errstate(over="raise", invalid="raise"):
            for k in range(1, last + 1):
                field = (advect @ field.ravel()).reshape(n, n)
                if k not in want:
                    field = riesz.half_step(field, dt)
                    continue
                field = riesz.half_step(field, dt / 2.0)
                if not np.isfinite(field).all():
                    raise FloatingPointError
                out[k] = GridFunction(grid, field.ravel())
                if k < last:
                    field = riesz.half_step(field, dt / 2.0)
    except FloatingPointError:
        raise BadParameter(f"the solution overflows by t = {k * dt:g}") from None
    return [out[int(round(t / dt))] for t in times]


def perturbed_growth_comparison(runs) -> dict:
    """Compare sharp and rough prefactor models across a field sweep.

    ``runs`` is a list of (lip, t, ratio) with ratio the seminorm growth of
    the solution. Both models share a single fitted exponential rate c:
    sharp predicts ratio ~ (1 + lip * t) e^(c t), rough predicts
    ratio ~ e^(lip * t) e^(c t), with c searched in [-6, 4]. Returns each
    model's rate and RMS relative residual on the identical points.
    """
    data = [(float(l), float(t), float(r)) for l, t, r in runs]
    lips = np.array([d[0] for d in data])
    ts = np.array([d[1] for d in data])
    ys = np.array([d[2] for d in data])

    def resid(c, rough):
        base = np.exp(lips * ts) if rough else (1.0 + lips * ts)
        return rms_relative(base * np.exp(c * ts), ys)

    c_sharp, r_sharp = bounded_minimum(lambda c: resid(c, rough=False), -6.0, 4.0)
    c_rough, r_rough = bounded_minimum(lambda c: resid(c, rough=True), -6.0, 4.0)
    return {
        "sharp": {"c": c_sharp, "residual": r_sharp},
        "rough": {"c": c_rough, "residual": r_rough},
    }
