"""Measure-preserving bi-Lipschitz maps: analytic zoo, flows, and estimators.

The distortion constant of a map is the sum of the Lipschitz constants of
the map and its inverse; it is at least 2, with equality exactly for
isometries, and sub-multiplicative under composition. Analytic constants
attached to zoo maps are the ground truth used by growth-law fits; the
sampling estimator only ever reports a lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import Ball, Box, Grid, cells_in_ball, points_in_ball
from .errors import BadParameter, StepTooLarge, ViolatedBound

# central-difference step prefactor: 10 * eps^(1/3), standard for first derivatives
_FD_STEP = 10.0 * np.finfo(float).eps ** (1.0 / 3.0)


def _as_points(x) -> tuple:
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    return (x[None, :] if single else x), single


@dataclass(frozen=True)
class BiLipMap:
    """Invertible bi-Lipschitz map with vectorized forward/inverse evaluators.

    ``lip_forward`` / ``lip_inverse`` are analytic Lipschitz constants;
    ``K`` is their sum.
    """

    name: str
    forward_fn: object
    inverse_fn: object
    lip_forward: float
    lip_inverse: float

    def forward(self, x):
        pts, single = _as_points(x)
        out = np.asarray(self.forward_fn(pts), dtype=float)
        return out[0] if single else out

    def inverse(self, x):
        pts, single = _as_points(x)
        out = np.asarray(self.inverse_fn(pts), dtype=float)
        return out[0] if single else out

    @property
    def K(self) -> float:
        return self.lip_forward + self.lip_inverse


def compose_maps(phi: BiLipMap, psi: BiLipMap) -> BiLipMap:
    """phi after psi; Lipschitz constants multiply (an upper bound)."""
    return BiLipMap(
        name=f"{phi.name}.{psi.name}",
        forward_fn=lambda x: phi.forward(psi.forward(x)),
        inverse_fn=lambda y: psi.inverse(phi.inverse(y)),
        lip_forward=phi.lip_forward * psi.lip_forward,
        lip_inverse=phi.lip_inverse * psi.lip_inverse,
    )


def _unit_triangular_sigma_max(c: float) -> float:
    """Largest singular value of [[1, c], [0, 1]] (det = 1, so sigma_min = 1/sigma_max)."""
    c = abs(c)
    return (c + math.sqrt(c * c + 4.0)) / 2.0


def make_identity() -> BiLipMap:
    return BiLipMap("identity", lambda x: x.copy(), lambda x: x.copy(), 1.0, 1.0)


def make_translation(shift) -> BiLipMap:
    shift = np.asarray(shift, dtype=float)
    return BiLipMap(
        f"translation({','.join(f'{s:g}' for s in shift)})",
        lambda x: x + shift,
        lambda x: x - shift,
        1.0,
        1.0,
    )


def make_rotation(angle: float, center=(0.0, 0.0)) -> BiLipMap:
    """Planar rotation about a center point; an isometry, K = 2."""
    c0 = np.asarray(center, dtype=float)
    ca, sa = math.cos(angle), math.sin(angle)
    rot = np.array([[ca, -sa], [sa, ca]])

    def fwd(x):
        return (x - c0) @ rot.T + c0

    def inv(x):
        return (x - c0) @ rot + c0

    return BiLipMap(f"rotation({angle:g})", fwd, inv, 1.0, 1.0)


def make_shear(lam: float, profile=None, profile_lip: float = 1.0) -> BiLipMap:
    """Horizontal shear (x, y) -> (x + lam * g(y), y) with a Lipschitz profile g.

    Triangular with unit diagonal, hence exactly measure preserving. The
    Lipschitz constants come from the singular values of [[1, lam*L_g], [0, 1]].
    """
    if profile is None:
        profile = lambda y: y
    sigma = _unit_triangular_sigma_max(lam * profile_lip)

    def fwd(x):
        out = x.copy()
        out[:, 0] += lam * profile(x[:, 1])
        return out

    def inv(x):
        out = x.copy()
        out[:, 0] -= lam * profile(x[:, 1])
        return out

    return BiLipMap(f"shear({lam:g})", fwd, inv, sigma, sigma)


def make_linear_strain(t: float) -> BiLipMap:
    """Diagonal strain diag(e^t, e^-t): det = 1 exactly, K = 2 e^|t|."""
    a = math.exp(t)

    def fwd(x):
        out = x.copy()
        out[:, 0] *= a
        out[:, 1] /= a
        return out

    def inv(x):
        out = x.copy()
        out[:, 0] /= a
        out[:, 1] *= a
        return out

    lip = math.exp(abs(t))
    return BiLipMap(f"strain({t:g})", fwd, inv, lip, lip)


def make_hat_twist(alpha: float, center=(0.0, 0.0)) -> BiLipMap:
    """Radial twist (r, theta) -> (r, theta + omega(r)) about a center, with
    tent profile omega(r) = alpha * max(1 - r, 0).

    Rotates each circle rigidly, hence volume preserving. The recorded
    Lipschitz constant is the singular-value bound of a unit shear of
    magnitude sup_r r * |omega'(r)| = alpha (attained at r = 1).
    """
    c0 = np.asarray(center, dtype=float)

    def _twist(x, sign):
        rel = x - c0
        r = np.hypot(rel[:, 0], rel[:, 1])
        ang = sign * alpha * np.clip(1.0 - r, 0.0, None)
        ca, sa = np.cos(ang), np.sin(ang)
        out = np.empty_like(rel)
        out[:, 0] = ca * rel[:, 0] - sa * rel[:, 1]
        out[:, 1] = sa * rel[:, 0] + ca * rel[:, 1]
        return out + c0

    lip = _unit_triangular_sigma_max(alpha)
    return BiLipMap(
        f"twist({alpha:g})",
        lambda x: _twist(x, +1.0),
        lambda x: _twist(x, -1.0),
        lip,
        lip,
    )


def make_stretch(factor: float) -> BiLipMap:
    """Non-measure-preserving control map (x, y) -> (factor * x, y)."""

    def fwd(x):
        out = x.copy()
        out[:, 0] *= factor
        return out

    def inv(x):
        out = x.copy()
        out[:, 0] /= factor
        return out

    return BiLipMap(f"stretch({factor:g})", fwd, inv, max(factor, 1.0), max(1.0 / factor, 1.0))


@dataclass(frozen=True)
class VectorField:
    """Divergence-free velocity field with its Lipschitz constant."""

    name: str
    fn: object
    lip: float

    def __call__(self, x):
        pts, single = _as_points(x)
        out = np.asarray(self.fn(pts), dtype=float)
        return out[0] if single else out

    def divergence_residual(self, points: np.ndarray) -> float:
        """Max |div v| over the points, by central differences."""
        pts, _ = _as_points(points)
        d = pts.shape[1]
        h = _FD_STEP * max(1.0, float(np.abs(pts).max()))
        div = np.zeros(len(pts))
        for k in range(d):
            e = np.zeros(d)
            e[k] = h
            div += (self(pts + e)[:, k] - self(pts - e)[:, k]) / (2 * h)
        return float(np.abs(div).max())


def constant_field(vec) -> VectorField:
    vec = np.asarray(vec, dtype=float)
    return VectorField("constant", lambda x: np.broadcast_to(vec, x.shape).copy(), 0.0)


def strain_field() -> VectorField:
    """v(x, y) = (x, -y); divergence free, Lipschitz constant 1."""

    def fn(x):
        out = x.copy()
        out[:, 1] *= -1.0
        return out

    return VectorField("strain", fn, 1.0)


def cellular_field(amplitude: float = 1.0, wavenumber: int = 1) -> VectorField:
    """Perpendicular gradient of A sin(2 pi k x) sin(2 pi k y): a cell array.

    Lipschitz constant (max Jacobian norm) is A (2 pi k)^2.
    """
    w = 2.0 * math.pi * wavenumber

    def fn(x):
        out = np.empty_like(x)
        out[:, 0] = -amplitude * w * np.sin(w * x[:, 0]) * np.cos(w * x[:, 1])
        out[:, 1] = amplitude * w * np.cos(w * x[:, 0]) * np.sin(w * x[:, 1])
        return out

    return VectorField(f"cellular(A={amplitude:g},k={wavenumber})", fn, amplitude * w * w)


def _rk4(fn, x: np.ndarray, t_total: float, step: float) -> np.ndarray:
    """Classical 4th-order integration of dx/dt = fn(x) over t_total."""
    if t_total == 0.0:
        return x.copy()
    nsteps = max(1, int(math.ceil(abs(t_total) / step)))
    dt = t_total / nsteps
    y = x.copy()
    for _ in range(nsteps):
        k1 = fn(y)
        k2 = fn(y + 0.5 * dt * k1)
        k3 = fn(y + 0.5 * dt * k2)
        k4 = fn(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def integrate_flow(v: VectorField, t: float, step: float) -> BiLipMap:
    """Time-t flow of v by RK4; the inverse integrates -v with the same step."""
    if t < 0:
        raise ValueError("flow time must be nonnegative")
    if not 0 < step < math.inf:
        raise BadParameter(f"flow step {step:g} must be finite and positive")
    if step * v.lip > 0.5:
        raise StepTooLarge(f"step {step} times Lip {v.lip} exceeds 0.5")
    lip = math.exp(v.lip * t)  # Gronwall envelope for either direction
    return BiLipMap(
        name=f"flow({v.name},t={t:g})",
        forward_fn=lambda x: _rk4(v, x, t, step),
        inverse_fn=lambda x: _rk4(lambda y: -v(y), x, t, step),
        lip_forward=lip,
        lip_inverse=lip,
    )


def _central_jacobian(map_fn, pts: np.ndarray, h: float) -> np.ndarray:
    d = pts.shape[1]
    jac = np.empty((len(pts), d, d))
    for b in range(d):
        e = np.zeros(d)
        e[b] = h
        jac[:, :, b] = (map_fn(pts + e) - map_fn(pts - e)) / (2 * h)
    return jac


def fd_jacobian(map_fn, points: np.ndarray, step: float | None = None) -> np.ndarray:
    """Finite-difference Jacobians, shape (N, d, d), J[i, a, b] = d phi_a / d x_b.

    Central differences at two steps, Richardson-extrapolated to fourth
    order; needed so that determinant-level identities survive at 1e-8.
    """
    pts, _ = _as_points(points)
    h = step or _FD_STEP * max(1.0, float(np.abs(pts).max()))
    coarse = _central_jacobian(map_fn, pts, h)
    fine = _central_jacobian(map_fn, pts, h / 2.0)
    return (4.0 * fine - coarse) / 3.0


def _sample_box(box: Box, count: int, rng, margin: float = 0.0) -> np.ndarray:
    low = np.asarray(box.lower) + margin
    side = box.side - 2 * margin
    return low + side * rng.random((count, box.d))


def estimate_K(
    phi: BiLipMap, samples: int = 2000, seed: int = 0, box: Box | None = None
) -> float:
    """Sampling lower bound for the distortion constant of phi.

    Combines max difference quotients over random point pairs with operator
    norms of finite-difference Jacobians, for the map and its inverse.
    Deterministic for a fixed seed.
    """
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    if box is None:
        box = Box((-1.0, -1.0), 2.0)
    rng = np.random.default_rng(seed)
    margin = 1e-3 * box.side
    x = _sample_box(box, samples, rng, margin)
    y = _sample_box(box, samples, rng, margin)
    sep = np.linalg.norm(x - y, axis=1)
    keep = sep > 1e-9
    fx, fy = phi.forward(x), phi.forward(y)
    fsep = np.linalg.norm(fx - fy, axis=1)
    lip_f = float((fsep[keep] / sep[keep]).max())
    lip_i = float((sep[keep] / np.maximum(fsep[keep], 1e-300)).max())

    pts = _sample_box(box, min(samples, 512), rng, margin)
    fd_step = _FD_STEP * max(1.0, float(np.abs(pts).max()))
    jf = fd_jacobian(phi.forward, pts, fd_step)
    lip_f = max(lip_f, float(np.linalg.norm(jf, ord=2, axis=(1, 2)).max()))
    ipts = phi.forward(pts)
    ji = fd_jacobian(phi.inverse, ipts, fd_step)
    lip_i = max(lip_i, float(np.linalg.norm(ji, ord=2, axis=(1, 2)).max()))
    return lip_f + lip_i


def check_inverse_consistency(
    phi: BiLipMap, samples: int = 1000, seed: int = 0, box: Box | None = None
) -> float:
    """Max |inverse(forward(x)) - x| over random sample points."""
    if box is None:
        box = Box((-1.0, -1.0), 2.0)
    rng = np.random.default_rng(seed)
    x = _sample_box(box, samples, rng)
    return float(np.abs(phi.inverse(phi.forward(x)) - x).max())


@dataclass(frozen=True)
class MeasureReport:
    """Measure-preservation diagnostics: Jacobian and cell-count evidence."""

    max_det_error: float
    mass_error: float


def check_measure_preserving(
    phi: BiLipMap, grid: Grid, test_ball: Ball | None = None
) -> MeasureReport:
    """Jacobian-determinant and push-forward cell-count measure checks.

    Reports max |det D phi - 1| over cell centers and the relative error
    between the cell counts of a test ball and of its preimage.
    """
    centers = grid.cell_centers()
    jac = fd_jacobian(phi.forward, centers, _FD_STEP * max(1.0, grid.box.side))
    det = np.linalg.det(jac)
    max_det_err = float(np.abs(det - 1.0).max())

    if test_ball is None:
        test_ball = Ball(tuple(grid.box.center), grid.box.side / 4.0)
    direct = len(cells_in_ball(grid, test_ball))
    pre = phi.inverse(centers)
    pulled = int(points_in_ball(grid.box, pre, test_ball.center, test_ball.radius).sum())
    mass_err = abs(pulled - direct) / max(direct, 1)
    return MeasureReport(max_det_err, float(mass_err))


def check_lip_inverse_bound(
    phi: BiLipMap, samples: int = 1000, seed: int = 0, box: Box | None = None
) -> bool:
    """Verify |D phi^-1| <= |D phi|^(d-1) at sampled points (equality in 2D).

    For a measure-preserving map the singular values multiply to one, so the
    inverse Jacobian norm is controlled by a power of the forward one; in two
    dimensions the two operator norms coincide pointwise.
    """
    if box is None:
        box = Box((-1.0, -1.0), 2.0)
    rng = np.random.default_rng(seed)
    pts = _sample_box(box, samples, rng, margin=1e-3 * box.side)
    jac = fd_jacobian(phi.forward, pts, _FD_STEP * max(1.0, box.side))
    d = pts.shape[1]
    norm_f = np.linalg.norm(jac, ord=2, axis=(1, 2))
    norm_i = np.linalg.norm(np.linalg.inv(jac), ord=2, axis=(1, 2))
    bad = norm_i > norm_f ** (d - 1) * (1.0 + 1e-6)
    if bad.any():
        i = int(np.argmax(norm_i - norm_f ** (d - 1)))
        raise ViolatedBound("inverse Jacobian norm bound failed", tuple(pts[i]))
    if d == 2:
        gap = np.abs(norm_i - norm_f) / np.maximum(norm_f, 1.0)
        if gap.max() > 1e-8:
            i = int(np.argmax(gap))
            raise ViolatedBound("2D operator-norm equality failed", tuple(pts[i]))
    return True
