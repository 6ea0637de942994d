"""Discretized oscillation seminorms and composition with bi-Lipschitz maps.

The seminorm of order (p, a) is the sup over a finite ball family of the
L^p oscillation divided by |B|^(a/d): a = 0 gives the bounded-mean-
oscillation seminorm, a in (0, 1] the Campanato/Hoelder scale. The finite
family makes every computed value a lower bound of the continuum sup; all
inequality checks are phrased so that this bias is conservative.

The sup is computed over a ``BallFamily`` compiled once per grid: each
block of balls is one gather of (balls x cells) values followed by row
means, in the cell order of ``cells_in_ball``, so the result equals a loop
of ``ball_oscillation`` over the family bit for bit. Only the balls that
can reach the sup are gathered. Each ball's bound comes from osc_2, read
from prefix-sum ball sums of f - mean f and its square
(``BallFamily.ball_sums``): osc_p <= osc_2 for p <= 2 (power means), and
osc_p <= max|dev|^(1 - 2/p) osc_2^(2/p) for p > 2, with max|dev| at most
max f - min f. The bound carries a slack above the worst rounding of those
sums and of the gathered reduction, so the balls left out are below the sup
and the result stays bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import Ball, BallFamily, Grid, GridFunction, ball_average, interpolate
from .errors import BadParameter, DomainError, OutOfDomain, ZeroSeminorm
from .maps import BiLipMap


@dataclass(frozen=True)
class OscillationParams:
    """Oscillation exponent p and scaling exponent a."""

    p: float = 1.0
    a: float = 0.0

    def __post_init__(self):
        if not (1 <= self.p < math.inf):
            raise BadParameter(f"p must be finite and at least 1, got {self.p:g}")
        if not (0.0 <= self.a <= 1.0):
            raise BadParameter(f"a must lie in [0, 1], got {self.a:g}")


@dataclass(frozen=True)
class SeminormEstimate:
    """Value of the family sup together with the ball achieving it."""

    value: float
    argmax_ball: Ball


def rho(a: float, r: float) -> float:
    """Scale gauge: r^a for a > 0, log r for a = 0; defined for ratios >= 1."""
    if r < 1.0 - 1e-12:
        raise DomainError(f"gauge evaluated below 1: r = {r}")
    r = max(r, 1.0)
    return r**a if a > 0 else math.log(r)


def seminorm(f: GridFunction, params: OscillationParams, family) -> SeminormEstimate:
    """Max over the ball family of oscillation(B) / |B|^(a/d)."""
    family = BallFamily.on(f.grid, family)
    inv_p = 1.0 / params.p
    scale = params.a / f.grid.d

    def rows(ball: Ball, idx: np.ndarray) -> np.ndarray:
        dev = f.values[idx]
        dev -= dev.mean(axis=1, keepdims=True)
        np.abs(dev, out=dev)
        dev **= params.p
        # the root as a scalar pow per ball: the array pow may differ by an ulp
        osc = [m**inv_p for m in dev.mean(axis=1).tolist()]
        return np.array(osc) / ball.volume**scale

    bound = _oscillation_bound(f, family, params.p) / family.volumes**scale
    value, ball = family.sup(rows, bound)
    return SeminormEstimate(value, ball)


def _oscillation_bound(f: GridFunction, family: BallFamily, p: float) -> np.ndarray:
    """Per ball (family order), an upper bound on the L^p oscillation that a
    gather computes: osc_p <= max|dev|^e osc_2^(1 - e), e = max(0, 1 - 2/p).

    For p <= 2 (e = 0) this is osc_p <= osc_2 (power means); for p > 2 it
    is mean|dev|^p <= max|dev|^(p - 2) mean dev^2. osc_2 comes from ball
    sums of z = (f - mean f) / max|f - mean f| and z^2, with ``sum_slack``
    added to the variance of z for their rounding. A gathered ball mean of
    c cells is off by at most c eps max|f|, less than ``offset``: that
    raises osc_2 to its hypot with ``offset``, and max|dev| to at most
    max f - min f + ``offset``. The factor 1 + sum_slack covers the
    relative rounding, a few c eps, of the gathered deviations, powers,
    mean and root, and of this bound's own powers; at e = 0 the factor
    max|dev|^e is exactly 1. Where a gathered sum of c powers |dev|^p could
    reach 2^1023 and overflow to inf, the bound is inf: every ball is
    gathered.
    """
    z = np.empty((2, f.values.size))
    np.subtract(f.values, f.values.mean(), out=z[0])
    top = float(np.abs(z[0]).max())
    if top > 0:
        z[0] /= top
    np.multiply(z[0], z[0], out=z[1])
    s1, s2 = family.ball_sums(z)
    c, slack = family.counts, family.sum_slack
    var = np.maximum(s2 / c - (s1 / c) ** 2, 0.0) + slack
    offset = 2 * np.finfo(float).eps * c * np.abs(f.values).max()
    span = float(f.values.max() - f.values.min())
    reach = span + float(offset.max())
    if reach > 0 and p * math.log2(reach) + math.log2(c.max()) >= 1023:
        return np.full(len(c), np.inf)  # a gathered sum of |dev|^p may overflow
    e = max(0.0, 1.0 - 2.0 / p)
    return (span + offset) ** e * np.hypot(top * np.sqrt(var), offset) ** (1 - e) * (1 + slack)


def compose(f, phi: BiLipMap, out_grid: Grid | None = None) -> GridFunction:
    """Sample f o phi on a grid.

    ``f`` may be a GridFunction (multilinear interpolation at the mapped
    cell centers, wrapping on periodic boxes) or a plain callable over
    (N, d) points (exact analytic composition). Mapped points leaving a
    non-periodic window raise OutOfDomain; a sample that is not finite
    raises BadParameter.
    """
    if out_grid is None:
        if not isinstance(f, GridFunction):
            raise ValueError("out_grid is required when f is a callable")
        out_grid = f.grid
    pts = phi.forward(out_grid.cell_centers())
    if isinstance(f, GridFunction):
        if not f.grid.box.periodic:
            inside = f.grid.box.contains(pts)
            if not inside.all():
                bad = ", ".join(f"{x:g}" for x in pts[~inside][0])
                raise OutOfDomain(f"mapped point ({bad}) leaves the window")
        vals = interpolate(f.grid, f.values, pts)
    else:
        vals = np.asarray(f(pts), dtype=float)
    finite = np.isfinite(vals)
    if not finite.all():
        bad = ", ".join(f"{x:g}" for x in pts[~finite][0])
        raise BadParameter(f"{phi.name} sends a cell center to ({bad}), where f is not finite")
    return GridFunction(out_grid, vals)


def check_average_shift(
    f: GridFunction,
    ball: Ball,
    lam: float,
    params: OscillationParams,
    seminorm_value: float,
) -> float:
    """Normalized average drift between a ball and its lambda-dilate.

    Returns |av_B - av_{lam B}| / (rho_a(2 lam) |B|^(a/d) seminorm); the
    doubled gauge argument absorbs the additive constants hidden in the
    continuum bound near lam = 1. A uniformly bounded ratio over random
    (B, lam) sweeps certifies the average-shift estimate.
    """
    if lam <= 1.0:
        raise ValueError("dilation factor must exceed 1")
    if seminorm_value <= 0:
        raise ZeroSeminorm("average-shift ratio needs a nonzero seminorm")
    big = Ball(ball.center, lam * ball.radius)
    shift = abs(ball_average(f, ball) - ball_average(f, big))
    gauge = rho(params.a, 2.0 * lam) * ball.volume ** (params.a / f.grid.d)
    return shift / (gauge * seminorm_value)


def john_nirenberg_ratio(f: GridFunction, family) -> float:
    """seminorm(p=2) / seminorm(p=1) at a = 0; at least 1 by power means.

    Across a corpus of genuine bounded-mean-oscillation functions the ratio
    stays below a single moderate constant, reflecting the equivalence of
    the L^p oscillation scales.
    """
    s1 = seminorm(f, OscillationParams(p=1.0, a=0.0), family).value
    if s1 <= 0:
        raise ZeroSeminorm("ratio undefined for constants")
    s2 = seminorm(f, OscillationParams(p=2.0, a=0.0), family).value
    return s2 / s1
