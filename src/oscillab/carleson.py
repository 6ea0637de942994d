"""Carleson densities on dyadic time shells, box masses, norms, pull-backs.

A density beta(t, x) defines the singular measure |beta|^2 dt dx / t on the
upper half-space. Time is discretized on dyadic shells t_j = T 2^-j, which
makes the dt/t weight of each shell exactly log 2 and removes all
quadrature ambiguity near t = 0. The shells of a box of height r fold into
one spatial field (``shell_weight``), so a box mass is one ball sum of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import (
    Ball,
    BallFamily,
    Grid,
    GridFunction,
    Sup,
    cells_in_ball,
    interpolate,
    points_in_ball,
)
from .errors import HeightExceeded, NonPeriodic
from .maps import BiLipMap, require_torus_map

LOG2 = math.log(2.0)


@dataclass(frozen=True)
class CarlesonDensity:
    """beta sampled on (dyadic shells) x (spatial grid).

    ``values`` has shape (J + 1, n^d) with shell j at height T 2^-j. The
    density is zero outside the window.
    """

    grid: Grid
    T: float
    values: np.ndarray
    beta: object = None  # optional generating callable beta(t, points)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[1] != self.grid.size:
            raise ValueError("density values must have shape (J+1, n^d)")
        if not np.all(np.isfinite(vals)):
            raise ValueError("density values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def shells(self) -> int:
        return self.values.shape[0]

    @property
    def t_levels(self) -> np.ndarray:
        return self.T * 2.0 ** (-np.arange(self.shells))

    @property
    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())

    def scaled(self, factor: float) -> "CarlesonDensity":
        scaled_beta = None
        if self.beta is not None:
            scaled_beta = lambda t, pts, b=self.beta: factor * np.asarray(b(t, pts))
        return CarlesonDensity(self.grid, self.T, factor * self.values, scaled_beta)


def default_shell_count(grid: Grid) -> int:
    """Shells down to a height of 4 cells; below that averages are noise."""
    return int(math.log2(grid.n / 4)) + 1


def density_from_callable(grid: Grid, T: float, beta) -> CarlesonDensity:
    """Sample beta(t, points) on the dyadic shells of the grid."""
    pts = grid.cell_centers()
    rows = [np.asarray(beta(T * 2.0**-j, pts), dtype=float)
            for j in range(default_shell_count(grid))]
    return CarlesonDensity(grid, T, np.stack(rows), beta)


def shell_weight(mu: CarlesonDensity, r: float) -> np.ndarray:
    """The shells of a box of height r folded into one field: the sum over
    t_j <= r of beta_j^2 * cell volume * log 2, so that the box's mass is
    the sum of this field over the cells of its base."""
    if r > mu.T * (1.0 + 1e-12):
        raise HeightExceeded(f"box height {r} exceeds density height {mu.T}")
    w = np.zeros(mu.grid.size)
    for j, t in enumerate(mu.t_levels):
        if t <= r * (1.0 + 1e-12):
            w += mu.values[j] ** 2 * mu.grid.cell_volume * LOG2
    return w


def box_mass(mu: CarlesonDensity, ball: Ball) -> float:
    """Measure of the box over the ball B, heights (0, r_B]: the folded shell
    field summed over the cells of B."""
    return float(shell_weight(mu, ball.radius)[cells_in_ball(mu.grid, ball)].sum())


def carleson_norm(mu: CarlesonDensity, family) -> Sup:
    """Sup over the family of box mass over base ball volume, and its argmax
    ball; each block of balls is one gather of the folded shell field of its
    radius.

    Only balls whose mass can reach the sup are gathered. With w >= 0 the
    field of a ball's radius, S its ball sum, c its cell count and s the
    family's ``sum_slack``, the mass is at most S (1 + s) + s c max w, which
    covers the rounding of S and of the gathered sum.
    """
    family = BallFamily.on(mu.grid, family)
    radii, first, which = np.unique(family.radii, return_index=True, return_inverse=True)
    w = np.empty((len(radii), mu.grid.size))
    # in family order, so a box too tall fails at the radius a gather of
    # every ball would fail at
    for k in np.argsort(first):
        w[k] = shell_weight(mu, float(radii[k]))
    fields = dict(zip(radii.tolist(), w))

    def rows(ball: Ball, idx: np.ndarray) -> np.ndarray:
        return fields[ball.radius][idx].sum(axis=1) / ball.volume

    mass = family.ball_sums(w, which)
    slack = family.sum_slack
    top = w.max(axis=1)[which]
    bound = (mass * (1 + slack) + slack * family.counts * top) / family.volumes
    return family.sup(rows, bound)


def pullback(mu: CarlesonDensity, phi: BiLipMap) -> CarlesonDensity:
    """Pull-back density: shell-wise spatial composition beta(t, phi(x)).

    Valid as a density pull-back precisely because phi preserves measure,
    and on a torus only for a map of the torus (NotTorusMap otherwise).
    Densities that carry their generating callable are resampled exactly;
    gridded ones are interpolated per shell and read zero at points leaving
    the window.
    """
    if mu.grid.box.periodic:
        require_torus_map(phi, mu.grid)
    pts = phi.forward(mu.grid.cell_centers())
    if mu.beta is not None:
        new_beta = lambda t, q, b=mu.beta: np.asarray(b(t, phi.forward(np.asarray(q))))
        rows = np.stack(
            [np.asarray(mu.beta(t, pts), dtype=float) for t in mu.t_levels]
        )
        return CarlesonDensity(mu.grid, mu.T, rows, new_beta)
    inside = mu.grid.box.contains(pts)
    # interpolate only inside: a far-off point overflows the cell index cast
    rows = np.zeros_like(mu.values)
    for j in range(mu.shells):
        rows[j, inside] = interpolate(mu.grid, mu.values[j], pts[inside])
    return CarlesonDensity(mu.grid, mu.T, rows)


def pullback_set_mass(mu: CarlesonDensity, phi: BiLipMap, ball: Ball) -> float:
    """Mass of the pull-back's box over the ball B computed in set form:
    mu(I x phi(B)), I = (0, r_B].

    Change of variables with unit Jacobian turns the integral of
    beta(t, phi(x))^2 over B into the integral of beta(t, y)^2 over the
    image phi(B). Cross-check for the density form: both agree up to
    rasterization because the map preserves measure.
    """
    w = shell_weight(mu, ball.radius)
    pre = phi.inverse(mu.grid.cell_centers())
    return float(w[points_in_ball(mu.grid.box, pre, ball.center, ball.radius)].sum())


def sc_class_check(mu: CarlesonDensity, family) -> bool:
    """Membership in the sup-controlled class: sup |beta| <= 10 * Carleson norm."""
    norm = carleson_norm(mu, family).value
    return mu.sup_norm <= 10.0 * norm


def bmo_to_carleson(g: GridFunction) -> CarlesonDensity:
    """Approximate-identity density of a mean-zero function on a torus.

    beta(t, x) = (g * G_t)(x) - (g * G_2t)(x) with G_t a Gaussian kernel of
    width t applied spectrally. The resulting measure is Carleson exactly
    when g has bounded mean oscillation.
    """
    grid = g.grid
    if not grid.box.periodic:
        raise NonPeriodic("approximate-identity densities need a periodic box")
    if grid.d != 2:
        raise ValueError("implemented for d = 2")
    n = grid.n
    field = g.values.reshape(n, n) - g.values.mean()
    spec = np.fft.fft2(field)
    k = np.fft.fftfreq(n, d=grid.h)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    ksq = kx**2 + ky**2
    j_max = default_shell_count(grid)
    T = grid.box.side / 2.0
    rows = np.empty((j_max, grid.size))
    for j in range(j_max):
        t = T * 2.0**-j
        mult = np.exp(-2.0 * (math.pi * t) ** 2 * ksq) - np.exp(
            -2.0 * (math.pi * 2.0 * t) ** 2 * ksq
        )
        rows[j] = np.real(np.fft.ifft2(spec * mult)).ravel()
    return CarlesonDensity(grid, T, rows)

