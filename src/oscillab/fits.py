"""Growth-law regression: competing logarithmic / power / affine / exponential fits.

All competing models are fitted on the same points and scored by the RMS of
the relative error, so residuals are directly comparable; relative error is
used because measured ratios span an order of magnitude across a sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import RepeatedAbscissa, TooFewPoints


@dataclass(frozen=True)
class FitResult:
    """One fitted model: name, coefficients, RMS relative residual."""

    model: str
    coeffs: tuple
    residual: float


def rms_relative(pred: np.ndarray, y: np.ndarray) -> float:
    y = np.asarray(y, dtype=float)
    scale = np.maximum(np.abs(y), 1e-12)
    return float(np.sqrt(np.mean(((pred - y) / scale) ** 2)))


def _linear_fit(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
    return coeffs


def _fit_log(x, y):
    c = _linear_fit(np.stack([np.ones_like(x), np.log(x)], axis=1), y)
    return FitResult("log", (float(c[0]), float(c[1])), rms_relative(c[0] + c[1] * np.log(x), y))


def _fit_affine(x, y):
    c = _linear_fit(np.stack([np.ones_like(x), x], axis=1), y)
    return FitResult("affine", (float(c[0]), float(c[1])), rms_relative(c[0] + c[1] * x, y))


def _fit_power(x, y, eps_max):
    scale = np.maximum(np.abs(y), 1e-12)

    def resid(eps):
        a = x**eps
        w = a / scale
        c0 = float((w * y / scale).sum() / (w * w).sum())
        return rms_relative(c0 * a, y), c0

    res = minimize_scalar(
        lambda e: resid(e)[0], bounds=(0.01, eps_max), method="bounded",
        options={"xatol": 1e-6},
    )
    eps = float(res.x)
    r, c0 = resid(eps)
    return FitResult("power", (c0, eps), r)


def _fit_exp(x, y):
    if np.any(y <= 0):
        # exponential model undefined for nonpositive data; fit on shifted data
        return FitResult("exp", (float("nan"), float("nan")), float("inf"))
    c = _linear_fit(np.stack([np.ones_like(x), x], axis=1), np.log(y))
    c0, gamma = math.exp(float(c[0])), float(c[1])
    return FitResult("exp", (c0, gamma), rms_relative(c0 * np.exp(gamma * x), y))


def fit_models(points, eps_max: float = 2.0, models=("log", "power", "affine", "exp")) -> dict:
    """Fit the requested model families to (x, y) points; x strictly increasing.

    Returns a dict model name -> FitResult; every model sees exactly the
    same points. The power exponent is found by bounded 1-D search on
    [0.01, eps_max].
    """
    pts = sorted((float(x), float(y)) for x, y in points)
    if len(pts) < 4:
        raise TooFewPoints(f"need at least 4 points, got {len(pts)}")
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    repeated = x[1:][np.diff(x) <= 0]
    if len(repeated):
        raise RepeatedAbscissa(f"fit needs distinct x values, got x = {repeated[0]:g} twice")
    out = {}
    if "log" in models:
        out["log"] = _fit_log(x, y)
    if "power" in models:
        out["power"] = _fit_power(x, y, eps_max)
    if "affine" in models:
        out["affine"] = _fit_affine(x, y)
    if "exp" in models:
        out["exp"] = _fit_exp(x, y)
    return out
