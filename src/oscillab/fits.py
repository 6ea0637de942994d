"""Growth-law regression: competing logarithmic / power / affine / exponential fits.

All competing models are fitted on the same points and scored by the RMS of
the relative error, so residuals are directly comparable; relative error is
used because measured ratios span an order of magnitude across a sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


# Evaluation cap of the bounded search (scipy's ``maxiter`` default).
MAX_EVALUATIONS = 500


def bounded_minimum(func, lo: float, hi: float, xatol: float = 1e-5):
    """Local minimum of a scalar function on [lo, hi]: returns (x, func(x)).

    Brent's method (Brent 1973, *Algorithms for Minimization without
    Derivatives*, ch. 5): golden-section steps, parabolic interpolation when
    it is accepted, stopping once the bracket around x is within about
    ``xatol`` or after ``MAX_EVALUATIONS`` evaluations.

    A statement-for-statement port of scipy 1.17's
    ``scipy.optimize._optimize._minimize_scalar_bounded``, with the same
    constants and the same numpy scalar arithmetic, so it evaluates ``func``
    at the same points and returns the same x and value, bit for bit, as
    ``minimize_scalar(func, bounds=(lo, hi), method="bounded",
    options={"xatol": xatol})``. That code is Copyright (c) 2001-2002
    Enthought, Inc. 2003, SciPy Developers, used under the BSD 3-Clause
    license.
    """
    if lo > hi:
        raise ValueError("The lower bound exceeds the upper bound.")
    sqrt_eps = np.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - np.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = 1
        # Check for parabolic fit
        if np.abs(e) > tol1:
            golden = 0
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat

            # Check for acceptability of parabola
            if (np.abs(p) < np.abs(0.5 * q * r)) and (p > q * (a - xf)) and (p < q * (b - xf)):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:  # do a golden-section step
                golden = 1

        if golden:  # do a golden-section step
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = golden_mean * e

        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= MAX_EVALUATIONS:
            break
    return float(xf), float(fx)


def _linear_fit(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
    return coeffs


def _fit_log(x, y):
    c = _linear_fit(np.stack([np.ones_like(x), np.log(x)], axis=1), y)
    return FitResult("log", (float(c[0]), float(c[1])), rms_relative(c[0] + c[1] * np.log(x), y))


def _fit_affine(x, y):
    c = _linear_fit(np.stack([np.ones_like(x), x], axis=1), y)
    return FitResult("affine", (float(c[0]), float(c[1])), rms_relative(c[0] + c[1] * x, y))


_EPS_MAX = 2.0  # cap of the power exponent search: d of the 2-D boxes sweeps run on


def _fit_power(x, y):
    scale = np.maximum(np.abs(y), 1e-12)

    def resid(eps):
        a = x**eps
        w = a / scale
        c0 = float((w * y / scale).sum() / (w * w).sum())
        return rms_relative(c0 * a, y), c0

    eps, _ = bounded_minimum(lambda e: resid(e)[0], 0.01, _EPS_MAX, xatol=1e-6)
    r, c0 = resid(eps)
    return FitResult("power", (c0, eps), r)


def _fit_exp(x, y):
    if np.any(y <= 0):
        # exponential model undefined for nonpositive data; fit on shifted data
        return FitResult("exp", (float("nan"), float("nan")), float("inf"))
    c = _linear_fit(np.stack([np.ones_like(x), x], axis=1), np.log(y))
    c0, gamma = math.exp(float(c[0])), float(c[1])
    return FitResult("exp", (c0, gamma), rms_relative(c0 * np.exp(gamma * x), y))


def fit_models(points, models=("log", "power", "affine", "exp")) -> dict:
    """Fit the requested model families to (x, y) points; x strictly increasing.

    Returns a dict model name -> FitResult; every model sees exactly the
    same points. The power exponent is found by ``bounded_minimum`` on
    [0.01, _EPS_MAX].
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
        out["power"] = _fit_power(x, y)
    if "affine" in models:
        out["affine"] = _fit_affine(x, y)
    if "exp" in models:
        out["exp"] = _fit_exp(x, y)
    return out
