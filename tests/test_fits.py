"""Growth-law regression: model families, residuals, guards."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscillab.errors import TooFewPoints
from oscillab.fits import bounded_minimum, fit_models, rms_relative


XS = [2.0, 4.0, 8.0, 16.0, 32.0]


def test_rms_relative():
    pred = np.array([1.0, 2.0])
    obs = np.array([1.0, 1.0])
    assert rms_relative(pred, obs) == pytest.approx(math.sqrt(0.5))


def test_recovers_log_model():
    pts = [(x, 0.7 + 1.3 * math.log(x)) for x in XS]
    fits = fit_models(pts)
    f = fits["log"]
    assert f.residual < 1e-12
    assert f.coeffs[0] == pytest.approx(0.7) and f.coeffs[1] == pytest.approx(1.3)
    # and the exact log data is not power-law
    assert fits["power"].residual > 1e-3


def test_recovers_power_model():
    pts = [(x, 2.0 * x**0.5) for x in XS]
    fits = fit_models(pts)
    f = fits["power"]
    assert f.residual < 1e-6
    assert f.coeffs[0] == pytest.approx(2.0, rel=1e-5)
    assert f.coeffs[1] == pytest.approx(0.5, abs=1e-5)
    assert fits["log"].residual > 1e-3


def test_recovers_affine_and_exp():
    pts_a = [(x, 3.0 + 0.25 * x) for x in XS]
    assert fit_models(pts_a)["affine"].residual < 1e-12
    pts_e = [(x, 0.5 * math.exp(0.2 * x)) for x in XS]
    f = fit_models(pts_e)["exp"]
    assert f.residual < 1e-10
    assert f.coeffs[1] == pytest.approx(0.2)


def test_exp_fit_rejects_nonpositive():
    pts = [(x, x - 10.0) for x in XS]  # some y <= 0
    assert math.isinf(fit_models(pts)["exp"].residual)


def test_too_few_points():
    with pytest.raises(TooFewPoints):
        fit_models([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])


def test_duplicate_x_rejected():
    with pytest.raises(ValueError):
        fit_models([(1.0, 1.0), (1.0, 2.0), (3.0, 3.0), (4.0, 4.0)])


def test_log_fit_recovers_coefficients():
    pts = [(x, 1.0 + 2.0 * math.log(x)) for x in XS]
    f = fit_models(pts)["log"]
    assert f.coeffs == pytest.approx((1.0, 2.0))


def test_power_data_best_fit_is_power():
    fits = fit_models([(x, 4.0 * x**0.3) for x in XS])
    assert min(fits.values(), key=lambda f: f.residual).model == "power"


def test_power_exponent_bounded_by_dimension():
    # steeper-than-quadratic data: the exponent search is capped at d = 2
    pts = [(x, x**3.0) for x in XS]
    f = fit_models(pts)["power"]
    assert f.coeffs[1] <= 2.0 + 1e-9


@settings(max_examples=150)
@given(
    kind=st.sampled_from(["polynomial", "smooth", "kink", "plateau"]),
    coeffs=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=5),
    c=st.floats(-3.0, 3.0),
    lo=st.floats(-5.0, 1.0),
    width=st.floats(0.0, 6.0),
    log_xatol=st.floats(-9.0, -3.0),
)
def test_bounded_minimum_is_scipys_bounded_search(kind, coeffs, c, lo, width, log_xatol):
    # the kink |x - c| and the flat plateau of width 2 around c reach the
    # search's tie branches (fu == fx, nfc == xf)
    from scipy.optimize import minimize_scalar

    func = {
        "polynomial": lambda x: float(np.polyval(coeffs, x)),
        "smooth": lambda x: math.sin(3.0 * x) + c * c * x * x,
        "kink": lambda x: abs(x - c),
        "plateau": lambda x: max(abs(x - c) - 1.0, 0.0),
    }[kind]
    hi, xatol = lo + width, 10.0**log_xatol
    res = minimize_scalar(func, bounds=(lo, hi), method="bounded", options={"xatol": xatol})
    assert bounded_minimum(func, lo, hi, xatol=xatol) == (res.x, res.fun)
