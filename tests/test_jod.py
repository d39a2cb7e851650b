import math

import numpy as np
import pytest

from brdfnqm import jod as jm
from brdfnqm.errors import FitError
from brdfnqm.jod import (
    REFERENCE_PARAMS,
    CalibrationPoint,
    JodRegressionParams,
    fit_jod_regression,
    jod_from_deitp,
)


def _oracle(d, b1, b2, b3):
    """Straight transcription of the logistic map, no shared code paths."""
    if d <= 1e-9:
        return 10.0
    z = b1 * (-(d**b3) - b2)
    return 10.0 * (1.0 - 1.0 / (1.0 + math.exp(z)))


def test_reference_parameter_values():
    assert (REFERENCE_PARAMS.b1, REFERENCE_PARAMS.b2, REFERENCE_PARAMS.b3) == (
        -14.11,
        -0.47,
        -0.21,
    )


@pytest.mark.parametrize("d", [1e-8, 1e-4, 0.01, 0.3, 1.0, 2.5, 10.0, 100.0, 1000.0])
def test_matches_direct_formula(d):
    assert jod_from_deitp(d) == pytest.approx(_oracle(d, -14.11, -0.47, -0.21), rel=1e-12)


def test_zero_and_negative_error_give_limit_score():
    assert jod_from_deitp(0.0) == 10.0
    assert jod_from_deitp(1e-12) == 10.0
    assert jod_from_deitp(-3.0) == 10.0  # clamped to the d >= 0 domain


def test_monotone_nonincreasing_and_bounded():
    d = np.logspace(-6, 3, 10_000)
    j = jod_from_deitp(d)
    assert np.all(np.diff(j) <= 1e-12)
    assert np.all((j >= 0.0) & (j <= 10.0))


def test_array_and_scalar_paths_agree():
    d = np.array([0.0, 0.5, 3.0])
    arr = jod_from_deitp(d)
    np.testing.assert_allclose(arr, [jod_from_deitp(float(v)) for v in d], rtol=1e-15)


def test_rejects_non_finite_input():
    with pytest.raises(ValueError):
        jod_from_deitp(float("nan"))
    with pytest.raises(ValueError):
        jod_from_deitp(float("inf"))


def test_params_validation():
    with pytest.raises(ValueError):
        JodRegressionParams(float("nan"), 0.0, 0.0)
    with pytest.raises(ValueError):
        CalibrationPoint(deitp=-1.0, jod=5.0)
    with pytest.raises(ValueError):
        CalibrationPoint(deitp=1.0, jod=12.0)


def _synthetic_points(n=40, seed=0):
    rng = np.random.default_rng(seed)
    d = np.sort(rng.uniform(0.05, 50.0, n))
    return [CalibrationPoint(float(x), float(jod_from_deitp(x))) for x in d]


def test_lm_fit_recovers_reference_from_perturbed_start():
    points = _synthetic_points()
    for ps in [+0.2, -0.2]:
        init = JodRegressionParams(
            b1=-14.11 * (1 + ps), b2=-0.47 * (1 - ps), b3=-0.21 * (1 + ps)
        )
        fit = fit_jod_regression(points, init)
        np.testing.assert_allclose(
            fit.as_array(), REFERENCE_PARAMS.as_array(), rtol=1e-3
        )


def test_lm_fit_residual_is_tiny_on_noiseless_data():
    points = _synthetic_points(seed=3)
    fit = fit_jod_regression(points, JodRegressionParams(-10.0, -0.3, -0.3))
    resid = [jod_from_deitp(p.deitp, fit) - p.jod for p in points]
    assert max(abs(r) for r in resid) < 1e-5


def test_lm_fit_input_validation():
    points = _synthetic_points()[:2]
    with pytest.raises(ValueError):
        fit_jod_regression(points, REFERENCE_PARAMS)
    dup = [CalibrationPoint(1.0, 5.0), CalibrationPoint(1.0, 5.1), CalibrationPoint(1.0, 5.2)]
    with pytest.raises(ValueError):
        fit_jod_regression(dup, REFERENCE_PARAMS)


@pytest.mark.parametrize("b", [(-14.11, -0.47, -0.21), (-3.0, 0.2, -0.6), (2.0, -1.5, 0.3)])
def test_logistic_jacobian_matches_central_differences(b):
    d = np.array([0.0, 1e-12, 0.05, 0.7, 3.0, 20.0, 150.0])
    jac = jm._logistic_jacobian(d, np.array(b))
    fd = np.empty_like(jac)
    for j in range(3):
        h = 1e-6 * abs(b[j])
        up, down = list(b), list(b)
        up[j] += h
        down[j] -= h
        fd[:, j] = (jod_from_deitp(d, JodRegressionParams(*up)) - jod_from_deitp(d, JodRegressionParams(*down))) / (2 * h)
    assert not jac[:2].any()  # JOD is the constant 10 at d <= ZERO_DEITP_THRESHOLD
    np.testing.assert_allclose(jac, fd, rtol=1e-6, atol=1e-8)


def _noisy_calibration(seed):
    """24 points scattered around the reference logistic with JOD noise of 0.15, as the benchmark draws them."""
    rng = np.random.default_rng(seed)
    d = rng.uniform(2.0, 150.0, size=24)
    j = np.array([_oracle(x, -14.11, -0.47, -0.21) for x in d]) + rng.normal(0.0, 0.15, size=24)
    return [CalibrationPoint(float(x), float(np.clip(y, 0.0, 10.0))) for x, y in zip(d, j)]


@pytest.mark.parametrize("seed, expected", [
    (0, (-15.854432376620522, -0.5836483019255314, -0.14809248537269185)),
    (1, (-13.999012265562502, -0.3988632776661409, -0.25680794613267977)),
])
def test_lm_fit_converges_to_pinned_minimum(seed, expected):
    fit = fit_jod_regression(_noisy_calibration(seed), REFERENCE_PARAMS)
    np.testing.assert_allclose(fit.as_array(), expected, rtol=1e-9, atol=0)


@pytest.mark.parametrize("seed", range(4))
def test_lm_refit_from_its_own_result_stays_put(seed):
    points = _noisy_calibration(seed)
    fit = fit_jod_regression(points, REFERENCE_PARAMS)
    refit = fit_jod_regression(points, fit)
    np.testing.assert_allclose(refit.as_array(), fit.as_array(), rtol=1e-12, atol=0)


@pytest.mark.parametrize("seed", range(2))
def test_lm_fit_barely_moves_when_one_label_moves_one_ulp(seed):
    """The fit reaches the stationary point, not just the cost's rounding floor
    (about 1e-8 relative away), so a label's last digit moves it by far less."""
    points = _noisy_calibration(seed)
    fit = fit_jod_regression(points, REFERENCE_PARAMS).as_array()
    for i, pt in enumerate(points):
        for toward in (0.0, 10.0):
            moved = [*points[:i], CalibrationPoint(pt.deitp, float(np.nextafter(pt.jod, toward))), *points[i + 1 :]]
            np.testing.assert_allclose(fit_jod_regression(moved, REFERENCE_PARAMS).as_array(), fit, rtol=1e-10, atol=0)


def test_jod_from_deitp_at_zero_and_one():
    assert jod_from_deitp(0.0) == 10.0
    assert jod_from_deitp(1.0) == pytest.approx(_oracle(1.0, -14.11, -0.47, -0.21))


def test_logistic_matches_scipy_expit():
    from scipy.special import expit

    z = np.concatenate([np.linspace(-800.0, 800.0, 200_001), np.random.default_rng(0).uniform(-800.0, 800.0, 100_000)])
    np.testing.assert_allclose(jm._logistic(z), expit(z), rtol=0, atol=4.5e-16)
    assert jm._logistic(-800.0) == 0.0 and jm._logistic(800.0) == 1.0
