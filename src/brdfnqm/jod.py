"""Logistic mapping from image-space color error to JOD, plus its fit.

JOD(d) = 10 * (1 - 1 / (1 + exp(b1 * (-max(d, 0)^b3 - b2)))). With the
reference parameters b3 < 0, the power term diverges as d -> 0+, driving
the score to the "no visible difference" limit of 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError

# below this the analytic d -> 0+ limit (JOD = 10) applies
ZERO_DEITP_THRESHOLD = 1e-9

LM_LAMBDA_INIT = 1e-3
LM_LAMBDA_MAX = 1e12
LM_MAX_ITERS = 200
LM_STEP_TOL = 1e-12


@dataclass(frozen=True)
class JodRegressionParams:
    b1: float
    b2: float
    b3: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.b1, self.b2, self.b3))):
            raise ValueError("parameters must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.b1, self.b2, self.b3])


#: parameters fitted to the subjective calibration data
REFERENCE_PARAMS = JodRegressionParams(b1=-14.11, b2=-0.47, b3=-0.21)


@dataclass(frozen=True)
class CalibrationPoint:
    deitp: float
    jod: float

    def __post_init__(self):
        if not (math.isfinite(self.deitp) and self.deitp >= 0.0):
            raise ValueError(f"deitp {self.deitp} must be finite and >= 0")
        if not (math.isfinite(self.jod) and 0.0 <= self.jod <= 10.0):
            raise ValueError(f"jod {self.jod} outside [0, 10]")


def jod_from_deitp(deitp, p: JodRegressionParams = REFERENCE_PARAMS):
    """Evaluate the logistic map; scalar in, scalar out (arrays pass through)."""
    d = np.asarray(deitp, dtype=np.float64)
    if not np.all(np.isfinite(d)):
        raise ValueError("deitp must be finite")
    d = np.maximum(d, 0.0)
    tiny = d <= ZERO_DEITP_THRESHOLD
    with np.errstate(divide="ignore", over="ignore"):
        u = np.where(tiny, 1.0, d) ** p.b3
        z = p.b1 * (-u - p.b2)
    # 10 * (1 - 1/(1 + exp(z))) = 10 * sigmoid(z)
    jod = 10.0 * _logistic(z)
    jod = np.where(tiny, 10.0, jod)
    jod = np.clip(jod, 0.0, 10.0)
    return float(jod) if jod.ndim == 0 else jod


def _logistic(z):
    """1 / (1 + exp(-z)); exp overflows to inf for z < -709, giving exactly 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _logistic_jacobian(d: np.ndarray, b: np.ndarray) -> np.ndarray:
    """d JOD / d (b1, b2, b3) at each deitp in ``d``, shape (len(d), 3).

    With u = d^b3 and z = b1 (-u - b2), JOD = 10 sigmoid(z), so the rows are
    10 sigmoid(z) sigmoid(-z) * (-u - b2, -b1, -b1 u ln d); they are 0 where
    d <= ZERO_DEITP_THRESHOLD (JOD is the constant 10 there) and where the
    sigmoid saturates.
    """
    tiny = d <= ZERO_DEITP_THRESHOLD
    dd = np.where(tiny, 1.0, d)
    with np.errstate(over="ignore", invalid="ignore"):
        u = dd**b[2]
        z = b[0] * (-u - b[1])
        slope = 10.0 * _logistic(z) * _logistic(-z)
        jac = slope[:, None] * np.stack([-u - b[1], np.full_like(u, -b[0]), -b[0] * u * np.log(dd)], axis=1)
    jac[tiny | (slope == 0.0)] = 0.0
    return jac


def fit_jod_regression(
    points: list[CalibrationPoint], init: JodRegressionParams
) -> JodRegressionParams:
    """Levenberg-Marquardt least-squares fit of the three logistic parameters.

    Damping starts at 1e-3, x10 on a rejected step, /10 on an accepted one;
    the Jacobian is the logistic's analytic one. A damped step is taken only
    if it lowers the cost. Once no damping up to 1e12 does, the cost's
    differences are rounding noise, and the fit takes plain Gauss-Newton steps
    (toward J^T r = 0) from then on. Terminates when the Gauss-Newton step is
    at most 1e-12 of every parameter, or after 200 iterations.
    """
    if len(points) < 3:
        raise ValueError("need at least 3 calibration points")
    d = np.array([pt.deitp for pt in points])
    y = np.array([pt.jod for pt in points])
    if len(np.unique(d)) < 3:
        raise ValueError("need at least 3 distinct deitp values")

    def residuals(b: np.ndarray) -> np.ndarray:
        return jod_from_deitp(d, JodRegressionParams(*b)) - y

    b = init.as_array().astype(np.float64)
    r = residuals(b)
    c = float(r @ r)
    lam = LM_LAMBDA_INIT
    for _ in range(LM_MAX_ITERS):
        jac = _logistic_jacobian(d, b)
        if not np.all(np.isfinite(jac)):
            raise FitError(f"non-finite Jacobian at b = {b.tolist()}")
        gauss_newton = np.linalg.lstsq(jac, -r, rcond=None)[0]
        if np.all(np.abs(gauss_newton) <= LM_STEP_TOL * np.abs(b)):
            break
        jtj = jac.T @ jac
        jtr = jac.T @ r
        while lam <= LM_LAMBDA_MAX:
            damped = jtj + lam * np.diag(np.maximum(np.diag(jtj), 1e-12))
            try:
                step = np.linalg.solve(damped, -jtr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            if not np.all(np.isfinite(step)):
                lam *= 10.0
                continue
            b_new = b + step
            r_new = residuals(b_new)
            c_new = float(r_new @ r_new)
            if c_new < c:
                b, r, c = b_new, r_new, c_new
                lam = max(lam / 10.0, 1e-15)
                break
            lam *= 10.0
        else:
            b = b + gauss_newton
            r = residuals(b)
    return JodRegressionParams(*b)
