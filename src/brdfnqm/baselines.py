"""Eight reference BRDF-space error metrics computed on sampled pairs.

All metrics reduce a per-entry difference of (optionally transformed,
optionally cosine-weighted) reflectance over the K x 3 sample matrix:
root-mean-square or mean-absolute of t(ref) - t(dist), with

    RMSE / MAE        t(rho) = rho
    RMS/MA-CRWE       t(rho) = (w * rho)^(1/3)
    RMS/MA-LogE       t(rho) = log(1 + rho)
    RMS/MA-LogWE      t(rho) = log(1 + w * rho)

where w = cos(theta_i) * cos(theta_o) of the shared direction set.
"""

from __future__ import annotations

import enum

import numpy as np

from .sampling import SampledBrdf, check_paired


class MetricKind(enum.Enum):
    RMSE = "rmse"
    MAE = "mae"
    RMS_CRWE = "rms_crwe"
    MA_CRWE = "ma_crwe"
    RMS_LOGE = "rms_loge"
    MA_LOGE = "ma_loge"
    RMS_LOGWE = "rms_logwe"
    MA_LOGWE = "ma_logwe"


_RMS_KINDS = {MetricKind.RMSE, MetricKind.RMS_CRWE, MetricKind.RMS_LOGE, MetricKind.RMS_LOGWE}


def _transformed(kind: MetricKind, values: np.ndarray, w: np.ndarray) -> np.ndarray:
    if kind in (MetricKind.RMSE, MetricKind.MAE):
        return values
    if kind in (MetricKind.RMS_CRWE, MetricKind.MA_CRWE):
        return np.cbrt(w * values)
    if kind in (MetricKind.RMS_LOGE, MetricKind.MA_LOGE):
        return np.log1p(values)
    return np.log1p(w * values)


def baseline_metric(kind: MetricKind, ref: SampledBrdf, dist: SampledBrdf) -> float:
    """Evaluate one metric on a raw (untransformed) sampled pair."""
    check_paired(ref, dist)
    d = ref.directions
    w = (d.cos_wi * d.cos_wo)[:, None]
    diff = _transformed(kind, ref.values, w) - _transformed(kind, dist.values, w)
    if kind in _RMS_KINDS:
        return float(np.sqrt(np.mean(diff**2)))
    return float(np.mean(np.abs(diff)))


def all_metrics(ref: SampledBrdf, dist: SampledBrdf) -> dict[MetricKind, float]:
    return {kind: baseline_metric(kind, ref, dist) for kind in MetricKind}
