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


# (RMS kind, MA kind, t(rho, w)): the two reductions of each transform
_TRANSFORMS = (
    (MetricKind.RMSE, MetricKind.MAE, lambda rho, w: rho),
    (MetricKind.RMS_CRWE, MetricKind.MA_CRWE, lambda rho, w: np.cbrt(w * rho)),
    (MetricKind.RMS_LOGE, MetricKind.MA_LOGE, lambda rho, w: np.log1p(rho)),
    (MetricKind.RMS_LOGWE, MetricKind.MA_LOGWE, lambda rho, w: np.log1p(w * rho)),
)


def all_metrics(ref: SampledBrdf, dist: SampledBrdf) -> dict[MetricKind, float]:
    """Every metric of a raw (untransformed) sampled pair, one difference per transform.

    A value outside a transform's domain (rho <= -1 for the log metrics)
    gives a non-finite metric, without a warning; the caller decides.
    """
    check_paired(ref, dist)
    d = ref.directions
    w = (d.cos_wi * d.cos_wo)[:, None]
    out = {}
    with np.errstate(all="ignore"):
        for rms, ma, t in _TRANSFORMS:
            diff = t(ref.values, w) - t(dist.values, w)
            out[rms] = float(np.sqrt(np.mean(diff**2)))
            out[ma] = float(np.mean(np.abs(diff)))
    return out
