import math

import numpy as np
import pytest

from brdfnqm.baselines import MetricKind, all_metrics, baseline_metric
from brdfnqm.errors import PairingError
from brdfnqm.sampling import SampledBrdf

from conftest import tiny_direction_set


def _loop_oracle(kind, ref, dist):
    """Scalar, loop-based re-implementation used as the ground truth."""
    d = ref.directions
    acc = []
    for s in range(d.k):
        w = d.cos_wi[s] * d.cos_wo[s]
        for c in range(3):
            a, b = ref.values[s, c], dist.values[s, c]
            if kind in (MetricKind.RMSE, MetricKind.MAE):
                ta, tb = a, b
            elif kind in (MetricKind.RMS_CRWE, MetricKind.MA_CRWE):
                ta, tb = (w * a) ** (1 / 3), (w * b) ** (1 / 3)
            elif kind in (MetricKind.RMS_LOGE, MetricKind.MA_LOGE):
                ta, tb = math.log(1 + a), math.log(1 + b)
            else:
                ta, tb = math.log(1 + w * a), math.log(1 + w * b)
            acc.append(ta - tb)
    if kind in (MetricKind.RMSE, MetricKind.RMS_CRWE, MetricKind.RMS_LOGE, MetricKind.RMS_LOGWE):
        return math.sqrt(sum(v * v for v in acc) / len(acc))
    return sum(abs(v) for v in acc) / len(acc)


def _random_pair(seed, k=20):
    rng = np.random.default_rng(seed)
    ds = tiny_direction_set(k=k, seed=seed)
    ref = SampledBrdf(values=rng.uniform(0, 4, (k, 3)), directions=ds)
    dist = SampledBrdf(values=rng.uniform(0, 4, (k, 3)), directions=ds)
    return ref, dist


# "both": the weight is the product of both cosines, cos_wi * cos_wo
@pytest.mark.parametrize("kind", list(MetricKind), ids=lambda kind: f"both-{kind}")
def test_matches_loop_oracle(kind):
    for seed in range(10):
        ref, dist = _random_pair(seed)
        got = baseline_metric(kind, ref, dist)
        want = _loop_oracle(kind, ref, dist)
        assert got == pytest.approx(want, rel=1e-12), (kind, seed)


@pytest.mark.parametrize("kind", list(MetricKind))
def test_identical_pair_scores_zero(kind):
    ref, _ = _random_pair(3)
    assert baseline_metric(kind, ref, ref) == 0.0


@pytest.mark.parametrize("kind", list(MetricKind))
def test_symmetry(kind):
    ref, dist = _random_pair(4)
    assert baseline_metric(kind, ref, dist) == pytest.approx(
        baseline_metric(kind, dist, ref), rel=1e-13
    )


def test_rmse_known_value():
    ds = tiny_direction_set(k=2, seed=0)
    ref = SampledBrdf(values=np.zeros((2, 3)), directions=ds)
    dist = SampledBrdf(values=np.full((2, 3), 2.0), directions=ds)
    assert baseline_metric(MetricKind.RMSE, ref, dist) == pytest.approx(2.0)
    assert baseline_metric(MetricKind.MAE, ref, dist) == pytest.approx(2.0)


def test_rms_dominates_ma():
    # RMS >= MA on the same diff vector (power-mean inequality)
    for seed in range(5):
        ref, dist = _random_pair(seed)
        assert baseline_metric(MetricKind.RMSE, ref, dist) >= baseline_metric(
            MetricKind.MAE, ref, dist
        )
        assert baseline_metric(MetricKind.RMS_LOGE, ref, dist) >= baseline_metric(
            MetricKind.MA_LOGE, ref, dist
        )


def test_all_metrics_covers_all_kinds():
    ref, dist = _random_pair(1)
    out = all_metrics(ref, dist)
    assert set(out) == set(MetricKind)
    for kind, v in out.items():
        assert v == baseline_metric(kind, ref, dist)


def test_rejects_unpaired_inputs():
    ref, _ = _random_pair(0)
    other, _ = _random_pair(1)
    with pytest.raises(PairingError):
        baseline_metric(MetricKind.RMSE, ref, other)

