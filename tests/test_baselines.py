import math

import numpy as np
import pytest

from brdfnqm.baselines import MetricKind, all_metrics
from brdfnqm.errors import PairingError
from brdfnqm.sampling import DirectionSet, SampledBrdf, check_paired

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


# the per-kind metric as it was before `all_metrics` formed each transform's
# difference once for both reductions: one full pass per metric
_RMS_KINDS = {MetricKind.RMSE, MetricKind.RMS_CRWE, MetricKind.RMS_LOGE, MetricKind.RMS_LOGWE}


def _transformed(kind: MetricKind, values: np.ndarray, w: np.ndarray) -> np.ndarray:
    if kind in (MetricKind.RMSE, MetricKind.MAE):
        return values
    if kind in (MetricKind.RMS_CRWE, MetricKind.MA_CRWE):
        return np.cbrt(w * values)
    if kind in (MetricKind.RMS_LOGE, MetricKind.MA_LOGE):
        return np.log1p(values)
    return np.log1p(w * values)


def _reference_metric(kind: MetricKind, ref: SampledBrdf, dist: SampledBrdf) -> float:
    """Evaluate one metric on a raw (untransformed) sampled pair."""
    check_paired(ref, dist)
    d = ref.directions
    w = (d.cos_wi * d.cos_wo)[:, None]
    diff = _transformed(kind, ref.values, w) - _transformed(kind, dist.values, w)
    if kind in _RMS_KINDS:
        return float(np.sqrt(np.mean(diff**2)))
    return float(np.mean(np.abs(diff)))


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
        got = all_metrics(ref, dist)[kind]
        want = _loop_oracle(kind, ref, dist)
        assert got == pytest.approx(want, rel=1e-12), (kind, seed)


@pytest.mark.parametrize("kind", list(MetricKind))
def test_identical_pair_scores_zero(kind):
    ref, _ = _random_pair(3)
    assert all_metrics(ref, ref)[kind] == 0.0


@pytest.mark.parametrize("kind", list(MetricKind))
def test_symmetry(kind):
    ref, dist = _random_pair(4)
    assert all_metrics(ref, dist)[kind] == pytest.approx(
        all_metrics(dist, ref)[kind], rel=1e-13
    )


def test_rmse_known_value():
    ds = tiny_direction_set(k=2, seed=0)
    ref = SampledBrdf(values=np.zeros((2, 3)), directions=ds)
    dist = SampledBrdf(values=np.full((2, 3), 2.0), directions=ds)
    metrics = all_metrics(ref, dist)
    assert metrics[MetricKind.RMSE] == pytest.approx(2.0)
    assert metrics[MetricKind.MAE] == pytest.approx(2.0)


def test_rms_dominates_ma():
    # RMS >= MA on the same diff vector (power-mean inequality)
    for seed in range(5):
        metrics = all_metrics(*_random_pair(seed))
        assert metrics[MetricKind.RMSE] >= metrics[MetricKind.MAE]
        assert metrics[MetricKind.RMS_LOGE] >= metrics[MetricKind.MA_LOGE]


def test_all_metrics_covers_all_kinds():
    ref, dist = _random_pair(1)
    out = all_metrics(ref, dist)
    assert set(out) == set(MetricKind)
    for kind, v in out.items():
        assert v == _reference_metric(kind, ref, dist)


def test_rejects_unpaired_inputs():
    ref, _ = _random_pair(0)
    other, _ = _random_pair(1)
    with pytest.raises(PairingError):
        all_metrics(ref, other)


def _equal_but_distinct_sets(seed, k=20):
    """A random pair whose members hold two equal direction sets, not one set object."""
    ref, dist = _random_pair(seed, k)
    d = ref.directions
    twin = DirectionSet(*d.columns().T, seed=d.seed, source_material=d.source_material)
    assert twin is not d
    return ref, SampledBrdf(values=dist.values, directions=twin)


def _zeros(k=20):
    ds = tiny_direction_set(k=k, seed=7)
    return SampledBrdf(values=np.zeros((k, 3)), directions=ds), SampledBrdf(values=np.zeros((k, 3)), directions=ds)


@pytest.mark.parametrize("pair", [
    *(pytest.param(lambda seed=seed: _random_pair(seed, k=1 + 13 * seed), id=f"random-{seed}") for seed in range(6)),
    pytest.param(_zeros, id="zeros"),
    pytest.param(lambda: (_random_pair(3)[0],) * 2, id="identical"),
    pytest.param(lambda: _equal_but_distinct_sets(5), id="equal-distinct-sets"),
])
def test_all_metrics_equal_the_per_kind_reference_bit_for_bit(pair):
    ref, dist = pair()
    got = all_metrics(ref, dist)
    assert list(got) == list(MetricKind)
    assert {k: v.hex() for k, v in got.items()} == {k: _reference_metric(k, ref, dist).hex() for k in MetricKind}


def test_values_outside_the_log_domain_give_non_finite_log_metrics_without_a_warning():
    # the suite turns a RuntimeWarning into a failure, so none is raised here
    ref, dist = _random_pair(2)
    d = dist.directions
    w = d.cos_wi[4] * d.cos_wo[4]
    for bad, word in ((-2.0, "nan"), (-1.0, "inf")):
        # log1p(w * rho) leaves its domain too where the set's weight of the sample is large enough
        log_kinds = {MetricKind.RMS_LOGE, MetricKind.MA_LOGE}
        if w * bad <= -1.0:
            log_kinds |= {MetricKind.RMS_LOGWE, MetricKind.MA_LOGWE}
        values = dist.values.copy()
        values[4, 1] = bad
        got = all_metrics(ref, SampledBrdf(values=values, directions=d))
        assert all(math.isfinite(v) == (k not in log_kinds) for k, v in got.items()), got
        assert word in repr(got[MetricKind.MA_LOGE])

