import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brdfnqm.errors import ConstantInputError
from brdfnqm.evaluate import (
    CorrelationReport,
    ScoredPair,
    _average_ranks,
    correlate_per_material,
    emit_report,
    spearman,
)


def _rank_oracle(v):
    """Average ranks computed by brute force (ties get their mean rank)."""
    v = list(v)
    ranks = []
    for x in v:
        less = sum(1 for u in v if u < x)
        equal = sum(1 for u in v if u == x)
        # ranks occupied by the tie group: less+1 .. less+equal
        ranks.append(less + (equal + 1) / 2)
    return np.array(ranks)


def _spearman_oracle(x, y):
    rx, ry = _rank_oracle(x), _rank_oracle(y)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    return float(rx @ ry / np.sqrt((rx @ rx) * (ry @ ry)))


def test_perfect_monotone_relations():
    x = np.array([1.0, 2.0, 5.0, 9.0])
    assert spearman(x, x**3) == pytest.approx(1.0)
    assert spearman(x, -x) == pytest.approx(-1.0)


@pytest.mark.parametrize("seed", range(20))
def test_matches_brute_force_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 30))
    x = rng.integers(0, 6, size=n).astype(float)  # many ties
    y = rng.normal(size=n)
    if np.all(x == x[0]):
        return
    assert spearman(x, y) == pytest.approx(_spearman_oracle(x, y), abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=40))
def test_average_ranks_equal_scipy_rankdata(values):
    from scipy.stats import rankdata

    a = np.array(values, dtype=np.float64)
    ranks = _average_ranks(a)
    assert ranks.dtype == np.float64
    np.testing.assert_array_equal(ranks, rankdata(a))


def test_spearman_validation():
    with pytest.raises(ValueError):
        spearman([1.0], [2.0])
    with pytest.raises(ValueError):
        spearman([1.0, float("nan"), 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        spearman([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ConstantInputError):
        spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def _scored(material, preds, truths):
    return [
        ScoredPair(pair_id=f"{material}_{i}", material=material, predicted=p, ground_truth_jod=t)
        for i, (p, t) in enumerate(zip(preds, truths))
    ]


def test_per_material_average_and_sign():
    scored = _scored("a", [1, 2, 3], [3, 2, 1]) + _scored("b", [1, 2, 3], [1, 2, 3])
    rep = correlate_per_material(scored)
    assert rep.per_material["a"] == pytest.approx(-1.0)
    assert rep.per_material["b"] == pytest.approx(1.0)
    assert rep.average == pytest.approx(0.0)
    assert rep.n_materials == 2
    # an error metric (lower = better) read through sign=-1 flips both
    rep_neg = correlate_per_material(scored, sign=-1)
    assert rep_neg.per_material["a"] == pytest.approx(1.0)
    assert rep_neg.per_material["b"] == pytest.approx(-1.0)


def test_constant_material_is_excluded():
    scored = _scored("flat", [2, 2, 2], [1, 2, 3]) + _scored("ok", [1, 2, 3], [1, 2, 3])
    rep = correlate_per_material(scored)
    assert rep.excluded == ("flat",)
    assert rep.per_material.keys() == {"ok"}
    assert rep.average == pytest.approx(1.0)


def test_all_constant_raises():
    scored = _scored("flat", [2, 2, 2], [1, 2, 3])
    with pytest.raises(ConstantInputError):
        correlate_per_material(scored)


def test_material_with_single_pair_rejected():
    scored = _scored("a", [1, 2], [1, 2]) + _scored("lonely", [1], [1])
    with pytest.raises(ValueError):
        correlate_per_material(scored)


def test_bad_sign_rejected():
    with pytest.raises(ValueError):
        correlate_per_material(_scored("a", [1, 2], [1, 2]), sign=0)


def test_pooled_correlation_covers_included_materials():
    scored = _scored("a", [1, 2, 3], [1, 2, 3]) + _scored("b", [4, 5, 6], [4, 5, 6])
    rep = correlate_per_material(scored)
    assert rep.pooled == pytest.approx(1.0)


def test_emit_report_table_sorted_descending(tmp_path):
    rows = [("rmse", 0.3), ("brdf-nqm", 0.9), ("ma_loge", 0.5)]
    p = tmp_path / "report.txt"
    emit_report(rows, p)
    lines = p.read_text().splitlines()
    names = [ln.split()[0] for ln in lines[2:]]
    assert names == ["brdf-nqm", "ma_loge", "rmse"]
    # rerun is byte-identical
    p2 = tmp_path / "report2.txt"
    emit_report(rows, p2)
    assert p.read_bytes() == p2.read_bytes()
