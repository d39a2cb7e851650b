import itertools
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brdfnqm.errors import ConstantInputError
from brdfnqm.evaluate import (
    CorrelationReport,
    _average_ranks,
    correlate_per_material,
    emit_report,
    spearman,
)
from brdfnqm.tables import read_table


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
    """(material, predicted, truth) rows of one material; ``correlate_per_material(*zip(*rows))`` takes their columns."""
    return [(material, p, t) for p, t in zip(preds, truths)]


def test_per_material_average_and_sign():
    scored = _scored("a", [1, 2, 3], [3, 2, 1]) + _scored("b", [1, 2, 3], [1, 2, 3])
    rep = correlate_per_material(*zip(*scored))
    assert rep.per_material["a"] == pytest.approx(-1.0)
    assert rep.per_material["b"] == pytest.approx(1.0)
    assert rep.average == pytest.approx(0.0)
    assert len(rep.per_material) == 2
    # an error metric (lower = better) read through sign=-1 flips both
    rep_neg = correlate_per_material(*zip(*scored), sign=-1)
    assert rep_neg.per_material["a"] == pytest.approx(1.0)
    assert rep_neg.per_material["b"] == pytest.approx(-1.0)


def test_constant_material_is_excluded():
    scored = _scored("flat", [2, 2, 2], [1, 2, 3]) + _scored("ok", [1, 2, 3], [1, 2, 3])
    rep = correlate_per_material(*zip(*scored))
    assert rep.excluded == ("flat",)
    assert rep.per_material.keys() == {"ok"}
    assert rep.average == pytest.approx(1.0)


def test_all_constant_raises():
    scored = _scored("flat", [2, 2, 2], [1, 2, 3])
    with pytest.raises(ConstantInputError):
        correlate_per_material(*zip(*scored))


def test_material_with_single_pair_rejected():
    scored = _scored("a", [1, 2], [1, 2]) + _scored("lonely", [1], [1])
    with pytest.raises(ValueError):
        correlate_per_material(*zip(*scored))


def test_bad_sign_rejected():
    with pytest.raises(ValueError):
        correlate_per_material(*zip(*_scored("a", [1, 2], [1, 2])), sign=0)


def test_pooled_correlation_covers_included_materials():
    scored = _scored("a", [1, 2, 3], [1, 2, 3]) + _scored("b", [4, 5, 6], [4, 5, 6])
    rep = correlate_per_material(*zip(*scored))
    assert rep.pooled == pytest.approx(1.0)


# the record-based correlation as it was before it took parallel columns
@dataclass(frozen=True)
class ScoredPair:
    pair_id: str
    material: str
    predicted: float
    ground_truth_jod: float


@dataclass(frozen=True)
class _ReferenceReport:
    per_material: dict[str, float]
    average: float
    n_materials: int
    pooled: float | None = None
    excluded: tuple[str, ...] = ()


def _reference_correlate_per_material(scored: list[ScoredPair], sign: int = 1) -> _ReferenceReport:
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    by_material: dict[str, list[ScoredPair]] = {}
    for s in scored:
        by_material.setdefault(s.material, []).append(s)
    per_material: dict[str, float] = {}
    excluded: list[str] = []
    for mat, items in by_material.items():
        if len(items) < 2:
            raise ValueError(
                f"material {mat!r} has {len(items)} pair; per-material Spearman needs at least 2"
            )
        preds = [sign * s.predicted for s in items]
        truths = [s.ground_truth_jod for s in items]
        try:
            per_material[mat] = spearman(preds, truths)
        except ConstantInputError:
            excluded.append(mat)
    if not per_material:
        raise ConstantInputError("every material had constant predictions")
    pooled_preds = [sign * s.predicted for s in scored if s.material in per_material]
    pooled_truths = [s.ground_truth_jod for s in scored if s.material in per_material]
    try:
        pooled = spearman(pooled_preds, pooled_truths)
    except ConstantInputError:
        pooled = None
    return _ReferenceReport(
        per_material=per_material,
        average=float(np.mean(list(per_material.values()))),
        n_materials=len(per_material),
        pooled=pooled,
        excluded=tuple(sorted(excluded)),
    )


def _interleaved_rows(seed):
    """Rows of four materials in shuffled order, with tied predictions and truths;
    material "flat" has constant predictions, "level" constant truths."""
    rng = np.random.default_rng(seed)
    rows = []
    for mat in ("a", "b", "flat", "level"):
        n = int(rng.integers(2, 9))
        preds = np.full(n, 0.5) if mat == "flat" else rng.integers(0, 4, size=n) * 0.1
        truths = np.full(n, 7.0) if mat == "level" else rng.integers(0, 3, size=n) * 2.5
        if mat in ("a", "b"):  # non-constant, so the material is kept
            preds[:2], truths[:2] = (0.0, 0.3), (0.0, 5.0)
        rows += _scored(mat, preds.tolist(), truths.tolist())
    return [rows[i] for i in rng.permutation(len(rows))]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("sign", [1, -1])
def test_columns_equal_the_record_based_reference_bit_for_bit(seed, sign):
    rows = _interleaved_rows(seed)
    got = correlate_per_material(*zip(*rows), sign=sign)
    want = _reference_correlate_per_material(
        [ScoredPair(str(i), m, p, t) for i, (m, p, t) in enumerate(rows)], sign=sign)
    assert [(m, r.hex()) for m, r in got.per_material.items()] == [(m, r.hex()) for m, r in want.per_material.items()]
    assert got.average.hex() == want.average.hex()
    # never None: a kept material's two columns vary, so the pooled ones do too
    assert got.pooled.hex() == want.pooled.hex()
    assert got.excluded == want.excluded == ("flat", "level")
    assert len(got.per_material) == want.n_materials == 2


def test_columns_of_unequal_length_rejected():
    with pytest.raises(ValueError, match="one entry per pair"):
        correlate_per_material(["a", "a", "a"], [1.0, 2.0], [1.0, 2.0, 3.0])


def test_emit_report_table_sorted_descending(tmp_path):
    rows = [("rmse", 0.1 + 0.2), ("brdf-nqm", 2.0 / 3.0), ("ma_loge", 0.5)]
    p = tmp_path / "report.txt"
    emit_report(rows, p)
    _, cols, got = read_table(p, "report")
    assert cols == ["metric", "avg_spearman"]
    # repr floats: every value reads back exactly, 0.30000000000000004 included
    assert [(name, float(rho)) for name, rho in got] == sorted(rows, key=lambda r: -r[1])
    # rerun is byte-identical
    p2 = tmp_path / "report2.txt"
    emit_report(rows, p2)
    assert p.read_bytes() == p2.read_bytes()
