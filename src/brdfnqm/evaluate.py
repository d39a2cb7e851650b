"""Rank-correlation evaluation of quality predictors against JOD labels."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstantInputError
from .tables import write_table


@dataclass(frozen=True)
class CorrelationReport:
    per_material: dict[str, float]
    average: float
    pooled: float
    excluded: tuple[str, ...] = ()


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-D array; each tie group shares its mean rank.

    The group starting at sorted position i with c members gets
    i + (c + 1) / 2, an exact half, so the result equals
    ``scipy.stats.rankdata(a)`` bit for bit without importing scipy.
    """
    order = np.argsort(a, kind="stable")
    s = a[order]
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    counts = np.diff(np.r_[starts, len(a)])
    ranks = np.empty(len(a))
    ranks[order] = np.repeat(starts + (counts + 1) / 2.0, counts)
    return ranks


def spearman(x, y) -> float:
    """Pearson correlation of average ranks (ties share their mean rank)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise ValueError("need two equal-length vectors of length >= 2")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("correlation needs finite values")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    if np.all(rx == rx[0]) or np.all(ry == ry[0]):
        raise ConstantInputError("correlation undefined for a constant vector")
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx @ ry) / np.sqrt((rx @ rx) * (ry @ ry)))


def correlate_per_material(materials, predicted, truth, sign: int = 1) -> CorrelationReport:
    """Spearman within each material's variants, averaged unweighted.

    The three columns are parallel: row i is one pair's material, predicted
    score and ground-truth JOD. sign=-1 negates predictions first (error
    metrics, where lower is better) so every reported correlation reads
    "higher = better". Materials whose predictions or truths are constant
    are excluded and reported.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    predicted = sign * np.asarray(predicted, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if not len(materials) == len(predicted) == len(truth):
        raise ValueError("materials, predicted and truth need one entry per pair")
    rows_of: dict[str, list[int]] = {}
    for i, mat in enumerate(materials):
        rows_of.setdefault(mat, []).append(i)
    per_material: dict[str, float] = {}
    excluded: list[str] = []
    for mat, rows in rows_of.items():
        if len(rows) < 2:
            raise ValueError(
                f"material {mat!r} has {len(rows)} pair; per-material Spearman needs at least 2"
            )
        try:
            per_material[mat] = spearman(predicted[rows], truth[rows])
        except ConstantInputError:
            excluded.append(mat)
    if not per_material:
        raise ConstantInputError("every material had constant predictions")
    # a kept material's predictions and truths both vary, so the pooled columns do too
    kept = [i for i, mat in enumerate(materials) if mat in per_material]
    return CorrelationReport(
        per_material=per_material,
        average=float(np.mean(list(per_material.values()))),
        pooled=spearman(predicted[kept], truth[kept]),
        excluded=tuple(sorted(excluded)),
    )


def emit_report(rows: list[tuple[str, float]], path) -> None:
    """Write (metric name, average correlation) rows, descending, as a ``report`` table."""
    write_table(path, "report", ["metric", "avg_spearman"], sorted(rows, key=lambda r: (-r[1], r[0])))
