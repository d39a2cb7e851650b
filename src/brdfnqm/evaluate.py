"""Rank-correlation evaluation of quality predictors against JOD labels."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstantInputError


@dataclass(frozen=True)
class ScoredPair:
    pair_id: str
    material: str
    predicted: float
    ground_truth_jod: float


@dataclass(frozen=True)
class CorrelationReport:
    per_material: dict[str, float]
    average: float
    n_materials: int
    pooled: float | None = None
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


def correlate_per_material(scored: list[ScoredPair], sign: int = 1) -> CorrelationReport:
    """Spearman within each material's variants, averaged unweighted.

    sign=-1 negates predictions first (error metrics, where lower is
    better) so every reported correlation reads "higher = better".
    Materials whose predictions are constant are excluded and reported.
    """
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
    return CorrelationReport(
        per_material=per_material,
        average=float(np.mean(list(per_material.values()))),
        n_materials=len(per_material),
        pooled=pooled,
        excluded=tuple(sorted(excluded)),
    )


def emit_report(rows: list[tuple[str, float]], path) -> None:
    """Write (metric name, average correlation) rows, descending, as a deterministic aligned table."""
    ordered = sorted(rows, key=lambda r: (-r[1], r[0]))
    with open(str(path), "w", encoding="ascii") as f:
        f.write(f"# metric correlation report: {len(ordered)} metrics\n")
        f.write(f"{'metric':<16} {'avg_spearman':>12}\n")
        for name, rho in ordered:
            f.write(f"{name:<16} {rho:>12.6f}\n")
