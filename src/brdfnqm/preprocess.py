"""Perceptual transform, whitening, augmentation, balancing, and splits."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .baselines import MetricKind, baseline_metric
from .sampling import SampledBrdf, check_paired

STD_FLOOR = 1e-8


class Provenance(enum.Enum):
    SUBJECTIVE_JOD = "subjective"
    PSEUDO_DEITP = "pseudo_deitp"
    AUGMENTED_NOISE = "aug_noise"
    AUGMENTED_SCALE = "aug_scale"
    SYNTHETIC_ORACLE = "synthetic"


@dataclass(frozen=True)
class WhiteningStats:
    """Per-channel mean/std of transformed training-set reference samples."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mean, dtype=np.float64).reshape(3)
        s = np.asarray(self.std, dtype=np.float64).reshape(3)
        if np.any(s <= 0.0):
            raise ValueError("std must be strictly positive")
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "std", s)


@dataclass(frozen=True)
class LabeledPair:
    ref: SampledBrdf
    dist: SampledBrdf
    jod: float
    provenance: Provenance
    material: str

    def __post_init__(self):
        check_paired(self.ref, self.dist)
        if not 0.0 <= self.jod <= 10.0:
            raise ValueError(f"jod {self.jod} outside [0, 10]")


def perceptual_transform(rho) -> np.ndarray:
    """log1p(cbrt(max(rho, 0))) in float64: compresses specular peaks and dynamic range.

    Negative reflectance (noise on a dark bin) counts as zero.
    """
    return np.log1p(np.cbrt(np.maximum(np.asarray(rho, dtype=np.float64), 0.0)))


def compute_whitening(train_refs: list[SampledBrdf]) -> WhiteningStats:
    """Population per-channel moments of all transformed samples of raw references."""
    if not train_refs:
        raise ValueError("need at least one reference")
    stacked = perceptual_transform(np.concatenate([r.values for r in train_refs], axis=0))
    mean = stacked.mean(axis=0)
    std = np.maximum(stacked.std(axis=0), STD_FLOOR)
    return WhiteningStats(mean=mean, std=std)


def augment_noise(pair: LabeledPair, sigma: float = 0.01, seed: int = 0, labeller=None) -> LabeledPair:
    """Add i.i.d. Gaussian noise to the distorted member's raw reflectance.

    The reference is untouched; negative results clamp to zero. The new
    label comes from `labeller(pair)` when given (e.g. the error-proxy map
    or a synthetic severity oracle), otherwise the source label is kept.
    """
    if sigma < 0.0:
        raise ValueError("sigma must be >= 0")
    rng = np.random.default_rng(seed)
    noisy = pair.dist.values + rng.normal(0.0, sigma, size=pair.dist.values.shape) if sigma > 0.0 else pair.dist.values
    dist = SampledBrdf(values=np.maximum(noisy, 0.0), directions=pair.dist.directions)
    out = LabeledPair(ref=pair.ref, dist=dist, jod=pair.jod, provenance=Provenance.AUGMENTED_NOISE, material=pair.material)
    if labeller is not None:
        out = replace(out, jod=float(np.clip(labeller(out), 0.0, 10.0)))
    return out


def augment_scale(
    pair: LabeledPair, lo: float = 0.95, hi: float = 1.05, seed: int | tuple[int, ...] = 0
) -> LabeledPair:
    """Scale both members by one uniform random factor; the label is kept.

    seed is an int or a tuple of ints, as np.random.default_rng takes them.
    """
    if lo > hi:
        raise ValueError("lo must be <= hi")
    f = float(np.random.default_rng(seed).uniform(lo, hi))
    return LabeledPair(
        ref=SampledBrdf(values=pair.ref.values * f, directions=pair.ref.directions),
        dist=SampledBrdf(values=pair.dist.values * f, directions=pair.dist.directions),
        jod=pair.jod,
        provenance=Provenance.AUGMENTED_SCALE,
        material=pair.material,
    )


def fit_label_proxy(pool: list[LabeledPair]):
    """Monotone map from MA-LogE to JOD, fitted on a labelled pool.

    Isotonic (non-increasing) regression of labels against the error metric;
    evaluation interpolates between fitted knots. Used to label augmented
    pairs when no severity oracle exists.
    """
    if len(pool) < 2:
        raise ValueError("need at least two labelled pairs")
    x = np.array([baseline_metric(MetricKind.MA_LOGE, p.ref, p.dist) for p in pool])
    y = np.array([p.jod for p in pool])
    order = np.argsort(x)
    x, y = x[order], y[order]
    fitted = _isotonic_decreasing(y)

    def labeller(pair: LabeledPair) -> float:
        e = baseline_metric(MetricKind.MA_LOGE, pair.ref, pair.dist)
        return float(np.interp(e, x, fitted))

    return labeller


def _isotonic_decreasing(y: np.ndarray) -> np.ndarray:
    """Pool-adjacent-violators fit of a non-increasing sequence."""
    vals = list(-np.asarray(y, dtype=float))
    weights = [1.0] * len(vals)
    counts = [1] * len(vals)
    i = 0
    while i < len(vals) - 1:
        if vals[i] > vals[i + 1]:
            merged = (vals[i] * weights[i] + vals[i + 1] * weights[i + 1]) / (weights[i] + weights[i + 1])
            vals[i : i + 2] = [merged]
            weights[i : i + 2] = [weights[i] + weights[i + 1]]
            counts[i : i + 2] = [counts[i] + counts[i + 1]]
            i = max(i - 1, 0)
        else:
            i += 1
    return -np.repeat(vals, counts)


def balance_by_jod(
    pool: list[LabeledPair],
    labeller,
    n_bins: int = 10,
    seed: int = 0,
    cap: int | None = None,
    sigma_range: tuple[float, float] = (1e-3, 0.5),
) -> list[LabeledPair]:
    """Fill under-represented JOD bins with noise-augmented pairs.

    Target histogram is uniform over [0, 10]: each bin should reach
    ceil(len(pool) / n_bins). Candidate pairs get log-uniform noise levels
    and are kept only when their new label lands in a still-deficient bin.
    Deterministic in (pool, seed); returns the new pairs only.
    """
    if not pool:
        raise ValueError("pool must be nonempty")
    edges = np.linspace(0.0, 10.0, n_bins + 1)

    def bin_of(jod: float) -> int:
        return min(int(np.searchsorted(edges, jod, side="right") - 1), n_bins - 1)

    counts = np.zeros(n_bins, dtype=int)
    for p in pool:
        counts[bin_of(p.jod)] += 1
    target = math.ceil(len(pool) / n_bins)
    deficit = np.maximum(target - counts, 0)
    total_deficit = int(deficit.sum())
    if total_deficit == 0:
        return []
    if cap is None:
        cap = 20 * total_deficit

    rng = np.random.default_rng(seed)
    lo, hi = sigma_range
    new_pairs: list[LabeledPair] = []
    for attempt in range(cap):
        if deficit.sum() == 0:
            break
        src = pool[int(rng.integers(len(pool)))]
        sigma = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        cand = augment_noise(src, sigma=sigma, seed=int(rng.integers(2**31)), labeller=labeller)
        b = bin_of(cand.jod)
        if deficit[b] > 0:
            deficit[b] -= 1
            new_pairs.append(cand)
    return new_pairs


def make_splits(materials: list[str], test_materials, seed: int) -> list[str]:
    """Split name ("train", "val" or "test") of each pair, given the pairs' materials.

    Pairs of the test materials are held out; the rest split 80/20 by pair
    through one seeded permutation. Every test material must own a pair.
    """
    test_set = set(test_materials)
    absent = sorted(test_set.difference(materials))
    if absent:
        raise ValueError(f"no pair has test material {', '.join(map(repr, absent))}")
    rest = [i for i, m in enumerate(materials) if m not in test_set]
    perm = np.random.default_rng(seed).permutation(len(rest))
    n_train = round(0.8 * len(rest))
    splits = ["test"] * len(materials)
    for rank, j in enumerate(perm):
        splits[rest[j]] = "train" if rank < n_train else "val"
    return splits


def severity_oracle_jod(severity: float) -> float:
    """Synthetic label: monotone map from normalized severity onto [0, 10]."""
    if not math.isfinite(severity):
        raise ValueError("severity must be finite")
    return float(np.clip(10.0 * (1.0 - severity), 0.0, 10.0))
