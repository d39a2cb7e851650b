"""Perceptual transform, whitening, scale augmentation, splits and the synthetic label."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .sampling import SampledBrdf

STD_FLOOR = 1e-8
SCALE_RANGE = (0.95, 1.05)


class Provenance(enum.Enum):
    SUBJECTIVE_JOD = "subjective"
    PSEUDO_DEITP = "pseudo_deitp"
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


def perceptual_transform(rho) -> np.ndarray:
    """log1p(cbrt(max(rho, 0))) in float64: compresses specular peaks and dynamic range.

    Negative reflectance (noise on a dark bin) counts as zero. The result is
    allocated once and transformed in place; a scalar gives a 0-d array.
    """
    t = np.maximum(rho, 0.0, dtype=np.float64, out=np.empty(np.shape(rho)))
    np.cbrt(t, out=t)
    np.log1p(t, out=t)
    return t


def compute_whitening(train_refs: list[SampledBrdf]) -> WhiteningStats:
    """Population per-channel moments of all transformed samples of raw references."""
    if not train_refs:
        raise ValueError("need at least one reference")
    stacked = perceptual_transform(np.concatenate([r.values for r in train_refs], axis=0))
    mean = stacked.mean(axis=0)
    std = np.maximum(stacked.std(axis=0), STD_FLOOR)
    return WhiteningStats(mean=mean, std=std)


def augment_scale(ref: SampledBrdf, dist: SampledBrdf, seed: int | tuple[int, ...]) -> tuple[SampledBrdf, SampledBrdf]:
    """(ref, dist), both scaled by one factor drawn uniformly from SCALE_RANGE.

    seed is an int or a tuple of ints, as np.random.default_rng takes them.
    """
    f = float(np.random.default_rng(seed).uniform(*SCALE_RANGE))
    return (SampledBrdf(values=ref.values * f, directions=ref.directions),
            SampledBrdf(values=dist.values * f, directions=dist.directions))


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
