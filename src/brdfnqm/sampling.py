"""Reduction of a tabulated BRDF to K shared half/diff reflectance samples.

Candidates come from a cross-product grid that is uniform in theta_d and
phi_d but quadratically warped in theta_h so density concentrates near the
specular peak at theta_h = 0. Candidates whose reconstructed directions
graze the horizon (either elevation above 75 degrees) are discarded, and
the survivors are ranked by reflectance magnitude with an energy-weighted
stratified rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientCandidatesError, PairingError
from .geometry import HALF_PI, halfdiff_to_io_arrays
from .merl import TabulatedBrdf, lookup

GRAZING_LIMIT = math.radians(75.0)
DEFAULT_K = 500
DEFAULT_GRID = (32, 16, 16)
LUMA_WEIGHTS = np.array([0.2126, 0.7152, 0.0722])
N_STRATA = 10


@dataclass(frozen=True)
class DirectionSet:
    """K half/diff directions with the cosines of their reconstructed pair.

    Angle arrays all have length K and are sorted canonically by
    (theta_h, theta_d, phi_d). cos_wi/cos_wo are cos(theta) of the incoming
    and outgoing directions reconstructed at phi_h = 0.
    """

    theta_h: np.ndarray
    theta_d: np.ndarray
    phi_d: np.ndarray
    cos_wi: np.ndarray
    cos_wo: np.ndarray
    seed: int
    source_material: str

    @property
    def k(self) -> int:
        return len(self.theta_h)

    def angles(self) -> np.ndarray:
        return np.stack([self.theta_h, self.theta_d, self.phi_d], axis=1)


@dataclass(frozen=True)
class SampledBrdf:
    """K x 3 reflectance matrix read at a shared DirectionSet."""

    values: np.ndarray
    directions: DirectionSet

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.directions.k, 3):
            raise ValueError(f"values shape {v.shape} != ({self.directions.k}, 3)")
        object.__setattr__(self, "values", v)


def check_paired(a: SampledBrdf, b: SampledBrdf) -> None:
    """Both members of a pair must be sampled with one DirectionSet."""
    if a.directions is b.directions:
        return
    if not np.array_equal(a.directions.angles(), b.directions.angles()):
        raise PairingError("sampled BRDFs do not share a direction set")


def build_candidate_grid(n_th: int = DEFAULT_GRID[0], n_td: int = DEFAULT_GRID[1], n_pd: int = DEFAULT_GRID[2]) -> np.ndarray:
    """Full cross product of candidate angles, shape (n_th*n_td*n_pd, 3).

    theta_h(i) = (pi/2) * (i/(n_th-1))^2; theta_d uniform on [0, 75deg];
    phi_d uniform on [0, pi) excluding the endpoint.
    """
    if min(n_th, n_td, n_pd) < 2:
        raise ValueError("grid counts must be >= 2")
    th = HALF_PI * (np.arange(n_th) / (n_th - 1)) ** 2
    td = np.linspace(0.0, GRAZING_LIMIT, n_td)
    pd = np.arange(n_pd) / n_pd * math.pi
    TH, TD, PD = np.meshgrid(th, td, pd, indexing="ij")
    return np.stack([TH.ravel(), TD.ravel(), PD.ravel()], axis=1)


def _reconstruct_cosines(cands: np.ndarray):
    ti, _, to, _ = halfdiff_to_io_arrays(cands[:, 0], cands[:, 1], cands[:, 2])
    return np.cos(ti), np.cos(to)


def filter_grazing(cands: np.ndarray) -> np.ndarray:
    """Keep candidates whose reconstructed wi and wo stay within 75 degrees."""
    cands = np.asarray(cands, dtype=float).reshape(-1, 3)
    cos_i, cos_o = _reconstruct_cosines(cands)
    limit = math.cos(GRAZING_LIMIT)
    keep = (cos_i > limit) & (cos_o > limit)
    return cands[keep]


def _canonical_order(cands: np.ndarray) -> np.ndarray:
    return np.lexsort((cands[:, 2], cands[:, 1], cands[:, 0]))


def select_samples(
    ref: TabulatedBrdf, cands: np.ndarray, k: int = DEFAULT_K, seed: int = 0
) -> DirectionSet:
    """Pick k directions, prioritizing reflectance energy.

    Candidates are bucketed into up to N_STRATA equal-count strata by
    luminance quantile (duplicate quantile edges collapse, so a constant
    table yields a single stratum). Each stratum receives a quota
    proportional to its mean luminance (floor of one), and contributes its
    top-luminance candidates, ties broken by canonical (theta_h, theta_d,
    phi_d) order. The result is re-sorted canonically.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    cands = np.asarray(cands, dtype=float).reshape(-1, 3)
    cands = filter_grazing(cands)
    # dedupe exact angle triples so the selection cannot repeat a direction
    cands = np.unique(cands, axis=0)
    n = len(cands)
    if n < k:
        raise InsufficientCandidatesError(f"{n} candidates survive filtering, need {k}")
    order = _canonical_order(cands)
    cands = cands[order]

    vals, _ = lookup(ref, cands[:, 0], cands[:, 1], cands[:, 2])
    lum = vals @ LUMA_WEIGHTS

    edges = np.unique(np.quantile(lum, np.linspace(0.0, 1.0, N_STRATA + 1)))
    if len(edges) < 3:
        strata = [np.arange(n)]
    else:
        bin_of = np.clip(np.searchsorted(edges, lum, side="right") - 1, 0, len(edges) - 2)
        strata = [np.flatnonzero(bin_of == b) for b in range(len(edges) - 1)]
        strata = [s for s in strata if len(s)]

    means = np.array([lum[s].mean() for s in strata])
    weights = means / means.sum() if means.sum() > 0 else np.full(len(strata), 1.0 / len(strata))
    quotas = _allocate_quotas(weights, [len(s) for s in strata], k)

    chosen: list[np.ndarray] = []
    for s, q in zip(strata, quotas):
        if q == 0:
            continue
        # stable sort: descending luminance, canonical order breaking ties
        top = s[np.argsort(-lum[s], kind="stable")[:q]]
        chosen.append(top)
    idx = np.sort(np.concatenate(chosen))
    sel = cands[idx]
    cos_i, cos_o = _reconstruct_cosines(sel)
    return DirectionSet(
        theta_h=sel[:, 0].copy(),
        theta_d=sel[:, 1].copy(),
        phi_d=sel[:, 2].copy(),
        cos_wi=cos_i,
        cos_wo=cos_o,
        seed=seed,
        source_material=ref.name,
    )


def _allocate_quotas(weights: np.ndarray, sizes: list[int], k: int) -> list[int]:
    """Largest-remainder apportionment with a floor of 1 and capacity caps."""
    m = len(weights)
    quotas = np.minimum(np.maximum(np.floor(weights * k).astype(int), 1), sizes)
    # distribute the remainder by descending fractional part, then by weight
    while quotas.sum() < k:
        frac = weights * k - quotas
        frac[quotas >= np.asarray(sizes)] = -np.inf
        if np.all(np.isinf(frac) & (frac < 0)):
            raise InsufficientCandidatesError("strata capacity exhausted")
        quotas[int(np.argmax(frac))] += 1
    while quotas.sum() > k:
        frac = weights * k - quotas
        frac[quotas <= 0] = np.inf
        quotas[int(np.argmin(frac))] -= 1
    return [int(q) for q in quotas[:m]]


def sample_brdf(brdf: TabulatedBrdf, dirs: DirectionSet) -> SampledBrdf:
    """Read the table at every direction; invalid bins contribute zero."""
    vals, _ = lookup(brdf, dirs.theta_h, dirs.theta_d, dirs.phi_d)
    return SampledBrdf(values=vals, directions=dirs)
