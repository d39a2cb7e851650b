"""Reduction of a tabulated BRDF to K shared half/diff reflectance samples.

Candidates come from a cross-product grid that is uniform in theta_d and
phi_d but quadratically warped in theta_h so density concentrates near the
specular peak at theta_h = 0. `build_candidate_grid` drops the candidates
whose incoming or outgoing direction grazes the horizon (either elevation
above 75 degrees); `select_samples` ranks the survivors by reflectance
magnitude with an energy-weighted stratified rule.
"""

from __future__ import annotations

import functools
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


@dataclass(frozen=True, eq=False)
class DirectionSet:
    """K half/diff directions, sorted canonically by (theta_h, theta_d, phi_d).

    The three angle arrays are float64 copies of the ones passed in, made
    read-only, so a set never changes after it is built; sets compare and
    hash by identity. cos_wi/cos_wo, the normal components of the incoming
    and outgoing directions (`halfdiff_to_io_arrays`), are computed from the
    angles on first use.
    """

    theta_h: np.ndarray
    theta_d: np.ndarray
    phi_d: np.ndarray
    seed: int
    source_material: str

    def __post_init__(self):
        for name in ("theta_h", "theta_d", "phi_d"):
            a = np.array(getattr(self, name), dtype=np.float64)
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def k(self) -> int:
        return len(self.theta_h)

    def columns(self) -> np.ndarray:
        """(K, 3) array of the three angle columns, in sample-file order."""
        return np.column_stack((self.theta_h, self.theta_d, self.phi_d))

    @functools.cached_property
    def _cosines(self) -> tuple[np.ndarray, np.ndarray]:
        cosines = halfdiff_to_io_arrays(self.theta_h, self.theta_d, self.phi_d)
        for c in cosines:
            c.flags.writeable = False
        return cosines

    @property
    def cos_wi(self) -> np.ndarray:
        return self._cosines[0]

    @property
    def cos_wo(self) -> np.ndarray:
        return self._cosines[1]


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
    """Both members of a pair must be sampled with one DirectionSet: the same object, or equal in all three angle columns."""
    if a.directions is b.directions:
        return
    if not np.array_equal(a.directions.columns(), b.directions.columns()):
        raise PairingError("sampled BRDFs do not share a direction set")


def build_candidate_grid() -> np.ndarray:
    """The cross product of candidate angles that passes `filter_grazing`, shape (n, 3).

    DEFAULT_GRID holds the axis counts (n_th, n_td, n_pd):
    theta_h(i) = (pi/2) * (i/(n_th-1))^2; theta_d uniform on [0, 75deg];
    phi_d uniform on [0, pi) excluding the endpoint. Each axis strictly
    ascends, so the rows are in canonical order with no repeats.
    """
    n_th, n_td, n_pd = DEFAULT_GRID
    th = HALF_PI * (np.arange(n_th) / (n_th - 1)) ** 2
    td = np.linspace(0.0, GRAZING_LIMIT, n_td)
    pd = np.arange(n_pd) / n_pd * math.pi
    TH, TD, PD = np.meshgrid(th, td, pd, indexing="ij")
    return filter_grazing(np.stack([TH.ravel(), TD.ravel(), PD.ravel()], axis=1))


def filter_grazing(cands: np.ndarray) -> np.ndarray:
    """Keep candidates whose wi and wo stay within 75 degrees of the normal."""
    cands = np.asarray(cands, dtype=float).reshape(-1, 3)
    cos_i, cos_o = halfdiff_to_io_arrays(*cands.T)
    limit = math.cos(GRAZING_LIMIT)
    keep = (cos_i > limit) & (cos_o > limit)
    return cands[keep]


def select_samples(
    ref: TabulatedBrdf, cands: np.ndarray, k: int = DEFAULT_K, seed: int = 0
) -> DirectionSet:
    """Pick k directions from ``cands``, rows of `build_candidate_grid`, prioritizing reflectance energy.

    Candidates are bucketed into up to N_STRATA equal-count strata by
    luminance quantile (duplicate quantile edges collapse, so a constant
    table yields a single stratum). Each stratum receives a quota
    proportional to its mean luminance (floor of one), and contributes its
    top-luminance candidates, ties broken by canonical (theta_h, theta_d,
    phi_d) order. The result is re-sorted canonically.

    ``seed`` is only stored in the returned DirectionSet; it changes the sample files' headers, not the directions.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    cands = np.asarray(cands, dtype=float).reshape(-1, 3)
    n = len(cands)
    if n < k:
        raise InsufficientCandidatesError(f"{n} candidates survive filtering, need {k}")

    vals = lookup(ref, cands[:, 0], cands[:, 1], cands[:, 2])
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
    return DirectionSet(theta_h=sel[:, 0], theta_d=sel[:, 1], phi_d=sel[:, 2], seed=seed, source_material=ref.name)


def _allocate_quotas(weights: np.ndarray, sizes: list[int], k: int) -> list[int]:
    """Largest-remainder apportionment with a floor of 1 and capacity caps."""
    quotas = np.minimum(np.maximum(np.floor(weights * k).astype(int), 1), sizes)
    # distribute the remainder by descending fractional part, then by weight;
    # the sizes sum to at least k, so some stratum below its size takes each one
    while quotas.sum() < k:
        frac = weights * k - quotas
        frac[quotas >= np.asarray(sizes)] = -np.inf
        quotas[int(np.argmax(frac))] += 1
    while quotas.sum() > k:
        frac = weights * k - quotas
        frac[quotas <= 0] = np.inf
        quotas[int(np.argmin(frac))] -= 1
    return [int(q) for q in quotas]


def sample_brdf(brdf: TabulatedBrdf, dirs: DirectionSet) -> SampledBrdf:
    """Read the table at every direction; invalid bins contribute zero."""
    vals = lookup(brdf, dirs.theta_h, dirs.theta_d, dirs.phi_d)
    return SampledBrdf(values=vals, directions=dirs)
