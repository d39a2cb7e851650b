"""Analytic BRDF generators and controllable distortions.

Desk-scale substitute for measured material data: tabulate Lambert,
Blinn-Phong, or GGX microfacet models into the MERL-convention table, then
derive distorted variants with a monotone severity scalar.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import BrdfError
from .geometry import halfdiff_to_io_arrays, _sph_to_cart
from .merl import CANONICAL_RES, Rgb, TabulatedBrdf, bin_centers

INVALID_SENTINEL = -1.0


class BrdfModel(enum.Enum):
    LAMBERT = "lambert"
    BLINN_PHONG = "blinn_phong"
    GGX_MICROFACET = "ggx"


class DistortionKind(enum.Enum):
    ROUGHNESS_SHIFT = "rough"
    SPECULAR_SCALE = "spec"
    DIFFUSE_TINT = "tint"
    GAUSSIAN_NOISE = "noise"


@dataclass(frozen=True)
class AnalyticBrdfParams:
    model: BrdfModel
    diffuse: Rgb
    specular: Rgb = Rgb(0.0, 0.0, 0.0)
    roughness: float = 0.5

    def __post_init__(self):
        for c in (*self.diffuse.as_array(), *self.specular.as_array()):
            if not 0.0 <= c <= 1.0:
                raise ValueError(f"channel value {c} outside [0, 1]")
        if not 0.0 < self.roughness <= 1.0:
            raise ValueError(f"roughness {self.roughness} outside (0, 1]")


@dataclass(frozen=True)
class DistortionSpec:
    kind: DistortionKind
    magnitude: float
    # an int or a tuple of ints, as np.random.default_rng takes them
    seed: int | tuple[int, ...] = 0

    def __post_init__(self):
        if not (math.isfinite(self.magnitude) and self.magnitude >= 0.0):
            raise ValueError(f"magnitude {self.magnitude} must be finite and >= 0")


def _eval_analytic(params: AnalyticBrdfParams, cos_i, cos_o, cos_h, cos_hi):
    """Evaluate the model from the cosines of one direction pair.

    cos_i, cos_o and cos_h are the normal components of the unit vectors
    wi, wo and h; cos_hi is wi . h. All have one shape; the result adds an
    axis of 3 channels.
    """
    diffuse = params.diffuse.as_array() / math.pi
    n_wi = np.clip(cos_i, 1e-9, 1.0)
    n_wo = np.clip(cos_o, 1e-9, 1.0)
    n_h = np.clip(cos_h, 0.0, 1.0)
    out = np.broadcast_to(diffuse, (*np.shape(cos_i), 3)).copy()
    spec = params.specular.as_array()
    if params.model is BrdfModel.LAMBERT or not np.any(spec > 0.0):
        return out
    if params.model is BrdfModel.BLINN_PHONG:
        exponent = 2.0 / params.roughness**2 - 2.0
        lobe = (exponent + 2.0) / (2.0 * math.pi) * n_h**exponent
        out += spec * lobe[..., None]
        return out
    # GGX with Smith shadowing and Schlick Fresnel
    a2 = params.roughness**4
    denom = n_h**2 * (a2 - 1.0) + 1.0
    d_term = a2 / (math.pi * denom**2)
    hw = np.clip(cos_hi, 0.0, 1.0)
    fresnel = spec + (1.0 - spec) * (1.0 - hw[..., None]) ** 5
    g1i = 2.0 * n_wi / (n_wi + np.sqrt(a2 + (1.0 - a2) * n_wi**2))
    g1o = 2.0 * n_wo / (n_wo + np.sqrt(a2 + (1.0 - a2) * n_wo**2))
    lobe = d_term * g1i * g1o / (4.0 * n_wi * n_wo)
    out += fresnel * lobe[..., None]
    return out


def _bin_geometry(res: tuple[int, int, int]):
    """What _eval_analytic reads at every bin center, plus the below-horizon mask.

    Returns (cos_i, cos_o, cos_h, cos_hi, below), flat over the bins in
    table order. It depends on the resolution alone, so a dataset builds it
    once and shares it between all its materials.
    """
    th, td, pd = bin_centers(res)
    TH, TD, PD = np.meshgrid(th, td, pd, indexing="ij")
    ti, pi_, to, po = halfdiff_to_io_arrays(TH.ravel(), TD.ravel(), PD.ravel())
    wi = _sph_to_cart(ti, pi_)
    wo = _sph_to_cart(to, po)
    h = _sph_to_cart(TH.ravel(), np.zeros_like(TH.ravel()))
    # contiguous copies, so the (n, 3) vectors are freed on return
    cos_i = np.ascontiguousarray(wi[..., 2])
    cos_o = np.ascontiguousarray(wo[..., 2])
    below = (cos_i <= 1e-9) | (cos_o <= 1e-9)
    return cos_i, cos_o, np.ascontiguousarray(h[..., 2]), np.sum(wi * h, axis=-1), below


def tabulate(
    params: AnalyticBrdfParams,
    res: tuple[int, int, int] = CANONICAL_RES,
    name: str = "",
    geometry=None,
) -> TabulatedBrdf:
    """Fill every bin by evaluating the model at the bin-center directions.

    Bins whose reconstructed wi or wo falls below the horizon are marked
    with the invalid sentinel, mirroring unmeasured regions of real tables.
    geometry is the bin geometry of res (see iter_dataset); it is built
    here when not given.
    """
    if geometry is None:
        geometry = _bin_geometry(res)
    *cosines, below = geometry
    vals = _eval_analytic(params, *cosines)
    vals[below] = INVALID_SENTINEL
    table = np.moveaxis(vals.reshape(*res, 3), -1, 0)
    return TabulatedBrdf(name=name or params.model.value, values=np.ascontiguousarray(table))


def distort(brdf: TabulatedBrdf, spec: DistortionSpec) -> TabulatedBrdf:
    """Apply a seeded, table-level distortion; sentinel bins pass through."""
    invalid = brdf.invalid_mask()
    valid = ~invalid
    out = brdf.values.copy()
    m = spec.magnitude
    if spec.kind is DistortionKind.GAUSSIAN_NOISE:
        if m > 0.0:
            rng = np.random.default_rng(spec.seed)
            out = out + rng.normal(0.0, m, size=out.shape)
    elif spec.kind is DistortionKind.SPECULAR_SCALE:
        # scale each channel's excess over its diffuse floor by (1 + m)
        if m > 0.0:
            for c in range(3):
                ch = out[c]
                if not np.any(valid):
                    continue
                base = ch[valid].min()
                ch[valid] = base + (1.0 + m) * (ch[valid] - base)
    elif spec.kind is DistortionKind.DIFFUSE_TINT:
        out[0][valid] *= 1.0 + m
        out[2][valid] /= 1.0 + m
    elif spec.kind is DistortionKind.ROUGHNESS_SHIFT:
        # widen the specular lobe: gaussian blur along the theta_h axis
        if m > 0.0:
            from scipy.ndimage import gaussian_filter1d  # only this branch needs scipy

            sigma = m * brdf.res_theta_h
            filled = np.where(invalid[None, ...], 0.0, out)
            out = gaussian_filter1d(filled, sigma=sigma, axis=1, mode="nearest")
    else:  # pragma: no cover - enum is exhaustive
        raise BrdfError(f"unknown distortion kind {spec.kind}")
    out = np.maximum(out, 0.0)
    out[:, invalid] = brdf.values[:, invalid]
    return TabulatedBrdf(name=f"{brdf.name}_{spec.kind.value}{m:g}", values=out)


def random_params(rng: np.random.Generator, model: BrdfModel = BrdfModel.GGX_MICROFACET) -> AnalyticBrdfParams:
    """Draw plausible material parameters for dataset generation."""
    diffuse = Rgb(*rng.uniform(0.05, 0.6, size=3))
    specular = Rgb(*np.full(3, rng.uniform(0.02, 0.9)))
    roughness = float(rng.uniform(0.1, 0.7))
    return AnalyticBrdfParams(model=model, diffuse=diffuse, specular=specular, roughness=roughness)


def severity_scale(levels: list[DistortionSpec]) -> dict[DistortionKind, float]:
    """Per-kind normalizer so severity = magnitude / max magnitude of that kind."""
    scale: dict[DistortionKind, float] = {}
    for lv in levels:
        scale[lv.kind] = max(scale.get(lv.kind, 0.0), lv.magnitude)
    return scale


def iter_dataset(
    n_materials: int,
    levels: list[DistortionSpec],
    seed: int,
    res: tuple[int, int, int] = CANONICAL_RES,
    model: BrdfModel = BrdfModel.GGX_MICROFACET,
):
    """Yield (reference, distorted, severity) triples, one reference's levels at a time.

    Deterministic in all arguments. Severity is the level magnitude
    normalized by the largest magnitude of the same kind, so it is strictly
    monotone across a monotone family of levels.
    """
    if n_materials < 1:
        raise ValueError("n_materials must be >= 1")
    if not levels:
        raise ValueError("levels must be nonempty")
    scale = severity_scale(levels)
    rng = np.random.default_rng(seed)
    geometry = _bin_geometry(res)
    for mat in range(n_materials):
        params = random_params(rng, model=model)
        ref = tabulate(params, res=res, name=f"mat{mat:03d}", geometry=geometry)
        for li, lv in enumerate(levels):
            # per-pair noise stream keyed by (seed, material, level) on every build
            pair_spec = DistortionSpec(lv.kind, lv.magnitude, seed=(seed, mat, li))
            dist = distort(ref, pair_spec)
            sev = lv.magnitude / scale[lv.kind] if scale[lv.kind] > 0.0 else 0.0
            yield ref, dist, sev
