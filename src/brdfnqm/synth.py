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
from .geometry import halfdiff_to_io_arrays
from .merl import CANONICAL_RES, Rgb, TabulatedBrdf, bin_centers

INVALID_SENTINEL = -1.0

# bins per block of whole theta_h rows that tabulate evaluates at once
_BLOCK_BINS = 1 << 14

# largest radius of a rough blur kernel, in theta_h bins: its 2r + 1 taps
# take 8 bytes each, so an absurd level would allocate gigabytes, and every
# tap past the axis only adds weight to an edge column
_MAX_BLUR_RADIUS = 1 << 16


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


def _eval_analytic(params: AnalyticBrdfParams, cos_i, cos_o, cos_h, cos_hi, out):
    """Evaluate the model from the cosines of a block of bins into out.

    cos_i, cos_o and cos_h are the normal components of the unit vectors
    wi, wo and h; cos_hi is wi . h. cos_i and cos_o are (rows, n) arrays of
    one shape, cos_h is the (rows, 1) column of the rows' theta_h and cos_hi
    the (1, n) row that every theta_h row shares; out is a channel-major
    (3, rows, n) array, every element of which is written.
    """
    diffuse = params.diffuse.as_array() / math.pi
    for c in range(3):
        out[c] = diffuse[c]
    spec = params.specular.as_array()
    if params.model is BrdfModel.LAMBERT or not np.any(spec > 0.0):
        return
    n_h = np.clip(cos_h, 0.0, 1.0)
    if params.model is BrdfModel.BLINN_PHONG:
        exponent = 2.0 / params.roughness**2 - 2.0
        lobe = (exponent + 2.0) / (2.0 * math.pi) * n_h**exponent
        for c in range(3):
            out[c] += spec[c] * lobe
        return
    # GGX with Smith shadowing and Schlick Fresnel
    n_wi = np.clip(cos_i, 1e-9, 1.0)
    n_wo = np.clip(cos_o, 1e-9, 1.0)
    a2 = params.roughness**4
    denom = n_h**2 * (a2 - 1.0) + 1.0
    d_term = a2 / (math.pi * denom**2)
    schlick = (1.0 - np.clip(cos_hi, 0.0, 1.0)) ** 5
    g1i = 2.0 * n_wi / (n_wi + np.sqrt(a2 + (1.0 - a2) * n_wi**2))
    g1o = 2.0 * n_wo / (n_wo + np.sqrt(a2 + (1.0 - a2) * n_wo**2))
    lobe = d_term * g1i * g1o / (4.0 * n_wi * n_wo)
    for c in range(3):
        # the Fresnel row broadcasts against the lobe's rows
        fresnel = spec[c] + (1.0 - spec[c]) * schlick
        out[c] += fresnel * lobe


def tabulate(
    params: AnalyticBrdfParams,
    res: tuple[int, int, int] = CANONICAL_RES,
    name: str = "",
) -> TabulatedBrdf:
    """Fill every bin by evaluating the model at the bin-center directions.

    Bins whose wi or wo falls below the horizon are marked with the invalid
    sentinel, mirroring unmeasured regions of real tables.

    The model runs over blocks of whole theta_h rows, at most _BLOCK_BINS
    bins each (one row when a row is larger). Each block takes its cosines
    from the three bin-center axes, in closed form (`halfdiff_to_io_arrays`),
    and is written straight into the table, so its temporaries stay small,
    the call allocates nothing of table size but the table itself and no
    bin geometry outlives a block. Every bin goes through the same
    elementwise operations as in one whole-table pass, so the bytes are
    those of that pass.
    """
    th, td, pd = bin_centers(res)
    td, pd = td[None, :, None], pd[None, None, :]
    n = res[1] * res[2]
    # wi . h is cos theta_d, one row for every theta_h
    cos_hi = np.broadcast_to(np.cos(td), (1, *res[1:])).reshape(1, n)
    table = np.empty((3, res[0], n))
    step = max(1, _BLOCK_BINS // n)
    for i in range(0, res[0], step):
        rows = slice(i, i + step)
        th_rows = th[rows, None, None]
        cos_i, cos_o = (c.reshape(-1, n) for c in halfdiff_to_io_arrays(th_rows, td, pd))
        # cos_h is a (rows, 1) column, so n_h**2 stays numpy's square
        _eval_analytic(params, cos_i, cos_o, np.cos(th_rows).reshape(-1, 1), cos_hi, table[:, rows])
        np.copyto(table[:, rows], INVALID_SENTINEL, where=(cos_i <= 1e-9) | (cos_o <= 1e-9))
    return TabulatedBrdf(name=name or params.model.value, values=table.reshape(3, *res))


def distort(brdf: TabulatedBrdf, spec: DistortionSpec) -> TabulatedBrdf:
    """Apply a seeded, table-level distortion; sentinel bins pass through.

    Valid bins stay non-negative: spec keeps them at or above their
    channel's floor, tint scales them by positive factors and rough blurs
    non-negative values with non-negative weights, so only noise clamps.
    The invalid mask and spec's channel floors are the ones brdf holds, so
    the levels of one reference compute them once.
    """
    v = brdf.values
    invalid = brdf.invalid_mask
    m = spec.magnitude
    # spec and tint run over every bin: the sentinel bins are restored below
    if spec.kind is DistortionKind.GAUSSIAN_NOISE:
        if m > 0.0:
            # the noise array becomes the table: noise + v is v + noise bit for bit
            out = np.random.default_rng(spec.seed).normal(0.0, m, size=v.shape)
            out += v
            np.maximum(out, 0.0, out=out)
        else:
            out = v.copy()
    elif spec.kind is DistortionKind.SPECULAR_SCALE:
        # scale each channel's excess over its diffuse floor by (1 + m)
        if m > 0.0 and not invalid.all():
            out = np.empty(v.shape)
            for ch, src, base in zip(out, v, brdf.channel_floors):
                np.subtract(src, base, out=ch)
                ch *= 1.0 + m
                ch += base
        else:
            out = v.copy()
    elif spec.kind is DistortionKind.DIFFUSE_TINT:
        out = np.empty(v.shape)
        np.multiply(v[0], 1.0 + m, out=out[0])
        np.copyto(out[1], v[1])
        np.divide(v[2], 1.0 + m, out=out[2])
    elif spec.kind is DistortionKind.ROUGHNESS_SHIFT:
        # widen the specular lobe: gaussian blur along the theta_h axis
        if m > 0.0:
            n_th = brdf.res_theta_h
            _check_level(spec, n_th)
            op = _blur_operator(n_th, m * n_th)
            # one channel at a time through one zero-filled buffer: the GEMM
            # each channel gets is the one a stacked matmul would make, so
            # the bytes are the same (column blocks would change them)
            out = np.empty(v.shape)
            buf = np.empty(v.shape[1:])
            for c in range(3):
                np.copyto(buf, v[c])
                np.copyto(buf, 0.0, where=invalid)
                np.matmul(op, buf.reshape(n_th, -1), out=out[c].reshape(n_th, -1))
        else:
            out = v.copy()
    else:  # pragma: no cover - enum is exhaustive
        raise BrdfError(f"unknown distortion kind {spec.kind}")
    np.copyto(out, v, where=invalid)
    return TabulatedBrdf(name=f"{brdf.name}_{spec.kind.value}{m:g}", values=out)


def _check_level(level: DistortionSpec, n_th: int) -> None:
    """ValueError naming a rough level whose blur kernel on n_th theta_h bins
    has a radius int(4 m n_th + 0.5) above _MAX_BLUR_RADIUS."""
    # compared as a float: the radius of a huge magnitude is no int
    if level.kind is DistortionKind.ROUGHNESS_SHIFT and 4.0 * (level.magnitude * n_th) + 0.5 >= _MAX_BLUR_RADIUS + 1:
        raise ValueError(
            f"level rough:{level.magnitude:g} is too wide for {n_th} theta_h bins: "
            f"its blur radius would exceed {_MAX_BLUR_RADIUS} bins"
        )


def _blur_operator(n: int, sigma: float) -> np.ndarray:
    """(n, n) matrix of a gaussian blur along an axis of n bins.

    The kernel is scipy.ndimage.gaussian_filter1d's: radius int(4 sigma + 0.5),
    weights exp(-x^2 / (2 sigma^2)) normalised to sum 1, and mode="nearest",
    so a tap past either end reads the edge bin. Each edge column therefore
    holds its own tap plus the sum of every tap beyond it.
    """
    r = int(4.0 * sigma + 0.5)
    x = np.arange(-r, r + 1)
    w = np.exp(-0.5 / (sigma * sigma) * x**2)
    w /= w.sum()
    offset = np.arange(n)[None, :] - np.arange(n)[:, None] + r  # tap of row i that reads column j
    op = np.where((offset >= 0) & (offset <= 2 * r), w[np.clip(offset, 0, 2 * r)], 0.0)
    # beyond[i]: the weight of row i's taps that fall before bin 0; the kernel is
    # symmetric, so beyond[n - 1 - i] is the weight of those past bin n - 1
    beyond = np.concatenate([[0.0], np.cumsum(w)])[np.clip(r - np.arange(n), 0, 2 * r + 1)]
    op[:, 0] += beyond
    op[:, -1] += beyond[::-1]
    return op


def random_params(rng: np.random.Generator) -> AnalyticBrdfParams:
    """Draw plausible GGX material parameters for dataset generation."""
    diffuse = Rgb(*rng.uniform(0.05, 0.6, size=3))
    specular = Rgb(*np.full(3, rng.uniform(0.02, 0.9)))
    roughness = float(rng.uniform(0.1, 0.7))
    return AnalyticBrdfParams(model=BrdfModel.GGX_MICROFACET, diffuse=diffuse, specular=specular, roughness=roughness)


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
):
    """An iterator of (reference, distorted, severity) triples, one reference's levels at a time.

    Each reference is a GGX material drawn by `random_params`.

    Deterministic in all arguments. Severity is the level magnitude
    normalized by the largest magnitude of the same kind, so it is strictly
    monotone across a monotone family of levels.

    The arguments, every level included, are checked here, before the first
    table is built. The iterator keeps no reference to a distorted table it
    has yielded, nor to a reference whose last level it has yielded, so a
    caller that drops its own before asking for the next triple holds at most
    one reference and one distorted table at a time.
    """
    if n_materials < 1:
        raise ValueError("n_materials must be >= 1")
    if not levels:
        raise ValueError("levels must be nonempty")
    for lv in levels:
        _check_level(lv, res[0])
    return _triples(n_materials, levels, seed, res)


def _triples(n_materials, levels, seed, res):
    scale = severity_scale(levels)
    rng = np.random.default_rng(seed)
    for mat in range(n_materials):
        ref = tabulate(random_params(rng), res=res, name=f"mat{mat:03d}")
        for li, lv in enumerate(levels):
            # per-pair noise stream keyed by (seed, material, level) on every build
            pair_spec = DistortionSpec(lv.kind, lv.magnitude, seed=(seed, mat, li))
            sev = lv.magnitude / scale[lv.kind] if scale[lv.kind] > 0.0 else 0.0
            yield ref, distort(ref, pair_spec), sev
        del ref  # its last level is yielded: the next tabulate must not find it held here
