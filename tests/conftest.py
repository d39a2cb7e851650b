import math

import numpy as np
import pytest

from brdfnqm import sampling, synth
from brdfnqm.merl import Rgb, bin_centers
from brdfnqm.preprocess import LabeledPair, Provenance
from brdfnqm.sampling import DirectionSet, SampledBrdf

SMALL_RES = (16, 16, 32)


@pytest.fixture(scope="session")
def lambert_table():
    params = synth.AnalyticBrdfParams(model=synth.BrdfModel.LAMBERT, diffuse=Rgb(0.5, 0.5, 0.5))
    return synth.tabulate(params, res=SMALL_RES, name="lambert05")


@pytest.fixture(scope="session")
def ggx_table():
    params = synth.AnalyticBrdfParams(
        model=synth.BrdfModel.GGX_MICROFACET,
        diffuse=Rgb(0.2, 0.3, 0.25),
        specular=Rgb(0.7, 0.7, 0.7),
        roughness=0.25,
    )
    return synth.tabulate(params, res=SMALL_RES, name="ggx025")


def flip_bit(data: bytes, bit: int) -> bytes:
    """data with one bit inverted (bit 0 is the low bit of the first byte)."""
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


# The (n, 3) cartesian geometry chain that geometry's component-form
# transforms replace, frozen as the reference they must match bit for bit.


def sph_to_cart(theta, phi):
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


def _rot_y(v, angle):
    c, s = np.cos(angle), np.sin(angle)
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    return np.stack([c * x + s * z, y, -s * x + c * z], axis=-1)


def _rot_z(v, angle):
    c, s = np.cos(angle), np.sin(angle)
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    return np.stack([c * x - s * y, s * x + c * y, z], axis=-1)


def reference_halfdiff_to_io_arrays(theta_h, theta_d, phi_d, phi_h=0.0):
    theta_h = np.asarray(theta_h, dtype=float)
    d = sph_to_cart(np.asarray(theta_d, dtype=float), np.asarray(phi_d, dtype=float))
    wi = _rot_z(_rot_y(d, theta_h), phi_h)
    h = sph_to_cart(theta_h, np.broadcast_to(np.asarray(phi_h, dtype=float), theta_h.shape))
    wo = 2.0 * np.sum(wi * h, axis=-1, keepdims=True) * h - wi
    wo /= np.linalg.norm(wo, axis=-1, keepdims=True)

    def to_sph(v):
        z = np.clip(v[..., 2], -1.0, 1.0)
        return np.arccos(z), np.arctan2(v[..., 1], v[..., 0]) % (2.0 * math.pi)

    ti, pi_ = to_sph(wi)
    to, po = to_sph(wo)
    return ti, pi_, to, po


def reference_io_to_halfdiff_arrays(theta_i, phi_i, theta_o, phi_o):
    wi = sph_to_cart(np.asarray(theta_i, dtype=float), np.asarray(phi_i, dtype=float))
    wo = sph_to_cart(np.asarray(theta_o, dtype=float), np.asarray(phi_o, dtype=float))
    h = wi + wo
    h = h / np.linalg.norm(h, axis=-1, keepdims=True)
    theta_h = np.arccos(np.clip(h[..., 2], -1.0, 1.0))
    phi_h = np.arctan2(h[..., 1], h[..., 0])
    d = _rot_y(_rot_z(wi, -phi_h), -theta_h)
    theta_d = np.arccos(np.clip(d[..., 2], -1.0, 1.0))
    phi_d = np.arctan2(d[..., 1], d[..., 0]) % math.pi
    return theta_h, theta_d, phi_d, phi_h


# The bin geometry from the cartesian chain above, and the whole-table,
# row-major model evaluation that synth.tabulate's blocked pass replaces,
# frozen as the reference it must match bit for bit.


def reference_bin_geometry(res):
    th, td, pd = bin_centers(res)
    TH, TD, PD = np.meshgrid(th, td, pd, indexing="ij")
    ti, pi_, to, po = reference_halfdiff_to_io_arrays(TH.ravel(), TD.ravel(), PD.ravel())
    wi = sph_to_cart(ti, pi_)
    wo = sph_to_cart(to, po)
    h = sph_to_cart(TH.ravel(), np.zeros_like(TH.ravel()))
    cos_i, cos_o = wi[..., 2], wo[..., 2]
    below = (cos_i <= 1e-9) | (cos_o <= 1e-9)
    return cos_i, cos_o, h[..., 2], np.sum(wi * h, axis=-1), below


def reference_tabulate(params, res):
    cos_i, cos_o, cos_h, cos_hi, below = reference_bin_geometry(res)
    out = np.broadcast_to(params.diffuse.as_array() / math.pi, (cos_i.size, 3)).copy()
    spec = params.specular.as_array()
    n_h = np.clip(cos_h, 0.0, 1.0)
    if params.model is synth.BrdfModel.BLINN_PHONG:
        exponent = 2.0 / params.roughness**2 - 2.0
        out += spec * ((exponent + 2.0) / (2.0 * math.pi) * n_h**exponent)[..., None]
    elif params.model is synth.BrdfModel.GGX_MICROFACET:
        n_wi = np.clip(cos_i, 1e-9, 1.0)
        n_wo = np.clip(cos_o, 1e-9, 1.0)
        a2 = params.roughness**4
        d_term = a2 / (math.pi * (n_h**2 * (a2 - 1.0) + 1.0) ** 2)
        fresnel = spec + (1.0 - spec) * (1.0 - np.clip(cos_hi, 0.0, 1.0)[..., None]) ** 5
        g1i = 2.0 * n_wi / (n_wi + np.sqrt(a2 + (1.0 - a2) * n_wi**2))
        g1o = 2.0 * n_wo / (n_wo + np.sqrt(a2 + (1.0 - a2) * n_wo**2))
        out += fresnel * (d_term * g1i * g1o / (4.0 * n_wi * n_wo))[..., None]
    out[below] = synth.INVALID_SENTINEL
    return np.ascontiguousarray(np.moveaxis(out.reshape(*res, 3), -1, 0))


# The per-pair input chain that nn.input_matrix's one batched pass replaces,
# frozen as the reference it must match bit for bit.


def reference_transform(values: np.ndarray) -> np.ndarray:
    """Clamp at zero, cube root, log1p."""
    return np.log1p(np.cbrt(np.maximum(values, 0.0)))


def reference_pair_to_input(ref: SampledBrdf, dist: SampledBrdf, whitening) -> np.ndarray:
    """Transform and whiten each member; concatenate, reference first (float64)."""
    sampling.check_paired(ref, dist)
    r, d = ((reference_transform(s.values) - whitening.mean) / whitening.std for s in (ref, dist))
    return np.concatenate([r.ravel(), d.ravel()])


def tiny_direction_set(k: int = 4, seed: int = 0, material: str = "m") -> DirectionSet:
    rng = np.random.default_rng(seed)
    th = np.sort(rng.uniform(0.0, 0.5, size=k))
    td = rng.uniform(0.0, 0.8, size=k)
    pd = rng.uniform(0.0, np.pi * 0.999, size=k)
    return DirectionSet(
        theta_h=th,
        theta_d=td,
        phi_d=pd,
        cos_wi=rng.uniform(0.3, 1.0, size=k),
        cos_wo=rng.uniform(0.3, 1.0, size=k),
        seed=seed,
        source_material=material,
    )


def make_pair(jod: float, material: str = "m", seed: int = 0, k: int = 4) -> LabeledPair:
    rng = np.random.default_rng(seed)
    ds = tiny_direction_set(k=k, seed=seed, material=material)
    ref = SampledBrdf(values=rng.uniform(0.0, 2.0, size=(k, 3)), directions=ds)
    dist = SampledBrdf(values=np.maximum(ref.values + rng.normal(0, 0.1, size=(k, 3)), 0.0), directions=ds)
    return LabeledPair(ref=ref, dist=dist, jod=jod, provenance=Provenance.SYNTHETIC_ORACLE, material=material)


@pytest.fixture
def random_sampled_pair(ggx_table):
    cands = sampling.build_candidate_grid(16, 8, 8)
    ds = sampling.select_samples(ggx_table, cands, k=100, seed=3)
    ref = sampling.sample_brdf(ggx_table, ds)
    dist = sampling.sample_brdf(
        synth.distort(ggx_table, synth.DistortionSpec(synth.DistortionKind.GAUSSIAN_NOISE, 0.05, seed=1)), ds
    )
    return ref, dist
