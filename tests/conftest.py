import math
import struct

import numpy as np
import pytest

from brdfnqm import pairio, sampling, synth
from brdfnqm.merl import Rgb, bin_centers
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


def hex_bits(value: float) -> str:
    """A sample file's field for ``value``: its big-endian float64 bits as 16 hex digits."""
    return struct.pack(">d", value).hex()


def write_empty_samples(path, material: str) -> None:
    """A sample file of k=0 samples, a header and no rows, which write_samples
    and read_samples both refuse: the bytes write_samples wrote before it did."""
    header = [f"# brdfnqm-samples v{pairio.SAMPLES_VERSION}", "# k=0", "# seed=0", f"# material={material}",
              "# " + " ".join(pairio.SAMPLE_COLUMNS)]
    with open(path, "w", encoding="ascii") as f:
        f.write("\n".join(header) + "\n")


def flip_bit(data: bytes, bit: int) -> bytes:
    """data with one bit inverted (bit 0 is the low bit of the first byte)."""
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def full_candidate_grid() -> np.ndarray:
    """The unfiltered cross product of the candidate axes, in canonical order."""
    n_th, n_td, n_pd = sampling.DEFAULT_GRID
    # theta_h quadratic warp: th(i) = (pi/2) * (i/(n-1))^2
    th = math.pi / 2 * (np.arange(n_th) / (n_th - 1)) ** 2
    td = np.linspace(0, sampling.GRAZING_LIMIT, n_td)
    pd = np.arange(n_pd) / n_pd * math.pi
    return np.stack([a.ravel() for a in np.meshgrid(th, td, pd, indexing="ij")], axis=1)


# The (n, 3) cartesian geometry chain, frozen as an independent reference:
# io_to_halfdiff_arrays's component form must match its forward transform
# bit for bit, and halfdiff_to_io_arrays's closed-form cosines the cosines of
# its inverse to rounding.


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


# The whole-table, row-major model evaluation that synth.tabulate's blocks
# of theta_h rows replace, with the closed-form cosines written out over
# the whole meshgrid, frozen as the reference it must match bit for bit.


def reference_tabulate(params, res):
    TH, TD, PD = (a.ravel() for a in np.meshgrid(*bin_centers(res), indexing="ij"))
    cos_i = np.cos(TH) * np.cos(TD) - np.sin(TH) * np.sin(TD) * np.cos(PD)
    cos_o = 2.0 * (np.cos(TH) * np.cos(TD)) - cos_i
    cos_h, cos_hi = np.cos(TH), np.cos(TD)
    below = (cos_i <= 1e-9) | (cos_o <= 1e-9)
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
    return DirectionSet(theta_h=th, theta_d=td, phi_d=pd, seed=seed, source_material=material)


def make_pair(seed: int = 0, k: int = 4) -> tuple[SampledBrdf, SampledBrdf]:
    """A (ref, dist) pair on one tiny direction set; dist is ref plus clamped noise."""
    rng = np.random.default_rng(seed)
    ds = tiny_direction_set(k=k, seed=seed)
    ref = SampledBrdf(values=rng.uniform(0.0, 2.0, size=(k, 3)), directions=ds)
    dist = SampledBrdf(values=np.maximum(ref.values + rng.normal(0, 0.1, size=(k, 3)), 0.0), directions=ds)
    return ref, dist


# The network pass with a dict cache of parallel per-layer lists, kept in
# eval mode too, and dropout masks passed in explicitly, that nn.forward's
# per-layer records replace; frozen as the reference nn.forward and
# nn.backward must match bit for bit.


def reference_forward(model, batch, mode, dropout_masks=None):
    from brdfnqm import nn

    x = np.asarray(batch, dtype=model.dtype)
    keep = 1.0 - model.dropout
    cache = {"mode": mode, "inputs": [], "xhat": [], "inv_std": [], "y": [], "phi": [], "masks": []}
    a = x
    for i in range(len(model.gammas)):
        cache["inputs"].append(a)
        z = a @ model.weights[i].T + model.biases[i]
        mu = z.mean(axis=1, keepdims=True)
        var = z.var(axis=1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + nn.LN_EPS)
        xhat = (z - mu) * inv_std
        y = model.gammas[i] * xhat + model.betas[i]
        phi = nn._ndtr(y)
        a = y * phi
        if mode == "train" and model.dropout > 0.0:
            mask = dropout_masks[i]
            a = a * mask / keep
            cache["masks"].append(mask)
        else:
            cache["masks"].append(None)
        cache["xhat"].append(xhat)
        cache["inv_std"].append(inv_std)
        cache["y"].append(y)
        cache["phi"].append(phi)
    cache["inputs"].append(a)
    s = nn._sigmoid(a @ model.weights[-1].T + model.biases[-1])
    cache["s"] = s
    return model.jod_min + s * (model.jod_max - model.jod_min), cache


def reference_backward(model, cache, loss_grad):
    from brdfnqm import nn

    keep = 1.0 - model.dropout
    s = cache["s"]
    dzf = loss_grad * (model.jod_max - model.jod_min) * s * (1.0 - s)
    grads = nn._flat_like(model, np.empty_like)
    np.matmul(dzf.T, cache["inputs"][-1], out=grads["weights"][-1])
    dzf.sum(axis=0, out=grads["biases"][-1])
    da = dzf @ model.weights[-1]
    for i in reversed(range(len(model.gammas))):
        if cache["masks"][i] is not None:
            da = da * cache["masks"][i] / keep
        dy = da * nn._gelu_grad(cache["y"][i], cache["phi"][i])
        xhat = cache["xhat"][i]
        (dy * xhat).sum(axis=0, out=grads["gammas"][i])
        dy.sum(axis=0, out=grads["betas"][i])
        dxhat = dy * model.gammas[i]
        dz = cache["inv_std"][i] * (
            dxhat
            - dxhat.mean(axis=1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
        )
        np.matmul(dz.T, cache["inputs"][i], out=grads["weights"][i])
        dz.sum(axis=0, out=grads["biases"][i])
        if i > 0:
            da = dz @ model.weights[i]
    return grads
