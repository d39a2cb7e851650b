import math

import numpy as np
import pytest

from brdfnqm import synth
from brdfnqm.merl import Rgb, TabulatedBrdf, bin_centers, lookup
from brdfnqm.synth import (
    AnalyticBrdfParams,
    BrdfModel,
    DistortionKind,
    DistortionSpec,
)

from conftest import reference_halfdiff_to_io_arrays, sph_to_cart

SMALL = (16, 16, 32)


def _ggx_params(**kw):
    base = dict(
        model=BrdfModel.GGX_MICROFACET,
        diffuse=Rgb(0.2, 0.3, 0.25),
        specular=Rgb(0.7, 0.7, 0.7),
        roughness=0.25,
    )
    base.update(kw)
    return AnalyticBrdfParams(**base)


def test_param_validation():
    with pytest.raises(ValueError):
        AnalyticBrdfParams(model=BrdfModel.LAMBERT, diffuse=Rgb(1.2, 0, 0))
    with pytest.raises(ValueError):
        AnalyticBrdfParams(model=BrdfModel.LAMBERT, diffuse=Rgb(0.5, 0.5, 0.5), roughness=0.0)
    with pytest.raises(ValueError):
        DistortionSpec(DistortionKind.GAUSSIAN_NOISE, -0.1)


def test_lambert_bins_are_albedo_over_pi(lambert_table):
    valid = ~lambert_table.invalid_mask()
    for c in range(3):
        vals = lambert_table.values[c][valid]
        np.testing.assert_allclose(vals, 0.5 / math.pi, rtol=1e-12)


def test_lambert_white_sky_albedo_quadrature(lambert_table):
    """Integrating rho * cos(theta_i) over the hemisphere (fixed wo = normal)
    recovers the diffuse albedo."""
    n = 256
    theta = (np.arange(n) + 0.5) / n * (math.pi / 2)
    phi = (np.arange(n) + 0.5) / n * (2 * math.pi)
    TH, PH = np.meshgrid(theta, phi, indexing="ij")
    # wo at the pole: theta_h = theta_i/2, theta_d = theta_i/2, phi_d free
    th = TH.ravel() / 2
    td = TH.ravel() / 2
    pd = np.zeros_like(th)
    vals = lookup(lambert_table, th, td, pd)
    integrand = vals[:, 0] * np.cos(TH.ravel()) * np.sin(TH.ravel())
    dA = (math.pi / 2 / n) * (2 * math.pi / n)
    albedo = float(np.sum(integrand) * dA)
    assert albedo == pytest.approx(0.5, rel=0.02)


def _head_on(params):
    """wi = wo = h = normal: every cosine is 1."""
    one = np.ones(1)
    return synth._eval_analytic(params, one, one, one, one)[0]


def test_ggx_matches_handwritten_formula():
    params = _ggx_params()
    out = _head_on(params)
    a2 = 0.25**4
    d = a2 / (math.pi * (1 * (a2 - 1) + 1) ** 2)
    g1 = 2.0 / (1.0 + math.sqrt(a2 + (1 - a2)))
    lobe = d * g1 * g1 / 4.0
    expected = np.array([0.2, 0.3, 0.25]) / math.pi + 0.7 * lobe
    np.testing.assert_allclose(out, expected, rtol=1e-12)


def test_ggx_fresnel_rises_toward_grazing():
    params = _ggx_params()
    # wi and wo at 80 degrees on either side of h = normal
    c = np.array([math.cos(math.radians(80))])
    grazing = synth._eval_analytic(params, c, c, np.ones(1), c)[0, 0]
    head_on = _head_on(params)[0]
    # same half vector: the Schlick term and the 1 / (cos_i cos_o) factor
    # outgrow the Smith masking at this roughness
    assert grazing > head_on


def test_blinn_phong_peak_value():
    params = AnalyticBrdfParams(
        model=BrdfModel.BLINN_PHONG,
        diffuse=Rgb(0.1, 0.1, 0.1),
        specular=Rgb(0.5, 0.5, 0.5),
        roughness=0.3,
    )
    out = _head_on(params)
    e = 2.0 / 0.3**2 - 2.0
    expected = 0.1 / math.pi + 0.5 * (e + 2.0) / (2.0 * math.pi)
    np.testing.assert_allclose(out, expected, rtol=1e-12)


def test_tabulate_marks_below_horizon_invalid(ggx_table):
    mask = ggx_table.invalid_mask()
    assert mask.any(), "expected some below-horizon bins at this resolution"
    th, td, pd = bin_centers(ggx_table.resolution)
    # the most grazing corner (max theta_h, max theta_d) must be invalid
    assert mask[-1, -1].any()
    # the head-on corner must be valid
    assert not mask[0, 0, 0]
    # sentinel value is uniform across channels
    assert np.all(ggx_table.values[:, mask] == synth.INVALID_SENTINEL)


@pytest.mark.parametrize(
    "kind",
    [DistortionKind.GAUSSIAN_NOISE, DistortionKind.SPECULAR_SCALE,
     DistortionKind.DIFFUSE_TINT, DistortionKind.ROUGHNESS_SHIFT],
)
def test_distort_zero_magnitude_is_identity(ggx_table, kind):
    out = synth.distort(ggx_table, DistortionSpec(kind, 0.0, seed=5))
    np.testing.assert_array_equal(out.values, ggx_table.values)


@pytest.mark.parametrize(
    "kind",
    [DistortionKind.GAUSSIAN_NOISE, DistortionKind.SPECULAR_SCALE,
     DistortionKind.DIFFUSE_TINT, DistortionKind.ROUGHNESS_SHIFT],
)
def test_distort_preserves_sentinels_and_nonnegativity(ggx_table, kind):
    out = synth.distort(ggx_table, DistortionSpec(kind, 0.4, seed=5))
    mask = ggx_table.invalid_mask()
    np.testing.assert_array_equal(out.values[:, mask], ggx_table.values[:, mask])
    assert np.all(out.values[:, ~mask] >= 0.0)
    assert out.resolution == ggx_table.resolution


def test_noise_is_deterministic_in_seed(ggx_table):
    a = synth.distort(ggx_table, DistortionSpec(DistortionKind.GAUSSIAN_NOISE, 0.05, seed=9))
    b = synth.distort(ggx_table, DistortionSpec(DistortionKind.GAUSSIAN_NOISE, 0.05, seed=9))
    c = synth.distort(ggx_table, DistortionSpec(DistortionKind.GAUSSIAN_NOISE, 0.05, seed=10))
    np.testing.assert_array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_specular_scale_grows_peak_keeps_floor(ggx_table):
    out = synth.distort(ggx_table, DistortionSpec(DistortionKind.SPECULAR_SCALE, 0.5))
    valid = ~ggx_table.invalid_mask()
    for c in range(3):
        before = ggx_table.values[c][valid]
        after = out.values[c][valid]
        base = before.min()
        np.testing.assert_allclose(after, base + 1.5 * (before - base), rtol=1e-12)


def test_diffuse_tint_shifts_red_blue_ratio(ggx_table):
    out = synth.distort(ggx_table, DistortionSpec(DistortionKind.DIFFUSE_TINT, 0.2))
    valid = ~ggx_table.invalid_mask()
    np.testing.assert_allclose(out.values[0][valid], ggx_table.values[0][valid] * 1.2, rtol=1e-12)
    np.testing.assert_allclose(out.values[1][valid], ggx_table.values[1][valid], rtol=1e-12)
    np.testing.assert_allclose(out.values[2][valid], ggx_table.values[2][valid] / 1.2, rtol=1e-12)


def test_roughness_shift_flattens_specular_ridge(ggx_table):
    out = synth.distort(ggx_table, DistortionSpec(DistortionKind.ROUGHNESS_SHIFT, 0.3))
    valid = ~ggx_table.invalid_mask()
    # blurring along theta_h lowers the maximum of the sharp lobe
    assert out.values[1][valid].max() < ggx_table.values[1][valid].max()


def test_severity_scale_per_kind():
    levels = [
        DistortionSpec(DistortionKind.GAUSSIAN_NOISE, 0.1),
        DistortionSpec(DistortionKind.GAUSSIAN_NOISE, 0.4),
        DistortionSpec(DistortionKind.DIFFUSE_TINT, 0.2),
    ]
    scale = synth.severity_scale(levels)
    assert scale[DistortionKind.GAUSSIAN_NOISE] == 0.4
    assert scale[DistortionKind.DIFFUSE_TINT] == 0.2


def test_gen_dataset_shape_severity_and_determinism():
    levels = [
        DistortionSpec(DistortionKind.SPECULAR_SCALE, 0.1),
        DistortionSpec(DistortionKind.SPECULAR_SCALE, 0.3),
        DistortionSpec(DistortionKind.SPECULAR_SCALE, 0.6),
    ]
    ds1 = list(synth.iter_dataset(2, levels, seed=4, res=SMALL))
    ds2 = list(synth.iter_dataset(2, levels, seed=4, res=SMALL))
    assert len(ds1) == 6
    sev = [s for _, _, s in ds1[:3]]
    assert sev == pytest.approx([0.1 / 0.6, 0.3 / 0.6, 1.0])
    for (r1, d1, s1), (r2, d2, s2) in zip(ds1, ds2):
        np.testing.assert_array_equal(r1.values, r2.values)
        np.testing.assert_array_equal(d1.values, d2.values)
        assert s1 == s2


def test_dataset_references_equal_standalone_tabulate():
    """iter_dataset shares one bin geometry between its materials; each
    reference is still bit for bit what tabulate builds on its own."""
    levels = [DistortionSpec(DistortionKind.DIFFUSE_TINT, 0.2)]
    for model in BrdfModel:
        rng = np.random.default_rng(11)
        refs = [ref for ref, _, _ in synth.iter_dataset(3, levels, seed=11, res=SMALL, model=model)]
        for i, ref in enumerate(refs):
            alone = synth.tabulate(synth.random_params(rng, model=model), res=SMALL, name=f"mat{i:03d}")
            assert ref.name == alone.name
            assert ref.values.tobytes() == alone.values.tobytes()


def test_gen_dataset_validates_arguments():
    with pytest.raises(ValueError):
        list(synth.iter_dataset(0, [DistortionSpec(DistortionKind.DIFFUSE_TINT, 0.1)], seed=0))
    with pytest.raises(ValueError):
        list(synth.iter_dataset(1, [], seed=0))


def test_random_params_in_documented_ranges():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = synth.random_params(rng)
        assert all(0.05 <= c <= 0.6 for c in p.diffuse.as_array())
        assert 0.02 <= p.specular.r <= 0.9
        assert p.specular.r == p.specular.g == p.specular.b
        assert 0.1 <= p.roughness <= 0.7


def test_noise_stream_is_keyed_by_seed_material_level():
    """Each pair's noise comes from default_rng((seed, material, level)), so
    the draw below is the same on every Python build."""
    levels = [
        DistortionSpec(DistortionKind.GAUSSIAN_NOISE, 0.01),
        DistortionSpec(DistortionKind.GAUSSIAN_NOISE, 0.02),
    ]
    ref, dist, _ = list(synth.iter_dataset(2, levels, seed=5, res=SMALL))[3]  # material 1, level 1
    noise = np.random.default_rng((5, 1, 1)).normal(0.0, 0.02, size=ref.values.shape)
    kept = (ref.values + noise > 0.0) & ~ref.invalid_mask()[None]
    np.testing.assert_allclose((dist.values - ref.values)[kept], noise[kept], rtol=0, atol=1e-12)
    assert dist.values[1, 0, 0, 0] - ref.values[1, 0, 0, 0] == pytest.approx(-0.030220563344388243, abs=1e-12)


# Reference kernels: the (n, 3) cartesian geometry chain, the row-major model
# evaluation and the boolean-index distortions that synth's one-pass kernels
# replace. Every floating-point operation is the same, so results match bit
# for bit.


def _reference_bin_geometry(res):
    th, td, pd = bin_centers(res)
    TH, TD, PD = np.meshgrid(th, td, pd, indexing="ij")
    ti, pi_, to, po = reference_halfdiff_to_io_arrays(TH.ravel(), TD.ravel(), PD.ravel())
    wi = sph_to_cart(ti, pi_)
    wo = sph_to_cart(to, po)
    h = sph_to_cart(TH.ravel(), np.zeros_like(TH.ravel()))
    cos_i, cos_o = wi[..., 2], wo[..., 2]
    below = (cos_i <= 1e-9) | (cos_o <= 1e-9)
    return cos_i, cos_o, h[..., 2], np.sum(wi * h, axis=-1), below


def _reference_tabulate(params, res):
    cos_i, cos_o, cos_h, cos_hi, below = _reference_bin_geometry(res)
    out = np.broadcast_to(params.diffuse.as_array() / math.pi, (cos_i.size, 3)).copy()
    spec = params.specular.as_array()
    n_h = np.clip(cos_h, 0.0, 1.0)
    if params.model is BrdfModel.BLINN_PHONG:
        exponent = 2.0 / params.roughness**2 - 2.0
        out += spec * ((exponent + 2.0) / (2.0 * math.pi) * n_h**exponent)[..., None]
    elif params.model is BrdfModel.GGX_MICROFACET:
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


def _reference_distort(brdf, spec):
    invalid = brdf.invalid_mask()
    valid = ~invalid
    out = brdf.values.copy()
    m = spec.magnitude
    if spec.kind is DistortionKind.GAUSSIAN_NOISE and m > 0.0:
        out = out + np.random.default_rng(spec.seed).normal(0.0, m, size=out.shape)
    elif spec.kind is DistortionKind.SPECULAR_SCALE and m > 0.0:
        for c in range(3):
            ch = out[c]
            if np.any(valid):
                base = ch[valid].min()
                ch[valid] = base + (1.0 + m) * (ch[valid] - base)
    elif spec.kind is DistortionKind.DIFFUSE_TINT:
        out[0][valid] *= 1.0 + m
        out[2][valid] /= 1.0 + m
    elif spec.kind is DistortionKind.ROUGHNESS_SHIFT and m > 0.0:
        from scipy.ndimage import gaussian_filter1d

        filled = np.where(invalid[None, ...], 0.0, out)
        out = gaussian_filter1d(filled, sigma=m * brdf.res_theta_h, axis=1, mode="nearest")
    out = np.maximum(out, 0.0)
    out[:, invalid] = brdf.values[:, invalid]
    return out


def test_bin_geometry_matches_cartesian_reference():
    for res in (SMALL, (12, 8, 16), (45, 45, 90)):
        got = synth._bin_geometry(res)
        want = _reference_bin_geometry(res)
        assert len(got) == len(want) == 5
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert a.tobytes() == np.ascontiguousarray(b).tobytes()


@pytest.mark.parametrize("model", list(BrdfModel))
def test_tabulate_matches_row_major_reference(model):
    params = synth.random_params(np.random.default_rng(2), model=model)
    table = synth.tabulate(params, res=SMALL)
    assert table.values.flags.c_contiguous
    assert table.invalid_mask().any()
    assert table.values.tobytes() == _reference_tabulate(params, SMALL).tobytes()


@pytest.mark.parametrize("magnitude", [0.0, 0.3])
@pytest.mark.parametrize("kind", list(DistortionKind))
def test_distort_matches_boolean_index_reference(ggx_table, kind, magnitude):
    assert ggx_table.invalid_mask().any()
    spec = DistortionSpec(kind, magnitude, seed=(3, 1, 4))
    out = synth.distort(ggx_table, spec)
    assert out.values.tobytes() == _reference_distort(ggx_table, spec).tobytes()


@pytest.mark.parametrize("kind", list(DistortionKind))
def test_distort_without_valid_bins_matches_reference(kind):
    table = TabulatedBrdf(name="void", values=np.full((3, 4, 4, 8), synth.INVALID_SENTINEL))
    spec = DistortionSpec(kind, 0.3, seed=1)
    out = synth.distort(table, spec)
    assert out.values.tobytes() == _reference_distort(table, spec).tobytes() == table.values.tobytes()

