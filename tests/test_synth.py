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

from conftest import reference_bin_geometry, reference_tabulate

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


def _eval_one(params, cos_i, cos_o, cos_h, cos_hi):
    """The three channels of one direction pair."""
    out = np.empty((3, 1))
    synth._eval_analytic(params, *(np.array([c]) for c in (cos_i, cos_o, cos_h, cos_hi)), out)
    return out[:, 0]


def _head_on(params):
    """wi = wo = h = normal: every cosine is 1."""
    return _eval_one(params, 1.0, 1.0, 1.0, 1.0)


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
    c = math.cos(math.radians(80))
    grazing = _eval_one(params, c, c, 1.0, c)[0]
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


def test_rough_blur_radius_bound():
    """A blur radius int(4 m n_th + 0.5) up to the bound is built; one bin
    past it is a ValueError naming the level, from distort and, before any
    table is built, from iter_dataset."""
    table = synth.tabulate(_ggx_params(), res=(12, 8, 16))
    bound = synth._MAX_BLUR_RADIUS
    at = synth.distort(table, DistortionSpec(DistortionKind.ROUGHNESS_SHIFT, bound / 48))
    assert np.all(at.values[:, ~table.invalid_mask()] >= 0.0)
    past = DistortionSpec(DistortionKind.ROUGHNESS_SHIFT, (bound + 1) / 48)
    with pytest.raises(ValueError, match=f"rough:{past.magnitude:g} "):
        synth.distort(table, past)
    with pytest.raises(ValueError, match=f"rough:{past.magnitude:g} "):
        synth.iter_dataset(1, [past], seed=0, res=(12, 8, 16))


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


# Reference kernels: the boolean-index distortions that synth's one-pass
# kernels replace (the geometry and model references are in conftest). Every
# floating-point operation is the same, so results match bit for bit.


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
        want = reference_bin_geometry(res)
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
    assert table.values.tobytes() == reference_tabulate(params, SMALL).tobytes()


@pytest.mark.parametrize("res", [(7, 5, 3), (12, 8, 16), (45, 45, 90)], ids=["7x5x3", "12x8x16", "45x45x90"])
@pytest.mark.parametrize("model", list(BrdfModel))
def test_tabulate_blocks_match_whole_table_reference(model, res):
    """tabulate's blocks give the bytes of one whole-table pass, at bin
    counts below one block and across several blocks and a partial one."""
    assert math.prod(res) % synth._BLOCK != 0
    assert 45 * 45 * 90 > 2 * synth._BLOCK
    params = synth.random_params(np.random.default_rng(5), model=model)
    table = synth.tabulate(params, res=res)
    assert table.invalid_mask().any()
    assert table.values.tobytes() == reference_tabulate(params, res).tobytes()


@pytest.mark.parametrize("magnitude", [0.0, 0.3])
@pytest.mark.parametrize("kind", list(DistortionKind))
def test_distort_matches_boolean_index_reference(ggx_table, kind, magnitude):
    assert ggx_table.invalid_mask().any()
    spec = DistortionSpec(kind, magnitude, seed=(3, 1, 4))
    out = synth.distort(ggx_table, spec)
    want = _reference_distort(ggx_table, spec)
    if kind is DistortionKind.ROUGHNESS_SHIFT and magnitude > 0.0:
        # the blur is a matrix product, not scipy's tap loop: equal to rounding
        np.testing.assert_allclose(out.values, want, rtol=1e-14, atol=0.0)
    else:
        assert out.values.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, sigma", [
    (90, 0.4),  # below one bin: radius 2
    (90, 2.0),  # about two bins: radius 8
    (12, 5.0),  # radius 20, wider than the axis: every row reads both edges
    (1, 0.7),   # a single bin: every tap reads it
])
def test_blur_operator_matches_scipy_gaussian_filter1d(n, sigma):
    from scipy.ndimage import gaussian_filter1d

    # a specular-like column: values spanning six decades, so a misplaced
    # tail weight would show against the small values
    a = np.random.default_rng(n).uniform(0.0, 1.0, size=(n, 64)) ** 6 * 1e3
    want = gaussian_filter1d(a, sigma=sigma, axis=0, mode="nearest")
    got = synth._blur_operator(n, sigma) @ a
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("kind", list(DistortionKind))
def test_distort_without_valid_bins_matches_reference(kind):
    table = TabulatedBrdf(name="void", values=np.full((3, 4, 4, 8), synth.INVALID_SENTINEL))
    spec = DistortionSpec(kind, 0.3, seed=1)
    out = synth.distort(table, spec)
    assert out.values.tobytes() == _reference_distort(table, spec).tobytes() == table.values.tobytes()

