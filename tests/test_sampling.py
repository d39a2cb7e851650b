import math

import numpy as np
import pytest

from brdfnqm import sampling, synth
from brdfnqm.errors import InsufficientCandidatesError, PairingError
from brdfnqm.merl import Rgb, lookup
from brdfnqm.sampling import (
    DEFAULT_GRID,
    DEFAULT_K,
    GRAZING_LIMIT,
    LUMA_WEIGHTS,
    DirectionSet,
    SampledBrdf,
    build_candidate_grid,
    check_paired,
    filter_grazing,
    sample_brdf,
    select_samples,
)

from conftest import tiny_direction_set


def test_default_constants():
    assert DEFAULT_K == 500
    assert DEFAULT_GRID == (32, 16, 16)
    assert GRAZING_LIMIT == pytest.approx(math.radians(75.0))


def test_candidate_grid_shape_and_ranges():
    g = build_candidate_grid(8, 5, 6)
    assert g.shape == (8 * 5 * 6, 3)
    th = np.unique(g[:, 0])
    td = np.unique(g[:, 1])
    pd = np.unique(g[:, 2])
    # theta_h quadratic warp: th(i) = (pi/2) * (i/(n-1))^2
    np.testing.assert_allclose(th, math.pi / 2 * (np.arange(8) / 7) ** 2)
    np.testing.assert_allclose(td, np.linspace(0, GRAZING_LIMIT, 5))
    np.testing.assert_allclose(pd, np.arange(6) / 6 * math.pi)


def test_candidate_grid_rejects_tiny_axes():
    with pytest.raises(ValueError):
        build_candidate_grid(1, 4, 4)


def test_filter_grazing_against_reconstruction_oracle():
    g = build_candidate_grid(12, 8, 8)
    kept = filter_grazing(g)
    assert 0 < len(kept) < len(g)
    # oracle: reconstruct each kept candidate independently and check both
    # elevations; and verify at least one rejected candidate violates
    from brdfnqm.geometry import halfdiff_to_io_arrays

    ti, _, to, _ = halfdiff_to_io_arrays(kept[:, 0], kept[:, 1], kept[:, 2])
    assert np.all(ti < GRAZING_LIMIT + 1e-12)
    assert np.all(to < GRAZING_LIMIT + 1e-12)
    kept_set = {tuple(row) for row in np.round(kept, 12)}
    dropped = [row for row in g if tuple(np.round(row, 12)) not in kept_set]
    ti, _, to, _ = halfdiff_to_io_arrays(
        np.array([r[0] for r in dropped]),
        np.array([r[1] for r in dropped]),
        np.array([r[2] for r in dropped]),
    )
    assert np.all(np.maximum(ti, to) >= GRAZING_LIMIT - 1e-9)


def test_select_constant_table_takes_canonical_topk(lambert_table):
    g = build_candidate_grid(10, 6, 6)
    ds = select_samples(lambert_table, g, k=20, seed=0)
    # constant luminance: one stratum, top-k falls back to canonical order,
    # i.e. the first 20 surviving candidates in (th, td, pd) lexsort
    surv = np.unique(filter_grazing(g), axis=0)
    order = np.lexsort((surv[:, 2], surv[:, 1], surv[:, 0]))
    expected = surv[order][:20]
    np.testing.assert_allclose(ds.angles(), expected)


def test_select_samples_properties(ggx_table):
    g = build_candidate_grid(16, 10, 10)
    ds = select_samples(ggx_table, g, k=100, seed=7)
    assert ds.k == 100
    a = ds.angles()
    # canonical sort and uniqueness
    assert len(np.unique(a, axis=0)) == 100
    keys = [tuple(r) for r in a]
    assert keys == sorted(keys)
    # every selected direction passes the grazing filter
    assert np.all(ds.cos_wi > math.cos(GRAZING_LIMIT))
    assert np.all(ds.cos_wo > math.cos(GRAZING_LIMIT))
    assert ds.source_material == ggx_table.name


def test_select_samples_favors_bright_candidates(ggx_table):
    g = build_candidate_grid(16, 10, 10)
    ds = select_samples(ggx_table, g, k=60, seed=0)
    surv = np.unique(filter_grazing(g), axis=0)
    vals_all = lookup(ggx_table, surv[:, 0], surv[:, 1], surv[:, 2])
    lum_all = vals_all @ LUMA_WEIGHTS
    sel_vals = lookup(ggx_table, ds.theta_h, ds.theta_d, ds.phi_d)
    lum_sel = sel_vals @ LUMA_WEIGHTS
    assert lum_sel.mean() > lum_all.mean()


def test_select_samples_deterministic(ggx_table):
    g = build_candidate_grid(16, 10, 10)
    a = select_samples(ggx_table, g, k=80, seed=1)
    b = select_samples(ggx_table, g, k=80, seed=1)
    np.testing.assert_array_equal(a.angles(), b.angles())


def test_insufficient_candidates(lambert_table):
    g = build_candidate_grid(4, 3, 3)
    with pytest.raises(InsufficientCandidatesError):
        select_samples(lambert_table, g, k=5000)


@pytest.mark.parametrize("k", [0, -3])
def test_select_samples_rejects_nonpositive_k(lambert_table, k):
    with pytest.raises(ValueError, match="k must be >= 1"):
        select_samples(lambert_table, build_candidate_grid(4, 3, 3), k=k)


def test_allocate_quotas_sums_and_floors():
    q = sampling._allocate_quotas(np.array([0.7, 0.2, 0.1]), [100, 100, 100], 50)
    assert sum(q) == 50
    assert all(v >= 1 for v in q)
    assert q[0] > q[1] > q[2]
    # capacity caps respected
    q = sampling._allocate_quotas(np.array([0.9, 0.1]), [3, 100], 50)
    assert q[0] == 3 and q[1] == 47


def test_sample_brdf_matches_lookup(ggx_table):
    ds = tiny_direction_set(k=6, seed=2)
    s = sample_brdf(ggx_table, ds)
    vals = lookup(ggx_table, ds.theta_h, ds.theta_d, ds.phi_d)
    np.testing.assert_array_equal(s.values, vals)
    assert s.directions is ds


def test_sampled_brdf_shape_validation():
    ds = tiny_direction_set(k=4)
    with pytest.raises(ValueError):
        SampledBrdf(values=np.zeros((5, 3)), directions=ds)


def test_check_paired_accepts_shared_and_equal_sets():
    ds = tiny_direction_set(k=4, seed=0)
    a = SampledBrdf(values=np.zeros((4, 3)), directions=ds)
    b = SampledBrdf(values=np.ones((4, 3)), directions=ds)
    check_paired(a, b)  # identity
    ds2 = tiny_direction_set(k=4, seed=0)
    c = SampledBrdf(values=np.ones((4, 3)), directions=ds2)
    check_paired(a, c)  # equal arrays


def test_check_paired_rejects_mismatched_sets():
    a = SampledBrdf(values=np.zeros((4, 3)), directions=tiny_direction_set(k=4, seed=0))
    b = SampledBrdf(values=np.zeros((4, 3)), directions=tiny_direction_set(k=4, seed=5))
    with pytest.raises(PairingError):
        check_paired(a, b)


def test_default_pipeline_yields_500_samples(ggx_table):
    g = build_candidate_grid()
    ds = select_samples(ggx_table, g, k=DEFAULT_K, seed=0)
    assert ds.k == 500
    ref = sample_brdf(ggx_table, ds)
    dist = sample_brdf(
        synth.distort(ggx_table, synth.DistortionSpec(synth.DistortionKind.DIFFUSE_TINT, 0.1)),
        ds,
    )
    check_paired(ref, dist)
    assert ref.values.shape == (500, 3)
