import math

import numpy as np
import pytest

from brdfnqm import sampling, synth
from brdfnqm.errors import InsufficientCandidatesError, PairingError
from brdfnqm.geometry import halfdiff_to_io_arrays
from brdfnqm.merl import lookup
from brdfnqm.pairio import read_samples, write_samples
from brdfnqm.sampling import (
    DEFAULT_GRID,
    DEFAULT_K,
    GRAZING_LIMIT,
    LUMA_WEIGHTS,
    SampledBrdf,
    build_candidate_grid,
    check_paired,
    filter_grazing,
    sample_brdf,
    select_samples,
)

from conftest import full_candidate_grid, tiny_direction_set


def test_default_constants():
    assert DEFAULT_K == 500
    assert DEFAULT_GRID == (32, 16, 16)
    assert GRAZING_LIMIT == pytest.approx(math.radians(75.0))


def test_candidate_grid_shape_and_ranges():
    """The grid is the grazing-filtered cross product of its three axes, in
    canonical (theta_h, theta_d, phi_d) order with no repeats."""
    g = build_candidate_grid()
    full = full_candidate_grid()
    assert g.shape == (len(filter_grazing(full)), 3) and 0 < len(g) < len(full)
    np.testing.assert_array_equal(g, filter_grazing(full))
    np.testing.assert_array_equal(g, np.unique(g, axis=0))  # sorted and unique
    cos_i, cos_o = halfdiff_to_io_arrays(g[:, 0], g[:, 1], g[:, 2])
    assert np.all(np.minimum(cos_i, cos_o) > math.cos(GRAZING_LIMIT))


def test_filter_grazing_against_reconstruction_oracle():
    g = build_candidate_grid()
    full = full_candidate_grid()
    np.testing.assert_array_equal(filter_grazing(g), g)  # the filter keeps every row of the filtered grid
    kept = filter_grazing(full)
    assert 0 < len(kept) < len(full)
    # oracle: each kept candidate's cosines are above the limit's, and each
    # rejected candidate has one at or below it
    limit = math.cos(GRAZING_LIMIT)
    cos_i, cos_o = halfdiff_to_io_arrays(kept[:, 0], kept[:, 1], kept[:, 2])
    assert np.all(cos_i > limit - 1e-12)
    assert np.all(cos_o > limit - 1e-12)
    kept_set = {tuple(row) for row in np.round(kept, 12)}
    dropped = np.array([row for row in full if tuple(np.round(row, 12)) not in kept_set])
    assert len(dropped) == len(full) - len(kept)
    cos_i, cos_o = halfdiff_to_io_arrays(dropped[:, 0], dropped[:, 1], dropped[:, 2])
    assert np.all(np.minimum(cos_i, cos_o) <= limit + 1e-9)


def test_select_constant_table_takes_canonical_topk(lambert_table):
    g = build_candidate_grid()
    ds = select_samples(lambert_table, g, k=20, seed=0)
    # constant luminance: one stratum, top-k falls back to canonical order,
    # i.e. the first 20 rows of the grid, which is in (th, td, pd) order
    np.testing.assert_array_equal(ds.columns(), g[:20])


def test_select_samples_properties(ggx_table):
    g = build_candidate_grid()
    ds = select_samples(ggx_table, g, k=100, seed=7)
    assert ds.k == 100
    a = ds.columns()
    # canonical sort and uniqueness
    assert len(np.unique(a, axis=0)) == 100
    keys = [tuple(r) for r in a]
    assert keys == sorted(keys)
    # every selected direction passes the grazing filter
    assert np.all(ds.cos_wi > math.cos(GRAZING_LIMIT))
    assert np.all(ds.cos_wo > math.cos(GRAZING_LIMIT))
    assert ds.source_material == ggx_table.name


def test_select_samples_favors_bright_candidates(ggx_table):
    g = build_candidate_grid()
    ds = select_samples(ggx_table, g, k=60, seed=0)
    vals_all = lookup(ggx_table, g[:, 0], g[:, 1], g[:, 2])
    lum_all = vals_all @ LUMA_WEIGHTS
    sel_vals = lookup(ggx_table, ds.theta_h, ds.theta_d, ds.phi_d)
    lum_sel = sel_vals @ LUMA_WEIGHTS
    assert lum_sel.mean() > lum_all.mean()


def test_select_samples_deterministic(ggx_table):
    g = build_candidate_grid()
    a = select_samples(ggx_table, g, k=80, seed=1)
    b = select_samples(ggx_table, g, k=80, seed=1)
    np.testing.assert_array_equal(a.columns(), b.columns())


def test_insufficient_candidates(lambert_table):
    g = build_candidate_grid()
    with pytest.raises(InsufficientCandidatesError, match=f"{len(g)} candidates survive filtering, need {len(g) + 1}"):
        select_samples(lambert_table, g, k=len(g) + 1)


@pytest.mark.parametrize("k", [0, -3])
def test_select_samples_rejects_nonpositive_k(lambert_table, k):
    with pytest.raises(ValueError, match="k must be >= 1"):
        select_samples(lambert_table, build_candidate_grid(), k=k)


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


def test_cosines_are_a_function_of_the_angles(ggx_table, tmp_path):
    """A selected set and the set read_samples rebuilds from its file hold the
    same cosines bit for bit: the ones halfdiff_to_io_arrays gives for the
    set's angles."""
    ds = select_samples(ggx_table, build_candidate_grid(), k=100, seed=5)
    write_samples(tmp_path / "s.txt", sample_brdf(ggx_table, ds))
    back = read_samples(tmp_path / "s.txt").directions
    assert back is not ds
    cos_i, cos_o = halfdiff_to_io_arrays(ds.theta_h, ds.theta_d, ds.phi_d)
    for d in (ds, back):
        assert d.cos_wi.tobytes() == cos_i.tobytes()
        assert d.cos_wo.tobytes() == cos_o.tobytes()
        assert d.cos_wi is d.cos_wi and d.cos_wo is d.cos_wo  # computed once
        with pytest.raises(ValueError):
            d.cos_wi[0] = 1.0
        with pytest.raises(AttributeError):
            d.cos_wo = np.ones(d.k)


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
