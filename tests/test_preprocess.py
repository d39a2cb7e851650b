import math

import numpy as np
import pytest

from brdfnqm import nn
from brdfnqm import preprocess as pp
from brdfnqm.sampling import SampledBrdf

from conftest import make_pair, reference_pair_to_input, reference_transform, tiny_direction_set


def test_perceptual_transform_reference_points():
    # t(rho) = log(1 + rho^(1/3))
    assert pp.perceptual_transform(0.0) == 0.0
    assert pp.perceptual_transform(1.0) == pytest.approx(math.log(2.0), abs=1e-15)
    assert pp.perceptual_transform(8.0) == pytest.approx(math.log(3.0), abs=1e-15)
    got = pp.perceptual_transform(np.array([0.5, 27.0]))
    np.testing.assert_allclose(got, [math.log1p(0.5 ** (1 / 3)), math.log(4.0)], rtol=1e-14)


def test_perceptual_transform_monotone_and_compressive():
    x = np.linspace(0.0, 50.0, 400)
    t = pp.perceptual_transform(x)
    assert np.all(np.diff(t) > 0)
    # slope decreases: compresses large reflectance
    d = np.diff(t)
    assert np.all(np.diff(d) < 0)


def test_perceptual_transform_clamps_negative_to_zero():
    got = pp.perceptual_transform(np.array([-0.1, -3e38, -0.0, 0.0, 1.0], dtype=np.float32))
    assert got.dtype == np.float64
    assert got[:4].tolist() == [0.0, 0.0, 0.0, 0.0]
    assert got[4] == pytest.approx(math.log(2.0), abs=1e-15)


def test_compute_whitening_matches_manual_moments():
    ds1 = tiny_direction_set(k=5, seed=1)
    ds2 = tiny_direction_set(k=5, seed=2)
    rng = np.random.default_rng(0)
    a = SampledBrdf(values=rng.uniform(0, 3, (5, 3)), directions=ds1)
    b = SampledBrdf(values=rng.uniform(0, 3, (5, 3)), directions=ds2)
    stats = pp.compute_whitening([a, b])
    stacked = pp.perceptual_transform(np.concatenate([a.values, b.values]))
    np.testing.assert_allclose(stats.mean, stacked.mean(axis=0), rtol=1e-14)
    np.testing.assert_allclose(stats.std, stacked.std(axis=0), rtol=1e-14)  # population std


def test_compute_whitening_equals_moments_of_transformed_references():
    refs = [
        SampledBrdf(values=np.random.default_rng(s).uniform(-0.1, 3, (7, 3)), directions=tiny_direction_set(k=7, seed=s))
        for s in range(4)
    ]
    stats = pp.compute_whitening(refs)
    stacked = np.concatenate([reference_transform(r.values) for r in refs])
    np.testing.assert_array_equal(stats.mean, stacked.mean(axis=0))
    np.testing.assert_array_equal(stats.std, stacked.std(axis=0))


def test_whiten_normalizes_training_data():
    """The training references' own input rows come out with zero mean and unit std per channel."""
    ds = tiny_direction_set(k=50, seed=3)
    vals = np.random.default_rng(1).uniform(-0.5, 5, (50, 3))
    s = SampledBrdf(values=vals, directions=ds)
    stats = pp.compute_whitening([s])
    w = reference_pair_to_input(s, s, stats)[:150].reshape(50, 3)
    model = nn.init_model(seed=0, jod_min=0.0, jod_max=10.0, whitening=stats, input_dim=300, hidden=(4, 3, 2),
                          dtype=np.float64)
    assert nn.input_matrix(model, [(s, s)])[0, :150].tobytes() == w.tobytes()
    np.testing.assert_allclose(w.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(w.std(axis=0), 1.0, rtol=1e-12)


def test_whitening_std_floor_on_constant_channel():
    ds = tiny_direction_set(k=4, seed=0)
    s = SampledBrdf(values=np.full((4, 3), 2.0), directions=ds)
    stats = pp.compute_whitening([s])
    assert np.all(stats.std == pp.STD_FLOOR)


def test_whitening_stats_validation():
    with pytest.raises(ValueError):
        pp.WhiteningStats(mean=np.zeros(3), std=np.array([1.0, 0.0, 1.0]))


def test_augment_scale_scales_both_members_keeps_label():
    """One factor scales both members; the pair's label is the caller's to keep."""
    ref, dist = make_pair(seed=2)
    out_ref, out_dist = pp.augment_scale(ref, dist, seed=11)
    f = out_ref.values[0, 0] / ref.values[0, 0]
    assert 0.95 <= f <= 1.05
    np.testing.assert_allclose(out_ref.values, ref.values * f, rtol=1e-12)
    np.testing.assert_allclose(out_dist.values, dist.values * f, rtol=1e-12)
    assert out_ref.directions is ref.directions and out_dist.directions is dist.directions


def test_make_splits_holds_out_materials_and_splits_80_20():
    materials = [f"mat{m}" for m in range(10) for _ in range(10)]
    splits = pp.make_splits(materials, test_materials=["mat8", "mat9"], seed=0)
    assert len(splits) == 100 and set(splits) == {"train", "val", "test"}
    # exactly the test materials' pairs are held out
    assert [s == "test" for s in splits] == [m in {"mat8", "mat9"} for m in materials]
    assert splits.count("train") == round(0.8 * 80) == 64
    assert splits.count("val") == 16
    # deterministic in seed
    assert pp.make_splits(materials, test_materials=["mat8", "mat9"], seed=0) == splits
    assert pp.make_splits(materials, test_materials=["mat8", "mat9"], seed=1) != splits


def test_make_splits_rejects_absent_test_material_and_allows_empty():
    with pytest.raises(ValueError, match="'nosuch'"):
        pp.make_splits(["mat0", "mat1"], test_materials=["mat1", "nosuch"], seed=0)
    assert pp.make_splits([], test_materials=[], seed=0) == []
    assert pp.make_splits(["mat0"], test_materials=[], seed=0) == ["train"]


def test_severity_oracle_endpoints():
    assert pp.severity_oracle_jod(0.0) == 10.0
    assert pp.severity_oracle_jod(1.0) == 0.0
    assert pp.severity_oracle_jod(0.25) == pytest.approx(7.5)
    assert pp.severity_oracle_jod(2.0) == 0.0  # clipped
    with pytest.raises(ValueError):
        pp.severity_oracle_jod(float("nan"))
