import math
import struct
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from brdfnqm import merl
from brdfnqm.errors import FormatError, TruncatedFileError
from brdfnqm.merl import CANONICAL_RES, CHANNEL_SCALES, TabulatedBrdf

from conftest import flip_bit


def _write_file(path, dims, raw):
    with open(path, "wb") as f:
        f.write(struct.pack("<3i", *dims))
        f.write(raw.astype("<f8").tobytes())


def test_theta_h_index_is_sqrt_warped():
    res = 90
    assert merl.theta_h_index(0.0, res) == 0
    assert merl.theta_h_index(math.pi / 2, res) == res - 1
    # a quarter of the angular range lands at half the index range
    assert merl.theta_h_index(math.radians(22.5), res) == int(math.sqrt(0.25) * res)


def test_linear_indices():
    assert merl.theta_d_index(0.0, 90) == 0
    assert merl.theta_d_index(math.pi / 2 * 0.999, 90) == 89
    assert merl.phi_d_index(0.0, 180) == 0
    assert merl.phi_d_index(math.pi * 0.999, 180) == 179


def test_channel_scales_are_documented_constants():
    assert CHANNEL_SCALES == pytest.approx((1.0 / 1500, 1.15 / 1500, 1.66 / 1500))


def test_load_roundtrip_is_byte_exact(tmp_path):
    rng = np.random.default_rng(7)
    dims = (90, 90, 180)
    n = dims[0] * dims[1] * dims[2]
    raw = rng.uniform(0.0, 3.0, size=3 * n)
    raw[rng.choice(3 * n, size=500, replace=False)] = -1.0
    p = tmp_path / "mat.binary"
    _write_file(p, dims, raw)
    original = p.read_bytes()

    brdf = merl.load_merl(p, name="mat")
    out = tmp_path / "copy.binary"
    merl.save_merl(brdf, out)
    assert out.read_bytes() == original


def test_save_over_the_file_a_table_maps_keeps_its_bytes(tmp_path):
    """A loaded table maps its file; saving it back to that very path must
    not truncate the pages it is about to write from."""
    raw = np.random.default_rng(2).uniform(-0.5, 3.0, size=3 * 4 * 4 * 8)
    p = tmp_path / "self.binary"
    _write_file(p, (4, 4, 8), raw)
    original = p.read_bytes()
    merl.save_merl(merl.load_merl(p), p)
    assert p.read_bytes() == original


def test_lookup_on_a_loaded_table_equals_lookup_on_its_dense_values(tmp_path):
    dims = (6, 5, 8)
    raw = np.random.default_rng(4).uniform(0.0, 3.0, size=3 * 6 * 5 * 8)
    raw[::11] = -1.0
    p = tmp_path / "dense.binary"
    _write_file(p, dims, raw)
    loaded = merl.load_merl(p)
    dense = TabulatedBrdf(name="dense", values=np.array(loaded.values))
    assert dense.raw is None and not loaded.values.flags.writeable
    rng = np.random.default_rng(5)
    angles = rng.uniform(0.0, 1.0, size=(3, 7, 40)) * np.array([math.pi / 2, math.pi / 2, math.pi])[:, None, None]
    got = merl.lookup(loaded, *angles)
    assert got.shape == (7, 40, 3)
    assert got.tobytes() == merl.lookup(dense, *angles).tobytes()
    assert (got == 0.0).all(axis=-1).any()  # some sentinel bins were read


def test_invalid_entries_keep_sentinel_and_read_as_zero(tmp_path):
    dims = (2, 2, 4)
    n = dims[0] * dims[1] * dims[2]
    raw = np.ones(3 * n)
    raw[0] = -1.0
    p = tmp_path / "x.binary"
    _write_file(p, dims, raw)
    brdf = merl.load_merl(p, name="x")
    assert brdf.values[0, 0, 0, 0] == -1.0  # sentinel preserved in memory
    mask = brdf.invalid_mask()
    assert mask[0, 0, 0] and not mask[0, 0, 1]
    th, td, pd = merl.bin_centers(dims)
    vals = merl.lookup(brdf, np.array([0.0]), np.array([0.0]), np.array([0.0]))
    assert np.all(vals[0] == 0.0)  # one negative channel zeroes all three


def test_layout_channel_major_phi_d_innermost(tmp_path):
    dims = (2, 3, 4)
    n = dims[0] * dims[1] * dims[2]
    raw = np.arange(3 * n, dtype=float)
    p = tmp_path / "layout.binary"
    _write_file(p, dims, raw)
    brdf = merl.load_merl(p, name="layout")
    # element (channel c, th i, td j, pd k) sits at raw offset
    # c*n + i*(n_td*n_pd) + j*n_pd + k, scaled by the per-channel factor
    for c, i, j, k in [(0, 0, 0, 0), (1, 1, 2, 3), (2, 0, 1, 2), (0, 1, 0, 3)]:
        flat = c * n + i * 12 + j * 4 + k
        assert brdf.values[c, i, j, k] == pytest.approx(raw[flat] * CHANNEL_SCALES[c])


def test_truncated_file_raises(tmp_path):
    p = tmp_path / "short.binary"
    with open(p, "wb") as f:
        f.write(struct.pack("<3i", *CANONICAL_RES))
        f.write(b"\x00" * 100)
    with pytest.raises(TruncatedFileError):
        merl.load_merl(p, name="short")


def test_short_header_raises(tmp_path):
    p = tmp_path / "stub.binary"
    p.write_bytes(b"\x01\x02")
    with pytest.raises(TruncatedFileError):
        merl.load_merl(p, name="stub")


def test_garbage_header_raises(tmp_path):
    p = tmp_path / "bad.binary"
    p.write_bytes(struct.pack("<3i", -5, 0, 7) + b"\x00" * 64)
    with pytest.raises(FormatError):
        merl.load_merl(p, name="bad")


def test_trailing_bytes_raise(tmp_path):
    dims = (2, 2, 2)
    n = 3 * 8
    p = tmp_path / "extra.binary"
    with open(p, "wb") as f:
        f.write(struct.pack("<3i", *dims))
        f.write(np.zeros(n).astype("<f8").tobytes())
        f.write(b"\x00")
    with pytest.raises(FormatError):
        merl.load_merl(p, name="extra")


def test_header_claiming_more_than_the_file_holds_raises_before_allocating(tmp_path):
    # 2^20 x 90 x 180 bins would be a 407 GB payload; the file holds 64 bytes
    p = tmp_path / "liar.binary"
    p.write_bytes(struct.pack("<3i", 2**20, 90, 180) + b"\x00" * 64)
    with pytest.raises(TruncatedFileError, match="got 64"):
        merl.load_merl(p, name="liar")


def test_strict_resolution(tmp_path):
    dims = (4, 4, 8)
    n = dims[0] * dims[1] * dims[2]
    p = tmp_path / "small.binary"
    _write_file(p, dims, np.zeros(3 * n))
    brdf = merl.load_merl(p, name="small")
    assert brdf.resolution == dims


def test_lookup_matches_index_arithmetic(ggx_table):
    rng = np.random.default_rng(3)
    k = 200
    th = rng.uniform(0, math.pi / 2 * 0.999, k)
    td = rng.uniform(0, math.pi / 2 * 0.999, k)
    pd = rng.uniform(0, math.pi * 0.999, k)
    vals = merl.lookup(ggx_table, th, td, pd)
    rth, rtd, rpd = ggx_table.resolution
    for s in range(k):
        i = min(int(math.sqrt(th[s] / (math.pi / 2)) * rth), rth - 1)
        j = min(int(td[s] / (math.pi / 2) * rtd), rtd - 1)
        kk = min(int(pd[s] / math.pi * rpd), rpd - 1)
        bin_vals = ggx_table.values[:, i, j, kk]
        if np.any(bin_vals < 0.0):
            assert np.all(vals[s] == 0.0)
        else:
            np.testing.assert_array_equal(vals[s], bin_vals)


def test_bin_centers_shapes_and_monotonicity(lambert_table):
    th, td, pd = merl.bin_centers(lambert_table.resolution)
    assert len(th) == lambert_table.resolution[0]
    assert len(td) == lambert_table.resolution[1]
    assert len(pd) == lambert_table.resolution[2]
    for arr, hi in [(th, math.pi / 2), (td, math.pi / 2), (pd, math.pi)]:
        assert np.all(np.diff(arr) > 0)
        assert arr[0] >= 0 and arr[-1] <= hi


def test_bin_centers_index_consistency():
    # every bin center indexes back into its own bin
    res = (90, 90, 180)
    th, td, pd = merl.bin_centers(res)
    np.testing.assert_array_equal(merl.theta_h_index(th, res[0]), np.arange(res[0]))
    np.testing.assert_array_equal(merl.theta_d_index(td, res[1]), np.arange(res[1]))
    np.testing.assert_array_equal(merl.phi_d_index(pd, res[2]), np.arange(res[2]))


def test_bad_table_shape_rejected():
    with pytest.raises(ValueError):
        TabulatedBrdf(name="bad", values=np.zeros((3, 2, 2)))
    with pytest.raises(ValueError):
        TabulatedBrdf(name="bad", values=np.zeros((2, 2, 2, 2)))


def test_save_load_save_is_byte_identical_on_special_payloads(tmp_path):
    tiny, big = np.finfo(float).smallest_subnormal, np.finfo(float).max
    special = [-1.0, -0.0, 0.0, tiny, -tiny, 1e-310, big, -big]
    dims = (2, 2, 2)
    raw = np.resize(special, 3 * 8)
    p = tmp_path / "special.binary"
    _write_file(p, dims, raw)
    loaded = merl.load_merl(p)
    merl.save_merl(loaded, tmp_path / "a.binary")
    merl.save_merl(merl.load_merl(tmp_path / "a.binary"), tmp_path / "b.binary")
    assert (tmp_path / "a.binary").read_bytes() == (tmp_path / "b.binary").read_bytes() == p.read_bytes()

    # a table without a loaded payload divides by the channel scales and
    # keeps negative sentinels, as the np.where reference does
    fresh = TabulatedBrdf(name="fresh", values=loaded.values.copy())
    merl.save_merl(fresh, tmp_path / "c.binary")
    scales = np.array(CHANNEL_SCALES).reshape(3, 1, 1, 1)
    with np.errstate(over="ignore"):  # -big / scale in the discarded branch
        expected = np.where(fresh.values < 0.0, fresh.values, fresh.values / scales)
    assert (tmp_path / "c.binary").read_bytes()[12:] == expected.astype("<f8").tobytes()
    merl.save_merl(merl.load_merl(tmp_path / "c.binary"), tmp_path / "d.binary")
    assert (tmp_path / "d.binary").read_bytes() == (tmp_path / "c.binary").read_bytes()


def _fuzz_seed_file() -> bytes:
    dims = (2, 3, 4)
    raw = np.random.default_rng(5).uniform(0.0, 3.0, size=3 * 24)
    raw[::7] = -1.0
    return struct.pack("<3i", *dims) + raw.astype("<f8").tobytes()


_FUZZ_SEED = _fuzz_seed_file()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.one_of(
    st.integers(0, len(_FUZZ_SEED) - 1).map(lambda cut: _FUZZ_SEED[:cut]),
    st.binary(min_size=1, max_size=64).map(lambda extra: _FUZZ_SEED + extra),
    st.integers(0, 8 * 12 - 1).map(partial(flip_bit, _FUZZ_SEED)),
    st.integers(8 * 12, 8 * len(_FUZZ_SEED) - 1).map(partial(flip_bit, _FUZZ_SEED)),
))
def test_damaged_file_loads_losslessly_or_raises_format_error(tmp_path, data):
    """Truncated, extended or bit-flipped: either a table whose re-save is the
    same bytes, or a FormatError (of any subclass), never another exception."""
    p = tmp_path / "fuzz.binary"
    p.write_bytes(data)
    try:
        brdf = merl.load_merl(p)
    except FormatError:
        return
    merl.save_merl(brdf, tmp_path / "resaved.binary")
    assert (tmp_path / "resaved.binary").read_bytes() == data


@pytest.mark.parametrize("value", [1e306, math.nan])
def test_save_refuses_a_payload_that_load_would_refuse(tmp_path, value):
    """1e306 overflows the calibration divide to inf; NaN stays NaN. Either
    is a FormatError naming the path, and no file is written."""
    p = tmp_path / "bad.binary"
    with pytest.raises(FormatError, match="bad.binary"):
        merl.save_merl(TabulatedBrdf(name="bad", values=np.full((3, 2, 2, 2), value)), p)
    assert not p.exists()
