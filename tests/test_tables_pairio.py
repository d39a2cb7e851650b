import tempfile
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from brdfnqm import pairio, tables
from brdfnqm.errors import FormatError, PairingError
from brdfnqm.sampling import DirectionSet, SampledBrdf

from conftest import flip_bit, tiny_direction_set


def test_table_roundtrip_bit_exact(tmp_path):
    rows = [["id0", 0.1 + 0.2, 1e-300], ["id1", -3.5, float(np.float64(7) / 3)]]
    p = tmp_path / "t.txt"
    tables.write_table(p, "demo", ["pair_id", "a", "b"], rows, meta={"seed": 7})
    meta, cols, out = tables.read_table(p, "demo")
    assert meta == {"seed": "7"}
    assert cols == ["pair_id", "a", "b"]
    for r_in, r_out in zip(rows, out):
        assert r_out[0] == r_in[0]
        assert float(r_out[1]) == r_in[1]  # repr round trips doubles exactly
        assert float(r_out[2]) == r_in[2]


def test_table_kind_and_version_checked(tmp_path):
    p = tmp_path / "t.txt"
    tables.write_table(p, "alpha", ["x"], [[1.0]])
    with pytest.raises(FormatError):
        tables.read_table(p, "beta")
    q = tmp_path / "v.txt"
    q.write_text("# brdfnqm-alpha v99\n# x\n1.0\n")
    with pytest.raises(FormatError):
        tables.read_table(q, "alpha")


def test_table_row_width_checked(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("# brdfnqm-alpha v1\n# x y\n1.0\n")
    with pytest.raises(FormatError):
        tables.read_table(p, "alpha")


def test_table_missing_header_checked(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("# brdfnqm-alpha v1\n")
    with pytest.raises(FormatError):
        tables.read_table(p, "alpha")


@pytest.mark.parametrize("reader", [tables.read_table, tables.read_numeric_table])
@pytest.mark.parametrize("text", [
    b"# brdfnqm-alpha v1\n# x y\n1.0\n",
    b"# brdfnqm-alpha v1\n# x y\n1.0 2.0\n3.0\n",
    b"# brdfnqm-alpha v1\n",
    b"# brdfnqm-alpha v1\n1.0\n# x\n",
    b"# brdfnqm-alpha vX\n# x\n1.0\n",
    b"# brdfnqm-beta v1\n# x\n1.0\n",
    b"# brdfnqm-alpha v1\n# x\n\xff\n",
])
def test_both_readers_check_the_layout(tmp_path, reader, text):
    p = tmp_path / "bad.txt"
    p.write_bytes(text)
    with pytest.raises(FormatError, match="bad.txt"):
        reader(p, "alpha")


def test_numeric_table_matches_read_table(tmp_path):
    rows = [[0.1 + 0.2, -1e-300, 3.0], [-0.0, 7.0 / 3.0, -1.0]]
    p = tmp_path / "t.txt"
    tables.write_table(p, "demo", ["a", "b", "c"], rows, meta={"k": 2, "note": "x=y"})
    meta, cols, str_rows = tables.read_table(p, "demo")
    nmeta, ncols, data = tables.read_numeric_table(p, "demo")
    assert (nmeta, ncols) == (meta, cols) == ({"k": "2", "note": "x=y"}, ["a", "b", "c"])
    assert data.dtype == np.float64 and data.shape == (2, 3)
    assert data.tobytes() == np.array([[float(v) for v in r] for r in str_rows]).tobytes()
    tables.write_table(p, "demo", ["a", "b"], [])
    assert tables.read_numeric_table(p, "demo")[2].shape == (0, 2)


@pytest.mark.parametrize("token", ["0.1x", "nan", "-inf", "abc"])
def test_numeric_table_rejects_bad_numbers(tmp_path, token):
    p = tmp_path / "bad.txt"
    p.write_text(f"# brdfnqm-alpha v1\n# x y\n1.0 2.0\n3.0 {token}\n")
    with pytest.raises(FormatError, match="bad.txt"):
        tables.read_numeric_table(p, "alpha")


def _sampled(seed=0, k=5):
    ds = tiny_direction_set(k=k, seed=seed, material=f"mat{seed}")
    vals = np.random.default_rng(seed).uniform(0, 3, (k, 3))
    return SampledBrdf(values=vals, directions=ds)


def test_samples_roundtrip_exact(tmp_path):
    s = _sampled(seed=4)
    p = tmp_path / "s.txt"
    pairio.write_samples(p, s)
    back = pairio.read_samples(p)
    np.testing.assert_array_equal(back.values, s.values)
    np.testing.assert_array_equal(back.directions.angles(), s.directions.angles())
    np.testing.assert_array_equal(back.directions.cos_wi, s.directions.cos_wi)
    assert back.directions.seed == s.directions.seed
    assert back.directions.source_material == s.directions.source_material


def test_read_pair_shares_direction_set(tmp_path):
    ds = tiny_direction_set(k=5, seed=1)
    rng = np.random.default_rng(0)
    ref = SampledBrdf(values=rng.uniform(0, 3, (5, 3)), directions=ds)
    dist = SampledBrdf(values=rng.uniform(0, 3, (5, 3)), directions=ds)
    pr, pd = tmp_path / "r.txt", tmp_path / "d.txt"
    pairio.write_samples(pr, ref)
    pairio.write_samples(pd, dist)
    r2, d2 = pairio.read_pair(pr, pd)
    assert r2.directions is d2.directions
    np.testing.assert_array_equal(r2.values, ref.values)
    np.testing.assert_array_equal(d2.values, dist.values)


def test_read_pair_rejects_mismatched_directions(tmp_path):
    a = _sampled(seed=1)
    b = _sampled(seed=2)
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    pairio.write_samples(pa, a)
    pairio.write_samples(pb, b)
    with pytest.raises(PairingError):
        pairio.read_pair(pa, pb)


def _pair_files(tmp_path, n_refs=3, dists_per_ref=3, k=6):
    """Sample files of n_refs references with dists_per_ref distorted files each."""
    rows = []
    for i in range(n_refs):
        ref = _sampled(seed=i, k=k)
        ref_path = tmp_path / f"r{i}.txt"
        pairio.write_samples(ref_path, ref)
        for j in range(dists_per_ref):
            vals = np.random.default_rng((i, j)).uniform(0, 3, (k, 3))
            dist_path = tmp_path / f"d{i}_{j}.txt"
            pairio.write_samples(dist_path, SampledBrdf(values=vals, directions=ref.directions))
            rows.append((str(ref_path), str(dist_path)))
    # interleave references, as a split or an augmented pairs table does
    return rows[::2] + rows[1::2]


def test_read_pairs_parses_each_reference_once(tmp_path, monkeypatch):
    rows = _pair_files(tmp_path)
    parsed = []
    original = pairio.read_numeric_table

    def counting(path, kind):
        parsed.append(str(path))
        return original(path, kind)

    monkeypatch.setattr(pairio, "read_numeric_table", counting)
    pairs = pairio.read_pairs(rows)
    assert len(pairs) == len(rows)
    assert sorted(parsed) == sorted({r for r, _ in rows} | {d for _, d in rows})


def test_read_pairs_shares_directions_and_matches_read_pair(tmp_path):
    rows = _pair_files(tmp_path)
    pairs = pairio.read_pairs(rows)
    by_ref = {}
    for (ref_path, dist_path), (ref, dist) in zip(rows, pairs):
        assert dist.directions is ref.directions
        assert by_ref.setdefault(ref_path, ref.directions) is ref.directions
        r1, d1 = pairio.read_pair(ref_path, dist_path)
        np.testing.assert_array_equal(ref.values, r1.values)
        np.testing.assert_array_equal(dist.values, d1.values)
        np.testing.assert_array_equal(ref.directions.angles(), r1.directions.angles())
        np.testing.assert_array_equal(ref.directions.cos_wo, r1.directions.cos_wo)
    assert len(by_ref) == 3
    assert pairio.read_pairs([]) == []


def test_read_pairs_rejects_mismatched_directions(tmp_path):
    rows = _pair_files(tmp_path, n_refs=2, dists_per_ref=1)
    swapped = [(rows[0][0], rows[1][1])]
    with pytest.raises(PairingError, match="d1_0.txt"):
        pairio.read_pairs(rows + swapped)


def test_read_samples_rejects_ragged_short_and_bad_header_files(tmp_path):
    p = tmp_path / "s.txt"
    pairio.write_samples(p, _sampled(seed=3, k=5))
    lines = p.read_text().splitlines()
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("\n".join(lines[:-1] + [lines[-1].rsplit(" ", 1)[0]]) + "\n")
    with pytest.raises(FormatError, match="ragged.txt"):
        pairio.read_samples(ragged)
    short = tmp_path / "short.txt"
    short.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(FormatError, match="row count 4"):
        pairio.read_samples(short)
    bad_k = tmp_path / "bad_k.txt"
    bad_k.write_text("\n".join(line.replace("# k=5", "# k=five") for line in lines) + "\n")
    with pytest.raises(FormatError, match="bad_k.txt"):
        pairio.read_samples(bad_k)


_EXTREMES = [
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308,
    -1.0, -0.5, -1e-3, 0.1 + 0.2, 1.0 / 3.0,
]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.lists(
        st.lists(
            st.one_of(st.sampled_from(_EXTREMES), st.floats(allow_nan=False, allow_infinity=False)),
            min_size=8, max_size=8,
        ),
        min_size=1, max_size=6,
    )
)
def test_numeric_reader_is_bit_exact_with_float(tmp_path, rows):
    data = np.array(rows, dtype=np.float64)
    ds = DirectionSet(*(data[:, j] for j in range(5)), seed=1, source_material="m")
    p = tmp_path / "s.txt"
    pairio.write_samples(p, SampledBrdf(values=data[:, 5:], directions=ds))
    _, str_cols, str_rows = tables.read_table(p, "samples")
    _, cols, parsed = tables.read_numeric_table(p, "samples")
    assert cols == str_cols == pairio.SAMPLE_COLUMNS
    by_float = np.array([[float(v) for v in r] for r in str_rows])
    assert parsed.tobytes() == by_float.tobytes() == data.tobytes()


def test_read_samples_rejects_wrong_columns(tmp_path):
    p = tmp_path / "bad.txt"
    tables.write_table(p, "samples", ["x", "y"], [[1.0, 2.0]])
    with pytest.raises(FormatError):
        pairio.read_samples(p)


def test_write_is_deterministic(tmp_path):
    s = _sampled(seed=9)
    p1, p2 = tmp_path / "1.txt", tmp_path / "2.txt"
    pairio.write_samples(p1, s)
    pairio.write_samples(p2, s)
    assert p1.read_bytes() == p2.read_bytes()


def _samples_seed_file() -> bytes:
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "seed.txt"
        pairio.write_samples(p, _sampled(seed=6, k=4))
        return p.read_bytes()


_SAMPLES_SEED = _samples_seed_file()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.one_of(
    st.integers(0, len(_SAMPLES_SEED) - 1).map(lambda cut: _SAMPLES_SEED[:cut]),
    st.binary(min_size=1, max_size=64).map(lambda extra: _SAMPLES_SEED + extra),
    st.integers(0, 8 * len(_SAMPLES_SEED) - 1).map(partial(flip_bit, _SAMPLES_SEED)),
))
def test_damaged_sample_file_loads_or_raises_format_or_pairing_error(tmp_path, data):
    """Truncated, extended or bit-flipped: read alone or against the intact
    file's directions, a sample file loads or raises FormatError/PairingError."""
    p = tmp_path / "fuzz.txt"
    p.write_bytes(data)
    shared = _sampled(seed=6, k=4).directions
    for directions in (None, shared):
        try:
            loaded = pairio.read_samples(p, directions=directions)
        except (FormatError, PairingError):
            continue
        assert np.isfinite(loaded.values).all()
