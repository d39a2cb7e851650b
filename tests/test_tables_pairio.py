import math
import struct
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

from conftest import flip_bit, hex_bits, tiny_direction_set, write_empty_samples


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


@pytest.mark.parametrize("reader", [tables.read_table])
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
    """Each damaged layout is a FormatError naming the file. read_samples
    runs the same checks through _read_parts; its row checks are below."""
    p = tmp_path / "bad.txt"
    p.write_bytes(text)
    with pytest.raises(FormatError, match="bad.txt"):
        reader(p, "alpha")


def _sample_lines(tmp_path, k=5) -> list[str]:
    """The lines of a sample file of k rows; the first row is line 5."""
    p = tmp_path / "s.txt"
    pairio.write_samples(p, _sampled(seed=3, k=k))
    return p.read_text().splitlines()


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
    np.testing.assert_array_equal(back.directions.columns(), s.directions.columns())
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
    original = pairio._read_parts

    def counting(path, kind, version):
        parsed.append(str(path))
        return original(path, kind, version)

    monkeypatch.setattr(pairio, "_read_parts", counting)
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
        np.testing.assert_array_equal(ref.directions.columns(), r1.directions.columns())
    assert len(by_ref) == 3
    assert pairio.read_pairs([]) == []


def test_read_pairs_rejects_mismatched_directions(tmp_path):
    rows = _pair_files(tmp_path, n_refs=2, dists_per_ref=1)
    swapped = [(rows[0][0], rows[1][1])]
    with pytest.raises(PairingError, match="d1_0.txt"):
        pairio.read_pairs(rows + swapped)


def test_read_samples_rejects_ragged_short_and_bad_header_files(tmp_path):
    lines = _sample_lines(tmp_path)
    row = lines[-1]
    cases = {
        "five_fields": (lines[:-1] + [row.rsplit(" ", 1)[0]], "row 5 has 5 fields"),
        "seven_fields": (lines[:-1] + [row + " " + row[:16]], "row 5 has 7 fields"),
        "short": (lines[:-1], "row count 4 != header k=5"),
        "long": (lines + [row], "row count 6 != header k=5"),
        "bad_k": ([line.replace("# k=5", "# k=five") for line in lines], "k=five"),
        "zero_k": ([line.replace("# k=5", "# k=0") for line in lines[:5]], "k=0"),
        "negative_k": ([line.replace("# k=5", "# k=-5") for line in lines], "k=-5"),
        "no_k": ([line for line in lines if not line.startswith("# k=")], "k=None"),
    }
    for name, (text, words) in cases.items():
        p = tmp_path / f"{name}.txt"
        p.write_text("\n".join(text) + "\n")
        with pytest.raises(FormatError, match=f"{name}.txt: .*{words}"):
            pairio.read_samples(p)


# a value field of the fifth row -> what it is replaced with; each is a FormatError naming the file
_BAD_FIELDS = {
    "0.1x": "3fb999999999999x",  # the bits of 0.1 with a last digit that is not hex
    "abc": "abc",  # three hex digits
    "15-digits": "3fb999999999999",
    "17-digits": "3fb999999999999aa",
    "space-in-field": "3fb9999 99999999",
    "nan": hex_bits(math.nan),
    "-inf": hex_bits(-math.inf),
    "inf": hex_bits(math.inf),
    "signalling-nan": "7ff0000000000001",
}


@pytest.mark.parametrize("token", list(_BAD_FIELDS))
def test_numeric_table_rejects_bad_numbers(tmp_path, token):
    lines = _sample_lines(tmp_path)
    fields = lines[-1].split(" ")
    fields[pairio.SAMPLE_COLUMNS.index("g")] = _BAD_FIELDS[token]
    p = tmp_path / "bad.txt"
    p.write_text("\n".join(lines[:-1] + [" ".join(fields)]) + "\n")
    with pytest.raises(FormatError, match="bad.txt: ") as info:
        pairio.read_samples(p)
    assert "\n" not in str(info.value)
    if len(_BAD_FIELDS[token]) != 16 or token == "0.1x":
        assert f"row 5 field {_BAD_FIELDS[token]!r}" in str(info.value)


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
            min_size=6, max_size=6,
        ),
        min_size=1, max_size=6,
    )
)
def test_numeric_reader_is_bit_exact_with_float(tmp_path, rows):
    """write_samples -> read_samples returns every bit, -0.0, subnormals and
    the extremes included, and equals decoding each field on its own."""
    data = np.array(rows, dtype=np.float64)
    ds = DirectionSet(*(data[:, j] for j in range(3)), seed=1, source_material="m")
    p = tmp_path / "s.txt"
    pairio.write_samples(p, SampledBrdf(values=data[:, 3:], directions=ds))
    back = pairio.read_samples(p)
    parsed = np.column_stack((back.directions.columns(), back.values))
    body = [line for line in p.read_text().splitlines() if not line.startswith("#")]
    by_field = np.array([[struct.unpack(">d", bytes.fromhex(f))[0] for f in line.split(" ")] for line in body])
    assert parsed.tobytes() == by_field.tobytes() == data.tobytes()


@pytest.mark.parametrize("where", ["values", "directions"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_samples_refuses_what_read_samples_refuses(tmp_path, where, bad):
    s = _sampled(seed=2, k=4)
    if where == "values":
        vals = s.values.copy()
        vals[1, 2] = bad
        s = SampledBrdf(values=vals, directions=s.directions)
    else:
        d = s.directions
        phi_d = d.phi_d.copy()
        phi_d[3] = bad
        s = SampledBrdf(values=s.values, directions=DirectionSet(
            d.theta_h, d.theta_d, phi_d, seed=d.seed, source_material=d.source_material))
    p = tmp_path / "s.txt"
    with pytest.raises(FormatError, match=r"s\.txt: NaN or infinite"):
        pairio.write_samples(p, s)
    assert not p.exists()


def test_write_samples_refuses_an_empty_set_with_the_readers_error(tmp_path):
    """A set of no samples is refused before the file is opened, in the one
    line read_samples gives for a file that holds none."""
    ds = DirectionSet(*np.empty((3, 0)), seed=0, source_material="m")
    p = tmp_path / "s.txt"
    with pytest.raises(FormatError) as wrote:
        pairio.write_samples(p, SampledBrdf(values=np.empty((0, 3)), directions=ds))
    assert not p.exists()
    write_empty_samples(p, "m")
    with pytest.raises(FormatError) as read:
        pairio.read_samples(p)
    assert str(wrote.value) == str(read.value) == f"{p}: header k=0 is not a sample count of at least 1"


def _assert_same_bytes_as_write_table(tmp_path, sampled, name):
    """write_samples against the reference writer: each field's hex bits
    through one write_table call, under the samples version's kind line."""
    new, old = tmp_path / f"{name}.txt", tmp_path / f"{name}_ref.txt"
    pairio.write_samples(new, sampled)
    d = sampled.directions
    rows = np.column_stack((d.theta_h, d.theta_d, d.phi_d, sampled.values)).tolist()
    tables.write_table(old, "samples", pairio.SAMPLE_COLUMNS, [[hex_bits(v) for v in row] for row in rows],
                       {"k": d.k, "seed": d.seed, "material": d.source_material})
    expected = old.read_bytes().replace(b"# brdfnqm-samples v1\n", b"# brdfnqm-samples v3\n", 1)
    assert new.read_bytes() == expected


def test_write_samples_matches_write_table_on_extreme_values(tmp_path):
    column = np.array([-0.0, 5e-324, 1e-5, 1e16, 1.7976931348623157e308, -1.0])
    ds = DirectionSet(*(np.roll(column, j) for j in range(3)), seed=3, source_material="mat_x")
    vals = np.column_stack([np.roll(column, j) for j in (5, 2, 4)])
    _assert_same_bytes_as_write_table(tmp_path, SampledBrdf(values=vals, directions=ds), "extreme")


def test_write_samples_matches_write_table_on_one_set_and_after_a_read(tmp_path):
    ref = _sampled(seed=5, k=7)
    rng = np.random.default_rng(5)
    dists = [SampledBrdf(values=rng.uniform(0, 3, (7, 3)), directions=ref.directions) for _ in range(2)]
    for name, s in [("ref", ref), ("dist0", dists[0]), ("dist1", dists[1])]:
        _assert_same_bytes_as_write_table(tmp_path, s, name)
    back = pairio.read_samples(tmp_path / "ref.txt")
    assert back.directions is not ref.directions
    _assert_same_bytes_as_write_table(tmp_path, back, "again")
    assert (tmp_path / "again.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()


def test_direction_set_arrays_are_read_only_copies():
    arrays = [np.linspace(0.1, 0.5, 4) + j for j in range(3)]
    ds = DirectionSet(*arrays, seed=0, source_material="m")
    cos_wo = ds.cos_wo.copy()
    for name in ("theta_h", "theta_d", "phi_d", "cos_wi", "cos_wo"):
        with pytest.raises(ValueError):
            getattr(ds, name)[0] = 9.0
    for a in arrays:
        assert a.flags.writeable
        a[0] = 9.0
    assert ds.theta_h[0] == 0.1 and ds.phi_d[0] == 2.1
    assert ds.cos_wo.tobytes() == cos_wo.tobytes()


def test_read_samples_compares_all_three_angle_columns(tmp_path):
    """The lowest bit of one direction field flipped, in any of the three
    angle columns: the file loads alone, but against its reference's set it
    is a PairingError."""
    ref = _sampled(seed=1, k=5)
    pr, pd = tmp_path / "r.txt", tmp_path / "d.txt"
    pairio.write_samples(pr, ref)
    pairio.write_samples(pd, SampledBrdf(values=ref.values * 0.5, directions=ref.directions))
    intact = pd.read_text().splitlines()
    for column in range(3):
        lines = list(intact)
        fields = lines[5].split(" ")
        fields[column] = f"{int(fields[column], 16) ^ 1:016x}"
        lines[5] = " ".join(fields)
        pd.write_text("\n".join(lines) + "\n")
        loaded = pairio.read_samples(pd).directions.columns()
        assert loaded[0, column] != ref.directions.columns()[0, column]
        with pytest.raises(PairingError, match=r"d\.txt"):
            pairio.read_samples(pd, directions=ref.directions)
        with pytest.raises(PairingError, match=r"d\.txt"):
            pairio.read_pair(pr, pd)


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


@pytest.mark.parametrize("bad", ["", "my tables/a.binary", "tab\there"])
def test_write_refuses_a_field_that_would_not_read_back(tmp_path, bad):
    p = tmp_path / "t.txt"
    with pytest.raises(FormatError, match=r"t\.txt: ref_path field"):
        tables.write_table(p, "demo", ["pair_id", "ref_path", "jod"], [["p0", "a.binary", 1.0], ["p1", bad, 2.0]])
    assert not p.exists()


def _labels_seed_file() -> bytes:
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "seed.txt"
        tables.write_table(p, "labels", ["pair_id", "jod", "provenance"],
                           [["mat000_l00", 8.25, "synthetic_oracle"], ["mat000_l01", 3.5, "pseudo_deitp"]])
        return p.read_bytes()


_LABELS_SEED = _labels_seed_file()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.one_of(
    st.integers(0, len(_LABELS_SEED) - 1).map(lambda cut: _LABELS_SEED[:cut]),
    st.integers(0, 8 * len(_LABELS_SEED) - 1).map(partial(flip_bit, _LABELS_SEED)),
    st.tuples(st.integers(0, len(_LABELS_SEED) - 1), st.integers(0, 255)).map(
        lambda at: _LABELS_SEED[:at[0]] + bytes([at[1]]) + _LABELS_SEED[at[0] + 1:]
    ),
))
def test_damaged_labels_table_loads_or_raises_format_error(tmp_path, data):
    """Truncated, bit-flipped or with one byte overwritten, a labels table
    loads as rows as wide as its header or raises FormatError."""
    p = tmp_path / "fuzz.txt"
    p.write_bytes(data)
    try:
        _, columns, rows = tables.read_table(p, "labels")
    except FormatError:
        return
    assert all(len(r) == len(columns) for r in rows)
