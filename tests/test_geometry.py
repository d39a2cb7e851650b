import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brdfnqm import geometry as g
from brdfnqm import sampling
from brdfnqm.errors import DegenerateGeometryError
from brdfnqm.merl import CANONICAL_RES, bin_centers

from conftest import full_candidate_grid, reference_halfdiff_to_io_arrays, reference_io_to_halfdiff_arrays, sph_to_cart


def to_halfdiff(theta_i, phi_i, theta_o, phi_o):
    """(theta_h, theta_d, phi_d, phi_h) of one direction pair, through one-element arrays."""
    out = g.io_to_halfdiff_arrays(np.array([theta_i]), np.array([phi_i]), np.array([theta_o]), np.array([phi_o]))
    return tuple(float(a[0]) for a in out)


def to_io(theta_h, theta_d, phi_d, phi_h):
    """(theta_i, phi_i, theta_o, phi_o) of one half/diff triple, from the cartesian reference chain."""
    out = reference_halfdiff_to_io_arrays(np.array([theta_h]), np.array([theta_d]), np.array([phi_d]), phi_h)
    return tuple(float(a[0]) for a in out)


def cosines(theta_h, theta_d, phi_d):
    """(cos_i, cos_o) of one half/diff triple, through one-element arrays."""
    return tuple(float(a[0]) for a in g.halfdiff_to_io_arrays(np.array([theta_h]), np.array([theta_d]), np.array([phi_d])))


def test_normal_incidence_maps_to_origin():
    th, td, pd, _ = to_halfdiff(0.0, 0.0, 0.0, 0.0)
    assert th == pytest.approx(0.0, abs=1e-12)
    assert td == pytest.approx(0.0, abs=1e-12)
    assert pd == pytest.approx(0.0, abs=1e-12)


def test_mirror_pair_has_zero_half_angle():
    th, td, _, _ = to_halfdiff(math.radians(45), 0.0, math.radians(45), math.pi)
    assert th == pytest.approx(0.0, abs=1e-9)
    assert td == pytest.approx(math.radians(45), abs=1e-9)


def test_degenerate_half_vector_raises():
    # horizontal, exactly opposing directions sum to zero
    with pytest.raises(DegenerateGeometryError):
        to_halfdiff(math.pi / 2, 0.0, math.pi / 2, math.pi)


def _rotation_oracle(ti, pi_, to, po):
    """Independent construction: explicit rotation matrices, no shared code."""
    wi_v, wo_v = sph_to_cart(ti, pi_), sph_to_cart(to, po)
    h = wi_v + wo_v
    h = h / np.linalg.norm(h)
    theta_h = math.acos(np.clip(h[2], -1, 1))
    phi_h = math.atan2(h[1], h[0])

    def rz(a):
        return np.array([[math.cos(a), -math.sin(a), 0], [math.sin(a), math.cos(a), 0], [0, 0, 1]])

    def ry(a):
        return np.array([[math.cos(a), 0, math.sin(a)], [0, 1, 0], [-math.sin(a), 0, math.cos(a)]])

    d = ry(-theta_h) @ rz(-phi_h) @ wi_v
    theta_d = math.acos(np.clip(d[2], -1, 1))
    phi_d = math.atan2(d[1], d[0]) % math.pi
    return theta_h, theta_d, phi_d


@pytest.mark.parametrize("seed", range(20))
def test_forward_transform_matches_rotation_matrix_oracle(seed):
    rng = np.random.default_rng(seed)
    pair = (
        rng.uniform(0, math.pi / 2 * 0.99),
        rng.uniform(0, 2 * math.pi),
        rng.uniform(0, math.pi / 2 * 0.99),
        rng.uniform(0, 2 * math.pi),
    )
    th, td, pd, _ = to_halfdiff(*pair)
    want = _rotation_oracle(*pair)
    assert th == pytest.approx(want[0], abs=1e-10)
    assert td == pytest.approx(want[1], abs=1e-10)
    assert pd == pytest.approx(want[2], abs=1e-10)


def test_inverse_at_origin_gives_normal_pair():
    assert cosines(0.0, 0.0, 0.0) == (1.0, 1.0)


def test_inverse_mirror_configuration():
    cos_i, cos_o = cosines(0.0, math.radians(45), 0.0)
    assert cos_i == cos_o == pytest.approx(math.cos(math.radians(45)), rel=0, abs=1e-15)


def test_inverse_exact_at_zero_half_or_difference_angle():
    """At theta_h = 0 both cosines are cos theta_d, and at theta_d = 0 both
    are cos theta_h, bit for bit."""
    rng = np.random.default_rng(14)
    a, pd = rng.uniform(0.0, math.pi / 2, 1000), rng.uniform(0.0, math.pi, 1000)
    zero = np.zeros_like(a)
    for got in (g.halfdiff_to_io_arrays(zero, a, pd), g.halfdiff_to_io_arrays(a, zero, pd)):
        for c in got:
            assert c.tobytes() == np.cos(a).tobytes()


@pytest.mark.parametrize("seed", range(20))
def test_halfdiff_roundtrip_identity(seed):
    # half/diff coordinates of an upper-hemisphere pair, so the inverse
    # transform stays above the horizon and every seed asserts
    rng = np.random.default_rng(100 + seed)
    pair = (
        rng.uniform(0, math.pi / 2 * 0.95),
        rng.uniform(0, 2 * math.pi),
        rng.uniform(0, math.pi / 2 * 0.95),
        rng.uniform(0, 2 * math.pi),
    )
    th, td, pd, _ = to_halfdiff(*pair)
    h = sph_to_cart(pair[0], pair[1]) + sph_to_cart(pair[2], pair[3])
    phi_h = math.atan2(h[1], h[0])
    ti, pi_, to, po = to_io(th, td, pd, phi_h)
    assert ti <= math.pi / 2 and to <= math.pi / 2
    assert cosines(th, td, pd) == pytest.approx((math.cos(ti), math.cos(to)), rel=0, abs=1e-15)
    back = to_halfdiff(ti, pi_, to, po)
    assert back[0] == pytest.approx(th, abs=1e-9)
    assert back[1] == pytest.approx(td, abs=1e-9)
    assert back[2] == pytest.approx(pd, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    ti=st.floats(0.01, math.pi / 2 - 0.01),
    pi_=st.floats(0, 2 * math.pi - 1e-6),
    to=st.floats(0.01, math.pi / 2 - 0.01),
    po=st.floats(0, 2 * math.pi - 1e-6),
)
def test_io_roundtrip_recovers_pair(ti, pi_, to, po):
    """Forward then the cartesian reference's inverse recovers (wi, wo), up
    to the reciprocity swap introduced by folding phi_d into [0, pi), and
    the closed form gives their cosines. Azimuths come back wrapped;
    a tiny negative atan2 wraps onto the period itself (ti=to=po=1, pi_=0
    gives phi_o == 2 pi)."""
    th, td, pd, ph = to_halfdiff(ti, pi_, to, po)
    assert 0.0 <= pd <= math.pi
    ri, rpi, ro, rpo = to_io(th, td, pd, ph)
    assert 0.0 <= rpi <= 2 * math.pi and 0.0 <= rpo <= 2 * math.pi
    got = [sph_to_cart(ri, rpi), sph_to_cart(ro, rpo)]
    want = [sph_to_cart(ti, pi_), sph_to_cart(to, po)]
    direct = max(np.abs(got[0] - want[0]).max(), np.abs(got[1] - want[1]).max())
    swapped = max(np.abs(got[0] - want[1]).max(), np.abs(got[1] - want[0]).max())
    assert min(direct, swapped) < 1e-7
    assert sorted(cosines(th, td, pd)) == pytest.approx(sorted([math.cos(ti), math.cos(to)]), rel=0, abs=1e-7)


@settings(max_examples=60, deadline=None)
@given(
    ti=st.floats(0.01, math.pi / 2 - 0.01),
    pi_=st.floats(0, 2 * math.pi - 1e-6),
    to=st.floats(0.01, math.pi / 2 - 0.01),
    po=st.floats(0, 2 * math.pi - 1e-6),
)
def test_reciprocity_of_coordinates(ti, pi_, to, po):
    a = to_halfdiff(ti, pi_, to, po)
    b = to_halfdiff(to, po, ti, pi_)
    assert a[0] == pytest.approx(b[0], abs=1e-9)
    assert a[1] == pytest.approx(b[1], abs=1e-9)
    if a[1] > 1e-4:  # phi_d is ill-conditioned when wi is near wo
        diff = abs(a[2] - b[2]) % math.pi
        assert min(diff, math.pi - diff) == pytest.approx(0.0, abs=1e-8)


def _assert_bytes_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def _assert_cosines_of_reference(got, angles):
    """got is (cos_i, cos_o) within 1e-15 of the cosines of theta_i and theta_o from the cartesian chain."""
    ti, _, to, _ = reference_halfdiff_to_io_arrays(*angles)
    for c, theta in zip(got, (ti, to)):
        assert c.shape == theta.shape and c.dtype == np.float64
        np.testing.assert_allclose(c, np.cos(theta), rtol=0, atol=1e-15)


@pytest.mark.parametrize("res", [(12, 8, 16), (45, 45, 90)])
def test_inverse_transform_matches_cartesian_reference_on_bin_grids(res):
    """Flat bin-centre grids, and the three axes broadcast against each other,
    which give the flat grid's bytes."""
    th, td, pd = bin_centers(res)
    flat = [a.ravel() for a in np.meshgrid(th, td, pd, indexing="ij")]
    want = g.halfdiff_to_io_arrays(*flat)
    _assert_cosines_of_reference(want, flat)
    got = g.halfdiff_to_io_arrays(th[:, None, None], td[None, :, None], pd[None, None, :])
    _assert_bytes_equal([a.ravel() for a in got], want)


def test_inverse_transform_matches_cartesian_reference_on_random_angles():
    rng = np.random.default_rng(12)
    n = 100_000
    angles = (rng.uniform(0.0, math.pi / 2, n), rng.uniform(0.0, math.pi / 2, n), rng.uniform(0.0, math.pi, n))
    _assert_cosines_of_reference(g.halfdiff_to_io_arrays(*angles), angles)


# every table resolution of the suite, CI and the benchmark, and the canonical one
TABLE_RESOLUTIONS = [
    (1, 1, 2), (1, 1, 3), (2, 2, 2), (2, 2, 4), (2, 3, 4), (3, 1, 4), (3, 2, 2), (3, 7, 40), (3, 91, 181),
    (4, 3, 2), (4, 4, 8), (5, 1, 1), (5, 2, 4), (5, 4, 3), (6, 4, 3), (6, 5, 4), (6, 5, 8), (7, 5, 3),
    (7, 40, 3), (8, 6, 4), (8, 8, 16), (9, 7, 5), (12, 8, 16), (16, 8, 4), (16, 16, 32), (33, 17, 41),
    (45, 45, 90), (70, 130, 5), (90, 40, 8), CANONICAL_RES,
]


@pytest.mark.parametrize("res", TABLE_RESOLUTIONS, ids=["x".join(map(str, r)) for r in TABLE_RESOLUTIONS])
def test_below_horizon_bins_match_cartesian_reference(res):
    """tabulate's sentinel rule, either cosine <= 1e-9, picks the bins the
    cartesian chain's cosines pick, a few theta_h rows at a time."""
    th, td, pd = bin_centers(res)
    for i in range(0, res[0], 8):
        rows = th[i:i + 8]
        cos_i, cos_o = g.halfdiff_to_io_arrays(rows[:, None, None], td[None, :, None], pd[None, None, :])
        ti, _, to, _ = reference_halfdiff_to_io_arrays(*(a.ravel() for a in np.meshgrid(rows, td, pd, indexing="ij")))
        want = (np.cos(ti) <= 1e-9) | (np.cos(to) <= 1e-9)
        np.testing.assert_array_equal(((cos_i <= 1e-9) | (cos_o <= 1e-9)).ravel(), want)


def test_candidate_grid_is_the_rows_the_cartesian_reference_keeps():
    full = full_candidate_grid()
    ti, _, to, _ = reference_halfdiff_to_io_arrays(*full.T)
    limit = math.cos(sampling.GRAZING_LIMIT)
    kept = full[(np.cos(ti) > limit) & (np.cos(to) > limit)]
    assert len(full) == 8192 and len(kept) == 5359
    np.testing.assert_array_equal(sampling.build_candidate_grid(), kept)


def test_forward_transform_matches_cartesian_reference_on_random_pairs():
    rng = np.random.default_rng(13)
    n = 100_000
    pairs = (
        rng.uniform(0.0, math.pi / 2, n),
        rng.uniform(0.0, 2.0 * math.pi, n),
        rng.uniform(0.0, math.pi / 2, n),
        rng.uniform(0.0, 2.0 * math.pi, n),
    )
    _assert_bytes_equal(g.io_to_halfdiff_arrays(*pairs), reference_io_to_halfdiff_arrays(*pairs))


def test_forward_transform_arrays_refuse_a_vanishing_half_vector():
    with pytest.raises(DegenerateGeometryError):
        g.io_to_halfdiff_arrays(
            np.array([0.3, math.pi / 2]), np.array([0.0, 0.0]), np.array([0.3, math.pi / 2]), np.array([1.0, math.pi])
        )
