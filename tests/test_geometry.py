import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brdfnqm import geometry as g
from brdfnqm.errors import DegenerateGeometryError
from brdfnqm.merl import bin_centers

from conftest import reference_halfdiff_to_io_arrays, reference_io_to_halfdiff_arrays, sph_to_cart


def to_halfdiff(theta_i, phi_i, theta_o, phi_o):
    """(theta_h, theta_d, phi_d, phi_h) of one direction pair, through one-element arrays."""
    out = g.io_to_halfdiff_arrays(np.array([theta_i]), np.array([phi_i]), np.array([theta_o]), np.array([phi_o]))
    return tuple(float(a[0]) for a in out)


def to_io(theta_h, theta_d, phi_d, phi_h=0.0):
    """(theta_i, phi_i, theta_o, phi_o) of one half/diff triple, through one-element arrays."""
    out = g.halfdiff_to_io_arrays(np.array([theta_h]), np.array([theta_d]), np.array([phi_d]), phi_h)
    return tuple(float(a[0]) for a in out)


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
    ti, _, to, _ = to_io(0.0, 0.0, 0.0)
    assert ti == pytest.approx(0.0, abs=1e-12)
    assert to == pytest.approx(0.0, abs=1e-12)


def test_inverse_mirror_configuration():
    ti, pi_, to, po = to_io(0.0, math.radians(45), 0.0)
    assert ti == pytest.approx(math.radians(45), abs=1e-9)
    assert to == pytest.approx(math.radians(45), abs=1e-9)
    assert abs(pi_ - po) == pytest.approx(math.pi, abs=1e-9)


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
    """Forward then inverse recovers (wi, wo), up to the reciprocity swap
    introduced by folding phi_d into [0, pi). Azimuths come back wrapped;
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


def test_phi_wraps_into_range():
    _, phi_i, _, phi_o = to_io(0.3, 0.2, 0.1, phi_h=7.0)
    assert 0.0 <= phi_i <= 2 * math.pi and 0.0 <= phi_o <= 2 * math.pi
    assert phi_i == pytest.approx(to_io(0.3, 0.2, 0.1, phi_h=7.0 - 2 * math.pi)[1], abs=1e-12)


def _assert_bytes_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@pytest.mark.parametrize("res", [(12, 8, 16), (45, 45, 90)])
def test_inverse_transform_matches_cartesian_reference_on_bin_grids(res):
    """Flat bin-centre grids, then the three axes broadcast against each
    other, at phi_h 0, a nonzero scalar and one array value per bin."""
    th, td, pd = bin_centers(res)
    flat = [a.ravel() for a in np.meshgrid(th, td, pd, indexing="ij")]
    axes = (th[:, None, None], td[None, :, None], pd[None, None, :])
    per_bin = np.random.default_rng(11).uniform(0.0, 2.0 * math.pi, flat[0].size)
    for phi_h in (0.0, 2.3, per_bin):
        want = reference_halfdiff_to_io_arrays(*flat, phi_h)
        _assert_bytes_equal(g.halfdiff_to_io_arrays(*flat, phi_h), want)
        axis_phi_h = phi_h if np.ndim(phi_h) == 0 else phi_h.reshape(res)
        got = g.halfdiff_to_io_arrays(*axes, axis_phi_h)
        _assert_bytes_equal([a.ravel() for a in got], want)


def test_inverse_transform_matches_cartesian_reference_on_random_angles():
    rng = np.random.default_rng(12)
    n = 100_000
    angles = (
        rng.uniform(0.0, math.pi / 2, n),
        rng.uniform(0.0, math.pi / 2, n),
        rng.uniform(0.0, math.pi, n),
        rng.uniform(0.0, 2.0 * math.pi, n),
    )
    _assert_bytes_equal(g.halfdiff_to_io_arrays(*angles), reference_halfdiff_to_io_arrays(*angles))


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
