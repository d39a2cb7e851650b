import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brdfnqm import geometry as g
from brdfnqm.errors import DegenerateGeometryError
from brdfnqm.merl import bin_centers

from conftest import reference_halfdiff_to_io_arrays, reference_io_to_halfdiff_arrays


def sph(theta_deg, phi_deg=0.0):
    return g.SphericalDirection(math.radians(theta_deg), math.radians(phi_deg))


def test_normal_incidence_maps_to_origin():
    hd = g.io_to_halfdiff(sph(0), sph(0))
    assert hd.theta_h == pytest.approx(0.0, abs=1e-12)
    assert hd.theta_d == pytest.approx(0.0, abs=1e-12)
    assert hd.phi_d == pytest.approx(0.0, abs=1e-12)


def test_mirror_pair_has_zero_half_angle():
    hd = g.io_to_halfdiff(sph(45, 0), sph(45, 180))
    assert hd.theta_h == pytest.approx(0.0, abs=1e-9)
    assert hd.theta_d == pytest.approx(math.radians(45), abs=1e-9)


def test_degenerate_half_vector_raises():
    # horizontal, exactly opposing directions sum to zero
    with pytest.raises(DegenerateGeometryError):
        g.io_to_halfdiff(sph(90, 0), sph(90, 180))


def _rotation_oracle(wi, wo):
    """Independent construction: explicit rotation matrices, no shared code."""
    wi_v, wo_v = wi.to_cartesian(), wo.to_cartesian()
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
    wi = g.SphericalDirection(rng.uniform(0, math.pi / 2 * 0.99), rng.uniform(0, 2 * math.pi))
    wo = g.SphericalDirection(rng.uniform(0, math.pi / 2 * 0.99), rng.uniform(0, 2 * math.pi))
    hd = g.io_to_halfdiff(wi, wo)
    th, td, pd = _rotation_oracle(wi, wo)
    assert hd.theta_h == pytest.approx(th, abs=1e-10)
    assert hd.theta_d == pytest.approx(td, abs=1e-10)
    assert hd.phi_d == pytest.approx(pd, abs=1e-10)


def test_inverse_at_origin_gives_normal_pair():
    wi, wo = g.halfdiff_to_io(g.HalfDiffCoords(0, 0, 0), phi_h=0.0)
    assert wi.theta == pytest.approx(0.0, abs=1e-12)
    assert wo.theta == pytest.approx(0.0, abs=1e-12)


def test_inverse_mirror_configuration():
    wi, wo = g.halfdiff_to_io(g.HalfDiffCoords(0, math.radians(45), 0), phi_h=0.0)
    assert wi.theta == pytest.approx(math.radians(45), abs=1e-9)
    assert wo.theta == pytest.approx(math.radians(45), abs=1e-9)
    assert abs(wi.phi - wo.phi) == pytest.approx(math.pi, abs=1e-9)


@pytest.mark.parametrize("seed", range(20))
def test_halfdiff_roundtrip_identity(seed):
    # half/diff coordinates of an upper-hemisphere pair, so the inverse
    # transform stays above the horizon and every seed asserts
    rng = np.random.default_rng(100 + seed)
    wi0 = g.SphericalDirection(rng.uniform(0, math.pi / 2 * 0.95), rng.uniform(0, 2 * math.pi))
    wo0 = g.SphericalDirection(rng.uniform(0, math.pi / 2 * 0.95), rng.uniform(0, 2 * math.pi))
    hd = g.io_to_halfdiff(wi0, wo0)
    h = wi0.to_cartesian() + wo0.to_cartesian()
    phi_h = math.atan2(h[1], h[0])
    wi, wo = g.halfdiff_to_io(hd, phi_h)
    assert wi.above_horizon and wo.above_horizon
    back = g.io_to_halfdiff(wi, wo)
    assert back.theta_h == pytest.approx(hd.theta_h, abs=1e-9)
    assert back.theta_d == pytest.approx(hd.theta_d, abs=1e-9)
    assert back.phi_d == pytest.approx(hd.phi_d, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    ti=st.floats(0.01, math.pi / 2 - 0.01),
    pi_=st.floats(0, 2 * math.pi - 1e-6),
    to=st.floats(0.01, math.pi / 2 - 0.01),
    po=st.floats(0, 2 * math.pi - 1e-6),
)
def test_io_roundtrip_recovers_pair(ti, pi_, to, po):
    """Forward then inverse recovers (wi, wo), up to the reciprocity swap
    introduced by folding phi_d into [0, pi)."""
    wi = g.SphericalDirection(ti, pi_)
    wo = g.SphericalDirection(to, po)
    th, td, pd, ph = g.io_to_halfdiff_arrays(
        np.array([ti]), np.array([wi.phi]), np.array([to]), np.array([wo.phi])
    )
    ri, rpi, ro, rpo = g.halfdiff_to_io_arrays(th, td, pd, float(ph[0]))
    got = [
        g.SphericalDirection(float(ri[0]), float(rpi[0])).to_cartesian(),
        g.SphericalDirection(float(ro[0]), float(rpo[0])).to_cartesian(),
    ]
    want = [wi.to_cartesian(), wo.to_cartesian()]
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
    wi = g.SphericalDirection(ti, pi_)
    wo = g.SphericalDirection(to, po)
    a = g.io_to_halfdiff(wi, wo)
    b = g.io_to_halfdiff(wo, wi)
    assert a.theta_h == pytest.approx(b.theta_h, abs=1e-9)
    assert a.theta_d == pytest.approx(b.theta_d, abs=1e-9)
    if a.theta_d > 1e-4:  # phi_d is ill-conditioned when wi is near wo
        diff = abs(a.phi_d - b.phi_d) % math.pi
        assert min(diff, math.pi - diff) == pytest.approx(0.0, abs=1e-8)


def test_phi_wraps_into_range():
    d = g.SphericalDirection(0.3, 7.0)
    assert 0.0 <= d.phi < 2 * math.pi


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
