"""Hemisphere directions and the half/difference angle parameterization.

An (incoming, outgoing) direction pair is re-expressed through the half
vector h = normalize(wi + wo): theta_h is the polar angle of h, and the
difference vector is wi rotated into the frame that carries h onto the
surface normal. Isotropic materials depend only on (theta_h, theta_d,
phi_d), with phi_d folded into [0, pi) by reciprocity.

The other way, only the normal components of wi and wo are computed, in
closed form: they do not depend on phi_h, and wi . h is cos theta_d.
"""

import math

import numpy as np

from .errors import DegenerateGeometryError

HALF_PI = 0.5 * math.pi


def halfdiff_to_io_arrays(theta_h, theta_d, phi_d):
    """(cos_i, cos_o): the normal components of wi and wo at these angles.

    wi is d = (theta_d, phi_d) rotated by theta_h about y, so
    cos_i = cos theta_h cos theta_d - sin theta_h sin theta_d cos phi_d; wo
    is wi mirrored about h, so cos_o = 2 cos theta_h cos theta_d - cos_i.
    The angles broadcast against each other, so axis vectors shaped to
    broadcast (as (n, 1, 1), (1, m, 1), (1, 1, k)) take every sin and cos on
    their own values only. A cosine at or below 0 is a direction below the
    horizon.
    """
    theta_h, theta_d = np.asarray(theta_h, dtype=float), np.asarray(theta_d, dtype=float)
    ch_cd = np.cos(theta_h) * np.cos(theta_d)
    cos_i = ch_cd - np.sin(theta_h) * np.sin(theta_d) * np.cos(np.asarray(phi_d, dtype=float))
    cos_o = 2.0 * ch_cd - cos_i
    return cos_i, cos_o


def io_to_halfdiff_arrays(theta_i, phi_i, theta_o, phi_o):
    """Vectorized forward transform; returns (theta_h, theta_d, phi_d, phi_h)."""
    wix, wiy, wiz = _to_cartesian(theta_i, phi_i)
    wox, woy, woz = _to_cartesian(theta_o, phi_o)
    hx, hy, hz = wix + wox, wiy + woy, wiz + woz
    norm = _norm(hx, hy, hz)
    if np.any(norm < 1e-9):
        raise DegenerateGeometryError("wi + wo is (near) zero for some pair")
    hx /= norm
    hy /= norm
    hz /= norm
    theta_h, phi_h = _to_spherical(hx, hy, hz)
    # d: wi rotated by -phi_h about z, then by -theta_h about y
    c, s = np.cos(-phi_h), np.sin(-phi_h)
    x = c * wix - s * wiy
    dy = s * wix + c * wiy
    c, s = np.cos(-theta_h), np.sin(-theta_h)
    dx = c * x + s * wiz
    dz = -s * x + c * wiz
    theta_d, phi_d = _to_spherical(dx, dy, dz, math.pi)
    return theta_h, theta_d, phi_d, phi_h


def _to_cartesian(theta, phi):
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    st = np.sin(theta)
    return st * np.cos(phi), st * np.sin(phi), np.cos(theta)


def _norm(x, y, z):
    """sqrt(x^2 + y^2 + z^2), summed in that order."""
    return np.sqrt(x * x + y * y + z * z)


def _to_spherical(x, y, z, period=None):
    """(theta, phi) of a unit vector; phi is wrapped into [0, period] (a tiny negative atan2 lands on period)."""
    phi = np.arctan2(y, x)
    if period is not None:
        phi %= period
    return np.arccos(np.clip(z, -1.0, 1.0)), phi
