"""Hemisphere directions and the half/difference angle parameterization.

An (incoming, outgoing) direction pair is re-expressed through the half
vector h = normalize(wi + wo): theta_h is the polar angle of h, and the
difference vector is wi rotated into the frame that carries h onto the
surface normal. Isotropic materials depend only on (theta_h, theta_d,
phi_d), with phi_d folded into [0, pi) by reciprocity.
"""

import math

import numpy as np

from .errors import DegenerateGeometryError

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi


def halfdiff_to_io_arrays(theta_h, theta_d, phi_d, phi_h=0.0):
    """Vectorized inverse transform.

    The four angles broadcast against each other, so axis vectors shaped to
    broadcast (as (n, 1, 1), (1, m, 1), (1, 1, k)) take every sin and cos on
    their own values only. Returns (theta_i, phi_i, theta_o, phi_o) arrays
    of the broadcast shape; directions are unit by construction and theta
    may exceed pi/2 (below horizon).
    """
    theta_h, phi_h = np.asarray(theta_h, dtype=float), np.asarray(phi_h, dtype=float)
    dx, dy, dz = _to_cartesian(theta_d, phi_d)
    # wi: d rotated by theta_h about y, then by phi_h about z
    c, s = np.cos(theta_h), np.sin(theta_h)
    x = c * dx + s * dz
    wiz = -s * dx + c * dz
    cp, sp = np.cos(phi_h), np.sin(phi_h)
    wix = cp * x - sp * dy
    wiy = sp * x + cp * dy
    del x  # each full-size temporary is freed once spent: 10 MB less peak RSS at 90x90x180
    # wo: wi mirrored about h, the direction (theta_h, phi_h)
    hx, hy, hz = s * cp, s * sp, c
    dot2 = 2.0 * (wix * hx + wiy * hy + wiz * hz)
    wox, woy, woz = dot2 * hx - wix, dot2 * hy - wiy, dot2 * hz - wiz
    del dot2
    norm = _norm(wox, woy, woz)
    wox /= norm
    woy /= norm
    woz /= norm
    del norm
    ti, pi_ = _to_spherical(wix, wiy, wiz, TWO_PI)
    del wix, wiy, wiz
    to, po = _to_spherical(wox, woy, woz, TWO_PI)
    return ti, pi_, to, po


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
