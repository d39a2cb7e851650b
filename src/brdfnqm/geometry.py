"""Hemisphere directions and the half/difference angle parameterization.

An (incoming, outgoing) direction pair is re-expressed through the half
vector h = normalize(wi + wo): theta_h is the polar angle of h, and the
difference vector is wi rotated into the frame that carries h onto the
surface normal. Isotropic materials depend only on (theta_h, theta_d,
phi_d), with phi_d folded into [0, pi) by reciprocity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi

# wi + wo with a norm below this has no usable half vector
_DEGENERATE_EPS = 1e-12


@dataclass(frozen=True)
class SphericalDirection:
    """Unit direction given by polar angle from the normal and azimuth.

    theta lies in [0, pi] (values past pi/2 are below the horizon and are
    produced only by the inverse transform; hemisphere-only operations
    check this themselves). phi is wrapped into [0, 2*pi).
    """

    theta: float
    phi: float

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ValueError(f"non-finite direction ({self.theta}, {self.phi})")
        if not 0.0 <= self.theta <= math.pi + 1e-12:
            raise ValueError(f"theta {self.theta} outside [0, pi]")
        object.__setattr__(self, "phi", self.phi % TWO_PI)

    @property
    def above_horizon(self) -> bool:
        return self.theta <= HALF_PI

    def to_cartesian(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array(
            [st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)]
        )

    @classmethod
    def from_cartesian(cls, v: np.ndarray) -> "SphericalDirection":
        x, y, z = (float(c) for c in v)
        r = math.sqrt(x * x + y * y + z * z)
        if r < _DEGENERATE_EPS:
            raise DegenerateGeometryError("zero-length direction vector")
        theta = math.acos(max(-1.0, min(1.0, z / r)))
        phi = math.atan2(y, x)
        return cls(theta, phi)


@dataclass(frozen=True)
class HalfDiffCoords:
    """Isotropic half/difference angles (theta_h, theta_d, phi_d)."""

    theta_h: float
    theta_d: float
    phi_d: float

    def __post_init__(self):
        for name in ("theta_h", "theta_d", "phi_d"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"non-finite {name}")
        if not -1e-12 <= self.theta_h <= HALF_PI + 1e-9:
            raise ValueError(f"theta_h {self.theta_h} outside [0, pi/2]")
        if not -1e-12 <= self.theta_d <= HALF_PI + 1e-9:
            raise ValueError(f"theta_d {self.theta_d} outside [0, pi/2]")
        object.__setattr__(self, "theta_h", min(max(self.theta_h, 0.0), HALF_PI))
        object.__setattr__(self, "theta_d", min(max(self.theta_d, 0.0), HALF_PI))
        object.__setattr__(self, "phi_d", fold_phi_d(self.phi_d))


def fold_phi_d(phi_d: float) -> float:
    """Fold an azimuth into [0, pi) using reciprocity of isotropic BRDFs."""
    folded = phi_d % math.pi
    # guard against the representable value pi itself after modulo noise
    return 0.0 if folded >= math.pi else folded


def _sph_to_cart(theta, phi):
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


def _rot_y(v, angle):
    c, s = np.cos(angle), np.sin(angle)
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    return np.stack([c * x + s * z, y, -s * x + c * z], axis=-1)


def _rot_z(v, angle):
    c, s = np.cos(angle), np.sin(angle)
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    return np.stack([c * x - s * y, s * x + c * y, z], axis=-1)


def io_to_halfdiff(wi: SphericalDirection, wo: SphericalDirection) -> HalfDiffCoords:
    """Convert an upper-hemisphere direction pair to half/diff coordinates."""
    if not (wi.above_horizon and wo.above_horizon):
        raise ValueError("directions must lie in the upper hemisphere")
    theta_h, theta_d, phi_d, _ = io_to_halfdiff_arrays(
        np.array([wi.theta]), np.array([wi.phi]), np.array([wo.theta]), np.array([wo.phi])
    )
    return HalfDiffCoords(float(theta_h[0]), float(theta_d[0]), float(phi_d[0]))


def halfdiff_to_io(
    hd: HalfDiffCoords, phi_h: float = 0.0
) -> tuple[SphericalDirection, SphericalDirection]:
    """Reconstruct (wi, wo) from half/diff angles at the given half azimuth.

    Results may fall below the horizon; callers filter.
    """
    ti, pi_, to, po = halfdiff_to_io_arrays(
        np.array([hd.theta_h]), np.array([hd.theta_d]), np.array([hd.phi_d]), phi_h
    )
    return (
        SphericalDirection(float(ti[0]), float(pi_[0])),
        SphericalDirection(float(to[0]), float(po[0])),
    )


def halfdiff_to_io_arrays(theta_h, theta_d, phi_d, phi_h=0.0):
    """Vectorized inverse transform.

    Returns (theta_i, phi_i, theta_o, phi_o) arrays; directions are unit by
    construction and theta may exceed pi/2 (below horizon).
    """
    theta_h = np.asarray(theta_h, dtype=float)
    d = _sph_to_cart(np.asarray(theta_d, dtype=float), np.asarray(phi_d, dtype=float))
    wi = _rot_z(_rot_y(d, theta_h), phi_h)
    h = _sph_to_cart(theta_h, np.broadcast_to(np.asarray(phi_h, dtype=float), theta_h.shape))
    wo = 2.0 * np.sum(wi * h, axis=-1, keepdims=True) * h - wi
    wo /= np.linalg.norm(wo, axis=-1, keepdims=True)

    def to_sph(v):
        z = np.clip(v[..., 2], -1.0, 1.0)
        return np.arccos(z), np.arctan2(v[..., 1], v[..., 0]) % TWO_PI

    ti, pi_ = to_sph(wi)
    to, po = to_sph(wo)
    return ti, pi_, to, po


def io_to_halfdiff_arrays(theta_i, phi_i, theta_o, phi_o):
    """Vectorized forward transform; returns (theta_h, theta_d, phi_d, phi_h)."""
    wi = _sph_to_cart(np.asarray(theta_i, dtype=float), np.asarray(phi_i, dtype=float))
    wo = _sph_to_cart(np.asarray(theta_o, dtype=float), np.asarray(phi_o, dtype=float))
    h = wi + wo
    norm = np.linalg.norm(h, axis=-1, keepdims=True)
    if np.any(norm < 1e-9):
        raise DegenerateGeometryError("wi + wo is (near) zero for some pair")
    h = h / norm
    theta_h = np.arccos(np.clip(h[..., 2], -1.0, 1.0))
    phi_h = np.arctan2(h[..., 1], h[..., 0])
    d = _rot_y(_rot_z(wi, -phi_h), -theta_h)
    theta_d = np.arccos(np.clip(d[..., 2], -1.0, 1.0))
    phi_d = np.arctan2(d[..., 1], d[..., 0]) % math.pi
    return theta_h, theta_d, phi_d, phi_h
