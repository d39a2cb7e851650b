"""Tabulated isotropic BRDFs in the MERL binary convention.

Layout on disk: three little-endian int32 dimensions (theta_h, theta_d,
phi_d), then 3 * n_th * n_td * n_pd float64 values, channel-major (all red,
then green, then blue), innermost index phi_d, then theta_d, then theta_h.
Stored values are raw; in memory each channel is scaled by its calibration
factor. Negative raw values mark unmeasured ("invalid") bins and are kept
losslessly; lookups read them as zero with a flag.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, TruncatedFileError
from .geometry import HALF_PI

CANONICAL_RES = (90, 90, 180)
CHANNEL_SCALES = (1.0 / 1500.0, 1.15 / 1500.0, 1.66 / 1500.0)
_SCALES = np.array(CHANNEL_SCALES).reshape(3, 1, 1, 1)


@dataclass(frozen=True)
class Rgb:
    r: float
    g: float
    b: float

    def as_array(self) -> np.ndarray:
        return np.array([self.r, self.g, self.b])


@dataclass
class TabulatedBrdf:
    """Dense 3-channel reflectance table over (theta_h, theta_d, phi_d) bins.

    values has shape (3, res_theta_h, res_theta_d, res_phi_d); entries are
    either >= 0 (sr^-1, calibrated) or negative (invalid sentinel).
    """

    name: str
    values: np.ndarray
    # unscaled on-disk payload, kept by load_merl so that saving a loaded
    # table is byte-identical (scaling is not exactly invertible in floats)
    raw: np.ndarray | None = None
    res_theta_h: int = field(init=False)
    res_theta_d: int = field(init=False)
    res_phi_d: int = field(init=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 4 or v.shape[0] != 3 or min(v.shape[1:]) < 1:
            raise ValueError(f"bad table shape {v.shape}")
        self.values = v
        self.res_theta_h, self.res_theta_d, self.res_phi_d = v.shape[1:]

    @property
    def resolution(self) -> tuple[int, int, int]:
        return (self.res_theta_h, self.res_theta_d, self.res_phi_d)

    def invalid_mask(self) -> np.ndarray:
        """Bins flagged invalid on any channel; shape (res_th, res_td, res_pd)."""
        return np.any(self.values < 0.0, axis=0)


def _scaled(raw: np.ndarray) -> np.ndarray:
    """Calibrated values of a raw payload; negative sentinels stay as they are."""
    vals = raw * _SCALES
    np.copyto(vals, raw, where=raw < 0.0)
    return vals


def load_merl(path, name: str | None = None) -> TabulatedBrdf:
    """Read a MERL-convention binary table at any resolution.

    NaN or infinite values raise FormatError; negative sentinels load as-is.
    """
    path = str(path)
    with open(path, "rb") as f:
        header = f.read(12)
        if len(header) < 12:
            raise TruncatedFileError(f"{path}: header shorter than 12 bytes")
        dims = struct.unpack("<3i", header)
        if any(d <= 0 for d in dims):
            raise FormatError(f"{path}: non-positive dimensions {dims}")
        n = 3 * dims[0] * dims[1] * dims[2]
        # check the file size before allocating what the header claims
        size = os.fstat(f.fileno()).st_size - 12
        if size < 8 * n:
            raise TruncatedFileError(f"{path}: expected {8 * n} payload bytes, got {size}")
        if size > 8 * n:
            raise FormatError(f"{path}: trailing bytes after payload")
        raw = np.empty((3, *dims), dtype="<f8")
        got = f.readinto(memoryview(raw).cast("B"))
        if got < 8 * n:
            raise TruncatedFileError(f"{path}: expected {8 * n} payload bytes, got {got}")
        if f.read(1):
            raise FormatError(f"{path}: trailing bytes after payload")
    if not np.isfinite(raw).all():
        raise FormatError(f"{path}: NaN or infinite values in the payload")
    raw.flags.writeable = False
    if name is None:
        name = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return TabulatedBrdf(name=name, values=_scaled(raw), raw=raw)


def save_merl(brdf: TabulatedBrdf, path) -> None:
    """Write the exact inverse of load_merl.

    A table whose raw payload would hold NaN or infinite values (a value
    above about max double / 1500 overflows the calibration divide) raises
    FormatError and writes no file, since load_merl would refuse it.
    """
    if brdf.raw is not None and np.array_equal(_scaled(brdf.raw), brdf.values):
        raw = brdf.raw
    else:
        # negative sentinels are kept, never divided (so they cannot overflow)
        raw = brdf.values.copy()
        with np.errstate(over="ignore"):  # an overflow is refused just below
            np.divide(raw, _SCALES, out=raw, where=raw >= 0.0)
    if not np.isfinite(raw).all():
        raise FormatError(f"{path}: NaN or infinite values in the payload")
    with open(str(path), "wb") as f:
        f.write(struct.pack("<3i", *brdf.resolution))
        f.write(memoryview(np.ascontiguousarray(raw, dtype="<f8")).cast("B"))


def theta_h_index(theta_h, res: int):
    """Square-root warped bin index: bins concentrate near theta_h = 0."""
    t = np.clip(np.asarray(theta_h, dtype=float), 0.0, HALF_PI)
    idx = np.sqrt(t / HALF_PI) * res
    return np.clip(idx.astype(np.int64), 0, res - 1)


def theta_d_index(theta_d, res: int):
    t = np.clip(np.asarray(theta_d, dtype=float), 0.0, HALF_PI)
    return np.clip((t / HALF_PI * res).astype(np.int64), 0, res - 1)


def phi_d_index(phi_d, res: int):
    p = np.asarray(phi_d, dtype=float) % math.pi
    return np.clip((p / math.pi * res).astype(np.int64), 0, res - 1)


def bin_centers(res: tuple[int, int, int]):
    """Center angles of every bin along each axis (th warped, td/pd linear)."""
    n_th, n_td, n_pd = res
    i = np.arange(n_th) + 0.5
    th = (i / n_th) ** 2 * HALF_PI
    td = (np.arange(n_td) + 0.5) / n_td * HALF_PI
    pd = (np.arange(n_pd) + 0.5) / n_pd * math.pi
    return th, td, pd


def lookup(brdf: TabulatedBrdf, theta_h, theta_d, phi_d):
    """Vectorized nearest-bin read.

    Returns (values, invalid) where values is (..., 3) with invalid bins
    zeroed and invalid is a boolean mask.
    """
    i = theta_h_index(theta_h, brdf.res_theta_h)
    j = theta_d_index(theta_d, brdf.res_theta_d)
    k = phi_d_index(phi_d, brdf.res_phi_d)
    vals = brdf.values[:, i, j, k]              # (3, ...)
    vals = np.moveaxis(vals, 0, -1)             # (..., 3)
    invalid = np.any(vals < 0.0, axis=-1)
    vals = np.where(vals < 0.0, 0.0, vals)
    vals = np.where(invalid[..., None], 0.0, vals)
    return vals, invalid
