"""Tabulated isotropic BRDFs in the MERL binary convention.

Layout on disk: three little-endian int32 dimensions (theta_h, theta_d,
phi_d), then 3 * n_th * n_td * n_pd float64 values, channel-major (all red,
then green, then blue), innermost index phi_d, then theta_d, then theta_h.
Stored values are raw; in memory each channel is scaled by its calibration
factor. Negative raw values mark unmeasured ("invalid") bins and are kept
losslessly; lookups read them as zero.
"""

from __future__ import annotations

import functools
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, TruncatedFileError
from .geometry import HALF_PI

CANONICAL_RES = (90, 90, 180)
CHANNEL_SCALES = (1.0 / 1500.0, 1.15 / 1500.0, 1.66 / 1500.0)
_SCALES = np.array(CHANNEL_SCALES).reshape(3, 1, 1, 1)
_CHECK_CHUNK = 1 << 16  # payload values per checked read (load_merl) or write (save_merl), 512 KiB


@dataclass(frozen=True)
class Rgb:
    r: float
    g: float
    b: float

    def as_array(self) -> np.ndarray:
        return np.array([self.r, self.g, self.b])


class TabulatedBrdf:
    """Dense 3-channel reflectance table over (theta_h, theta_d, phi_d) bins.

    values has shape (3, res_theta_h, res_theta_d, res_phi_d); entries are
    either >= 0 (sr^-1, calibrated) or negative (invalid sentinel).

    A table is read-only once built: its values are made read-only, and a
    float64 array passed in is not copied, so the caller's array is frozen
    with them. What depends on the values alone, ``invalid_mask`` and
    ``channel_floors``, is computed on first use and then held; since the
    values cannot change, neither can go stale.

    A table read by load_merl holds ``raw`` instead: its unscaled on-disk
    payload as a read-only memmap. lookup then calibrates only the bins it
    reads, ``values`` calibrates the whole table (read-only) on first use,
    and save_merl writes raw back, so the bytes round-trip exactly (scaling
    is not exactly invertible in floats).
    """

    def __init__(self, name: str, values: np.ndarray | None = None, raw: np.ndarray | None = None):
        if (values is None) == (raw is None):
            raise ValueError("a table takes either its values or its raw payload")
        if values is not None:
            self.values = np.asarray(values, dtype=np.float64)
            self.values.flags.writeable = False
        self.name, self.raw = name, raw
        shape = self.values.shape if raw is None else raw.shape
        if len(shape) != 4 or shape[0] != 3 or min(shape[1:]) < 1:
            raise ValueError(f"bad table shape {shape}")
        self.res_theta_h, self.res_theta_d, self.res_phi_d = shape[1:]

    @functools.cached_property
    def values(self) -> np.ndarray:
        vals = _scaled(self.raw)
        vals.flags.writeable = False
        return vals

    @property
    def resolution(self) -> tuple[int, int, int]:
        return (self.res_theta_h, self.res_theta_d, self.res_phi_d)

    @functools.cached_property
    def invalid_mask(self) -> np.ndarray:
        """Bins flagged invalid on any channel; shape (res_th, res_td, res_pd), read-only."""
        mask = np.any(self.values < 0.0, axis=0)
        mask.flags.writeable = False
        return mask

    @functools.cached_property
    def channel_floors(self) -> np.ndarray:
        """Each channel's smallest value over the valid bins, shape (3,); inf where no bin is valid."""
        valid = ~self.invalid_mask
        floors = np.array([np.min(ch, where=valid, initial=np.inf) for ch in self.values])
        floors.flags.writeable = False
        return floors


def _scaled(raw: np.ndarray) -> np.ndarray:
    """Calibrated values of channel-major raw values (3, ...); negative sentinels stay as they are."""
    vals = raw * _SCALES.reshape((3,) + (1,) * (raw.ndim - 1))
    np.copyto(vals, raw, where=raw < 0.0)
    return vals


def load_merl(path) -> TabulatedBrdf:
    """Map a MERL-convention binary table at any resolution.

    Every payload value is read once, in fixed-size chunks, and a NaN or
    infinite one raises FormatError; the table then reads the payload through
    a read-only memmap, so a lookup touches only the bins it reads. Negative
    sentinels load as-is.
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
        # check the file size before reading what the header claims
        size = os.fstat(f.fileno()).st_size - 12
        if size < 8 * n:
            raise TruncatedFileError(f"{path}: expected {8 * n} payload bytes, got {size}")
        if size > 8 * n:
            raise FormatError(f"{path}: trailing bytes after payload")
        chunk = np.empty(min(n, _CHECK_CHUNK), dtype="<f8")
        for start in range(0, n, _CHECK_CHUNK):
            part = chunk[: min(n - start, _CHECK_CHUNK)]
            got = f.readinto(memoryview(part).cast("B"))
            if got < part.nbytes:
                raise TruncatedFileError(f"{path}: expected {8 * n} payload bytes, got {8 * start + got}")
            if not np.isfinite(part).all():
                raise FormatError(f"{path}: NaN or infinite values in the payload")
        raw = np.memmap(f, dtype="<f8", mode="r", offset=12, shape=(3, *dims))
    return TabulatedBrdf(name=path.rsplit("/", 1)[-1].rsplit(".", 1)[0], raw=raw)


def save_merl(brdf: TabulatedBrdf, path) -> None:
    """Write the exact inverse of load_merl.

    The payload goes out one channel at a time, in chunks of _CHECK_CHUNK
    values: a loaded table's raw payload as it is, other tables divided by
    the channel scale with negative sentinels put back undivided. Each chunk
    is checked before it is written, and a NaN or infinite value (a value
    above about max double / 1500 overflows the divide) raises FormatError,
    since load_merl would refuse it. The file is written under a temporary
    name next to path and then moved onto it, so a refused table leaves any
    file at path as it was and no temporary behind, and a loaded table can
    be saved over the file it maps.
    """
    path = str(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    payload = brdf.values if brdf.raw is None else brdf.raw
    f = open(tmp, "wb")
    try:
        with f:
            f.write(struct.pack("<3i", *brdf.resolution))
            buf = np.empty(min(payload[0].size, _CHECK_CHUNK), dtype="<f8")
            for scale, channel in zip(CHANNEL_SCALES, payload):
                channel = channel.reshape(-1)
                for start in range(0, channel.size, _CHECK_CHUNK):
                    part = channel[start : start + _CHECK_CHUNK]
                    if brdf.raw is None:
                        values, part = part, buf[: part.size]
                        with np.errstate(over="ignore"):  # an overflow is refused just below
                            np.divide(values, scale, out=part)
                        np.copyto(part, values, where=values < 0.0)
                    if not np.isfinite(part).all():
                        raise FormatError(f"{path}: NaN or infinite values in the payload")
                    f.write(memoryview(part).cast("B"))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


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


def lookup(brdf: TabulatedBrdf, theta_h, theta_d, phi_d) -> np.ndarray:
    """Vectorized nearest-bin read: values of shape (..., 3), invalid bins zeroed on every channel."""
    i = theta_h_index(theta_h, brdf.res_theta_h)
    j = theta_d_index(theta_d, brdf.res_theta_d)
    k = phi_d_index(phi_d, brdf.res_phi_d)
    vals = brdf.values[:, i, j, k] if brdf.raw is None else _scaled(brdf.raw[:, i, j, k])
    vals = np.moveaxis(vals, 0, -1)  # (..., 3)
    return np.where(np.any(vals < 0.0, axis=-1, keepdims=True), 0.0, vals)
