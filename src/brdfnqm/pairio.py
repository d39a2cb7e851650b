"""Reading and writing sampled-pair artifacts as structured text: one row per direction, its three angles, then r, g, b."""

from __future__ import annotations

import re

import numpy as np

from .errors import FormatError, PairingError
from .sampling import DirectionSet, SampledBrdf
from .tables import _read_parts, _write_lines

SAMPLE_COLUMNS = ["theta_h", "theta_d", "phi_d", "r", "g", "b"]

# v3 rows hold each float64 as the 16 hex digits of its big-endian IEEE-754 bits
SAMPLES_VERSION = 3
_ROW_WIDTH = 17 * len(SAMPLE_COLUMNS) - 1
_HEX_FIELD = re.compile(r"[0-9a-fA-F]{16}")


def write_samples(path, sampled: SampledBrdf) -> None:
    """Write a sample file; no samples, or a NaN or infinite value, raise FormatError before the file is opened."""
    d = sampled.directions
    if d.k < 1:
        raise FormatError(f"{path}: header k={d.k} is not a sample count of at least 1")
    data = np.column_stack((d.columns(), sampled.values))
    if not np.isfinite(data).all():
        raise FormatError(f"{path}: NaN or infinite values cannot be written")
    body = bytearray(data.astype(">f8").tobytes().hex(" ", 8) + "\n", "ascii")
    body[_ROW_WIDTH::_ROW_WIDTH + 1] = b"\n" * d.k  # the space after each row's last field ends the row
    _write_lines(path, "samples", SAMPLE_COLUMNS, [body.decode()],
                 {"k": d.k, "seed": d.seed, "material": d.source_material}, SAMPLES_VERSION)


def _malformed_row(path, rows) -> FormatError:
    """The error naming the first row that is not six 16-digit hex fields separated by single spaces."""
    for i, row in enumerate(rows, start=1):
        fields = row.split(" ")
        bad = next((f for f in fields if not _HEX_FIELD.fullmatch(f)), None)
        if bad is not None:
            return FormatError(f"{path}: row {i} field {bad!r} is not 16 hex digits")
        if len(fields) != len(SAMPLE_COLUMNS):
            return FormatError(f"{path}: row {i} has {len(fields)} fields, not {len(SAMPLE_COLUMNS)}")
    return FormatError(f"{path}: malformed sample rows")


def read_samples(path, directions: DirectionSet | None = None) -> SampledBrdf:
    """Load a sample file; pass a DirectionSet to share it across a pair.

    The rows are checked for layout, then decoded by one ``bytes.fromhex``;
    a header without a sample count k >= 1, a malformed row or a NaN/infinite
    value raises `FormatError`.
    """
    meta, columns, body = _read_parts(path, "samples", SAMPLES_VERSION)
    if columns != SAMPLE_COLUMNS:
        raise FormatError(f"{path}: unexpected columns {columns}")
    try:
        k, seed = int(meta.get("k", 0)), int(meta.get("seed", 0))
    except ValueError:
        raise FormatError(f"{path}: header k={meta.get('k')} seed={meta.get('seed')} is not integral") from None
    if k < 1:
        raise FormatError(f"{path}: header k={meta.get('k')} is not a sample count of at least 1")
    rows = list(filter(None, body))
    if len(rows) != k:
        raise FormatError(f"{path}: row count {len(rows)} != header k={k}")
    # every 17th character separates two fields: a space within a row, a newline between rows
    text = "\n".join(rows)
    if len(text) != (_ROW_WIDTH + 1) * k - 1 or text[16::17] != ((" " * (len(SAMPLE_COLUMNS) - 1) + "\n") * k)[:-1]:
        raise _malformed_row(path, rows)
    try:  # a field that holds whitespace decodes to fewer bytes, which do not reshape
        data = np.frombuffer(bytes.fromhex(text), ">f8").reshape(k, len(SAMPLE_COLUMNS)).astype(np.float64)
    except ValueError:
        raise _malformed_row(path, rows) from None
    if not np.isfinite(data).all():
        raise FormatError(f"{path}: NaN or infinite values in the table")
    if directions is None:
        directions = DirectionSet(*data[:, :3].T, seed=seed, source_material=meta.get("material", ""))
    elif not np.array_equal(directions.columns(), data[:, :3]):
        raise PairingError(f"{path}: directions differ from the shared set")
    return SampledBrdf(values=data[:, 3:].copy(), directions=directions)


def read_pairs(paths) -> list[tuple[SampledBrdf, SampledBrdf]]:
    """Load (ref_path, dist_path) rows as pairs, in row order.

    Each distinct reference path is parsed once; its SampledBrdf, and so its
    DirectionSet object, is shared by every pair that names it.
    """
    refs: dict = {}
    pairs = []
    for ref_path, dist_path in paths:
        ref = refs.get(ref_path)
        if ref is None:
            ref = refs[ref_path] = read_samples(ref_path)
        pairs.append((ref, read_samples(dist_path, directions=ref.directions)))
    return pairs


def read_pair(ref_path, dist_path) -> tuple[SampledBrdf, SampledBrdf]:
    """Load both members of a pair sharing one DirectionSet object."""
    (pair,) = read_pairs([(ref_path, dist_path)])
    return pair
