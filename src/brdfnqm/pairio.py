"""Reading and writing sampled-pair artifacts as structured text."""

from __future__ import annotations

import weakref

import numpy as np

from .errors import FormatError, PairingError
from .sampling import DirectionSet, SampledBrdf
from .tables import _write_lines, read_numeric_table

SAMPLE_COLUMNS = ["theta_h", "theta_d", "phi_d", "cos_wi", "cos_wo", "r", "g", "b"]

# row prefixes of each live DirectionSet, dropped when the set is freed;
# a set's arrays are read-only, so its text cannot go stale
_row_prefixes: weakref.WeakKeyDictionary[DirectionSet, list[str]] = weakref.WeakKeyDictionary()


def _format_directions(path, d: DirectionSet) -> list[str]:
    """Each row's five direction fields as repr text joined by spaces, plus a trailing space."""
    columns = d.columns()
    if not np.isfinite(columns).all():
        raise FormatError(f"{path}: NaN or infinite direction values cannot be written")
    return [" ".join(map(repr, row)) + " " for row in columns.tolist()]


def write_samples(path, sampled: SampledBrdf) -> None:
    """Write a sample file; a NaN or infinite value raises FormatError before the file is opened.

    The direction columns' text is formatted once per DirectionSet and reused
    by every file written on that set, so each further file formats only its
    k x 3 values.
    """
    d = sampled.directions
    if not np.isfinite(sampled.values).all():
        raise FormatError(f"{path}: NaN or infinite values cannot be written")
    prefixes = _row_prefixes.get(d)
    if prefixes is None:
        prefixes = _row_prefixes[d] = _format_directions(path, d)
    lines = [f"{prefix}{r!r} {g!r} {b!r}\n" for prefix, (r, g, b) in zip(prefixes, sampled.values.tolist())]
    _write_lines(path, "samples", SAMPLE_COLUMNS, lines, {"k": d.k, "seed": d.seed, "material": d.source_material})


def read_samples(path, directions: DirectionSet | None = None) -> SampledBrdf:
    """Load a sample file; pass a DirectionSet to share it across a pair."""
    meta, columns, data = read_numeric_table(path, "samples")
    if columns != SAMPLE_COLUMNS:
        raise FormatError(f"{path}: unexpected columns {columns}")
    try:
        k, seed = int(meta.get("k", len(data))), int(meta.get("seed", 0))
    except ValueError:
        raise FormatError(f"{path}: header k={meta.get('k')} seed={meta.get('seed')} is not integral") from None
    if len(data) != k:
        raise FormatError(f"{path}: row count {len(data)} != header k={k}")
    if directions is None:
        directions = DirectionSet(*data[:, :5].T, seed=seed, source_material=meta.get("material", ""))
    elif not np.array_equal(directions.columns(), data[:, :5]):
        raise PairingError(f"{path}: directions differ from the shared set")
    return SampledBrdf(values=data[:, 5:8].copy(), directions=directions)


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
