"""Reading and writing sampled-pair artifacts as structured text."""

from __future__ import annotations

import numpy as np

from .errors import FormatError, PairingError
from .sampling import DirectionSet, SampledBrdf
from .tables import read_numeric_table, write_table

SAMPLE_COLUMNS = ["theta_h", "theta_d", "phi_d", "cos_wi", "cos_wo", "r", "g", "b"]


def write_samples(path, sampled: SampledBrdf) -> None:
    d = sampled.directions
    rows = np.column_stack((d.theta_h, d.theta_d, d.phi_d, d.cos_wi, d.cos_wo, sampled.values)).tolist()
    meta = {"k": d.k, "seed": d.seed, "material": d.source_material}
    write_table(path, "samples", SAMPLE_COLUMNS, rows, meta=meta)


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
        directions = DirectionSet(
            theta_h=data[:, 0].copy(),
            theta_d=data[:, 1].copy(),
            phi_d=data[:, 2].copy(),
            cos_wi=data[:, 3].copy(),
            cos_wo=data[:, 4].copy(),
            seed=seed,
            source_material=meta.get("material", ""),
        )
    else:
        if not np.array_equal(directions.angles(), data[:, :3]):
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
