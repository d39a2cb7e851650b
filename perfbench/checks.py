"""Output checks and a text-table reader that does not use the package.

Each check returns ``(name, problems)``; an empty problem list is a pass.
The benchmark counts every command and every check as one operation, and a
check with problems as one failed operation.
"""

from __future__ import annotations

import hashlib
import math
import pathlib

from scipy.stats import spearmanr


def read_text_table(path) -> tuple[str, list[str], list[list[str]]]:
    """Returns (kind line, column names, rows of string fields)."""
    lines = pathlib.Path(path).read_text(encoding="ascii").splitlines()
    columns: list[str] = []
    rows = []
    for line in lines[1:]:
        if line.startswith("# ") and "=" not in line:
            columns = line[2:].split()
        elif line.strip() and not line.startswith("#"):
            rows.append(line.split())
    return lines[0] if lines else "", columns, rows


def column(path, name: str) -> list[str]:
    _, columns, rows = read_text_table(path)
    i = columns.index(name)
    return [r[i] for r in rows]


def table_sizes(directory, res: tuple[int, int, int], expected_count: int):
    """Every binary table is a 12-byte header plus 3 float64 channels."""
    want = 12 + 8 * 3 * res[0] * res[1] * res[2]
    tables = sorted(pathlib.Path(directory).glob("*.binary"))
    problems = [f"{p.name}: {p.stat().st_size} bytes, want {want}" for p in tables if p.stat().st_size != want]
    if len(tables) != expected_count:
        problems.append(f"{len(tables)} tables, want {expected_count}")
    return "table_sizes", problems


def sample_rows(directories, k: int, expected_count: int):
    """Every sample file holds exactly k data rows."""
    problems = []
    count = 0
    for d in directories:
        for p in sorted(pathlib.Path(d).glob("*.txt")):
            kind, _, rows = read_text_table(p)
            if not kind.startswith("# brdfnqm-samples"):
                continue
            count += 1
            if len(rows) != k:
                problems.append(f"{p.name}: {len(rows)} rows, want {k}")
    if count != expected_count:
        problems.append(f"{count} sample files, want {expected_count}")
    return "sample_rows", problems


def report_rows(path, expected: int = 9):
    """The correlate report lists every metric with a finite correlation."""
    lines = [ln.split() for ln in pathlib.Path(path).read_text().splitlines()[2:] if ln.strip()]
    problems = [f"non-finite row {ln}" for ln in lines if len(ln) != 2 or not math.isfinite(float(ln[1]))]
    if len(lines) != expected:
        problems.append(f"{len(lines)} report rows, want {expected}")
    return "report_rows", problems


def checkpoint_jod_range(path) -> tuple[float, float]:
    """jod_min/jod_max from the checkpoint's text header."""
    fields = {}
    with open(path, "rb") as f:
        for raw in f:
            line = raw.decode("ascii", "replace").strip()
            if not line:
                break
            key, _, value = line.partition(" ")
            fields[key] = value
    return float(fields["jod_min"]), float(fields["jod_max"])


def prediction_range(preds_path, checkpoint_path, expected_count: int):
    """Every prediction is finite and inside the checkpoint's JOD range."""
    lo, hi = checkpoint_jod_range(checkpoint_path)
    values = [float(v) for v in column(preds_path, "jod_pred")]
    problems = [f"prediction {v} outside [{lo}, {hi}]" for v in values if not lo <= v <= hi]
    if len(values) != expected_count:
        problems.append(f"{len(values)} predictions, want {expected_count}")
    return "prediction_range", problems


def history_rows(path, epochs: int):
    _, _, rows = read_text_table(path)
    problems = [] if len(rows) == epochs else [f"{len(rows)} history rows, want {epochs}"]
    problems += [f"non-finite loss in {r}" for r in rows if not all(math.isfinite(float(v)) for v in r[1:3])]
    return "history_rows", problems


def digest(root) -> dict[str, str]:
    """sha256 of every file under root, with the root path itself stripped."""
    root = pathlib.Path(root)
    marker = str(root).encode()
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes().replace(marker, b"<root>")).hexdigest()
    return out


def same_digests(digests: list[dict[str, str]]):
    """Runs of one seed write identical artifacts."""
    problems = []
    for i, d in enumerate(digests[1:], start=1):
        if d.keys() != digests[0].keys():
            problems.append(f"iteration {i} wrote files {sorted(d.keys() ^ digests[0].keys())[:5]}")
            continue
        problems += [f"iteration {i}: {rel} differs" for rel in d if d[rel] != digests[0][rel]]
    return "same_digests", problems


def bytes_under(root) -> int:
    return sum(p.stat().st_size for p in pathlib.Path(root).rglob("*") if p.is_file())


def heldout_spearman(preds_path, labels_path, pairs_path, held_out: set[str]) -> float:
    """Mean over held-out materials of Spearman(prediction, label JOD)."""
    pred = dict(zip(column(preds_path, "pair_id"), map(float, column(preds_path, "jod_pred"))))
    label = dict(zip(column(labels_path, "pair_id"), map(float, column(labels_path, "jod"))))
    material = dict(zip(column(pairs_path, "pair_id"), column(pairs_path, "material")))
    per_material = []
    for m in sorted(held_out):
        ids = [pid for pid, mat in material.items() if mat == m]
        per_material.append(spearmanr([pred[i] for i in ids], [label[i] for i in ids]).statistic)
    return sum(per_material) / len(per_material)
