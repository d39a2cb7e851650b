"""Structured text tables: the toolkit's diff-able interchange format.

Every file starts with a versioned kind line, optional `# key=value`
metadata lines, a `# col col ...` column header, then whitespace-separated
rows. Floats are written with repr so rereads are bit-exact.
"""

from __future__ import annotations

import numpy as np

from .errors import FormatError

FORMAT_VERSION = 1


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _field(v) -> str:
    """_fmt of a row field; a non-float one that would not read back as one field raises ValueError."""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if (text := str(v)).split() != [text]:
        raise ValueError(text)
    return text


def check_field(path, column: str, value) -> None:
    """Raise FormatError naming the file and the column if ``value`` would not read back as one field."""
    try:
        _field(value)
    except ValueError:
        raise FormatError(f"{path}: {column} field {str(value)!r} is empty or holds whitespace") from None


def write_table(path, kind: str, columns: list[str], rows, meta: dict | None = None) -> None:
    """Write a table; a row field that is empty or holds whitespace raises FormatError before the file is opened."""
    try:
        lines = [" ".join(map(_field, row)) + "\n" for row in rows]
    except ValueError:
        for row in rows:
            for column, value in zip(columns, row):
                check_field(path, column, value)
        raise
    with open(str(path), "w", encoding="ascii") as f:
        f.write(f"# brdfnqm-{kind} v{FORMAT_VERSION}\n")
        for key, value in (meta or {}).items():
            f.write(f"# {key}={_fmt(value)}\n")
        f.write("# " + " ".join(columns) + "\n")
        f.writelines(lines)


def _read_parts(path, kind: str):
    """Returns (meta dict of strings, column names, body lines after the column header)."""
    try:
        with open(str(path), "r", encoding="ascii") as f:
            lines = f.read().splitlines()
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not an ASCII brdfnqm-{kind} table") from None
    if not lines or not lines[0].startswith(f"# brdfnqm-{kind} v"):
        raise FormatError(f"{path}: not a brdfnqm-{kind} table")
    version = lines[0].rsplit("v", 1)[-1]
    if version != str(FORMAT_VERSION):
        raise FormatError(f"{path}: unsupported table version {version}")
    meta: dict[str, str] = {}
    for body_start, line in enumerate(lines[1:], start=2):
        if line.startswith("# ") and "=" in line:
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif line.startswith("# "):
            return meta, line[2:].split(), lines[body_start:]
        elif line.strip():
            break
    raise FormatError(f"{path}: missing column header")


def read_table(path, kind: str):
    """Returns (meta dict of strings, column names, rows of string fields)."""
    meta, columns, body = _read_parts(path, kind)
    rows = [r for r in map(str.split, body) if r]
    for r in rows:
        if len(r) != len(columns):
            raise FormatError(f"{path}: row width {len(r)} != {len(columns)} columns")
    return meta, columns, rows


def read_numeric_table(path, kind: str):
    """Returns (meta, column names, float64 array of shape (rows, columns)).

    The body is parsed in one vectorised pass that rounds exactly as
    ``float()`` does; a malformed number, a ragged row or a NaN/infinite
    value raises `FormatError`.
    """
    meta, columns, body = _read_parts(path, kind)
    if any(map(str.strip, body)):
        try:
            data = np.loadtxt(body, dtype=np.float64, comments=None, ndmin=2)
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from None
    else:
        data = np.empty((0, len(columns)))
    if data.shape[1] != len(columns):
        raise FormatError(f"{path}: row width {data.shape[1]} != {len(columns)} columns")
    if not np.isfinite(data).all():
        raise FormatError(f"{path}: NaN or infinite values in the table")
    return meta, columns, data
