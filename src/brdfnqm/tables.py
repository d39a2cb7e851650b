"""Structured text tables: the toolkit's diff-able interchange format.

Every file starts with a versioned kind line, optional `# key=value`
metadata lines, a `# col col ...` column header, then whitespace-separated
rows. Floats are written with repr so rereads are bit-exact; sample files
(`pairio`) have their own version, whose rows hold floats as hex bit patterns.
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


def _write_lines(path, kind: str, columns: list[str], lines: list[str], meta: dict | None, version: int = FORMAT_VERSION) -> None:
    """Write the kind line, the metadata and the column header, then the formatted body lines."""
    with open(str(path), "w", encoding="ascii") as f:
        f.write(f"# brdfnqm-{kind} v{version}\n")
        for key, value in (meta or {}).items():
            f.write(f"# {key}={_fmt(value)}\n")
        f.write("# " + " ".join(columns) + "\n")
        f.writelines(lines)


def write_table(path, kind: str, columns: list[str], rows, meta: dict | None = None) -> None:
    """Write a table; a row field that is empty or holds whitespace raises FormatError before the file is opened."""
    try:
        lines = [" ".join(map(_field, row)) + "\n" for row in rows]
    except ValueError:
        for row in rows:
            for column, value in zip(columns, row):
                check_field(path, column, value)
        raise
    _write_lines(path, kind, columns, lines, meta)


def _read_parts(path, kind: str, version: int = FORMAT_VERSION):
    """Returns (meta dict of strings, column names, body lines after the column header)."""
    try:
        with open(str(path), "r", encoding="ascii") as f:
            lines = f.read().splitlines()
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not an ASCII brdfnqm-{kind} table") from None
    if not lines or not lines[0].startswith(f"# brdfnqm-{kind} v"):
        raise FormatError(f"{path}: not a brdfnqm-{kind} table")
    found = lines[0].rsplit("v", 1)[-1]
    if found != str(version):
        raise FormatError(f"{path}: unsupported table version {found}")
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
