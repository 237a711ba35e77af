"""Deterministic file I/O: JSON summaries, CSV tables, matrix-file parsing.

All floats are written with 17 significant digits (enough to round-trip a
double exactly), keys keep insertion order, and line endings are fixed to
"\\n", so identical inputs produce byte-identical files on every platform.
No timestamps appear in data files.
"""

from __future__ import annotations

import json
import math
import numbers
from pathlib import Path

import numpy as np

from .errors import MatrixParseError

FLOAT_FMT = ".17g"


def fmt_float(x: float) -> str:
    """Render a finite float as a JSON/CSV-safe decimal literal."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return format(x, FLOAT_FMT)


def _json_value(obj, indent: int) -> str:
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k), ensure_ascii=False)}: {_json_value(v, indent + 2)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{inner}{_json_value(v, indent + 2)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        c = complex(obj)
        return (
            '{"re": ' + fmt_float(c.real) + ', "im": ' + fmt_float(c.imag) + "}"
        )
    if isinstance(obj, (float, np.floating, numbers.Real)):
        return fmt_float(float(obj))
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def dump_json(obj) -> str:
    """Serialize to pretty-printed JSON with deterministic formatting."""
    return _json_value(obj, 0) + "\n"


def _write_utf8(path, text: str) -> None:
    # Encode before opening: text that cannot be encoded (a path with a
    # lone surrogate, say) must not leave an empty file behind.
    data = text.encode("utf-8")
    Path(path).write_bytes(data)


def write_json(path, obj) -> None:
    _write_utf8(path, dump_json(obj))


def write_csv(path, header, rows) -> None:
    """Write a CSV table with a header row and fixed float formatting.

    ``rows`` is a 2-D float64 array or any sequence of rows of numbers.
    Every table is converted to one float64 array, so an integer cell
    such as ``k`` writes as ``1`` and text that is not a number raises
    ``ValueError``.  The array is scanned for a non-finite value once,
    raising the ``ValueError`` that ``fmt_float`` raises for the first
    one, and each row is formatted with one ``"%.17g,...,%.17g"`` string;
    for a finite float, ``%`` formatting writes the same bytes as
    ``fmt_float``.
    """
    table = np.asarray(rows, dtype=float)
    finite = np.isfinite(table)
    if not finite.all():
        fmt_float(table[~finite][0])  # raises, naming the first one
    row_fmt = ",".join(["%" + FLOAT_FMT] * len(header))
    lines = [",".join(header)] + [row_fmt % tuple(row) for row in table.tolist()]
    _write_utf8(path, "\n".join(lines) + "\n")


def _parse_token(tok: str, line_no: int, col_no: int) -> complex:
    try:
        return complex(tok)
    except ValueError:
        raise MatrixParseError(
            f"invalid matrix entry {tok!r} (expected `re` or `re+imj`)",
            line=line_no,
            column=col_no,
        ) from None


def parse_matrix_file(path) -> np.ndarray:
    """Parse a whitespace-separated complex matrix from a UTF-8 text file.

    One row per line; each entry is `re` or `re+imj` / `re-imj`.  Blank
    lines are skipped.  Errors carry 1-based line and token positions.

    Raises
    ------
    MatrixParseError
        On unreadable files, invalid tokens, ragged rows, or empty input.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise MatrixParseError(f"cannot read matrix file {path}: {exc}") from exc
    rows = []
    row_lines = []  # source line number of each row
    width = None
    for line_no, line in enumerate(text.splitlines(), start=1):
        toks = line.split()
        if not toks:
            continue
        if width is None:
            width = len(toks)
        elif len(toks) != width:
            raise MatrixParseError(
                f"row has {len(toks)} entries, expected {width}",
                line=line_no,
                column=min(len(toks), width) + 1,
            )
        try:
            row = list(map(complex, toks))
        except ValueError:  # parse again token by token to locate the error
            row = [_parse_token(t, line_no, c) for c, t in enumerate(toks, start=1)]
        rows.append(row)
        row_lines.append(line_no)
    if not rows:
        raise MatrixParseError("matrix file contains no rows")
    entries = np.array(rows, dtype=complex)
    finite = np.isfinite(entries)
    if not finite.all():
        i, j = (int(k) for k in np.argwhere(~finite)[0])
        line_no = row_lines[i]
        tok = text.splitlines()[line_no - 1].split()[j]
        raise MatrixParseError(
            f"non-finite matrix entry {tok!r}", line=line_no, column=j + 1
        )
    return entries
