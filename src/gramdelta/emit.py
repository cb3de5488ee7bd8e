"""CSV and JSON emission with reproducible bytes.

CSV files carry '#'-prefixed metadata lines (#version, #model, ...),
an RFC-4180 body of named columns, and for every float array among them a
hex-float twin column, so a reader can recover the exact bits while the
decimal column stays plot-friendly. No timestamps: identical configuration
must give identical bytes. The column lengths are checked before the target
is opened, so a ragged table creates no file and writes nothing; the body
is then formatted and written ROW_BLOCK rows at a time (the '#' lines and
header with the first block), so the cells held at once do not grow with
the row count. Every write goes through _write_text.
"""

from __future__ import annotations

import contextlib
import json
import sys
from pathlib import Path

import numpy as np

CSV_VERSION = "1"
# rows formatted and written at a time, by write_csv and by cache appends
ROW_BLOCK = 1024


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):  # repr(np.float64) is "np.float64(...)"
        return repr(float(value))
    return str(value)


def _cells(column) -> list[str]:
    """Decimal cells of one column. Numeric arrays are formatted in bulk;
    they cannot hold ',', '"' or a newline, so only other columns are
    quoted."""
    if isinstance(column, np.ndarray):
        if column.dtype.kind == "f":
            return list(map(repr, column.tolist()))
        if column.dtype.kind in "iub":
            return list(map(str, column.tolist()))
    return [_quote(_fmt(v)) for v in column]


def write_csv(out, metadata: dict, columns: dict) -> None:
    """Write one column (sequence) per named entry, in order, then a hex twin
    named <name>_hex for each float array among them, in the same order.
    Raises ValueError, before the target is opened, if the columns differ
    in length."""
    lengths = sorted({len(col) for col in columns.values()})
    if len(lengths) > 1:
        raise ValueError(f"columns differ in length: {lengths}")
    twins = {name: col for name, col in columns.items()
             if isinstance(col, np.ndarray) and col.dtype.kind == "f"}
    lines = [f"#version={CSV_VERSION}"]
    lines += [f"#{key}={val}" for key, val in metadata.items()]
    lines.append(",".join([*columns, *(f"{name}_hex" for name in twins)]))
    text = "\n".join(lines) + "\n"  # goes out with the first block
    with _open(out) as fh:
        for lo in range(0, lengths[0] if lengths else 0, ROW_BLOCK):
            cells = [_cells(col[lo:lo + ROW_BLOCK]) for col in columns.values()]
            cells += [list(map(float.hex, col[lo:lo + ROW_BLOCK].tolist()))
                      for col in twins.values()]
            _write_text(fh, text + "\n".join(map(",".join, zip(*cells))) + "\n")
            text = ""
        if text:  # no rows
            _write_text(fh, text)


def _quote(cell: str) -> str:
    if any(ch in cell for ch in ',"\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def write_json(out, payload: dict) -> None:
    _write_text(out, json.dumps(payload, sort_keys=True, indent=2) + "\n")


@contextlib.contextmanager
def _open(out):
    """The text stream of an output: stdout for None or "-", an open stream
    as it is, else the file, its directories made first."""
    if out is None or out == "-":
        yield sys.stdout
        return
    if hasattr(out, "write"):
        yield out
        return
    path = Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        yield fh


def _write_text(out, text: str) -> None:
    """Write text to an output or an open stream (see _open); every byte
    that emit writes passes through here."""
    with _open(out) as fh:
        fh.write(text)
