"""CSV and JSON emission with reproducible bytes.

CSV files carry '#'-prefixed metadata lines (#version, #model, ...),
an RFC-4180 body, and for every float column a hex-float twin column, so a
reader can recover the exact bits while the decimal column stays
plot-friendly. No timestamps: identical configuration must give identical
bytes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

CSV_VERSION = "1"


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):  # repr(np.float64) is "np.float64(...)"
        return repr(float(value))
    return str(value)


def _cells(column) -> list[str]:
    """Decimal cells of one column. Numeric arrays are formatted in bulk; they
    cannot hold ',', '"' or a newline, so only other columns are quoted."""
    if isinstance(column, np.ndarray):
        if column.dtype.kind == "f":
            return list(map(repr, column.tolist()))
        if column.dtype.kind in "iub":
            return list(map(str, column.tolist()))
    return [_quote(_fmt(v)) for v in column]


def _hex_cells(column) -> list[str]:
    if isinstance(column, np.ndarray):
        return list(map(float.hex, column.astype(float).tolist()))
    return [float(v).hex() for v in column]


def write_csv(out, metadata: dict, header: list[str], columns,
              float_cols: list[str] | None = None) -> None:
    """Write one column (sequence) per header entry plus hex twins for float_cols."""
    assert len(columns) == len(header), (len(columns), len(header))
    float_cols = float_cols or []
    cells = [_cells(col) for col in columns]
    cells += [_hex_cells(columns[header.index(c)]) for c in float_cols]
    lines = [f"#version={CSV_VERSION}"]
    lines += [f"#{key}={val}" for key, val in metadata.items()]
    lines.append(",".join(header + [f"{c}_hex" for c in float_cols]))
    lines += map(",".join, zip(*cells, strict=True))
    _write_text(out, "\n".join(lines) + "\n")


def _quote(cell: str) -> str:
    if any(ch in cell for ch in ',"\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def write_json(out, payload: dict) -> None:
    _write_text(out, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_text(out, text: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text)
