"""CSV and JSON emission with reproducible bytes.

CSV files carry '#'-prefixed metadata lines (#version, #model, #seed, ...),
an RFC-4180 body, and for every float column a hex-float twin column, so a
reader can recover the exact bits while the decimal column stays
plot-friendly. No timestamps: identical configuration must give identical
bytes.
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

import numpy as np

CSV_VERSION = "1"


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):  # repr(np.float64) is "np.float64(...)"
        return repr(float(value))
    return str(value)


def write_csv(out, metadata: dict, header: list[str], rows,
              float_cols: list[str] | None = None) -> None:
    """Write rows (sequences aligned with header) plus hex twins for float_cols."""
    float_cols = float_cols or []
    hex_idx = [header.index(c) for c in float_cols]
    full_header = header + [f"{c}_hex" for c in float_cols]
    buf = io.StringIO()
    buf.write(f"#version={CSV_VERSION}\n")
    for key, val in metadata.items():
        buf.write(f"#{key}={val}\n")
    buf.write(",".join(full_header) + "\n")
    for row in rows:
        cells = [_fmt(v) for v in row]
        cells += [float(row[i]).hex() for i in hex_idx]
        buf.write(",".join(_quote(c) for c in cells) + "\n")
    _write_text(out, buf.getvalue())


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
