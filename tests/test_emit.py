from __future__ import annotations

import io
import math

import numpy as np
import pytest

from gramdelta.emit import write_csv


def _rowwise_csv(metadata, header, rows, float_cols) -> str:
    """The row-by-row writer that write_csv replaced, kept as the byte reference."""
    def fmt(value):
        if isinstance(value, (float, np.floating)):
            return repr(float(value))
        return str(value)

    def quote(cell):
        if any(ch in cell for ch in ',"\n'):
            return '"' + cell.replace('"', '""') + '"'
        return cell

    hex_idx = [header.index(c) for c in float_cols]
    buf = io.StringIO()
    buf.write("#version=1\n")
    for key, val in metadata.items():
        buf.write(f"#{key}={val}\n")
    buf.write(",".join(header + [f"{c}_hex" for c in float_cols]) + "\n")
    for row in rows:
        cells = [fmt(v) for v in row] + [float(row[i]).hex() for i in hex_idx]
        buf.write(",".join(quote(c) for c in cells) + "\n")
    return buf.getvalue()


MIXED_HEADER = ["i", "x", "y", "flag", "label", "arr", "karr", "barr"]
MIXED_FLOATS = ["x", "y", "arr", "karr"]
MIXED_COLUMNS = [
    [1, -2, 10 ** 20],
    [0.1, -0.0, 1e300],
    [np.float64(1.5), np.float64(-math.inf), np.float64(2.0 ** -1074)],
    [True, False, np.True_],
    ["a,b", 'say "hi"', "line\nbreak"],
    np.array([math.pi, math.nan, -1e-310]),
    np.arange(1, 4),
    np.array([False, True, True]),
]


@pytest.mark.parametrize("columns,header,float_cols", [
    (MIXED_COLUMNS, MIXED_HEADER, MIXED_FLOATS),
    ([[], np.array([])], ["n", "t"], ["t"]),
])
def test_columns_give_the_rowwise_bytes(tmp_path, capsys, columns, header, float_cols):
    meta = {"model": "riemann", "seed": 42, "note": "a,b"}
    rows = list(zip(*columns))
    expected = _rowwise_csv(meta, header, rows, float_cols)
    out = tmp_path / "sub" / "table.csv"
    write_csv(str(out), meta, header, columns, float_cols=float_cols)
    assert out.read_bytes() == expected.encode()
    write_csv(None, meta, header, columns, float_cols=float_cols)
    assert capsys.readouterr().out == expected


def test_columns_must_match_the_header():
    with pytest.raises(AssertionError):
        write_csv(None, {}, ["a", "b"], [[1, 2]])
    with pytest.raises(ValueError):
        write_csv(None, {}, ["a", "b"], [[1, 2], [3]])
