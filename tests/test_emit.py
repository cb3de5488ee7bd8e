from __future__ import annotations

import io
import math
import tracemalloc

import numpy as np
import pytest

from gramdelta.emit import ROW_BLOCK, write_csv


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


# every float array gets a hex twin, in column order; lists and int and
# bool arrays do not
MIXED_HEADER = ["i", "farr", "x", "y", "flag", "label", "arr", "karr", "barr", "fl",
                "mix"]
MIXED_FLOATS = ["farr", "arr"]
MIXED_COLUMNS = [
    [1, -2, 10 ** 20],
    np.array([-0.0, 1e-300, 7.5]),
    [0.1, -0.0, 1e300],
    [np.float64(1.5), np.float64(-math.inf), np.float64(2.0 ** -1074)],
    [True, False, np.True_],
    ["a,b", 'say "hi"', "line\nbreak"],
    np.array([math.pi, math.nan, -1e-310]),
    np.arange(1, 4),
    np.array([False, True, True]),
    [math.inf, 2.0 ** -1074, -1.0 / 3.0],  # a list of floats: cell by cell
    [3, 0.5, -7],                          # ints among floats: cell by cell
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
    write_csv(str(out), meta, dict(zip(header, columns)))
    assert out.read_bytes() == expected.encode()
    write_csv(None, meta, dict(zip(header, columns)))
    assert capsys.readouterr().out == expected


def test_columns_must_match_the_header(tmp_path, capsys):
    out = tmp_path / "sub" / "table.csv"
    for target in (str(out), None):
        # a short column is found before the target is opened, whichever
        # column it is and however long the others
        for columns in ([[1, 2], [3]], [np.arange(3000), np.arange(2999.0)],
                        [[0.5] * 2000, ["x"] * 2000, [1] * 2001]):
            with pytest.raises(ValueError):
                write_csv(target, {}, dict(zip("abc", columns)))
    assert not (tmp_path / "sub").exists()
    assert capsys.readouterr().out == ""


def _long_columns(rows):
    """An int and two float arrays, a list of floats and a list of strings
    (quoted every 1,000th row), rows long."""
    ks = np.arange(rows)
    return [ks, ks / 7.0, (ks / 3.0).tolist(), ks * -0.5,
            ["a,b" if k % 1000 == 0 else "good" for k in range(rows)]]


LONG_HEADER = ["k", "x", "third", "half", "label"]
LONG_FLOATS = ["x", "half"]


@pytest.mark.parametrize("rows", [0, 1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1,
                                  200_000])
def test_blocks_give_the_rowwise_bytes(tmp_path, capsys, rows):
    columns = _long_columns(rows)
    meta = {"model": "riemann", "rows": rows}
    expected = _rowwise_csv(meta, LONG_HEADER, zip(*columns), LONG_FLOATS)
    out = tmp_path / "table.csv"
    write_csv(str(out), meta, dict(zip(LONG_HEADER, columns)))
    assert out.read_bytes() == expected.encode()
    write_csv("-", meta, dict(zip(LONG_HEADER, columns)))
    assert capsys.readouterr().out == expected


def test_working_memory_does_not_grow_with_the_rows(tmp_path):
    # 200,000 rows, 9 MB of file: formatted whole, they peaked at 81 MB
    ks = np.arange(200_000)
    columns = {"k": ks, "x": ks / 7.0}
    tracemalloc.start()
    try:
        write_csv(str(tmp_path / "table.csv"), {}, columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


@pytest.mark.parametrize("rows", [0, ROW_BLOCK, ROW_BLOCK + 1])
def test_every_byte_goes_through_write_text(tmp_path, monkeypatch, rows):
    # one _write_text call per block, the '#' lines and header with the first
    import gramdelta.emit as emit
    texts = []
    write_text = emit._write_text
    monkeypatch.setattr(emit, "_write_text",
                        lambda out, text: (texts.append(text), write_text(out, text)))
    out = tmp_path / "table.csv"
    write_csv(str(out), {"rows": rows}, dict(zip(LONG_HEADER, _long_columns(rows))))
    assert "".join(texts).encode() == out.read_bytes()
    assert len(texts) == max(1, -(-rows // ROW_BLOCK))
