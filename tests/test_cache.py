from __future__ import annotations

import multiprocessing

import pytest

from gramdelta import cache
from gramdelta.cache import SHARD, RecordStore
from gramdelta.emit import ROW_BLOCK
from gramdelta.cli import main
from gramdelta.errors import CorruptCacheError, StaleCacheError
from gramdelta.gram import GramKind, GramRecord


def _record(n: int) -> GramRecord:
    kind = (GramKind.GOOD, GramKind.BAD, GramKind.INDETERMINATE)[n % 3]
    return GramRecord(n=n, t=100.0 + n / 7.0, z=(-1.0) ** n / (n + 3.0),
                      zprime=0.25 - n / 11.0, kind=kind, viscosity=n / 13.0)


def _shards(root) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.glob("*.csv"))}


def test_one_put_of_many_writes_the_bytes_of_single_puts(tmp_path):
    # two shards, a record given twice and one already stored
    ns = [SHARD - 3, SHARD - 2, SHARD - 1, SHARD, SHARD + 1, SHARD - 2, 5]
    single = RecordStore(tmp_path / "single")
    batch = RecordStore(tmp_path / "batch")
    single.put("riemann", _record(5))
    batch.put("riemann", _record(5))
    for n in ns:
        single.put("riemann", _record(n))
    batch.put("riemann", *(_record(n) for n in ns))
    assert _shards(tmp_path / "batch") == _shards(tmp_path / "single")
    assert len(_shards(tmp_path / "batch")) == 2
    fresh = RecordStore(tmp_path / "batch")
    for n in set(ns):
        assert fresh.get("riemann", n) == _record(n)


def test_put_of_several_blocks_writes_the_bytes_of_single_puts(tmp_path):
    # 2,600 records over two shards, the first shard's 1,600 in two blocks of
    # rows; a record given twice across a block boundary and one already stored
    ns = list(range(SHARD - 1600, SHARD + 1000))
    ns[ROW_BLOCK + 5] = ns[ROW_BLOCK - 5]
    ns.append(SHARD - 1600)
    single = RecordStore(tmp_path / "single")
    batch = RecordStore(tmp_path / "batch")
    for store in (single, batch):
        store.put("riemann", _record(SHARD - 10))
    for n in ns:
        single.put("riemann", _record(n))
    batch.put("riemann", *(_record(n) for n in ns))
    assert _shards(tmp_path / "batch") == _shards(tmp_path / "single")
    # the store's end of each shard is the file's, so the rows another store
    # appends later are read from there, and only they
    for shard, data in enumerate(_shards(tmp_path / "batch").values()):
        assert batch._ends[("riemann", shard)] == (len(data), data.count(b"\n"))
    RecordStore(tmp_path / "batch").put("riemann", _record(SHARD - 1601))
    batch.put("riemann", _record(SHARD - 1602))
    assert batch.get("riemann", SHARD - 1601) == _record(SHARD - 1601)
    fresh = RecordStore(tmp_path / "batch")
    assert all(fresh.get("riemann", n) == _record(n)
               for n in set(ns) | {SHARD - 1601, SHARD - 1602})
    assert fresh.status()["records"] == len(set(ns)) + 2


def test_put_of_nothing_writes_nothing(tmp_path):
    store = RecordStore(tmp_path / "cache")
    store.put("riemann")
    assert not (tmp_path / "cache").exists()


def _shard_with(tmp_path, row: str):
    store = RecordStore(tmp_path)
    store.put("riemann", _record(10), _record(11))
    shard = tmp_path / "riemann_000000.csv"
    text = shard.read_text()
    shard.write_text(text + row)
    return shard


@pytest.mark.parametrize("row", [
    "12,0x1.0p+6,0x1.0p+0\r\n",                               # too few fields
    "12,0x1.0p+6,0x1.0p+0,0x1.0p-1,good,0x1.0p-1,extra\r\n",  # too many
    "12,0x1.0p+6,0x1.0pz,0x1.0p-1,good,0x1.0p-1\r\n",         # malformed hex
    "12,0x1.0p+6,0x1.0p+0,0x1.0p-1,great,0x1.0p-1\r\n",       # unknown kind
    "1x,0x1.0p+6,0x1.0p+0,0x1.0p-1,good,0x1.0p-1\r\n",        # malformed index
    "12,0x1.0p+6,0x1.0p+0,0x1.0p-1,good,0x1.0p-1",            # cut before its line end
])
def test_incomplete_row_is_refused_with_shard_and_line(tmp_path, row):
    shard = _shard_with(tmp_path, row)
    with pytest.raises(CorruptCacheError) as info:
        RecordStore(tmp_path).get("riemann", 10)
    message = str(info.value)
    assert str(shard) in message and "line 6" in message
    assert "gdl cache clear" in message
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("row", [
    b"\xff\xfe,garbage\n",                                 # bytes no write produces
    "\u0661\u0662,0x1.0p+6,0x1.0p+0,0x1.0p-1,good,0x1.0p-1\n".encode(),  # Arabic-Indic digits
], ids=["undecodable", "non-ascii-digits"])
def test_non_ascii_row_is_refused_with_shard_and_line(tmp_path, capsys, row):
    # an undecodable byte ended in "'utf-8' codec can't decode byte 0xff",
    # naming neither the shard nor the cure, and int() read the digits as 12
    shard = _shard_with(tmp_path, "")
    shard.write_bytes(shard.read_bytes() + row)
    for read in (lambda: RecordStore(tmp_path).get("riemann", 10),
                 lambda: RecordStore(tmp_path).status()):
        with pytest.raises(CorruptCacheError) as info:
            read()
        message = str(info.value)
        assert str(shard) in message and "line 6" in message
        assert "gdl cache clear" in message
    assert main(["cache", "status", "--cache-dir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and str(shard) in captured.err


@pytest.mark.parametrize("version,error", [("4", StaleCacheError),
                                           (cache._VERSION, CorruptCacheError)],
                         ids=["stale", "current"])
def test_status_refuses_the_shard_that_get_refuses(tmp_path, capsys, version, error):
    # a torn last row, as a crash mid-append leaves; status counted it as a
    # record and exited 0 where a scan exits 1
    shard = _shard_with(tmp_path, "12,0x1.0p+6,0x1.0p+0,0x1.0p-1,good,0x1.0p-1")
    shard.write_text(shard.read_text().replace(f"#version={cache._VERSION}\n",
                                               f"#version={version}\n", 1))
    with pytest.raises(error):
        RecordStore(tmp_path).get("riemann", 10)
    with pytest.raises(error):
        RecordStore(tmp_path).status()
    assert main(["cache", "status", "--cache-dir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and str(shard) in captured.err


@pytest.mark.parametrize("cut,line", [
    ("", 1),
    ("\n#mod", 2),
    ("\n#model=riemann\nn,t_hex,z_h", 3),
], ids=["version-line", "model-line", "column-row"])
def test_shard_cut_inside_its_header_is_refused(tmp_path, cut, line):
    # later appends would merge into the cut line, which the loader skips
    (tmp_path / "riemann_000000.csv").write_text(f"#version={cache._VERSION}{cut}")
    with pytest.raises(CorruptCacheError, match=f"line {line} "):
        RecordStore(tmp_path).get("riemann", 10)


def test_stores_sharing_a_shard_append_each_record_once(tmp_path):
    # both stores read the shard before either appends, as two processes
    # scanning overlapping windows of one cache directory do
    first, second = RecordStore(tmp_path), RecordStore(tmp_path)
    assert first.get("riemann", 100) is None and second.get("riemann", 100) is None
    first.put("riemann", *(_record(n) for n in range(100, 200)))
    second.put("riemann", *(_record(n) for n in range(150, 250)))
    shard = tmp_path / "riemann_000000.csv"
    rows = [line.split(",")[0] for line in shard.read_text().splitlines()
            if not line.startswith(("#", "n,"))]
    assert rows == [str(n) for n in range(100, 250)]
    assert second.get("riemann", 120) == _record(120)  # merged from the tail
    fresh = RecordStore(tmp_path)
    assert all(fresh.get("riemann", n) == _record(n) for n in range(100, 250))
    assert fresh.status()["records"] == 150
    # later puts from either store keep reading the other's appends
    second.put("riemann", *(_record(n) for n in range(240, 260)))
    first.put("riemann", _record(255), _record(260))
    assert RecordStore(tmp_path).status()["records"] == 161


def _load_then_put(root, lo, hi, loaded):
    store = RecordStore(root)
    store.get("riemann", lo)  # reads the shard before any worker appends
    loaded.wait(timeout=60)
    store.put("riemann", *(_record(n) for n in range(lo, hi)))


def test_processes_sharing_a_shard_append_each_record_once(tmp_path):
    # more processes than cores, each loading the shard before any appends
    ctx = multiprocessing.get_context("spawn")
    windows = [(100, 200), (150, 250), (180, 300), (90, 160)]
    loaded = ctx.Barrier(len(windows))
    procs = [ctx.Process(target=_load_then_put, args=(tmp_path, lo, hi, loaded))
             for lo, hi in windows]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=120)
        assert not proc.is_alive() and proc.exitcode == 0
    rows = [line.split(",")[0] for line in
            (tmp_path / "riemann_000000.csv").read_text().splitlines()
            if not line.startswith(("#", "n,"))]
    assert sorted(map(int, rows)) == list(range(90, 300))


def test_appended_tail_is_checked_like_a_load(tmp_path):
    # a bad row another writer left after this store read the shard
    store = RecordStore(tmp_path)
    store.put("riemann", _record(10))
    shard = tmp_path / "riemann_000000.csv"
    shard.write_text(shard.read_text() + "12,0x1.0p+6,0x1.0pz,0x1.0p-1,good,0x1.0p-1\r\n")
    with pytest.raises(CorruptCacheError, match="line 5 "):
        store.put("riemann", _record(11))


def _crlf_row(r: GramRecord) -> str:
    return (f"{r.n},{r.t.hex()},{r.z.hex()},{r.zprime.hex()},"
            f"{r.kind.value},{r.viscosity.hex()}\r\n")


def test_shard_with_crlf_rows_takes_lf_appends(tmp_path):
    # a shard of this version whose column row and rows end in CRLF, as
    # csv.writer wrote them; appends from a store that read it and from one
    # that did not end in LF, and every record reads back
    shard = tmp_path / "riemann_000000.csv"
    shard.write_bytes((f"#version={cache._VERSION}\n#model=riemann\n"
                       "n,t_hex,z_hex,zprime_hex,kind,viscosity_hex\r\n"
                       + "".join(map(_crlf_row, (_record(10), _record(11))))).encode())
    loaded = RecordStore(tmp_path)
    assert loaded.get("riemann", 10) == _record(10)
    RecordStore(tmp_path).put("riemann", _record(12), _record(13))
    loaded.put("riemann", _record(13), _record(14))
    data = shard.read_bytes()
    assert data.count(b"\r") == 3  # the column row and the two rows read first
    assert data.endswith("".join(map(_crlf_row, (_record(12), _record(13), _record(14))))
                         .replace("\r\n", "\n").encode())
    assert loaded._ends[("riemann", 0)] == (len(data), data.count(b"\n"))
    fresh = RecordStore(tmp_path)
    assert all(fresh.get("riemann", n) == _record(n) for n in range(10, 15))
    assert fresh.status()["records"] == 5


def test_fresh_shard_holds_no_carriage_return(tmp_path):
    RecordStore(tmp_path).put("riemann", *(_record(n) for n in range(10, 20)))
    data = (tmp_path / "riemann_000000.csv").read_bytes()
    assert b"\r" not in data
    assert data.startswith(f"#version={cache._VERSION}\n#model=riemann\n"
                           "n,t_hex,z_hex,zprime_hex,kind,viscosity_hex\n10,".encode())
