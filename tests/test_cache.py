from __future__ import annotations

import pytest

from gramdelta.cache import SHARD, RecordStore
from gramdelta.errors import CorruptCacheError
from gramdelta.gram import GramKind, GramRecord


def _record(n: int) -> GramRecord:
    kind = (GramKind.GOOD, GramKind.BAD, GramKind.INDETERMINATE)[n % 3]
    return GramRecord(n=n, t=100.0 + n / 7.0, z_value=(-1.0) ** n / (n + 3.0),
                      zprime_value=0.25 - n / 11.0, kind=kind, viscosity=n / 13.0)


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


@pytest.mark.parametrize("cut,line", [
    ("#version=2", 1),
    ("#version=2\n#mod", 2),
    ("#version=2\n#model=riemann\nn,t_hex,z_h", 3),
])
def test_shard_cut_inside_its_header_is_refused(tmp_path, cut, line):
    # later appends would merge into the cut line, which the loader skips
    (tmp_path / "riemann_000000.csv").write_text(cut)
    with pytest.raises(CorruptCacheError, match=f"line {line} "):
        RecordStore(tmp_path).get("riemann", 10)
