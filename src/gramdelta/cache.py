"""Flat-file cache of GramRecords, sharded by index.

One CSV per (model, 10^5-index shard) under the cache directory (default
~/.cache/gramdelta, overridden by GDL_CACHE_DIR or --cache-dir). Every float
is stored as a hex literal, so a re-read record equals recomputation bit for
bit. Each shard starts with a #version line; a shard written by another
version holds values computed another way and is refused, never served, and
so is a shard with a row that is not a complete record (six fields, hex
floats, a known kind, a line end), such as a crash mid-append leaves.
Appends take an exclusive and loads a shared fcntl lock on the shard, so
processes may share one cache directory.
"""

from __future__ import annotations

import csv
import fcntl
import io
import os
import threading
from pathlib import Path

from .errors import CorruptCacheError, StaleCacheError
from .gram import GramKind, GramRecord

ENV_VAR = "GDL_CACHE_DIR"
SHARD = 100_000
# 2: viscosity and fallback sign from Riemann-Siegel Z; 3: a one-point section
# summed as a batch of one (chunked matrix products, not math.fsum)
_VERSION = "3"


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "gramdelta"


class RecordStore:
    def __init__(self, cache_dir: str | os.PathLike | None = None):
        self.root = Path(cache_dir) if cache_dir is not None else default_cache_dir()
        self._shards: dict[tuple[str, int], dict[int, GramRecord]] = {}
        # (bytes, lines) of each shard that this store has read or written
        self._ends: dict[tuple[str, int], tuple[int, int]] = {}
        self._lock = threading.Lock()

    def _path(self, model_name: str, shard: int) -> Path:
        return self.root / f"{model_name}_{shard:06d}.csv"

    def _load(self, model_name: str, shard: int) -> dict[int, GramRecord]:
        key = (model_name, shard)
        cached = self._shards.get(key)
        if cached is not None:
            return cached
        records: dict[int, GramRecord] = {}
        path = self._path(model_name, shard)
        end = (0, 0)
        if path.exists():
            with path.open("rb") as fh:
                # a writer in another process holds the exclusive lock while
                # it appends, so this never reads half an append
                fcntl.flock(fh, fcntl.LOCK_SH)
                end = _merge_rows(path, fh.read(), end, records)
        self._shards[key] = records
        self._ends[key] = end
        return records

    def get(self, model_name: str, n: int) -> GramRecord | None:
        with self._lock:
            return self._load(model_name, n // SHARD).get(n)

    def put(self, model_name: str, *records: GramRecord) -> None:
        """Append the records not yet stored, in the order given, with one
        write per shard under an exclusive lock on it, so that processes
        sharing the cache directory never interleave their rows. Under the
        lock the rows another process appended since this store last read
        the shard are read first, and records among them are not appended
        again."""
        with self._lock:
            by_shard: dict[int, list[GramRecord]] = {}
            for record in records:
                by_shard.setdefault(record.n // SHARD, []).append(record)
            for shard, shard_records in by_shard.items():
                self._append(model_name, shard, shard_records)

    def _append(self, model_name: str, shard: int, records: list[GramRecord]) -> None:
        stored = self._load(model_name, shard)
        if all(record.n in stored for record in records):
            return
        key = (model_name, shard)
        path = self._path(model_name, shard)
        self.root.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            # other processes may share the cache: the exclusive lock keeps
            # their appends and reads from interleaving with ours
            fcntl.flock(fd, fcntl.LOCK_EX)
            size, seen = os.fstat(fd).st_size, self._ends[key][0]
            if size > seen:
                self._ends[key] = _merge_rows(path, os.pread(fd, size - seen, seen),
                                              self._ends[key], stored)
            rows = []
            for record in records:
                if record.n in stored:
                    continue
                stored[record.n] = record
                rows.append([record.n, record.t.hex(), record.z_value.hex(),
                             record.zprime_value.hex(), record.kind.value,
                             record.viscosity.hex()])
            if not rows:
                return
            buf = io.StringIO()
            if size == 0:
                buf.write(f"#version={_VERSION}\n#model={model_name}\n")
                rows.insert(0, ["n", "t_hex", "z_hex", "zprime_hex", "kind",
                                "viscosity_hex"])
            csv.writer(buf).writerows(rows)
            data = buf.getvalue().encode()
            self._ends[key] = (size + len(data),
                               self._ends[key][1] + buf.getvalue().count("\n"))
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)  # releases the lock

    def status(self) -> dict:
        files = sorted(self.root.glob("*_*.csv")) if self.root.exists() else []
        total = 0
        per_file = []
        for path in files:
            with path.open() as fh:
                count = sum(1 for line in fh
                            if line and not line.startswith("#")
                            and not line.startswith("n,"))
            per_file.append({"file": path.name, "records": count})
            total += count
        return {"cache_dir": str(self.root), "files": per_file, "records": total}

    def clear(self) -> int:
        removed = 0
        if self.root.exists():
            for path in self.root.glob("*_*.csv"):
                path.unlink()
                removed += 1
        self._shards.clear()
        self._ends.clear()
        return removed


def _merge_rows(path: Path, data: bytes, start: tuple[int, int],
                records: dict[int, GramRecord]) -> tuple[int, int]:
    """Add the records of shard bytes read from byte start[0], the start of
    line start[1] + 1, to records; return the (bytes, lines) read up to
    their end. Raises StaleCacheError on a shard of another version and
    CorruptCacheError on a row that is not a complete record."""
    lines = io.StringIO(data.decode(), newline="")
    lineno = start[1]
    for lineno, line in enumerate(lines, start=start[1] + 1):
        # a shard a writer has created and not yet locked has no lines
        if lineno == 1 and line.rstrip("\n") != f"#version={_VERSION}":
            raise StaleCacheError(
                f"cache shard {path} starts with {line.rstrip()!r}, "
                f"expected '#version={_VERSION}'; run `gdl cache clear`")
        # every line a write left whole ends in a line end
        complete = line.endswith("\n")
        if complete and (line.startswith(("#", "n,")) or not line.strip()):
            continue
        rec = _parse_row(line) if complete else None
        if rec is None:
            raise CorruptCacheError(
                f"cache shard {path} line {lineno} is not a complete "
                f"record: {line.rstrip()!r}; run `gdl cache clear`")
        records[rec.n] = rec
    return start[0] + len(data), lineno


def _parse_row(line: str) -> GramRecord | None:
    """The record on one shard line, or None if the line is malformed."""
    row = line.rstrip("\r\n").split(",")
    if len(row) != 6:
        return None
    try:
        return GramRecord(n=int(row[0]), t=float.fromhex(row[1]),
                          z_value=float.fromhex(row[2]),
                          zprime_value=float.fromhex(row[3]),
                          kind=GramKind(row[4]), viscosity=float.fromhex(row[5]))
    except ValueError:
        return None
