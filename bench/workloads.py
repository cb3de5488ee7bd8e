"""Seeded op lists for the three workloads, their oracle and the per-op checks.

An op is one `gramdelta.cli.main(argv)` call. Its argv is generated from the
workload seed alone; `--cache-dir` and `--out` are appended when it runs, so
the same op list can be replayed against fresh caches.

Op outcomes:
  ok      the op returned and its output passed its check;
  failed  the program did not produce an answer: an exception escaped
          `cli.main`, it returned exit 1, a scan holds an `indeterminate`
          record, or a trace ended `continuation-lost`;
  wrong   the program produced an answer the check contradicts: a Gram kind
          against the sign of (-1)^n mpmath.siegelz(g_n), a collision outside
          the expected range, a corrected curve not established, or no DH
          violation.
Both failed and wrong ops count in `failed`; only wrong ones make the run
incorrect.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass

SCAN_HIGH_RANGE = (100_000, 1_000_000)
SCAN_HIGH_WINDOWS = 48
SCAN_HIGH_WIDTH = 10
SCAN_HIGH_ORACLE = 16        # points checked against mpmath, with viscosity

DESK_RANGE = (100, 20_000)
DESK_SESSIONS = 16
DESK_WIDTH = 200
DESK_ORACLE_PER_SESSION = 1  # points of each cold scan checked against mpmath

CONT_RANGE = (100_000, 1_000_000)
CONT_SEEDED = 4
CONT_ANCHOR = 730119
CONT_STEPS = "50"
ANCHOR_R_EVENT = (0.2, 0.3)

WORKLOADS = ("scan_high", "desk_low", "continuation_high")


@dataclass(frozen=True)
class Op:
    label: str              # selects the check
    argv: tuple[str, ...]   # without --cache-dir and --out
    cache: str              # cache directory name, relative to the pass directory
    points: int = 0         # Gram points classified cold (scan ops)


@dataclass
class Plan:
    ops: list[Op]
    inputs: dict            # generated indices and windows, for the record
    oracle_points: list[int]
    want_zprime: bool       # oracle also computes Z' (viscosity error)


def _strata(rng: random.Random, lo: int, hi: int, count: int, width: int) -> list[int]:
    """One window start per equal stratum of [lo, hi], uniform inside it."""
    step = (hi - lo) // count
    return [lo + j * step + rng.randrange(step - width + 1) for j in range(count)]


def plan(workload: str, seed: int, threads: int) -> Plan:
    rng = random.Random(f"{workload}/{seed}")
    if workload == "scan_high":
        return _plan_scan_high(rng, threads)
    if workload == "desk_low":
        return _plan_desk_low(rng)
    if workload == "continuation_high":
        return _plan_continuation(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _plan_scan_high(rng, threads) -> Plan:
    lo, hi = SCAN_HIGH_RANGE
    starts = _strata(rng, lo, hi, SCAN_HIGH_WINDOWS, SCAN_HIGH_WIDTH)
    ops = [Op("scan", ("gram", "scan", "--from", str(s),
                       "--to", str(s + SCAN_HIGH_WIDTH - 1), "--threads", str(threads)),
              cache="cache", points=SCAN_HIGH_WIDTH) for s in starts]
    every = SCAN_HIGH_WINDOWS // SCAN_HIGH_ORACLE
    sample = [s + rng.randrange(SCAN_HIGH_WIDTH) for s in starts[::every]]
    return Plan(ops,
                {"windows": [[s, s + SCAN_HIGH_WIDTH - 1] for s in starts],
                 "threads": threads, "oracle_indices": sample},
                sample, want_zprime=True)


def _plan_desk_low(rng) -> Plan:
    lo, hi = DESK_RANGE
    starts = _strata(rng, lo, hi, DESK_SESSIONS, DESK_WIDTH)
    ops: list[Op] = []
    sessions = []
    sample = []
    for j, s in enumerate(starts):
        e = s + DESK_WIDTH - 1
        n = str(s + rng.randrange(DESK_WIDTH))
        mc_seed = str(rng.randrange(1 << 31))
        cache = f"session{j}"
        window = ("--from", str(s), "--to", str(e))
        ops += [
            Op("scan", ("gram", "scan") + window, cache, points=DESK_WIDTH),
            Op("viscosity", ("viscosity",) + window + ("--gbg",), cache),
            Op("blocks", ("gram", "blocks") + window, cache),
            Op("plain", ("hessian", "--n", n), cache),
            Op("plain", ("closed-forms", "--n", n), cache),
            Op("plain", ("adjustments", "--n", n), cache),
            Op("plain", ("stages", "--n", n), cache),
            Op("plain", ("mc", "--n", n, "--trials", "1000", "--seed", mc_seed), cache),
            Op("plain", ("newton", "--index", n), cache),
            Op("trace", ("discriminant", "--n", n, "--steps", CONT_STEPS), cache),
        ]
        picked = rng.sample(range(s, e + 1), DESK_ORACLE_PER_SESSION)
        sample += sorted(picked)
        sessions.append({"window": [s, e], "index": int(n), "mc_seed": int(mc_seed)})
    ops.append(Op("dh", ("dh", "violation", "--steps", "100"), "dh"))
    return Plan(ops,
                {"sessions": sessions, "oracle_indices": sample},
                sample, want_zprime=False)


def _plan_continuation(rng) -> Plan:
    # A march costs more the larger n is, so each draw in the lower half is
    # mirrored into the upper half: the total height is the same for every seed
    # while each draw stays uniform in its quarter. What is left of the spread
    # in work comes from the zeros near each X.
    lo, hi = CONT_RANGE
    low = _strata(rng, lo, (lo + hi) // 2, CONT_SEEDED // 2, 1)
    xs = low + [lo + hi - x for x in reversed(low)]
    ops = [Op("trace", ("discriminant", "--n", str(x), "--steps", CONT_STEPS), "cache")
           for x in xs]
    ops += [Op("anchor", ("discriminant", "--n", str(CONT_ANCHOR), "--steps", CONT_STEPS),
               "cache"),
            Op("corrected", ("curve", "corrected", "--n", str(CONT_ANCHOR),
                             "--steps", CONT_STEPS), "cache")]
    return Plan(ops,
                {"seeded_n": xs, "anchor_n": CONT_ANCHOR, "steps": int(CONT_STEPS)},
                [], want_zprime=False)


def oracle(plan_: Plan) -> dict[int, tuple[float, float | None]]:
    """n -> (Z(g_n), Z'(g_n) or None) from mpmath, Gram point included."""
    import mpmath

    out = {}
    for n in plan_.oracle_points:
        g = mpmath.grampoint(n)
        z = float(mpmath.siegelz(g))
        zp = float(mpmath.siegelz(g, derivative=1)) if plan_.want_zprime else None
        out[n] = (z, zp)
    return out


def _meta(text: str) -> dict[str, str]:
    meta = {}
    for line in text.splitlines():
        if not line.startswith("#"):
            break
        key, _, value = line[1:].partition("=")
        meta[key] = value
    return meta


def _rows(text: str) -> list[dict[str, str]]:
    body = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(body))))


def check(op: Op, rc, error: str | None, stdout: str, file_text: str,
          truth: dict) -> tuple[str, str, dict]:
    """(outcome, reason, viscosity relative errors by n) for one op result."""
    if error is not None:
        return "failed", error, {}
    if rc == 1:
        return "failed", "exit 1", {}
    if op.label == "viscosity":
        return ("ok", "", {}) if rc in (0, 2) else ("failed", f"exit {rc}", {})
    if op.label == "corrected":
        if rc != 0 or _meta(file_text).get("verdict") != "true" \
                or json.loads(stdout).get("verdict") != "true":
            return "wrong", f"corrected curve verdict not true (exit {rc})", {}
        return "ok", "", {}
    if rc != 0:
        return "failed", f"exit {rc}", {}
    if op.label == "scan":
        return _check_scan(file_text, truth)
    if op.label in ("trace", "anchor"):
        meta = _meta(file_text)
        if meta.get("verdict") == "continuation-lost":
            return "failed", f"continuation lost at r={meta.get('r_event')}", {}
        if op.label == "anchor":
            r = float(meta.get("r_event", "nan"))
            lo, hi = ANCHOR_R_EVENT
            if meta.get("verdict") != "collision" or not lo < r < hi:
                return "wrong", f"anchor verdict {meta.get('verdict')} at r={r}", {}
        return "ok", "", {}
    if op.label == "dh":
        if json.loads(file_text).get("violation") is not True:
            return "wrong", "no DH violation reported", {}
        return "ok", "", {}
    return "ok", "", {}


def _check_scan(text: str, truth: dict) -> tuple[str, str, dict]:
    rows = _rows(text)
    undecided = [r["n"] for r in rows if r["kind"] == "indeterminate"]
    if undecided:
        return "failed", f"indeterminate Gram points {','.join(undecided)}", {}
    errors = {}
    for r in rows:
        n = int(r["n"])
        if n not in truth:
            continue
        z, zp = truth[n]
        good = (-1.0) ** n * z > 0.0
        if (r["kind"] == "good") != good:
            return "wrong", f"n={n} classified {r['kind']}, oracle Z={z!r}", {}
        if zp is not None:
            exact = abs(zp / z)
            errors[n] = abs(float.fromhex(r["viscosity_hex"]) - exact) / exact
    return "ok", "", errors
