from __future__ import annotations

import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gramdelta
from gramdelta import cache, cli, gram
from gramdelta.cli import main
from gramdelta.errors import FlatPointError, NonConvergenceError, StaleCacheError


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_gram_scan_csv(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code = main(["gram", "scan", "--from", "120", "--to", "130",
                 "--cache-dir", str(tmp_path / "cache"), "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("#version=1\n#model=riemann\nn,")
    header, *rows = [l for l in text.splitlines() if not l.startswith("#")]
    assert header.split(",")[:6] == ["n", "t", "z", "zprime", "kind", "viscosity"]
    row126 = next(r for r in rows if r.startswith("126,"))
    assert ",bad," in row126
    # hex column recovers the decimal column exactly
    cells = row126.split(",")
    assert float.fromhex(cells[6]) == float(cells[1])


def test_gram_scan_bytes_reproducible_and_cached(tmp_path):
    cache = tmp_path / "cache"
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["gram", "scan", "--from", "50", "--to", "60",
                 "--cache-dir", str(cache), "--out", str(out1)]) == 0
    assert main(["gram", "scan", "--from", "50", "--to", "60",
                 "--cache-dir", str(cache), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (cache / "riemann_000000.csv").exists()


def test_gram_scan_threads_match_serial(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["gram", "scan", "--from", "30", "--to", "45", "--threads", "4",
                 "--cache-dir", str(tmp_path / "c1"), "--out", str(out1)]) == 0
    assert main(["gram", "scan", "--from", "30", "--to", "45",
                 "--cache-dir", str(tmp_path / "c2"), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_gram_blocks_csv(tmp_path, capsys):
    code, text = run(capsys, "gram", "blocks", "--from", "6700", "--to", "6715",
                     "--cache-dir", str(tmp_path))
    assert code == 0
    assert any(line.startswith("6707,2,6708") for line in text.splitlines())


def test_viscosity_gbg_exit_codes(tmp_path, capsys):
    code, _ = run(capsys, "viscosity", "--from", "125", "--to", "127", "--gbg",
                  "--cache-dir", str(tmp_path))
    assert code == 0  # viscosity at 126 is large: not corrupt at bound 4
    code, _ = run(capsys, "viscosity", "--from", "125", "--to", "127", "--gbg",
                  "--bound", "1000", "--cache-dir", str(tmp_path))
    assert code == 2  # absurd bound makes the isolated bad point corrupt


@pytest.mark.parametrize("argv,rows", [(("gram", "scan"), ["5"]),
                                       (("viscosity", "--gbg"), [])],  # g_5 is good
                         ids=["scan", "viscosity"])
def test_reversed_window_is_refused_with_one_line(tmp_path, capsys, argv, rows):
    code = main([*argv, "--from", "5", "--to", "3", "--cache-dir", str(tmp_path),
                 "--out", str(tmp_path / "w.csv")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: need n_from <= n_to, got [5, 3]\n"
    assert captured.out == "" and not (tmp_path / "w.csv").exists()
    # a one-index window is still a window
    code, text = run(capsys, *argv, "--from", "5", "--to", "5", "--cache-dir", str(tmp_path))
    assert code == 0
    assert [row[0] for row in _csv_rows(text)] == rows


def test_nan_bound_is_refused_with_one_line(tmp_path, capsys):
    code = main(["viscosity", "--from", "125", "--to", "127", "--gbg", "--bound", "nan",
                 "--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: bound must be a number, got nan\n"
    assert captured.out == ""


def _csv_rows(text: str) -> list[list[str]]:
    header, *rows = [line for line in text.splitlines() if not line.startswith("#")]
    return [row.split(",") for row in rows]


def test_viscosity_listing_holds_the_bad_only_rows(tmp_path, capsys):
    window = ("--from", "6700", "--to", "6715", "--cache-dir", str(tmp_path))
    code, full = run(capsys, "viscosity", *window)
    assert code == 0
    code, bad_only = run(capsys, "viscosity", *window, "--bad-only")
    assert code == 0
    rows, bad_rows = _csv_rows(full), _csv_rows(bad_only)
    assert [int(r[0]) for r in rows] == list(range(6700, 6716))
    assert [r for r in rows if r[3] == "bad"] == bad_rows
    # a block 6703..6706 and the isolated 6708 and 6711
    assert [(r[0], r[4]) for r in bad_rows] == [("6704", "False"), ("6705", "False"),
                                                ("6708", "True"), ("6711", "True")]
    good = [r for r in rows if r[3] == "good"]
    assert len(good) == len(rows) - len(bad_rows)
    assert all(r[4:6] == ["False", "False"] for r in good)


def test_curve_corrected_names_a_cutoff_below_the_surge_window(tmp_path, capsys):
    code = main(["curve", "corrected", "--n", "2", "--cache-dir", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: the robust cutoff N = 13 at g_2 is below the 15-term surge window\n")


def test_discriminant_refines_its_gram_point_once(tmp_path, gram_point_calls):
    assert main(["discriminant", "--n", "126", "--steps", "50",
                 "--cache-dir", str(tmp_path), "--out", str(tmp_path / "d.csv")]) == 0
    assert gram_point_calls == [126]


@pytest.mark.parametrize("argv", [["discriminant", "--n", "90"],
                                  ["curve", "corrected", "--n", "90"],
                                  ["dh", "violation"]])
@pytest.mark.parametrize("steps", ["100001", str(10 ** 17)])
def test_step_counts_a_march_cannot_finish_are_refused(tmp_path, capsys, argv, steps):
    code = main([*argv, "--steps", steps, "--cache-dir", str(tmp_path),
                 "--out", str(tmp_path / "x.out")])
    assert code == 1
    assert capsys.readouterr().err == f"error: steps must be in [50, 100000], got {steps}\n"
    assert not (tmp_path / "x.out").exists()


def test_corrected_curve_refines_its_gram_point_once(tmp_path, gram_point_calls):
    assert main(["curve", "corrected", "--n", "126", "--steps", "50",
                 "--cache-dir", str(tmp_path), "--out", str(tmp_path / "c.csv")]) == 0
    assert gram_point_calls == [126]


def test_discriminant_trace_csv(tmp_path):
    out = tmp_path / "trace.csv"
    code = main(["discriminant", "--n", "126", "--steps", "60",
                 "--cache-dir", str(tmp_path), "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "#verdict=non-colliding" in text
    first_row = [l for l in text.splitlines() if not l.startswith("#")][1]
    assert first_row.startswith("0.0,")


def test_hessian_json(tmp_path, capsys):
    code, text = run(capsys, "hessian", "--n", "90", "--cache-dir", str(tmp_path))
    assert code == 0
    payload = json.loads(text)
    assert payload["hessian"] == pytest.approx(0.00203615, rel=0.01)
    assert payload["hessian_constant"] == 4.0


def test_closed_forms_json(tmp_path, capsys):
    code, text = run(capsys, "closed-forms", "--n", "90", "--cache-dir", str(tmp_path))
    assert code == 0
    payload = json.loads(text)
    assert len(payload["grad_delta_head"]) == 16
    assert payload["gradient_identity_residual"] < 1e-10


def test_hessian_json_is_the_closed_forms_summary(tmp_path, capsys):
    _, hessian = run(capsys, "hessian", "--n", "90", "--cache-dir", str(tmp_path))
    _, closed = run(capsys, "closed-forms", "--n", "90", "--cache-dir", str(tmp_path))
    hessian, closed = json.loads(hessian), json.loads(closed)
    assert sorted(hessian) == ["gradient_identity_residual", "hessian",
                               "hessian_constant", "n", "zprime_at_ones"]
    assert hessian == {key: closed[key] for key in hessian}


def test_adjustments_json(tmp_path, capsys):
    code, text = run(capsys, "adjustments", "--n", "1000", "--cache-dir", str(tmp_path))
    assert code == 0
    payload = json.loads(text)
    assert payload["residual_z"] < 1e-10
    assert payload["excluded_s"][0] == 1


def test_stages_json(tmp_path, capsys):
    code, text = run(capsys, "stages", "--n", "730119", "--cache-dir", str(tmp_path))
    assert code == 0
    payload = json.loads(text)
    assert payload["surge_end"] == 17


def test_mc_csv_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["mc", "--n", "6708", "--trials", "200", "--seed", "7",
                     "--cache-dir", str(tmp_path), "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert "#trials=200" in a.read_text()


def test_seed_is_an_mc_option_only(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    assert main(["mc", "--n", "100", "--trials", "100", "--seed", "1",
                 "--cache-dir", str(tmp_path), "--out", str(out)]) == 0
    assert out.read_text().startswith("#version=1\n#model=riemann\n#seed=1\n#n=100\n")
    assert main(["gram", "scan", "--from", "1", "--to", "2", "--seed", "1",
                 "--cache-dir", str(tmp_path), "--out", str(tmp_path / "scan.csv")]) == 1
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_newton_json(tmp_path, capsys):
    code, text = run(capsys, "newton", "--index", "6708", "--cache-dir", str(tmp_path))
    assert code == 0
    payload = json.loads(text)
    assert payload["converged"]
    assert payload["iterates"][0] == pytest.approx(7004.95, abs=0.01)


def test_curve_corrected_exit_code(tmp_path, capsys):
    code, text = run(capsys, "curve", "corrected", "--n", "90", "--steps", "100",
                     "--cache-dir", str(tmp_path), "--out", str(tmp_path / "c.csv"))
    assert code == 0
    payload = json.loads(text)
    assert payload["verdict"] == "true"


@pytest.mark.parametrize("n,reason", [(725240, "r2 would leave [0, 1]"), (726787, None)])
def test_curve_corrected_names_why_the_shifting_stage_stopped(tmp_path, capsys, n, reason):
    code, text = run(capsys, "curve", "corrected", "--n", str(n), "--steps", "50",
                     "--cache-dir", str(tmp_path), "--out", str(tmp_path / "c.csv"))
    assert code == 2  # verdict "undetermined" at 725240, "false" at 726787
    payload = json.loads(text)
    assert payload["shift_stop_reason"] == reason
    assert payload["shift_truncated"] is (reason is not None)


def test_curve_corrected_json_names_why_the_descent_stopped(tmp_path, capsys):
    code, text = run(capsys, "curve", "corrected", "--n", "90", "--steps", "50",
                     "--cache-dir", str(tmp_path), "--out", str(tmp_path / "c.csv"))
    assert code == 0
    payload = json.loads(text)
    assert "descent_stop_reason" in payload
    assert payload["descent_stop_reason"] is None  # the descent reached (1, 1)


def test_dh_violation_exit_zero(tmp_path, capsys):
    code, text = run(capsys, "dh", "violation", "--steps", "100",
                     "--cache-dir", str(tmp_path))
    assert code == 0  # the violation is data, not an error
    payload = json.loads(text)
    assert payload["violation"] is True
    assert payload["first_order_deviation_ratio"] < 0.15


def test_cache_status_and_clear(tmp_path, capsys):
    cache = tmp_path / "cache"
    main(["gram", "scan", "--from", "10", "--to", "12",
          "--cache-dir", str(cache), "--out", str(tmp_path / "x.csv")])
    code, text = run(capsys, "cache", "status", "--cache-dir", str(cache))
    assert code == 0
    status = json.loads(text)
    assert status["records"] == 3
    code, text = run(capsys, "cache", "clear", "--cache-dir", str(cache))
    assert code == 0
    assert json.loads(text)["cleared_files"] == 1


def test_cache_commands_write_their_json_to_out(tmp_path, capsys):
    cache = tmp_path / "cache"
    main(["gram", "scan", "--from", "10", "--to", "12",
          "--cache-dir", str(cache), "--out", str(tmp_path / "x.csv")])
    status, cleared = tmp_path / "status.json", tmp_path / "cleared.json"
    assert main(["cache", "status", "--cache-dir", str(cache), "--out", str(status)]) == 0
    assert main(["cache", "clear", "--cache-dir", str(cache), "--out", str(cleared)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(status.read_text())["records"] == 3
    assert json.loads(cleared.read_text()) == {"cleared_files": 1}


def test_stale_cache_shard_is_refused(tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.mkdir()
    shard = cache / "riemann_000000.csv"
    # a version-1 shard: its viscosity column came from the floor(t/2) section
    shard.write_text("#version=1\n#model=riemann\n"
                     "n,t_hex,z_hex,zprime_hex,kind,viscosity_hex\n"
                     f"10,{(42.0).hex()},{(1.0).hex()},{(0.5).hex()},good,{(0.5).hex()}\n")
    code = main(["gram", "scan", "--from", "10", "--to", "12",
                 "--cache-dir", str(cache), "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.strip().splitlines()) == 1
    assert str(shard) in err and "gdl cache clear" in err
    code, text = run(capsys, "cache", "clear", "--cache-dir", str(cache))
    assert code == 0 and json.loads(text)["cleared_files"] == 1
    assert main(["gram", "scan", "--from", "10", "--to", "12",
                 "--cache-dir", str(cache), "--out", str(tmp_path / "x.csv")]) == 0


def test_version_2_cache_shard_is_refused(tmp_path, capsys):
    # version-2 records summed each section exactly rounded at its one point;
    # today's sums differ in their last bits
    cache_dir = tmp_path / "cache"
    assert main(["gram", "scan", "--from", "10", "--to", "12", "--cache-dir", str(cache_dir),
                 "--out", str(tmp_path / "x.csv")]) == 0
    shard = cache_dir / "riemann_000000.csv"
    text = shard.read_text()
    assert text.startswith(f"#version={cache._VERSION}\n") and cache._VERSION == "3"
    shard.write_text(text.replace("#version=3\n", "#version=2\n", 1))
    with pytest.raises(StaleCacheError):
        cache.RecordStore(cache_dir).get("riemann", 10)
    code = main(["gram", "scan", "--from", "10", "--to", "12", "--cache-dir", str(cache_dir),
                 "--out", str(tmp_path / "y.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: ") and "'#version=2'" in err and str(shard) in err


@pytest.mark.parametrize("where", ["cache-dir", "out"])
def test_path_under_a_regular_file_exits_one_line(tmp_path, capsys, where):
    # a --cache-dir that is a regular file, or an --out under one, cannot be
    # created: one error line and exit 1, not a traceback
    blocker = tmp_path / "file"
    blocker.write_text("")
    cache_dir, out = tmp_path / "cache", tmp_path / "x.csv"
    if where == "cache-dir":
        cache_dir = blocker
    else:
        out = blocker / "x.csv"
    code = main(["gram", "scan", "--from", "10", "--to", "12", "--cache-dir", str(cache_dir),
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: ") and str(blocker) in err
    assert blocker.read_text() == ""


def test_usage_and_domain_errors(tmp_path, capsys):
    assert main(["nonsense"]) == 1
    assert main([]) == 1
    code, _ = run(capsys, "newton", "--t0", "5.0", "--cache-dir", str(tmp_path))
    assert code == 1  # below the domain floor
    code, _ = run(capsys, "newton", "--cache-dir", str(tmp_path))
    assert code == 1  # neither --index nor --t0
    for t0 in ("inf", "nan"):  # refused before int(tau) could overflow
        code = main(["newton", "--t0", t0, "--cache-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
    # one steps rule for every march, and no NaN shift threshold selecting nothing
    for bad in (["--steps", "0"], ["--steps", "-3"], ["--steps", "10"], ["--tau", "nan"]):
        code = main(["curve", "corrected", "--n", "90", *bad, "--cache-dir", str(tmp_path),
                     "--out", str(tmp_path / "c.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


def _raise(exc):
    def fake(*args, **kwargs):
        raise exc
    return fake


@pytest.mark.parametrize("exc", [
    FlatPointError("flat point at t=7005.0: |Z'|=1.000e-13", [7005.0]),
    NonConvergenceError("no convergence after 50 iterations (|Z|=1.000e-03)", [7005.0]),
])
def test_newton_failures_exit_one_line(tmp_path, capsys, monkeypatch, exc):
    monkeypatch.setattr(cli, "find_zero_newton", _raise(exc))
    code = main(["newton", "--index", "6708", "--cache-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines() == [f"error: {exc}"]


def test_indeterminate_sign_exits_one_line(tmp_path, capsys, monkeypatch):
    real = gram.classify

    def indeterminate_at_126(model, n):
        rec = real(model, n)
        if n != 126:
            return rec
        return gram.GramRecord(rec.n, rec.t, rec.z_value, rec.zprime_value,
                               gram.GramKind.INDETERMINATE, rec.viscosity)

    monkeypatch.setattr(gram, "classify", indeterminate_at_126)
    code = main(["gram", "blocks", "--from", "120", "--to", "130",
                 "--cache-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines() == ["error: Gram point n=126 is indeterminate"]


@pytest.mark.parametrize("argv", [
    ["closed-forms", "--n", "100"],
    ["adjustments", "--n", "100"],
    ["stages", "--n", "100"],
    ["mc", "--n", "100", "--trials", "100"],
    ["curve", "corrected", "--n", "6708", "--steps", "50"],
])
def test_csv_decimal_columns_are_plain_floats(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    assert main(argv + ["--cache-dir", str(tmp_path), "--out", str(out)]) == 0
    header, *rows = [l.split(",") for l in out.read_text().splitlines()
                     if not l.startswith("#")]
    twins = [(header.index(h[:-4]), i) for i, h in enumerate(header) if h.endswith("_hex")]
    assert twins and rows
    for row in rows:
        for dec, hexed in twins:
            assert float(row[dec]) == float.fromhex(row[hexed])


def _call(capsys, argv) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_shared_parser_gives_first_call_bytes(tmp_path, capsys, monkeypatch):
    argvs = [["hessian", "--n", "90", "--cache-dir", str(tmp_path / "a")],
             ["gram", "scan", "--from", "20", "--to", "25",
              "--cache-dir", str(tmp_path / "b")],
             ["stages", "--n", "100", "--cache-dir", str(tmp_path / "c")]]
    first = []
    for argv in argvs:  # each the first call of a freshly built parser
        cli.build_parser.cache_clear()
        first.append(_call(capsys, argv))
    cli.build_parser.cache_clear()
    for argv, expected in zip(argvs + argvs, first + first):
        assert _call(capsys, argv) == expected
    assert cli.build_parser.cache_info().misses == 1
    # the default cache directory follows GDL_CACHE_DIR as set at run time
    for name in ("env1", "env2"):
        monkeypatch.setenv("GDL_CACHE_DIR", str(tmp_path / name))
        assert main(["gram", "scan", "--from", "20", "--to", "21"]) == 0
        assert (tmp_path / name / "riemann_000000.csv").exists()
    capsys.readouterr()
    assert main(["gram", "scan", "--help"]) == 0
    assert "$GDL_CACHE_DIR, else ~/.cache/gramdelta" in " ".join(
        capsys.readouterr().out.split())


def test_truncated_cache_row_exits_one_line(tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = ["gram", "scan", "--from", "100", "--to", "104",
            "--cache-dir", str(cache), "--out", str(tmp_path / "x.csv")]
    assert main(argv) == 0
    expected = (tmp_path / "x.csv").read_bytes()
    shard = cache / "riemann_000000.csv"
    shard.write_bytes(shard.read_bytes()[:-30])  # a crash mid-append
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")
    assert str(shard) in err and "line 8" in err and "gdl cache clear" in err
    code, text = run(capsys, "cache", "clear", "--cache-dir", str(cache))
    assert code == 0 and json.loads(text)["cleared_files"] == 1
    assert main(argv) == 0
    assert (tmp_path / "x.csv").read_bytes() == expected


class _RecordingExecutor:
    """Stands in for ThreadPoolExecutor: records max_workers, starts no thread."""

    built: list = []

    def __init__(self, max_workers):
        self.built.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("threads", [0, -3, 8, 10 ** 6])
def test_scan_builds_no_executor(tmp_path, monkeypatch, threads):
    # --threads is accepted and ignored: the scan classifies on the calling thread
    monkeypatch.setattr(_RecordingExecutor, "built", [])
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _RecordingExecutor)
    out, serial = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["gram", "scan", "--from", "30", "--to", "37", "--threads", str(threads),
                 "--cache-dir", str(tmp_path / "c1"), "--out", str(out)]) == 0
    assert _RecordingExecutor.built == []
    assert main(["gram", "scan", "--from", "30", "--to", "37",
                 "--cache-dir", str(tmp_path / "c2"), "--out", str(serial)]) == 0
    assert out.read_bytes() == serial.read_bytes()


def test_scan_and_shard_bytes_identical_across_threads(tmp_path):
    outputs = set()
    for threads in (1, 2, 4):
        cache = tmp_path / f"c{threads}"
        out = tmp_path / f"scan{threads}.csv"
        # a warm head and a cold tail: the second scan mixes hits and misses
        for lo in (41, 30):
            assert main(["gram", "scan", "--from", str(lo), "--to", "52",
                         "--threads", str(threads), "--cache-dir", str(cache),
                         "--out", str(out)]) == 0
        outputs.add((out.read_bytes(), (cache / "riemann_000000.csv").read_bytes()))
    assert len(outputs) == 1


def _count_puts(monkeypatch) -> list[int]:
    """Record the number of records of every RecordStore.put call."""
    counts: list[int] = []
    put = cache.RecordStore.put

    def counting(self, model_name, *records):
        counts.append(len(records))
        return put(self, model_name, *records)

    monkeypatch.setattr(cache.RecordStore, "put", counting)
    return counts


@pytest.mark.parametrize("argv,puts", [
    (("viscosity", "--from", "100", "--to", "299", "--gbg"), [200]),
    (("gram", "blocks", "--from", "100", "--to", "299"), [200]),
    # bad points g_126 and g_134 on both edges: the window in one put, then
    # one for each neighbour beyond an edge, g_125 and g_135
    (("gram", "blocks", "--from", "126", "--to", "134"), [9, 1, 1]),
    (("viscosity", "--from", "126", "--to", "134", "--gbg"), [9, 1, 1])])
def test_window_scans_store_the_window_in_one_put(tmp_path, monkeypatch, argv, puts):
    counts = _count_puts(monkeypatch)
    cold, warm = tmp_path / "cold.csv", tmp_path / "warm.csv"
    for out in (cold, warm):
        assert main([*argv, "--cache-dir", str(tmp_path / "c"), "--out", str(out)]) == 0
    assert counts == puts  # the warm rerun classifies nothing
    assert cold.read_bytes() == warm.read_bytes()


# each window of a continuation is tabulated with BLAS matrix products
_CONTINUATION_OPS = [("discriminant", "--n", "730119", "--steps", "50"),
                     ("curve", "corrected", "--n", "730119", "--steps", "50")]
_RUN_GDL = "import sys; from gramdelta.cli import main; sys.exit(main(sys.argv[1:]))"


def _gdl_env(**extra) -> dict:
    """The environment of a `gdl` subprocess that imports this gramdelta."""
    src = str(Path(gramdelta.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


@pytest.mark.parametrize("argv", _CONTINUATION_OPS, ids=["discriminant", "corrected"])
def test_continuation_bytes_identical_across_reruns_and_blas_threads(tmp_path, capsys,
                                                                     argv):
    runs = set()
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}.csv"
        env = _gdl_env(OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _RUN_GDL, *argv,
                               "--cache-dir", str(tmp_path / "c"), "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs.add((out.read_bytes(), proc.stdout))
    out = tmp_path / "inprocess.csv"
    code, stdout = run(capsys, *argv, "--cache-dir", str(tmp_path / "c"),
                       "--out", str(out))
    assert code == 0
    runs.add((out.read_bytes(), stdout))
    assert len(runs) == 1


def test_concurrent_scan_processes_share_one_cache(tmp_path):
    # two processes append overlapping windows to one shard at the same time
    shared = tmp_path / "shared"
    procs = [subprocess.Popen([sys.executable, "-c", _RUN_GDL, "gram", "scan",
                               "--from", lo, "--to", hi, "--cache-dir", str(shared),
                               "--out", str(tmp_path / f"scan{lo}.csv")],
                              env=_gdl_env(), stderr=subprocess.PIPE, text=True)
             for lo, hi in (("100", "400"), ("300", "600"))]
    for proc in procs:
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
    assert (shared / "riemann_000000.csv").read_text().count("#version=") == 1
    store = cache.RecordStore(shared)  # loads the shard: no CorruptCacheError
    assert all(store.get("riemann", n) is not None for n in range(100, 601))
    warm, cold = tmp_path / "warm.csv", tmp_path / "cold.csv"
    for out, cache_dir in ((warm, shared), (cold, tmp_path / "cold")):
        assert main(["gram", "scan", "--from", "100", "--to", "600",
                     "--cache-dir", str(cache_dir), "--out", str(out)]) == 0
    assert warm.read_bytes() == cold.read_bytes()
