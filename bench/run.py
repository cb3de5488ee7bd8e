"""gramdelta benchmark: one seeded workload through `gramdelta.cli.main`.

    python3 bench/run.py --workload scan_high --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from `src/` beside this directory
and nowhere else. Every op is an in-process `cli.main(argv)` call with its
own `--out` file and a fresh `--cache-dir` under `.bench_tmp/`, which is
removed at the end.

--trace 0  replays the op list (one "pass", each with fresh caches) until
           --seconds are used up and prints the end-to-end metrics.
--trace 1  runs the op list three times: with every layer wrapped
           (bench/tracer.py), without, and wrapped again; checks that all three
           give identical output bytes and that both traced passes did
           identical work, and prints the per-layer metrics.

Output: a `{"report": ...}` line with every metric, its unit and its sample
count, the generated inputs and any op failures; then, as the last line, the
summary object {"correct", "attempted", "failed", "metrics"} holding the
metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 15

# A fresh interpreter doing what every gdl invocation does before real work.
SETUP_PROBE = (
    "import sys, tempfile\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import gramdelta\n"
    "gramdelta.riemann_model(); gramdelta.dh_model()\n"
    "tempfile.mkdtemp(dir=sys.argv[2])\n"
    "print('ready', flush=True)\n"
)

# Span names each workload must reach; a zero count means a wrapper missed.
REACHED = {
    "scan_high": ("cli.main", "emit.write_csv", "cache.RecordStore.get",
                  "cache.RecordStore.put", "gram.classify", "gram.gram_point",
                  "zmodel.classical_afe", "zmodel.section_eval", "numerics.csum",
                  "special.theta"),
    "desk_low": ("cli.main", "emit.write_csv", "emit.write_json",
                 "cache.RecordStore.get", "cache.RecordStore.put", "gram.classify",
                 "gram.gram_point", "zmodel.classical_afe", "zmodel.section_eval",
                 "zmodel.find_zero_newton", "numerics.csum", "special.theta",
                 "discriminant._ExtremumSolver.solve", "discriminant.track_extremum",
                 "discriminant.closed_forms", "adjust.adjustments",
                 "adjust.stage_analysis", "adjust.gram_vectors",
                 "dh.dh_violation_experiment"),
    "continuation_high": ("cli.main", "emit.write_csv", "emit.write_json",
                          "gram.gram_point", "zmodel.section_eval", "numerics.csum",
                          "special.theta", "discriminant._ExtremumSolver.solve",
                          "discriminant.track_extremum", "curves.shifting_stage",
                          "curves.descending_stage", "curves.corrected_curve"),
}

# Per-layer metric -> (unit, span names, stat summed over them).
LAYER_METRICS = {
    "zmodel.section_eval.calls": ("count", ("zmodel.section_eval",), "calls"),
    "zmodel.section_eval.terms": ("count", ("zmodel.section_eval",), "terms"),
    "zmodel.section_eval.self_s": ("s", ("zmodel.section_eval",), "self_s"),
    "numerics.csum.calls": ("count", ("numerics.csum",), "calls"),
    "numerics.csum.elements": ("count", ("numerics.csum",), "elements"),
    "numerics.csum.self_s": ("s", ("numerics.csum",), "self_s"),
    "special.theta.calls": ("count", ("special.theta",), "calls"),
    "discriminant.solve.calls": ("count", ("discriminant._ExtremumSolver.solve",), "calls"),
    "discriminant.solve.newton_iters": ("count", ("discriminant._ExtremumSolver.solve",),
                                        "newton_iters"),
    "discriminant.solve.failed": ("count", ("discriminant._ExtremumSolver.solve",), "failed"),
    "discriminant.solve.self_s": ("s", ("discriminant._ExtremumSolver.solve",), "self_s"),
    "discriminant.track_extremum.calls": ("count", ("discriminant.track_extremum",), "calls"),
    "discriminant.track_extremum.samples": ("count", ("discriminant.track_extremum",),
                                            "samples"),
    "discriminant.track_extremum.self_s": ("s", ("discriminant.track_extremum",), "self_s"),
    "curves.shifting_stage.self_s": ("s", ("curves.shifting_stage",), "self_s"),
    "curves.descending_stage.self_s": ("s", ("curves.descending_stage",), "self_s"),
    "curves.corrected_curve.self_s": ("s", ("curves.corrected_curve",), "self_s"),
    "gram.classify.calls": ("count", ("gram.classify",), "calls"),
    "gram.classify.indeterminate": ("count", ("gram.classify",), "indeterminate"),
    "gram.classify.self_s": ("s", ("gram.classify",), "self_s"),
    "gram.gram_point.calls": ("count", ("gram.gram_point",), "calls"),
    "gram.gram_point.self_s": ("s", ("gram.gram_point",), "self_s"),
    "zmodel.classical_afe.calls": ("count", ("zmodel.classical_afe",), "calls"),
    "zmodel.classical_afe.self_s": ("s", ("zmodel.classical_afe",), "self_s"),
    "cache.get.calls": ("count", ("cache.RecordStore.get",), "calls"),
    "cache.get.hits": ("count", ("cache.RecordStore.get",), "hits"),
    "cache.get.self_s": ("s", ("cache.RecordStore.get",), "self_s"),
    "cache.put.calls": ("count", ("cache.RecordStore.put",), "calls"),
    "cache.put.self_s": ("s", ("cache.RecordStore.put",), "self_s"),
    "cli.main.calls": ("count", ("cli.main",), "calls"),
    "cli.main.self_s": ("s", ("cli.main",), "self_s"),
    "emit.write.calls": ("count", ("emit._write_text",), "calls"),
    "emit.write.bytes": ("count", ("emit._write_text",), "bytes"),
    "emit.write.self_s": ("s", ("emit.write_csv", "emit.write_json", "emit._write_text"),
                          "self_s"),
    "adjust.adjustments.self_s": ("s", ("adjust.adjustments",), "self_s"),
    "adjust.stage_analysis.self_s": ("s", ("adjust.stage_analysis",), "self_s"),
    "adjust.gram_vectors.self_s": ("s", ("adjust.gram_vectors",), "self_s"),
    "zmodel.find_zero_newton.iterations": ("count", ("zmodel.find_zero_newton",),
                                           "iterations"),
    "zmodel.find_zero_newton.self_s": ("s", ("zmodel.find_zero_newton",), "self_s"),
    "discriminant.closed_forms.self_s": ("s", ("discriminant.closed_forms",), "self_s"),
    "dh.dh_violation_experiment.self_s": ("s", ("dh.dh_violation_experiment",), "self_s"),
}


@dataclass
class OpResult:
    seconds: float
    rc: int | None
    error: str | None
    digest: str             # of exit code, error, stdout and output file
    stdout: str = ""        # the texts are kept for the first pass only
    file_text: str = ""


def import_program():
    if not (SRC / "gramdelta" / "__init__.py").is_file():
        raise SystemExit(f"error: no gramdelta sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gramdelta.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: gramdelta imported from {cli.__file__}, not {SRC}")
    return cli


def measure_setup(workdir: Path, count: int) -> list[float]:
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_PROBE, str(SRC), str(workdir)],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed with exit {proc.returncode}")
        samples.append(elapsed)
    return samples


def run_pass(cli, plan: workloads.Plan, pass_dir: Path, tracer=None,
             keep_text: bool = False, between=None) -> list[OpResult]:
    """Run the op list once; `between` is called before each op, untimed."""
    pass_dir.mkdir(parents=True)
    results = []
    for i, op in enumerate(plan.ops):
        if between is not None:
            between()
        out = pass_dir / f"op{i:03d}.out"
        argv = list(op.argv) + ["--cache-dir", str(pass_dir / op.cache), "--out", str(out)]
        if tracer is not None:
            tracer.op = i
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.main(argv)
        except Exception as exc:  # an escaped exception is a failed op, not a crash
            rc, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        file_text = out.read_text() if out.exists() else ""
        digest = hashlib.sha256(f"{rc}\0{error}\0{stdout.getvalue()}\0{file_text}"
                                .encode()).hexdigest()
        results.append(OpResult(seconds, rc, error, digest,
                                *((stdout.getvalue(), file_text) if keep_text else ())))
    shutil.rmtree(pass_dir)
    return results


def judge(plan, truth, passes):
    """Check the first pass; later passes must repeat its bytes exactly.

    An outcome is per op of the op list, however many passes replayed it, so
    `attempted` and `failed` depend on the seed alone and not on how many
    passes fit in the run. Returns (outcome per op, failure records,
    viscosity errors)."""
    first = [workloads.check(op, r.rc, r.error, r.stdout, r.file_text, truth)
             for op, r in zip(plan.ops, passes[0])]
    visc_errors = {n: e for _, _, errors in first for n, e in errors.items()}
    outcomes, failures = [], []
    for i, op in enumerate(plan.ops):
        outcome, reason, _ = first[i]
        differ = [k for k in range(1, len(passes))
                  if passes[k][i].digest != passes[0][i].digest]
        if differ:
            outcome, reason = "wrong", f"passes {differ} output differs from pass 0"
        outcomes.append(outcome)
        if outcome != "ok":
            failures.append({"op": i, "argv": list(op.argv), "outcome": outcome,
                             "reason": reason})
    return outcomes, failures, visc_errors


def metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def end_to_end(plan, passes, outcomes, setup, visc_errors) -> dict:
    walls = [sum(r.seconds for r in p) for p in passes]
    latencies = [r.seconds for p in passes for r in p]
    completed = sum(1 for o in outcomes if o == "ok")
    wall = statistics.median(walls)
    out = {
        "pass_walls_s": metric(walls, "s", len(walls)),
        "op_median_s": metric([statistics.median(p[i].seconds for p in passes)
                               for i in range(len(plan.ops))], "s", len(passes)),
        "setup_s": metric(statistics.median(setup), "s", len(setup)),
        "wall_s": metric(wall, "s", len(walls)),
        "ops_per_s": metric(completed / wall, "1/s", len(walls)),
        "op_p50_ms": metric(1e3 * statistics.median(latencies), "ms", len(latencies)),
        "failed_frac": metric((len(outcomes) - completed) / len(outcomes), "ratio",
                              len(outcomes)),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                              "MB", 1),
    }
    if len(latencies) >= 100:
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
        out["op_p90_ms"] = metric(1e3 * p90, "ms", len(latencies))
    scans = [(op.points, r.seconds) for p in passes for op, r in zip(plan.ops, p)
             if op.points]
    if scans:
        out["gram_points_per_s"] = metric(sum(n for n, _ in scans) / sum(s for _, s in scans),
                                          "1/s", len(scans))
    if visc_errors:
        out["visc_rel_err_p50"] = metric(statistics.median(visc_errors.values()), "ratio",
                                         len(visc_errors))
    return out


def per_layer(agg, traced_wall, untraced_wall) -> dict:
    out = {}
    for name, (unit, spans, stat) in LAYER_METRICS.items():
        value = sum(agg.get(s, {}).get(stat, 0) for s in spans)
        out[name] = metric(value, unit, sum(agg.get(s, {}).get("calls", 0) for s in spans))
    terms = out["zmodel.section_eval.terms"]["value"]
    out["zmodel.section_eval.ns_per_term"] = metric(
        1e9 * out["zmodel.section_eval.self_s"]["value"] / terms if terms else None,
        "ns", terms)
    gets = out["cache.get.calls"]["value"]
    out["cache.hit_ratio"] = metric(out["cache.get.hits"]["value"] / gets if gets else None,
                                    "ratio", gets)
    out["trace_overhead_frac"] = metric(traced_wall / untraced_wall - 1.0, "ratio", 2)
    return out


def run_untraced(cli, plan, truth, workdir, seconds):
    """Replay the op list until `seconds` run out. Set-up probes run between
    ops, one every `seconds / SETUP_PROBES`, so that they sample the same
    stretch of time as the passes."""
    setup, passes = [], []
    start = time.perf_counter()
    every = seconds / SETUP_PROBES

    def probe_if_due():
        while (len(setup) < SETUP_PROBES
               and time.perf_counter() - start >= every * len(setup)):
            setup.extend(measure_setup(workdir, 1))

    while True:
        passes.append(run_pass(cli, plan, workdir / f"pass{len(passes)}",
                               keep_text=not passes, between=probe_if_due))
        walls = [sum(r.seconds for r in p) for p in passes]
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    setup += measure_setup(workdir, SETUP_PROBES - len(setup))
    outcomes, failures, visc_errors = judge(plan, truth, passes)
    return outcomes, failures, end_to_end(plan, passes, outcomes, setup, visc_errors)


def run_traced(cli, plan, truth, workdir, workload):
    """Traced, untraced, traced: the untraced pass and the timed traced pass
    both run warm, so their ratio is the tracing overhead alone."""
    tracer = tracing.Tracer()
    passes, aggs = [], []
    for k, traced in enumerate((True, False, True)):
        if not traced:
            passes.append(run_pass(cli, plan, workdir / f"pass{k}"))
            continue
        tracer.reset()
        tracer.install()
        try:
            passes.append(run_pass(cli, plan, workdir / f"pass{k}", tracer,
                                   keep_text=k == 0))
        finally:
            tracer.uninstall()
        aggs.append(tracing.aggregate(tracer.spans))
    missing = [name for name in REACHED[workload] if not aggs[0].get(name, {}).get("calls")]
    if missing:
        raise RuntimeError(f"wrapped layers recorded zero calls: {', '.join(missing)}")
    outcomes, failures, _ = judge(plan, truth, passes)
    walls = [sum(r.seconds for r in p) for p in passes]
    layers = [per_layer(a, walls[2], walls[1]) for a in aggs]
    counts = [{k: v["value"] for k, v in m.items() if v["unit"] == "count"} for m in layers]
    if counts[0] != counts[1]:
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        outcomes.append("wrong")
        failures.append({"outcome": "wrong",
                         "reason": f"work counts differ between traced passes: {diff}"})
    return outcomes, failures, layers[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_program()
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    threads = min(2, os.cpu_count() or 1)
    plan = workloads.plan(args.workload, args.seed, threads)
    truth = workloads.oracle(plan)
    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            outcomes, failures, metrics = run_traced(cli, plan, truth, workdir,
                                                     args.workload)
        else:
            outcomes, failures, metrics = run_untraced(cli, plan, truth, workdir,
                                                       args.seconds)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    absent = [name for name in wanted if name not in metrics]
    if absent:
        print(f"error: workload {args.workload} cannot report {', '.join(absent)}",
              file=sys.stderr)
        return 1
    failed = sum(1 for o in outcomes if o != "ok")
    print(json.dumps({"report": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs": plan.inputs, "argv": [list(op.argv) for op in plan.ops],
        "metrics": metrics, "failures": failures}}, sort_keys=True))
    print(json.dumps({
        "correct": "wrong" not in outcomes,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
                    for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
