"""Command-line front end: every experiment as a subcommand with cached,
byte-reproducible CSV/JSON output.

Exit codes: 0 on success (a detected DH violation is data, not an error),
1 on usage, domain or numerical errors (a flat point, Newton non-convergence,
an indeterminate sign), on a cache or output path that cannot be written and
on an array no memory holds, each reported as one "error: ..." line, and 2
when a verdict-style experiment comes out negative (corrected curve not
established, repulsion conjecture violated).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
import typing
from enum import Enum

import numpy as np

from . import adjust, curves, dh, discriminant, gram
from .cache import ENV_VAR, RecordStore
from .emit import write_csv, write_json
from .errors import (FlatPointError, IndeterminateSignError, NonConvergenceError,
                     TraceError)
from .zmodel import find_zero_newton, riemann_model
from .gram import RecordSource

_MODELS = {"riemann": riemann_model, "dh": dh.dh_model}


def _write_rows(out, meta: dict, row_type: type, rows: list) -> None:
    """A table whose columns are row_type's fields in their order: a float
    field as a float array, so it gets a hex twin, and an enum field as its
    values."""
    types = typing.get_type_hints(row_type)
    columns = {}
    for f in dataclasses.fields(row_type):
        column = [getattr(r, f.name) for r in rows]
        if types[f.name] is float:
            column = np.array(column, dtype=float)
        elif issubclass(types[f.name], Enum):
            column = [v.value for v in column]
        columns[f.name] = column
    write_csv(out, meta, columns)


def _write_terms(out, meta: dict, **arrays: np.ndarray) -> None:
    """A per-term table: the 1-based term index k = 1..N, then the named
    arrays of N terms each."""
    size = len(next(iter(arrays.values())))
    write_csv(out, meta, {"k": np.arange(1, size + 1), **arrays})


def _summary(report, **extra) -> dict:
    """A report's fields that are neither arrays nor dataclasses, and extra."""
    values = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    return {key: v for key, v in values.items() if not isinstance(v, np.ndarray)
            and not dataclasses.is_dataclass(v)} | extra


def _cmd_gram_scan(args) -> int:
    model = _MODELS[args.model]()
    recs = RecordSource(model, RecordStore(args.cache_dir)).range(args.n_from, args.n_to)
    _write_rows(args.out, {"model": model.name}, gram.GramRecord, recs)
    return 0


def _cmd_gram_blocks(args) -> int:
    model = _MODELS[args.model]()
    source = RecordSource(model, RecordStore(args.cache_dir))
    blocks = gram.blocks(model, args.n_from, args.n_to, source)
    write_csv(args.out, {"model": model.name}, {
        "start": [b.start for b in blocks], "length": [b.length for b in blocks],
        "interior": [";".join(str(i) for i in b.interior_bad) for b in blocks]})
    return 0


def _cmd_viscosity(args) -> int:
    model = _MODELS[args.model]()
    report = gram.gbg_scan(model, args.n_from, args.n_to, bound=args.bound,
                           source=RecordSource(model, RecordStore(args.cache_dir)))
    rows = report.bad_points if args.bad_only or args.gbg else report.rows
    meta = {"model": model.name, "bound": args.bound,
            "gbg_conjecture_holds": report.conjecture_holds}
    _write_rows(args.out, meta, gram.GbgRow, rows)
    if args.gbg and not report.conjecture_holds:
        return 2
    return 0


def _cmd_discriminant(args) -> int:
    model = _MODELS[args.model]()
    trace = discriminant.track_extremum(model, args.n, curves.linear, steps=args.steps)
    meta = {"model": model.name, "n": args.n, "verdict": trace.status.value}
    if trace.r_event is not None:
        meta["r_event"] = repr(trace.r_event)
    _write_rows(args.out, meta, discriminant.TraceSample, trace.samples)
    return 0


def _cmd_curve_corrected(args) -> int:
    model = _MODELS[args.model]()
    report = curves.corrected_curve(model, args.n, tau=args.tau, steps=args.steps)
    meta = {"model": model.name, "n": args.n, "verdict": report.verdict,
            "shift_set": ";".join(str(k) for k in sorted(report.shift_set))}
    _write_rows(args.out, meta, curves.StagePoint, report.points)
    summary = {
        "n": args.n, "verdict": report.verdict,
        "shift_set": sorted(report.shift_set),
        "shift_warning": report.shift_warning,
        "shift_truncated": report.shifting.truncated,
        "shift_stop_reason": report.shifting.stop_reason,
        "exit_point": list(report.shifting.exit_point),
        "delta_end": report.delta_end,
        "energy_ok": report.descent.energy_ok,
        "descent_stop_reason": report.descent.stop_reason,
    }
    if args.out not in (None, "-"):
        write_json(None, summary)
    return 0 if report.verdict == "true" else 2


def _second_order_summary(n: int, rep: discriminant.ClosedFormReport) -> dict:
    """The JSON keys that `hessian` prints and `closed-forms` extends."""
    return {"n": n, "hessian": rep.hessian_quadratic,
            "hessian_constant": rep.hessian_constant,
            "zprime_at_ones": rep.zprime_at_ones,
            "gradient_identity_residual": rep.gradient_identity_residual}


def _cmd_hessian(args) -> int:
    rep = discriminant.closed_forms(_MODELS[args.model](), args.n)
    write_json(args.out, _second_order_summary(args.n, rep))
    return 0


def _cmd_closed_forms(args) -> int:
    model = _MODELS[args.model]()
    rep = discriminant.closed_forms(model, args.n)
    if args.out not in (None, "-"):
        _write_terms(args.out, {"model": model.name, "n": args.n},
                     grad_delta=rep.grad_delta, grad_gram=rep.grad_gram)
    write_json(None, {
        **_second_order_summary(args.n, rep),
        "grad_delta_head": [float(x) for x in rep.grad_delta[:16]],
        "grad_gram_head": [float(x) for x in rep.grad_gram[:16]],
    })
    return 0


def _cmd_adjustments(args) -> int:
    model = _MODELS[args.model]()
    rep = adjust.adjustments(model, args.n, args.neighbor)
    if args.out not in (None, "-"):
        meta = {"model": model.name, "n": args.n, "neighbor": args.neighbor}
        _write_terms(args.out, meta, phase=rep.phases, alpha_c=rep.alpha_c,
                     alpha_s=rep.alpha_s)
    write_json(None, _summary(rep))
    return 0


def _cmd_stages(args) -> int:
    model = _MODELS[args.model]()
    rep = adjust.stage_analysis(model, args.n)
    if args.out not in (None, "-"):
        _write_terms(args.out, {"model": model.name, "n": args.n},
                     z_partial=rep.z_partials, zprime_partial=rep.zprime_partials)
    write_json(None, _summary(rep, z=rep.z_partials[-1], zprime=rep.zprime_partials[-1]))
    return 0


def _cmd_mc(args) -> int:
    model = _MODELS[args.model]()
    gv = adjust.gram_vectors(model, args.n, trials=args.trials, seed=args.seed)
    meta = {"model": model.name, "seed": args.seed, "n": args.n, "trials": args.trials}
    _write_terms(args.out, meta, raw=gv.raw, sorted=gv.sorted_v, baseline=gv.baseline,
                 essential=gv.essential)
    return 0


def _cmd_newton(args) -> int:
    model = _MODELS[args.model]()
    t0 = args.t0 if args.t0 is not None else gram.core_zero(model, args.index)
    result = find_zero_newton(model, t0)
    write_json(args.out, _summary(result, t0=t0))
    return 0


def _cmd_dh_violation(args) -> int:
    rep = dh.dh_violation_experiment(steps=args.steps)
    write_json(args.out, _summary(rep))
    return 0


def _cmd_cache(args) -> int:
    store = RecordStore(args.cache_dir)
    if args.action == "status":
        write_json(args.out, store.status())
    else:
        write_json(args.out, {"cleared_files": store.clear()})
    return 0


class _Parser(argparse.ArgumentParser):
    """Refusals raise to main, which prints one "error: ..." line."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The gdl parser, built on the first call and shared by later ones.

    Nothing in it may depend on the environment: a default that must follow
    GDL_CACHE_DIR is resolved when the command runs, not here.
    """
    parser = _Parser(prog="gdl", description="Gram discriminant experiments")

    def common(p, model=True):
        p.add_argument("--cache-dir", default=None,
                       help=f"cache directory (default ${ENV_VAR}, "
                            "else ~/.cache/gramdelta)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if model:
            p.add_argument("--model", choices=sorted(_MODELS), default="riemann")

    def window(p):
        # n_from <= n_to is RecordSource.range's rule, not the parser's
        p.add_argument("--from", dest="n_from", type=int, required=True)
        p.add_argument("--to", dest="n_to", type=int, required=True)
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and ignored: scans run on the calling "
                            "thread, since classification holds the GIL and a "
                            "thread pool was measured slower at every window size")

    sub = parser.add_subparsers(dest="command", required=True)

    gram_p = sub.add_parser("gram", help="Gram point scans and blocks")
    gram_sub = gram_p.add_subparsers(dest="subcommand", required=True)
    p = gram_sub.add_parser("scan")
    window(p)
    common(p)
    p.set_defaults(func=_cmd_gram_scan)
    p = gram_sub.add_parser("blocks")
    window(p)
    common(p)
    p.set_defaults(func=_cmd_gram_blocks)

    p = sub.add_parser("viscosity", help="bad-point viscosities and G-B-G scan")
    window(p)
    p.add_argument("--bad-only", action="store_true")
    p.add_argument("--gbg", action="store_true",
                   help="evaluate the repulsion conjecture (exit 2 on violation)")
    p.add_argument("--bound", type=float, default=4.0)
    common(p)
    p.set_defaults(func=_cmd_viscosity)

    p = sub.add_parser("discriminant", help="discriminant trace along the linear curve")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--steps", type=int, default=200)
    common(p)
    p.set_defaults(func=_cmd_discriminant)

    p = sub.add_parser("hessian", help="second-order Hessian at g_n")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_hessian)

    p = sub.add_parser("closed-forms", help="gradients and Hessian at the origin")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_closed_forms)

    p = sub.add_parser("adjustments", help="neighbour adjustments at g_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--neighbor", choices=["synthetic", "true"], default="synthetic")
    common(p)
    p.set_defaults(func=_cmd_adjustments)

    p = sub.add_parser("stages", help="partial-sum stage analysis at g_n")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_stages)

    p = sub.add_parser("mc", help="Monte-Carlo Gram vectors")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    common(p)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("newton", help="Newton iteration from a core zero")
    start = p.add_mutually_exclusive_group(required=True)
    start.add_argument("--index", type=int)
    start.add_argument("--t0", type=float)
    common(p)
    p.set_defaults(func=_cmd_newton)

    curve_p = sub.add_parser("curve", help="corrected connecting curve")
    curve_sub = curve_p.add_subparsers(dest="subcommand", required=True)
    p = curve_sub.add_parser("corrected")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tau", type=float, default=1.5)
    p.add_argument("--steps", type=int, default=200)
    common(p)
    p.set_defaults(func=_cmd_curve_corrected)

    dh_p = sub.add_parser("dh", help="Davenport-Heilbronn experiments")
    dh_sub = dh_p.add_subparsers(dest="subcommand", required=True)
    p = dh_sub.add_parser("violation")
    p.add_argument("--steps", type=int, default=200)
    common(p, model=False)
    p.set_defaults(func=_cmd_dh_violation)

    p = sub.add_parser("cache", help="cache maintenance")
    p.add_argument("action", choices=["status", "clear"])
    common(p, model=False)
    p.set_defaults(func=_cmd_cache)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    except (argparse.ArgumentError, ValueError, TraceError, FlatPointError,
            NonConvergenceError, IndeterminateSignError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
