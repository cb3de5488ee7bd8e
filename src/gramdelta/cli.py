"""Command-line front end: every experiment as a subcommand with cached,
byte-reproducible CSV/JSON output.

Exit codes: 0 on success (a detected DH violation is data, not an error),
1 on usage, domain or numerical errors (a flat point, Newton non-convergence,
an indeterminate sign) and on a cache or output path that cannot be written,
each reported as one "error: ..." line, and 2 when a
verdict-style experiment comes out negative (corrected curve not established,
repulsion conjecture violated).
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import adjust, curves, dh, discriminant, gram
from .cache import ENV_VAR, RecordStore
from .emit import write_csv, write_json
from .errors import (DomainError, FlatPointError, IndeterminateSignError,
                     NonConvergenceError, TraceError)
from .zmodel import CoefficientModel, find_zero_newton, riemann_model
from .gram import RecordSource

_MODELS = {"riemann": riemann_model, "dh": dh.dh_model}


def _model(args) -> CoefficientModel:
    return _MODELS[getattr(args, "model", "riemann")]()


def _store(args) -> RecordStore:
    return RecordStore(args.cache_dir)


def _ks(values: np.ndarray) -> np.ndarray:
    """The 1-based term index column k = 1..N for a per-term array."""
    return np.arange(1, values.shape[0] + 1)


def _cmd_gram_scan(args) -> int:
    model = _model(args)
    recs = RecordSource(model, _store(args)).range(args.n_from, args.n_to)
    write_csv(args.out, {"model": model.name},
              ["n", "t", "z", "zprime", "kind", "viscosity"],
              [np.array([r.n for r in recs]), np.array([r.t for r in recs]),
               np.array([r.z_value for r in recs]),
               np.array([r.zprime_value for r in recs]), [r.kind.value for r in recs],
               np.array([r.viscosity for r in recs])],
              float_cols=["t", "z", "zprime", "viscosity"])
    return 0


def _cmd_gram_blocks(args) -> int:
    model = _model(args)
    source = RecordSource(model, _store(args))
    blocks = gram.blocks(model, args.n_from, args.n_to, source)
    write_csv(args.out, {"model": model.name},
              ["start", "length", "interior"],
              [[b.start for b in blocks], [b.length for b in blocks],
               [";".join(str(i) for i in b.interior_bad) for b in blocks]])
    return 0


def _cmd_viscosity(args) -> int:
    model = _model(args)
    report = gram.gbg_scan(model, args.n_from, args.n_to, bound=args.bound,
                           source=RecordSource(model, _store(args)))
    rows = report.bad_points if args.bad_only or args.gbg else report.rows
    columns = [[r.n for r in rows], [r.t for r in rows], [r.viscosity for r in rows],
               [r.kind.value for r in rows], [r.isolated for r in rows],
               [r.corrupt for r in rows]]
    meta = {"model": model.name, "bound": args.bound,
            "gbg_conjecture_holds": report.conjecture_holds}
    write_csv(args.out, meta,
              ["n", "t", "viscosity", "kind", "isolated", "corrupt"], columns,
              float_cols=["t", "viscosity"])
    if args.gbg and not report.conjecture_holds:
        return 2
    return 0


def _cmd_discriminant(args) -> int:
    model = _model(args)
    trace = discriminant.track_extremum(model, args.n, curves.linear, steps=args.steps)
    meta = {"model": model.name, "n": args.n, "verdict": trace.status.value}
    if trace.r_event is not None:
        meta["r_event"] = repr(trace.r_event)
    samples = trace.samples
    write_csv(args.out, meta, ["r", "g", "delta", "ztt"],
              [[s.r for s in samples], [s.g for s in samples],
               [s.delta for s in samples], [s.ztt for s in samples]],
              float_cols=["r", "g", "delta", "ztt"])
    return 0


def _cmd_curve_corrected(args) -> int:
    model = _model(args)
    report = curves.corrected_curve(model, args.n, tau=args.tau, steps=args.steps)
    meta = {"model": model.name, "n": args.n, "verdict": report.verdict,
            "shift_set": ";".join(str(k) for k in sorted(report.shift_set))}
    points = report.points
    write_csv(args.out, meta, ["stage", "r1", "r2", "g", "delta"],
              [[p.stage for p in points], [p.r1 for p in points],
               [p.r2 for p in points], [p.g for p in points],
               [p.delta for p in points]],
              float_cols=["r1", "r2", "g", "delta"])
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
    rep = discriminant.closed_forms(_model(args), args.n)
    write_json(args.out, _second_order_summary(args.n, rep))
    return 0


def _cmd_closed_forms(args) -> int:
    model = _model(args)
    rep = discriminant.closed_forms(model, args.n)
    if args.out not in (None, "-"):
        write_csv(args.out, {"model": model.name, "n": args.n},
                  ["k", "grad_delta", "grad_gram"],
                  [_ks(rep.grad_delta), rep.grad_delta, rep.grad_gram],
                  float_cols=["grad_delta", "grad_gram"])
    write_json(None, {
        **_second_order_summary(args.n, rep),
        "grad_delta_head": [float(x) for x in rep.grad_delta[:16]],
        "grad_gram_head": [float(x) for x in rep.grad_gram[:16]],
    })
    return 0


def _cmd_adjustments(args) -> int:
    model = _model(args)
    rep = adjust.adjustments(model, args.n, args.neighbor)
    if args.out not in (None, "-"):
        meta = {"model": model.name, "n": args.n, "neighbor": args.neighbor}
        write_csv(args.out, meta, ["k", "phase", "alpha_c", "alpha_s"],
                  [_ks(rep.phases), rep.phases, rep.alpha_c, rep.alpha_s],
                  float_cols=["phase", "alpha_c", "alpha_s"])
    write_json(None, {
        "n": args.n, "neighbor_mode": rep.neighbor_mode,
        "zc_minus": rep.zc_minus, "zc_plus": rep.zc_plus,
        "zs_minus": rep.zs_minus, "zs_plus": rep.zs_plus,
        "z_reference": rep.z_reference, "zprime_reference": rep.zprime_reference,
        "residual_z": rep.residual_z, "residual_zprime": rep.residual_zprime,
        "excluded_c": list(rep.excluded_c), "excluded_s": list(rep.excluded_s),
    })
    return 0


def _cmd_stages(args) -> int:
    model = _model(args)
    rep = adjust.stage_analysis(model, args.n)
    if args.out not in (None, "-"):
        write_csv(args.out, {"model": model.name, "n": args.n},
                  ["k", "z_partial", "zprime_partial"],
                  [_ks(rep.z_partials), rep.z_partials, rep.zprime_partials],
                  float_cols=["z_partial", "zprime_partial"])
    write_json(None, {
        "n": args.n, "surge_end": rep.surge_end, "middle": list(rep.middle),
        "surge_magnitude": rep.surge_magnitude,
        "post_surge_net_change": rep.post_surge_net_change,
        "initial_max_abs_zprime": rep.initial_max_abs_zprime,
        "final_net_change": rep.final_net_change,
        "middle_rms_dev": rep.middle_rms_dev,
        "zprime": rep.zprime_partials[-1], "z": rep.z_partials[-1],
    })
    return 0


def _cmd_mc(args) -> int:
    model = _model(args)
    gv = adjust.gram_vectors(model, args.n, trials=args.trials, seed=args.seed)
    meta = {"model": model.name, "seed": args.seed, "n": args.n, "trials": args.trials}
    write_csv(args.out, meta, ["k", "raw", "sorted", "baseline", "essential"],
              [_ks(gv.raw), gv.raw, gv.sorted_v, gv.baseline, gv.essential],
              float_cols=["raw", "sorted", "baseline", "essential"])
    return 0


def _cmd_newton(args) -> int:
    model = _model(args)
    if args.index is None and args.t0 is None:
        raise DomainError("newton needs --index or --t0")
    t0 = args.t0 if args.t0 is not None else gram.core_zero(model, args.index)
    result = find_zero_newton(model, t0)
    write_json(args.out, {
        "t0": t0, "t": result.t, "converged": result.converged,
        "final_value": result.final_value, "iterates": result.iterates,
    })
    return 0


def _cmd_dh_violation(args) -> int:
    rep = dh.dh_violation_experiment(steps=args.steps)
    write_json(args.out, {
        "n": rep.n, "g": rep.g, "violation": rep.violation,
        "collision_r": rep.collision_r, "delta_end": rep.delta_end,
        "first_order_deviation_ratio": rep.first_order_deviation_ratio,
        "max_displacement": rep.max_displacement,
        "displacement_bound": rep.displacement_bound,
    })
    return 0


def _cmd_cache(args) -> int:
    store = _store(args)
    if args.action == "status":
        write_json(args.out, store.status())
    else:
        write_json(args.out, {"cleared_files": store.clear()})
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The gdl parser, built on the first call and shared by later ones.

    Nothing in it may depend on the environment: a default that must follow
    GDL_CACHE_DIR is resolved when the command runs, not here.
    """
    parser = argparse.ArgumentParser(
        prog="gdl", description="Gram discriminant experiments")

    def common(p, model=True):
        p.add_argument("--cache-dir", default=None,
                       help=f"cache directory (default ${ENV_VAR}, "
                            "else ~/.cache/gramdelta)")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and ignored: scans run on the calling "
                            "thread, since classification holds the GIL and a "
                            "thread pool was measured slower at every window size")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if model:
            p.add_argument("--model", choices=sorted(_MODELS), default="riemann")

    sub = parser.add_subparsers(dest="command", required=True)

    gram_p = sub.add_parser("gram", help="Gram point scans and blocks")
    gram_sub = gram_p.add_subparsers(dest="subcommand", required=True)
    p = gram_sub.add_parser("scan")
    p.add_argument("--from", dest="n_from", type=int, required=True)
    p.add_argument("--to", dest="n_to", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_gram_scan)
    p = gram_sub.add_parser("blocks")
    p.add_argument("--from", dest="n_from", type=int, required=True)
    p.add_argument("--to", dest="n_to", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_gram_blocks)

    p = sub.add_parser("viscosity", help="bad-point viscosities and G-B-G scan")
    p.add_argument("--from", dest="n_from", type=int, required=True)
    p.add_argument("--to", dest="n_to", type=int, required=True)
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
    p.add_argument("--index", type=int, default=None)
    p.add_argument("--t0", type=float, default=None)
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
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ValueError, TraceError, FlatPointError, NonConvergenceError,
            IndeterminateSignError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
