"""Connecting curves in parameter space and the corrected two-stage curve.

Every curve is a function weights_at(r) on r in [0, 1] with gamma(0) = 0 and
gamma(1) = 1 (all-ones); linear is r -> r, the uniform weight. The corrected
curve for an isolated bad Gram point splits the coordinates into shifting
indices (those with large B_k, which move the extremum sideways) and
descending indices (everything else), then

  1. shifting stage: raise r1 to 1 while correcting r2 so that
     (-1)^n Delta stays at 1 (a level curve of the discriminant),
  2. descending stage: a straight segment from the exit point to (1, 1).

Both stages step by discriminant.march (its docstring states the step rules)
on one two-block solver, the shift block and the descend block.
The composite is the paper-of-record experiment for points where the plain
linear curve collides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .discriminant import (TraceSample, TraceStatus, _ExtremumSolver, _term_table,
                           follow_extremum, march)
from .gram import gram_point
from .zmodel import CoefficientModel

_LEVEL_TOL = 1e-3


def linear(r: float) -> float:
    """gamma(r) = r * (1, ..., 1): one uniform weight, so one proxy block."""
    return float(r)


def select_shift_indices(model: CoefficientModel, n: int, tau: float = 1.5,
                         k_max: int | None = None) -> set[int]:
    """{k : B_k >= tau} inside the surge window k <= ceil(sqrt(robust cutoff)).

    An empty result is legitimate (the shifting stage degenerates to a no-op;
    tau = inf asks for it); callers that care emit a warning status. A NaN
    tau, which would select nothing silently, is refused.
    """
    return _shift_indices(model, n, gram_point(model, n), tau, k_max)


def _shift_indices(model: CoefficientModel, n: int, g: float, tau: float,
                   k_max: int | None) -> set[int]:
    """select_shift_indices at the refined Gram point g = g_n."""
    if math.isnan(tau):
        raise ValueError("tau must be a number, got nan")
    cutoff = model.robust_cutoff(g)
    if k_max is None:
        if cutoff < 15:
            raise ValueError(f"the robust cutoff N = {cutoff} at g_{n} is below the "
                             "15-term surge window")
        k_max = min(cutoff, max(15, math.ceil(math.sqrt(cutoff))))
    elif k_max < 15:
        raise ValueError(f"k_max must be >= 15, got {k_max}")
    table = _term_table(model, n, g, k_max)
    return {int(k) for k, b in zip(table.k, table.b) if b >= tau}


@dataclass
class StagePoint:
    stage: str
    r1: float
    r2: float
    g: float
    delta: float


@dataclass
class ShiftingResult:
    points: list[StagePoint]
    truncated: bool
    exit_point: tuple[float, float]
    exit_g: float
    stop_reason: str | None = None  # the rejection that truncated the stage


def shifting_stage(solver: _ExtremumSolver, steps: int = 200) -> ShiftingResult:
    """Follow the level curve (-1)^n Delta = 1 while a march steps r1 to 1.

    Each step's corrector adjusts r2 (Newton on the analytic d Delta/d r2,
    extremum re-solved per trial) until the level is restored within 1e-3.
    If no r2 in [0, 1] does, the stage is truncated at the last valid r1 and
    its last rejection is the stop reason. An empty shift block leaves Delta
    unmoved, so the stage jumps to (1, 0).
    """
    g0 = solver.g0
    start = StagePoint("shift", 0.0, 0.0, g0, solver.value((0.0, 0.0), g0))
    if not solver.proxy.shift_weights.size:
        points = [start, StagePoint("shift", 1.0, 0.0, g0, start.delta)]
        return ShiftingResult(points=points, truncated=False, exit_point=(1.0, 0.0),
                              exit_g=g0)

    def correct_level(r_from, r1, prev):
        r2, g = prev.r2, prev.g
        for _ in range(12):  # Newton in r2 restoring (-1)^n Delta = 1
            w = (r1, r2)
            sol = solver.solve(w, g)
            if sol is None:
                return "Newton failed"
            g = sol[0]
            delta = solver.value(w, g)
            err = solver.sign * delta - 1.0
            if abs(err) <= _LEVEL_TOL:
                return StagePoint("shift", r1, r2, g, delta)
            # envelope theorem: dDelta/dr2 is the plain partial, the descend block sum
            slope = solver.sign * float(solver.proxy.sums(g)[0, 1])
            if abs(slope) < 1e-14:
                return "level has no slope in r2"
            r2_next = r2 - err / slope
            if not -1e-9 <= r2_next <= 1.0 + 1e-9:
                return "r2 would leave [0, 1]"
            r2 = min(max(r2_next, 0.0), 1.0)
        return "level not restored in 12 corrector steps"

    run = march(correct_level, start, steps)
    last = run.samples[-1][1]
    return ShiftingResult(points=[p for _, p in run.samples],
                          truncated=run.stop_reason is not None,
                          exit_point=(last.r1, last.r2), exit_g=last.g,
                          stop_reason=run.stop_reason)


@dataclass
class DescentResult:
    points: list[StagePoint]
    energy_ok: bool
    r_collision: float | None
    stop_reason: str | None  # why the descent did not reach (1, 1)


def descending_stage(solver: _ExtremumSolver, start: tuple[float, float],
                     steps: int = 200, g_start: float | None = None) -> DescentResult:
    """Linear segment from the shifting exit to (1, 1), marched with no jump
    cap. energy_ok is (-1)^n Delta > 0 along the whole segment, so false for a
    descent that never ran; r_collision is the bisected crossing (None when
    the march is lost). A descent that stops short of (1, 1) names its last
    rejection as the stop reason."""
    r1_0, r2_0 = start
    g = g_start if g_start is not None else solver.g0
    if (r1_0, r2_0) == (1.0, 1.0):  # nothing to march: one solve at the end
        sol = solver.solve((1.0, 1.0), g)
        points = [] if sol is None else [
            StagePoint("descend", 1.0, 1.0, sol[0], solver.value((1.0, 1.0), sol[0]))]
        return DescentResult(points=points, r_collision=None,
                             energy_ok=bool(points) and solver.sign * points[0].delta > 0.0,
                             stop_reason=None if points else "Newton failed")

    def at(s):
        return (r1_0 + s * (1.0 - r1_0), r2_0 + s * (1.0 - r2_0))

    run = follow_extremum(solver, at, TraceSample(0.0, g, math.nan, math.nan), steps)
    collided = run.status is TraceStatus.COLLISION
    return DescentResult(energy_ok=run.status is TraceStatus.NON_COLLIDING,
                         points=[StagePoint("descend", *at(s), p.g, p.delta)
                                 for s, p in run.samples[1:]],
                         r_collision=run.r_event if collided else None,
                         stop_reason=run.stop_reason)


@dataclass
class CorrectedCurveReport:
    n: int
    tau: float
    shift_set: frozenset[int]
    shift_warning: bool       # empty selection, stage degenerates
    shifting: ShiftingResult
    descent: DescentResult
    verdict: str              # "true", "false", "undetermined"
    delta_end: float | None

    @property
    def points(self) -> list[StagePoint]:
        return self.shifting.points + self.descent.points


def corrected_curve(model: CoefficientModel, n: int, tau: float = 1.5,
                    steps: int = 200) -> CorrectedCurveReport:
    """Shifting stage + descending stage; verdict of the corrected Gram law.

    g_n is refined once, for the shift selection and the solver. Both stages
    march on one two-block solver, so the window is tabulated once. verdict
    "true" means (-1)^n Delta stayed positive along the composite and the
    endpoint (1, ..., 1) was reached; any stage failure yields "undetermined"
    with diagnostics attached, never a silent "false".
    """
    g0 = gram_point(model, n)
    shift_set = _shift_indices(model, n, g0, tau, None)
    solver = _ExtremumSolver(model, n, g0, shift_set)
    shifting = shifting_stage(solver, steps=steps)
    descent = descending_stage(solver, shifting.exit_point, steps=steps,
                               g_start=shifting.exit_g)
    composite_ok = all(solver.sign * p.delta > 0.0
                       for p in shifting.points + descent.points)
    reached = descent.points and abs(descent.points[-1].r1 - 1.0) < 1e-9 \
        and abs(descent.points[-1].r2 - 1.0) < 1e-9
    if reached and composite_ok and descent.energy_ok:
        verdict = "true"
    elif not shifting.truncated and (reached or descent.r_collision is not None):
        verdict = "false"  # only a collision on an untruncated composite
    else:
        verdict = "undetermined"  # a truncated stage names why in its stop_reason
    delta_end = descent.points[-1].delta if descent.points else None
    return CorrectedCurveReport(n=n, tau=tau, shift_set=frozenset(shift_set),
                                shift_warning=not shift_set, shifting=shifting,
                                descent=descent, verdict=verdict,
                                delta_end=delta_end)
