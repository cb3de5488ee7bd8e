"""Discriminant of a parameter-space curve: continuation, closed forms, Hessian.

A curve is a function weights_at(r) on r in [0, 1], with gamma(0) = 0 and
gamma(1) = 1: a float is the uniform weight the one-block proxy takes (the
linear curve is curves.linear, r -> r), a vector is summed term by term.
track_extremum follows the extremal point g_n(r) of the section along it by
march, the one continuation loop (its docstring states the step rules),
solving dZ/dt = 0 in t at each accepted r and recording Delta_n(r) =
Z(g_n(r); gamma(r)). The sign of (-1)^n Delta_n is the collision detector: a
crossing means the n-th and (n+1)-th zeros have merged and left the real line.

term_table holds the first-order data at the origin of parameter space, one
row per term, and closed_forms adds the second-order data:

    dDelta/da_k   = cos(theta(g_n) - ln(k+1) g_n) / sqrt(k+1)
    dg_n/da_k     = 2 (-1)^(n+1) sin(theta(g_n) - ln(k+1) g_n)
                      * ln(g_n/(2 pi (k+1)^2)) / (sqrt(k+1) ln^2(g_n/2pi))
    H_n           = kappa_H (-1)^n (Z'(g_n; 1) / ln(g_n/2pi))^2

kappa_H is fixed once, globally, to 4: the finite-difference Hessian and the
published anchors H_90 / H_126 both select 4 over the alternative 2 (the
theorem statement and its proof disagree on this constant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import TraceError
from .numerics import csum, newton_scalar
from .zmodel import CoefficientModel, WindowProxy, section_eval, term_arrays
from .gram import gram_point

KAPPA_H = 4.0

_MIN_STEP = 1e-5       # a march gives up below this step
_MAX_STEPS = 100_000   # 1 / _MIN_STEP: a finer base step ends at its first rejection
_NEWTON_BUDGET = 5     # Newton iterations an accepted extremum step may take


class TraceStatus(Enum):
    NON_COLLIDING = "non-colliding"
    COLLISION = "collision"
    CONTINUATION_LOST = "continuation-lost"


@dataclass(frozen=True)
class TraceSample:
    r: float
    g: float
    delta: float
    ztt: float


@dataclass
class DiscriminantTrace:
    n: int
    samples: list[TraceSample]
    status: TraceStatus
    r_event: float | None = None  # collision or loss location

    def sign_invariant(self) -> bool:
        sign = -1.0 if self.n % 2 else 1.0
        return all(sign * s.delta > 0.0 for s in self.samples)


@dataclass
class MarchResult:
    samples: list[tuple[float, object]]  # accepted (r, state), from (0, start)
    status: TraceStatus
    r_event: float | None                # crossing, or where the step underflowed
    rejections: list[tuple[float, str]]  # (r tried, reason), in order

    @property
    def stop_reason(self) -> str | None:
        """The last rejection when the march ended short of r = 1, else None."""
        return self.rejections[-1][1] if self.samples[-1][0] < 1.0 - 1e-12 else None


class _ExtremumSolver:
    """Newton solver for dZ/dt(t; a) = 0 at the window's section dimension.

    The window has one block (shift_set None) or a corrected curve's shift
    and descend blocks (WindowProxy checks shift_set). A parameter point a
    is a scalar (uniform weight on every index), a tuple of block weights or
    a weight vector; only a vector is summed directly, not by the proxy.
    """

    def __init__(self, model: CoefficientModel, n: int, g0: float, shift_set=None):
        self.model = model
        self.g0 = g0
        self.sign = -1.0 if n % 2 else 1.0  # (-1)^n
        lnfac = 2.0 * model.theta_main(g0)
        self.ztt_floor = 1e-8 * lnfac * lnfac
        self.proxy = WindowProxy(model, g0, shift_set)

    def section(self, a, t: float):
        """Z, Z_t, Z_tt at t (main mode), indexable by order: the proxy's three,
        or one direct section_eval call (no order's bits depend on the others)."""
        if isinstance(a, np.ndarray):
            return section_eval(self.model, t, a, orders=(0, 1, 2), n_terms=self.proxy.n_terms)
        if isinstance(a, (int, float)):
            a = (float(a),) * self.proxy.blocks
        return self.proxy.section(t, a)

    def solve(self, a, t_seed: float):
        """Newton on Z_t = 0 from t_seed: (t, iterations), or None when Z_tt
        reaches the flat-point floor or 10 steps do not converge."""
        def slope_and_curvature(t):
            vals = self.section(a, t)
            return vals[1], vals[2]

        t, iterations, converged = newton_scalar(
            slope_and_curvature, t_seed, rel_step_tol=1e-12, max_iter=10,
            min_slope=self.ztt_floor)
        return (t, iterations) if converged else None

    def value(self, a, t: float) -> float:
        return self.section(a, t)[0]


def march(advance, start, steps: int, crossed=None, probe=None) -> MarchResult:
    """The one continuation loop: step a state from r = 0 to r = 1.

    advance(r_from, r_to, state) returns the state at r_to (states carry the
    extremum as .g) or a short reason string that rejects the step. The base
    step is 1 / steps (50 <= steps <= 100000, so the base step is not below
    the smallest one); while r < 1 - 1e-12 the march tries
    r + min(dr, 1 - r). A rejection is logged and halves dr; below
    1e-5 the march stops, CONTINUATION_LOST at the last accepted r unless a
    crossing came first. An accepted step doubles dr back up to the base.

    crossed(state) is tested on accepted states until it first holds; the
    crossing is bisected to 1e-6 in r between the last two samples, where
    probe(r, g_seed) solves from the midpoint g without advance's acceptance
    tests (a reason string ends the bisection). The status becomes COLLISION
    at the bracket's midpoint, and the march goes on past it.
    """
    if not 50 <= steps <= _MAX_STEPS:
        raise ValueError(f"steps must be in [50, {_MAX_STEPS}], got {steps}")
    samples = [(0.0, start)]
    rejections: list[tuple[float, str]] = []
    status, r_event = TraceStatus.NON_COLLIDING, None
    r, state = 0.0, start
    dr = base_dr = 1.0 / steps
    while r < 1.0 - 1e-12:
        dr = min(dr, 1.0 - r)
        r_try = r + dr
        new = advance(r, r_try, state)
        if isinstance(new, str):
            rejections.append((r_try, new))
            dr *= 0.5
            if dr < _MIN_STEP:
                if status is TraceStatus.NON_COLLIDING:
                    status, r_event = TraceStatus.CONTINUATION_LOST, r
                break
            continue
        if crossed and status is TraceStatus.NON_COLLIDING and crossed(new):
            status = TraceStatus.COLLISION
            r_lo, g_lo, r_hi, g_hi = r, state.g, r_try, new.g
            for _ in range(60):  # never reached: a bracket is at most 1/50 wide
                if r_hi - r_lo <= 1e-6:
                    break
                r_mid = 0.5 * (r_lo + r_hi)
                mid = probe(r_mid, 0.5 * (g_lo + g_hi))
                if isinstance(mid, str):
                    break
                if crossed(mid):
                    r_hi, g_hi = r_mid, mid.g
                else:
                    r_lo, g_lo = r_mid, mid.g
            r_event = 0.5 * (r_lo + r_hi)
        samples.append((r_try, new))
        r, state = r_try, new
        if dr < base_dr:
            dr *= 2.0
    return MarchResult(samples, status, r_event, rejections)


def follow_extremum(solver, weights_at, start, steps: int,
                    jump_cap: float = math.inf) -> MarchResult:
    """March the extremum of solver along weights_at(r) from the TraceSample
    start, watching sign * Delta <= 0. A step is rejected when Newton fails,
    takes over 5 iterations or moves g by more than jump_cap. A bisection
    probe skips those two tests, and no probe enters the samples."""

    def sample(r, g_seed, accepting=True):
        a = weights_at(r)
        sol = solver.solve(a, g_seed)
        if sol is None:
            return "Newton failed"
        if accepting and sol[1] > _NEWTON_BUDGET:
            return f"Newton took more than {_NEWTON_BUDGET} iterations"
        if accepting and not abs(sol[0] - g_seed) <= jump_cap:
            return "extremum moved more than the jump cap"
        vals = solver.section(a, sol[0])
        return TraceSample(r=r, g=sol[0], delta=vals[0], ztt=vals[2])

    return march(lambda _, r, prev: sample(r, prev.g), start, steps,
                 crossed=lambda s: solver.sign * s.delta <= 0.0,
                 probe=lambda r, g_seed: sample(r, g_seed, accepting=False))


def track_extremum(model: CoefficientModel, n: int, weights_at,
                   steps: int = 200) -> DiscriminantTrace:
    """Follow g_n(r) along the curve weights_at and record Delta_n(r) for r
    in [0, 1]: a march (see its step rules) whose jump cap is half the local
    Gram gap. A weight vector whose length is not the robust cutoff at g_n is
    refused by section_eval with DimensionError."""
    g0 = gram_point(model, n)
    solver = _ExtremumSolver(model, n, g0)
    z0 = solver.section(weights_at(0.0), g0)
    start = TraceSample(r=0.0, g=g0, delta=z0[0], ztt=z0[2])
    run = follow_extremum(solver, weights_at, start, steps, jump_cap=0.5 * solver.proxy.gap)
    return DiscriminantTrace(n=n, samples=[s for _, s in run.samples],
                             status=run.status, r_event=run.r_event)


def discriminant_at(model: CoefficientModel, n: int, weights_at, r: float,
                    steps: int = 200) -> float:
    """Delta_n(r) along weights_at, provided continuation reaches r without
    collision: the trace of the rescaled curve s -> weights_at(r s) to s = 1,
    which is attached, in s, to a TraceError."""
    if r == 0.0:
        return 1.0 if n % 2 == 0 else -1.0
    trace = track_extremum(model, n, lambda s: weights_at(r * s), steps=steps)
    if trace.status is TraceStatus.CONTINUATION_LOST:
        raise TraceError(f"continuation lost at r={r * trace.r_event}", trace)
    if trace.status is TraceStatus.COLLISION and trace.r_event < 1.0:
        raise TraceError(f"collision at r={r * trace.r_event} before {r}", trace)
    return trace.samples[-1].delta


@dataclass
class TermTable:
    """Per-term first-order data at g_n: A_k = dDelta/da_k is the discriminant
    pull, B_k the shift weight in grad_gram = dg_n/da_k and the Hessian."""
    n: int
    g: float
    k: np.ndarray
    cos_term: np.ndarray
    sin_term: np.ndarray
    a: np.ndarray
    b: np.ndarray
    grad_gram: np.ndarray


def term_table(model: CoefficientModel, n: int, k_max: int | None = None) -> TermTable:
    """Rows k = 1..k_max (default every term of the section, k <= N, the
    robust cutoff) of ((-1)^n cos, (-1)^n sin, A_k, B_k, dg_n/da_k) at g_n.

    Both trig columns carry the (-1)^n of cos(theta(g_n) - x) = (-1)^n cos(x)
    folded in, so A_k is the first-order pull of term k on (-1)^n Delta up to
    parity and B_k > 0 picks the terms whose gradient moves g_n leftward for
    odd n (the orientation of the published k = 1..15 table).
    """
    return _term_table(model, n, gram_point(model, n), k_max)


def _term_table(model: CoefficientModel, n: int, g: float, k_max: int | None) -> TermTable:
    cutoff = model.robust_cutoff(g)
    if k_max is None:
        k_max = cutoff
    elif k_max > cutoff:
        raise ValueError(f"k_max {k_max} exceeds the robust cutoff")
    ln_m, coeff, sqrt_m = (arr[1:] for arr in term_arrays(model, k_max + 1))  # m = k + 1
    phase = model.theta(g) - g * ln_m
    cos_t = np.cos(phase)
    sin_t = np.sin(phase)
    lnfac = 2.0 * model.theta_main(g)          # ln(g/2pi) analogue
    length = lnfac - 2.0 * ln_m                # ln(g/(2pi m^2)) analogue
    parity = 1.0 if n % 2 else -1.0            # (-1)^(n+1)
    sin_term = -sin_t  # equals (-1)^n sin(ln(k+1) g_n)
    return TermTable(
        n=n, g=g, k=np.arange(1, k_max + 1), cos_term=cos_t, sin_term=sin_term,
        a=coeff * cos_t / sqrt_m, b=coeff * length * sin_term / sqrt_m,
        grad_gram=2.0 * parity * coeff * sin_t * length / (sqrt_m * lnfac * lnfac))


@dataclass
class ClosedFormReport:
    n: int
    g: float
    grad_delta: np.ndarray
    grad_gram: np.ndarray
    zprime_at_ones: float
    hessian_quadratic: float
    hessian_constant: float
    gradient_identity_residual: float  # relative, between the two Z' routes


def closed_forms(model: CoefficientModel, n: int) -> ClosedFormReport:
    """First/second-order data of Delta_n at the origin of parameter space.

    The gradients are term_table's A_k and dg_n/da_k columns. The gradient
    identity evaluates Z'(g_n; 1) both as the closed derivative sum and as
    (1/4)(-1)^n ln^2(g_n/2pi) <1, grad g_n>, reporting the relative residual
    (an algebraic identity, so it should sit at rounding level).
    """
    table = term_table(model, n)
    g = table.g
    lnfac = 2.0 * model.theta_main(g)
    sign = -1.0 if n % 2 else 1.0
    zprime = section_eval(model, g, 1.0, orders=(1,))[1]
    hessian = KAPPA_H * sign * (zprime / lnfac) ** 2

    identity_rhs = 0.25 * sign * lnfac * lnfac * csum(table.grad_gram)
    scale = max(abs(zprime), 1e-300)
    residual = abs(zprime - identity_rhs) / scale
    return ClosedFormReport(n=n, g=g, grad_delta=table.a, grad_gram=table.grad_gram,
                            zprime_at_ones=zprime, hessian_quadratic=hessian,
                            hessian_constant=KAPPA_H,
                            gradient_identity_residual=residual)


def second_order_approx(model: CoefficientModel, n: int, r: float) -> float:
    """Z(g_n; r) + (1/2) H_n r^2, the quadratic model of Delta_n(r)."""
    report = closed_forms(model, n)
    z = section_eval(model, report.g, float(r), orders=(0,))[0]
    return z + 0.5 * report.hessian_quadratic * r * r
