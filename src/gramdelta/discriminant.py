"""Discriminant of a parameter-space curve: continuation, closed forms, Hessian.

track_extremum follows the extremal point g_n(r) of the section along a curve
gamma(r) by predictor-corrector continuation (Newton on dZ/dt = 0 in t at each
accepted r), recording the discriminant value Delta_n(r) = Z(g_n(r); gamma(r)).
The sign of (-1)^n Delta_n is the collision detector: a crossing means the
n-th and (n+1)-th zeros have merged and left the real line.

closed_forms evaluates the first- and second-order data at the origin of
parameter space:

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

from .errors import DimensionError, TraceError
from .numerics import csum
from .zmodel import (CoefficientModel, WindowProxy, section_eval, z_section,
                     z_section_deriv)
from .gram import gram_point

KAPPA_H = 4.0

_MIN_STEP = 1e-5
_LEVEL_NEWTON_MAX = 5  # corrector iterations before the step is halved


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

    @property
    def colliding(self) -> bool:
        return self.status is TraceStatus.COLLISION

    def delta_at_end(self) -> float:
        return self.samples[-1].delta

    def sign_invariant(self) -> bool:
        sign = -1.0 if self.n % 2 else 1.0
        return all(sign * s.delta > 0.0 for s in self.samples)


class _ExtremumSolver:
    """Newton solver for dZ/dt(t; a) = 0 at fixed section dimension.

    A parameter point a is a scalar (uniform weight on every index), a tuple
    of block weights aligned with masks, or an arbitrary weight vector. The
    first two go through a WindowProxy of the block sums; only a vector is
    summed directly, term by term.
    """

    def __init__(self, model: CoefficientModel, n: int, g0: float, masks=None):
        self.model = model
        self.n_terms = model.robust_cutoff(g0)
        self.g0 = g0
        lnfac = 2.0 * model.theta_main(g0)
        self.ztt_floor = 1e-8 * lnfac * lnfac
        self.step_tol = 1e-12 * max(1.0, abs(g0))
        self.proxy = WindowProxy(model, self.n_terms, masks, g0)

    def section(self, a, t: float, orders: tuple[int, ...] = (0, 1, 2)):
        """Z, Z_t, Z_tt at t (main mode), indexable by order; orders limits
        only the direct sum, the proxy returns all three at once."""
        if isinstance(a, np.ndarray):
            return section_eval(self.model, t, a, orders=orders, n_terms=self.n_terms)
        if isinstance(a, (int, float)):
            a = (float(a),) * self.proxy.blocks
        return self.proxy.section(t, a)

    def solve(self, a, t_seed: float, max_newton: int = 10):
        """Returns (t, iterations, degenerate_flag) or None on failure."""
        t = t_seed
        polish = False
        for it in range(1, max_newton + 1):
            vals = self.section(a, t, (1, 2))
            zp, ztt = vals[1], vals[2]
            if abs(ztt) < self.ztt_floor:
                return None
            dt = zp / ztt
            t -= dt
            if abs(dt) <= self.step_tol:
                if polish:
                    return t, it, False
                polish = True
        return (t, max_newton, False) if polish else None

    def value(self, a, t: float) -> float:
        return self.section(a, t, (0,))[0]

    def curvature(self, a, t: float) -> float:
        return self.section(a, t, (2,))[2]

    def block_sum(self, t: float, block: int) -> float:
        """S_B(t), the section's sum over one block of indices."""
        return float(self.proxy.sums(t)[0, block])


def _block_view(curve):
    """(masks, weights_at) of a curve: block masks and per-block weights where
    the curve has them, else one block and its own weights_at."""
    if hasattr(curve, "block_weights_at"):
        return curve.block_masks, curve.block_weights_at
    return None, curve.weights_at


def track_extremum(model: CoefficientModel, n: int, curve, steps: int = 200,
                   r_max: float = 1.0) -> DiscriminantTrace:
    """Follow g_n(r) along the curve and record Delta_n(r) up to r_max.

    Adaptive step halving (floor 1e-5) when Newton needs more than 5
    iterations or the extremum jumps more than half the local Gram gap.
    A sign change of (-1)^n Delta is localized by bisection to 1e-6 in r and
    recorded as a collision; the march then continues so the post-collision
    branch is still sampled. Step underflow yields CONTINUATION_LOST.
    """
    if steps < 50:
        raise ValueError(f"steps must be >= 50, got {steps}")
    g0 = gram_point(model, n)
    masks, weights_at = _block_view(curve)
    solver = _ExtremumSolver(model, n, g0, masks)
    if getattr(curve, "dimension", solver.n_terms) != solver.n_terms:
        raise DimensionError(
            f"curve dimension {curve.dimension} != robust cutoff {solver.n_terms}")
    sign = -1.0 if n % 2 else 1.0
    jump_cap = 0.5 * math.pi / model.theta_main(g0)  # half the local Gram gap

    r, g = 0.0, g0
    delta0 = solver.value(weights_at(0.0), g0)
    ztt0 = solver.curvature(weights_at(0.0), g0)
    samples = [TraceSample(r=0.0, g=g0, delta=delta0, ztt=ztt0)]
    status = TraceStatus.NON_COLLIDING
    r_event = None

    base_dr = r_max / steps
    dr = base_dr
    while r < r_max - 1e-12:
        dr = min(dr, r_max - r)
        r_try = r + dr
        sol = solver.solve(weights_at(r_try), g)
        ok = sol is not None and sol[1] <= _LEVEL_NEWTON_MAX \
            and abs(sol[0] - g) <= jump_cap
        if not ok:
            dr *= 0.5
            if dr < _MIN_STEP:
                if status is TraceStatus.NON_COLLIDING:
                    status = TraceStatus.CONTINUATION_LOST
                    r_event = r
                break
            continue
        g_new = sol[0]
        a_try = weights_at(r_try)
        delta = solver.value(a_try, g_new)
        ztt = solver.curvature(a_try, g_new)
        if status is TraceStatus.NON_COLLIDING and sign * delta <= 0.0:
            status = TraceStatus.COLLISION
            r_event = _bisect_crossing(solver, weights_at, sign, r, g, r_try, g_new)
        samples.append(TraceSample(r=r_try, g=g_new, delta=delta, ztt=ztt))
        r, g = r_try, g_new
        if dr < base_dr:
            dr *= 2.0
    return DiscriminantTrace(n=n, samples=samples, status=status, r_event=r_event)


def _bisect_crossing(solver, weights_at, sign, r_lo, g_lo, r_hi, g_hi) -> float:
    """Locate the r where sign * Delta crosses zero, to 1e-6."""
    for _ in range(60):
        if r_hi - r_lo <= 1e-6:
            break
        r_mid = 0.5 * (r_lo + r_hi)
        sol = solver.solve(weights_at(r_mid), 0.5 * (g_lo + g_hi))
        if sol is None:
            break
        g_mid = sol[0]
        if sign * solver.value(weights_at(r_mid), g_mid) > 0.0:
            r_lo, g_lo = r_mid, g_mid
        else:
            r_hi, g_hi = r_mid, g_mid
    return 0.5 * (r_lo + r_hi)


def discriminant_at(model: CoefficientModel, n: int, curve, r: float,
                    steps: int = 200) -> float:
    """Delta_n(r; curve), provided continuation reaches r without collision."""
    if r == 0.0:
        return 1.0 if n % 2 == 0 else -1.0
    trace = track_extremum(model, n, curve, steps=steps, r_max=r)
    reached = trace.samples[-1].r >= r - 1e-9
    if trace.status is TraceStatus.CONTINUATION_LOST and not reached:
        raise TraceError(f"continuation lost at r={trace.r_event}", trace)
    if trace.status is TraceStatus.COLLISION and trace.r_event is not None \
            and trace.r_event < r:
        raise TraceError(f"collision at r={trace.r_event} before {r}", trace)
    if not reached:
        raise TraceError(f"trace stopped at r={trace.samples[-1].r}", trace)
    return trace.samples[-1].delta


@dataclass
class ClosedFormReport:
    n: int
    grad_delta: np.ndarray
    grad_gram: np.ndarray
    zprime_at_ones: float
    hessian_quadratic: float
    hessian_constant: float
    gradient_identity_residual: float  # relative, between the two Z' routes


def closed_forms(model: CoefficientModel, n: int) -> ClosedFormReport:
    """First/second-order data of Delta_n at the origin of parameter space.

    The gradient identity evaluates Z'(g_n; 1) both as the closed derivative
    sum and as (1/4)(-1)^n ln^2(g_n/2pi) <1, grad g_n>, reporting the
    relative residual (an algebraic identity, so it should sit at rounding
    level).
    """
    g = gram_point(model, n)
    n_terms = model.robust_cutoff(g)
    m = np.arange(2, n_terms + 2, dtype=float)
    ln_m = np.log(m)
    coeff = model.coefficients(n_terms + 1)[1:]
    th = model.theta(g)
    phase = th - g * ln_m
    cos_t = np.cos(phase)
    sin_t = np.sin(phase)
    lnfac = 2.0 * model.theta_main(g)          # ln(g/2pi) analogue
    length = lnfac - 2.0 * ln_m                # ln(g/(2pi m^2)) analogue
    sign = -1.0 if n % 2 else 1.0
    parity = -sign                              # (-1)^(n+1)

    grad_delta = coeff * cos_t / np.sqrt(m)
    grad_gram = 2.0 * parity * coeff * sin_t * length / (np.sqrt(m) * lnfac * lnfac)

    zprime = z_section_deriv(model, g, 1.0, order=1, mode="main")
    hessian = KAPPA_H * sign * (zprime / lnfac) ** 2

    identity_rhs = 0.25 * sign * lnfac * lnfac * csum(grad_gram)
    scale = max(abs(zprime), 1e-300)
    residual = abs(zprime - identity_rhs) / scale
    return ClosedFormReport(n=n, grad_delta=grad_delta, grad_gram=grad_gram,
                            zprime_at_ones=zprime, hessian_quadratic=hessian,
                            hessian_constant=KAPPA_H,
                            gradient_identity_residual=residual)


def second_order_approx(model: CoefficientModel, n: int, r: float) -> float:
    """Z(g_n; r) + (1/2) H_n r^2, the quadratic model of Delta_n(r)."""
    g = gram_point(model, n)
    first = z_section(model, g, float(r))
    report = closed_forms(model, n)
    return first + 0.5 * report.hessian_quadratic * r * r
