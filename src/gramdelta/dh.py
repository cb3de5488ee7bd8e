"""The period-5 counterexample model and its corrected-Gram-law violation.

The rotated sum uses coefficients c = (1, kappa, -kappa, -1, 0) repeating
with period 5, where

    kappa = (sqrt(10 - 2 sqrt 5) - 2) / (sqrt 5 - 1),

together with the Davenport-Heilbronn rotation phase. Everything else (Gram
points, sections, discriminant traces) reuses the generic machinery, which is
the point: the same experiments run on both models, and only this one
violates the corrected law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .curves import linear
from .discriminant import DiscriminantTrace, TraceStatus, track_extremum
from .special import ThetaKind, gram_gap
from .zmodel import CoefficientModel, riemann_model, section_eval

KAPPA = (math.sqrt(10.0 - 2.0 * math.sqrt(5.0)) - 2.0) / (math.sqrt(5.0) - 1.0)

# c_m = Re chi(m) + kappa Im chi(m) for the mod-5 character with chi(2) = i
DH_COEFFS = (1.0, KAPPA, -KAPPA, -1.0, 0.0)


def dh_model() -> CoefficientModel:
    return CoefficientModel(name="dh", theta_kind=ThetaKind.DAVENPORT_HEILBRONN,
                            coeff_period=DH_COEFFS)


@dataclass
class DhViolationReport:
    """Linear-curve discriminant experiment at the first off-line zero pair."""
    n: int
    g: float
    trace: DiscriminantTrace
    violation: bool               # collision, or (-1)^n Delta(1) < 0
    collision_r: float | None
    delta_end: float
    first_order_deviation_ratio: float   # max |Delta - Z(g;r)| over the Delta range
    max_displacement: float              # max |g_n(r) - g_n|
    displacement_bound: float            # half the Gram gap: 0.5 * special.gram_gap at g


def dh_violation_experiment(steps: int = 200) -> DhViolationReport:
    """Track Delta_44(r) for the period-5 model along the linear curve.

    Reports the violation verdict, how tightly the first-order value
    Z_N(g_n; r) follows the discriminant (this stays tight: the violation is
    genuinely first-order, unlike the bad Gram points of the Riemann model),
    and how little the extremum moves.
    """
    model, n = dh_model(), 44  # g_44: the first off-line zero pair
    trace = track_extremum(model, n, linear, steps=steps)
    g = trace.samples[0].g
    sign = -1.0 if n % 2 else 1.0

    deltas = [s.delta for s in trace.samples]
    lo, hi = min(deltas), max(deltas)
    span = max(hi - lo, 1e-300)
    dev = max(abs(s.delta - section_eval(model, g, s.r, orders=(0,))[0])
              for s in trace.samples)
    disp = max(abs(s.g - g) for s in trace.samples)

    violation = trace.status is TraceStatus.COLLISION or sign * deltas[-1] < 0.0
    return DhViolationReport(
        n=n, g=g, trace=trace, violation=violation,
        collision_r=trace.r_event if trace.status is TraceStatus.COLLISION else None,
        delta_end=deltas[-1],
        first_order_deviation_ratio=dev / span,
        max_displacement=disp,
        displacement_bound=0.5 * gram_gap(model.theta_kind, g))


@dataclass
class ContrastReport:
    """The same experiment on the Riemann model over an index range."""
    n_from: int
    n_to: int
    violations: list[int]

    @property
    def clean(self) -> bool:
        return not self.violations


def riemann_contrast(n_from: int = 0, n_to: int = 199,
                     steps: int = 50) -> ContrastReport:
    """Linear-curve traces for every n in range; collect corrected-law violations."""
    model = riemann_model()
    bad: list[int] = []
    for n in range(n_from, n_to + 1):
        trace = track_extremum(model, n, linear, steps=steps)
        sign = -1.0 if n % 2 else 1.0
        if trace.status is not TraceStatus.NON_COLLIDING \
                or sign * trace.samples[-1].delta <= 0.0:
            bad.append(n)
    return ContrastReport(n_from=n_from, n_to=n_to, violations=bad)
