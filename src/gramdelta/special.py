"""Real-axis special functions: the two rotation phases and Lambert W0.

The Riemann-Siegel phase is evaluated through its standard asymptotic
expansion,

    theta(t) = (t/2) ln(t/2pi) - t/2 - pi/8 + 1/(48 t) + 7/(5760 t^3),

whose derivative main term is (1/2) ln(t/2pi). The rotated-Dirichlet analogue
for the period-5 counterexample is

    theta_dh(t) = Im log Gamma(3/4 + it/2) - (t/2) ln(pi/5),

evaluated by upward recurrence followed by a Stirling series, so no external
complex-gamma dependency is needed. Both accept complex t (needed by the
self-conjugacy checks); the domain is finite t with Re t >= 10, where the
asymptotic forms are good to about 1e-10 absolute, up to the height where
a phase value or one of its terms overflows (see _phase).
"""

from __future__ import annotations

import cmath
import math
from enum import Enum

from .errors import DomainError

TWO_PI = 2.0 * math.pi
_LN_PI_OVER_5 = math.log(math.pi / 5.0)
T_FLOOR = 10.0
_STIRLING_RADIUS = 12.0

# Stirling coefficients: log Gamma, digamma, trigamma tails in powers of 1/w.
_LOGGAMMA_TAIL = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0)  # w^-1, w^-3, ...
_DIGAMMA_TAIL = (1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0)     # w^-2, w^-4, ...


class ThetaKind(Enum):
    RIEMANN_SIEGEL = "riemann-siegel"
    DAVENPORT_HEILBRONN = "davenport-heilbronn"


def lambert_w0(x: float) -> float:
    """Principal branch W0: the w >= -1 solving w * exp(w) = x, for x >= -1/e.

    Halley iteration from a log-based seed, fixed 1e-14 stop tolerance.
    """
    min_x = -math.exp(-1.0)
    if x != x or x < min_x - 1e-15:
        raise DomainError(f"lambert_w0 needs x >= -1/e, got {x}")
    if x == 0.0:
        return 0.0
    if x <= min_x:
        return -1.0

    if x < -0.3:
        # Branch-point series in p = sqrt(2(e*x + 1)).
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * 11.0 / 72.0))
        if p < 1e-4:
            return w
    elif x < 3.0:
        w = math.log1p(x) if x > -0.2 else x * (1.0 - x)
    else:
        l1 = math.log(x)
        l2 = math.log(l1)
        w = l1 - l2 + l2 / l1

    for _ in range(50):
        ew = math.exp(w)
        f = w * ew - x
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        if denom == 0.0:
            break
        dw = f / denom
        w -= dw
        if abs(dw) <= 1e-14 * max(1.0, abs(w)):
            break
    return max(w, -1.0)


def _check_domain(t) -> None:
    re = t.real if isinstance(t, complex) else t
    if not re >= T_FLOOR:
        raise DomainError(f"theta requires t >= {T_FLOOR}, got {t!r}")
    if not cmath.isfinite(t):
        raise DomainError(f"theta requires a finite t, got {t!r}")


def _phase(kind: ThetaKind, t, order: int):
    """theta (order 0) or its order-th derivative at t, by the one domain
    rule: DomainError below the floor, at a non-finite t and where the value
    or a term overflows (the Riemann-Siegel t ** 3 of theta from t = 1e103,
    theta' from 1e78, theta'' from 1e62; the DH theta at 1e308)."""
    _check_domain(t)
    try:
        value = (_rs_phase if kind is ThetaKind.RIEMANN_SIEGEL else _dh_phase)(t, order)
    except OverflowError:
        value = math.inf
    if not cmath.isfinite(value):
        raise DomainError(f"theta at t = {t!r} is out of range: its value overflows")
    return value


def _rs_phase(t, order: int):
    if order == 0:
        log = cmath.log if isinstance(t, complex) else math.log
        return (t / 2.0) * log(t / TWO_PI) - t / 2.0 - math.pi / 8.0 \
            + 1.0 / (48.0 * t) + 7.0 / (5760.0 * t ** 3)
    if order == 1:
        return 0.5 * math.log(t / TWO_PI) - 1.0 / (48.0 * t * t) - 7.0 / (1920.0 * t ** 4)
    return 0.5 / t + 1.0 / (24.0 * t ** 3) + 7.0 / (480.0 * t ** 5)


def _log_gamma(z: complex) -> complex:
    """log Gamma by upward recurrence until |z| >= 12, then Stirling."""
    shift = 0.0 + 0.0j
    while abs(z) < _STIRLING_RADIUS:
        shift += cmath.log(z)
        z = z + 1.0
    w2 = 1.0 / (z * z)
    s = 0.0 + 0.0j
    for c in reversed(_LOGGAMMA_TAIL):
        s = s * w2 + c
    s = s / z
    return (z - 0.5) * cmath.log(z) - z + 0.5 * math.log(TWO_PI) + s - shift


def _digamma(z: complex) -> complex:
    shift = 0.0 + 0.0j
    while abs(z) < _STIRLING_RADIUS:
        shift += 1.0 / z
        z = z + 1.0
    w2 = 1.0 / (z * z)
    s = 0.0 + 0.0j
    for c in reversed(_DIGAMMA_TAIL):
        s = s * w2 + c
    return cmath.log(z) - 0.5 / z - s * w2 - shift


def _trigamma(z: complex) -> complex:
    shift = 0.0 + 0.0j
    while abs(z) < _STIRLING_RADIUS:
        shift += 1.0 / (z * z)
        z = z + 1.0
    w = 1.0 / z
    w2 = w * w
    # psi'(z) ~ 1/z + 1/(2 z^2) + 1/(6 z^3) - 1/(30 z^5) + 1/(42 z^7)
    s = w + 0.5 * w2 + w * w2 * (1.0 / 6.0 + w2 * (-1.0 / 30.0 + w2 * (1.0 / 42.0)))
    return s + shift


def _dh_phase(t, order: int):
    z = 0.75 + 0.5j * t
    if order == 0:
        if isinstance(t, complex):
            zc = 0.75 - 0.5j * t
            return (_log_gamma(z) - _log_gamma(zc)) / 2.0j - (t / 2.0) * _LN_PI_OVER_5
        return _log_gamma(z).imag - (t / 2.0) * _LN_PI_OVER_5
    if order == 1:
        return 0.5 * _digamma(z).real - 0.5 * _LN_PI_OVER_5
    return -0.25 * _trigamma(z).imag


def theta(kind: ThetaKind, t):
    """Rotation phase theta(t); Gram points solve theta(g) = pi*n."""
    return _phase(kind, t, 0)


def theta_deriv(kind: ThetaKind, t: float, order: int = 1) -> float:
    """d/dt theta (order 1) or the second derivative (order 2), corrections included."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    return _phase(kind, t, order)


def theta_main_deriv(kind: ThetaKind, t: float) -> float:
    """Main term of theta': (1/2) ln(t/2pi), or (1/2) ln(5t/2pi) for the DH phase.

    This is the exact factor appearing in every closed-form derivative below;
    kept separate from theta_deriv so those formulas match to the last bit.
    """
    _check_domain(t)
    if kind is ThetaKind.RIEMANN_SIEGEL:
        return 0.5 * math.log(t / TWO_PI)
    return 0.5 * math.log(5.0 * t / TWO_PI)


def gram_gap(kind: ThetaKind, t: float) -> float:
    """Local spacing of consecutive Gram points, pi / theta_main'(t)."""
    return math.pi / theta_main_deriv(kind, t)
