"""Independent numerical oracles used only by the tests.

Nothing here touches the library's own summation paths: zeta goes through
Euler-Maclaurin, roots through bisection, derivatives through central
differences, and section_fsum sums the section's terms exactly rounded.
Where a published high-precision reference is wanted, tests use mpmath
directly; dh_z_mpmath wraps the one mpmath reference that needs more than a
library call.
"""

from __future__ import annotations

import math

import numpy as np

# Bernoulli numbers B_2, B_4, ..., B_12
_BERNOULLI = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730)


def zeta_euler_maclaurin(s: complex, n_terms: int = 25, corrections: int = 6) -> complex:
    """zeta(s) by Euler-Maclaurin summation; plenty for |Im s| up to ~30."""
    n = n_terms
    total = sum(k ** -s for k in range(1, n))
    total += 0.5 * n ** -s
    total += n ** (1 - s) / (s - 1)
    fac = s * n ** (-s - 1)
    for j in range(corrections):
        total += _BERNOULLI[j] / math.factorial(2 * j + 2) * fac
        fac *= (s + 2 * j + 1) * (s + 2 * j + 2) / (n * n)
    return total


def bisect(f, lo: float, hi: float, tol: float = 1e-12, max_iter: int = 200) -> float:
    flo = f(lo)
    if flo == 0.0:
        return lo
    if flo * f(hi) > 0:
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo < tol:
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def central_difference(f, x: float, h: float, order: int = 1) -> float:
    if order == 1:
        return (f(x + h) - f(x - h)) / (2.0 * h)
    if order == 2:
        return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
    raise ValueError("order must be 1 or 2")


def dh_z_mpmath(t: float) -> complex:
    """The Davenport-Heilbronn Z-function at real t, by mpmath at 25 digits:

        e^(i theta_DH(t)) ((1 - i kappa)/2 L(s, chi) + (1 + i kappa)/2 L(s, conj chi)),

    s = 1/2 + it, chi mod 5 with chi(2) = i, and theta_DH(t) = Im log
    Gamma(3/4 + it/2) - (t/2) ln(pi/5). The functional equation makes the
    value real; the imaginary part is returned so that tests can check it.
    """
    import mpmath as mp
    with mp.workdps(25):
        x = mp.mpf(t)
        s = mp.mpc(0.5, x)
        kappa = (mp.sqrt(10 - 2 * mp.sqrt(5)) - 2) / (mp.sqrt(5) - 1)
        chi = [0, 1, 1j, -1j, -1]  # chi(m) for m = 0..4
        lval = mp.dirichlet(s, chi)
        lbar = mp.dirichlet(s, [mp.conj(c) for c in chi])
        th = mp.im(mp.loggamma(mp.mpf(0.75) + 0.5j * x)) - x / 2 * mp.log(mp.pi / 5)
        return complex(mp.expj(th) * ((1 - 1j * kappa) / 2 * lval
                                      + (1 + 1j * kappa) / 2 * lbar))


def section_fsum(model, t: float, a, dim: int, mode: str = "main") -> list[float]:
    """Z_N(t; a) and its first two t-derivatives at one real point t, each the
    exactly rounded math.fsum of its weighted terms. The terms are formed by
    the library's own float operations (the phases theta(t) - t ln m, the
    factors theta'(t) - ln m, with theta' its main term in mode "main" and the
    full one, plus theta'' in order 2, in mode "full"); only the summation
    differs. a is a scalar or a (dim,) vector of weights; the head m = 1 has
    weight 1."""
    m = np.arange(1, dim + 2, dtype=float)
    ln_m = np.log(m)
    q = model.coefficients(dim + 1) / np.sqrt(m)
    w = np.concatenate([[1.0], np.broadcast_to(np.asarray(a, dtype=float), (dim,))])
    phases = model.theta(t) - t * ln_m
    tp = model.theta_main(t) if mode == "main" else model.theta_deriv(t, 1)
    factors = tp - ln_m
    cos_p, sin_p = np.cos(phases), np.sin(phases)
    order2 = -q * cos_p * factors * factors
    if mode == "full":
        order2 = order2 - q * sin_p * model.theta_deriv(t, 2)
    return [math.fsum((w * terms).tolist())
            for terms in (q * cos_p, -q * sin_p * factors, order2)]
