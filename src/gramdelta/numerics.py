"""Deterministic numerical primitives: summation, quadrature, seeded uniforms.

Everything here is reproducible by construction: summations have a fixed
ascending-index order with compensated accumulation, and the random stream is
a counter-based splitmix64, so identical seeds give identical output on any
platform.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

_CHUNK = 4096
# elements a (points x terms) or (trials x terms) work array may hold: 512 KB
# of floats. Section sums, classical AFE rows and Monte-Carlo draws split
# their points or trials into groups of this many elements at most.
WORK_ELEMENTS = 1 << 16


def csum(values):
    """Compensated sum in ascending index order.

    Up to _CHUNK terms this is math.fsum (exactly rounded). Longer arrays are
    reduced in fixed 4096-element chunks whose partial sums are fsum-combined,
    keeping the evaluation order independent of array length or platform.
    A 2-D array gives an array of one such sum per row.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 2:  # row by row: one row at a time as Python floats
        if arr.shape[1] <= _CHUNK:
            return np.array([math.fsum(row.tolist()) for row in arr])
        return np.array([_chunked_sum(row) for row in arr])
    if arr.shape[0] == 0:
        return 0.0
    if arr.shape[0] <= _CHUNK:
        return math.fsum(arr.tolist())
    return _chunked_sum(arr)


def _chunked_sum(arr: np.ndarray) -> float:
    n = arr.shape[0]
    return math.fsum(float(np.sum(arr[i:i + _CHUNK])) for i in range(0, n, _CHUNK))


def running_csum(values) -> np.ndarray:
    """Prefix sums with Neumaier compensation, ascending index order."""
    arr = np.asarray(values, dtype=float)
    out = np.empty_like(arr)
    total = 0.0
    comp = 0.0
    for i, x in enumerate(arr.tolist()):
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
        out[i] = total + comp
    return out


_SIMPSON_TOL = 1e-9   # adaptive_simpson's error tolerance, halved at each bisection
_SIMPSON_DEPTH = 40   # bisections after which a panel is accepted as it is


def adaptive_simpson(f: Callable[[float], float], a: float, b: float) -> float:
    """Adaptive Simpson quadrature of f over [a, b]."""
    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_rec(f, a, b, fa, fm, fb, whole, _SIMPSON_TOL, _SIMPSON_DEPTH)


def _simpson_rec(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if depth <= 0 or abs(err) <= 15.0 * tol * max(1.0, abs(left + right)):
        return left + right + err / 15.0
    return (_simpson_rec(f, a, m, fa, flm, fm, left, tol / 2.0, depth - 1)
            + _simpson_rec(f, m, b, fm, frm, fb, right, tol / 2.0, depth - 1))


# splitmix64 constants
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(x: np.ndarray) -> np.ndarray:
    x = (x ^ (x >> np.uint64(30))) * _MIX1
    x = (x ^ (x >> np.uint64(27))) * _MIX2
    return x ^ (x >> np.uint64(31))


def uniform01(seed: int, stream, count: int) -> np.ndarray:
    """Counter-based splitmix64 uniforms in [0, 1).

    (seed, stream, index) fully determine every value, so parallel or
    re-ordered generation cannot change the result. An int stream gives
    `count` values; an array of streams gives one row of `count` values per
    stream, each row equal to the int call on that stream.
    """
    streams = np.asarray(stream, dtype=np.uint64)
    with np.errstate(over="ignore"):
        base = _mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
                      + _GOLDEN * (streams + np.uint64(1)))
        counters = (base[..., np.newaxis]
                    + _GOLDEN * (np.arange(1, count + 1, dtype=np.uint64)))
        bits = _mix64(counters) >> np.uint64(11)
    return bits.astype(np.float64) * (2.0 ** -53)


def newton_scalar(f_and_df: Callable[[float], tuple[float, float]], x0: float,
                  *, rel_step_tol: float = 1e-12, max_iter: int = 12,
                  min_slope: float = 0.0) -> tuple[float, int, bool]:
    """Scalar Newton iteration; returns (x, iterations_used, converged).

    One extra polish step runs after the step-size test first passes, which
    puts simple roots at machine accuracy.
    """
    x = x0
    polished = False
    for it in range(1, max_iter + 1):
        fx, dfx = f_and_df(x)
        if abs(dfx) <= min_slope:
            return x, it, False
        dx = fx / dfx
        x -= dx
        if abs(dx) <= rel_step_tol * max(1.0, abs(x)):
            if polished:
                return x, it, True
            polished = True
    return x, max_iter, polished
