"""Rotated-Dirichlet-sum sections, their derivatives and the two AFE forms.

A CoefficientModel bundles everything that distinguishes the Riemann sum from
the period-5 counterexample: the coefficient pattern, which rotation phase to
use, and the two term-count rules,

    robust cutoff     N(t) = floor(t/2)          (section evaluation),
    classical cutoff  N(g) = floor(sqrt(g/2pi))  (values at Gram points).

The section of dimension N is

    Z_N(t; a) = c_1 cos(theta(t)) + sum_{k=1..N} a_k c_{k+1}/sqrt(k+1)
                                              * cos(theta(t) - ln(k+1) t),

so a = 0 gives the pure cosine core and a = 1 the working approximation of
the target function. Derivatives in t come in two flavours: "main" replaces
theta' by its main term (1/2) ln(t/2pi) — the convention every closed form
downstream is stated in — and "full" keeps the correction series.

Point values (Gram-point signs and viscosity, Newton zeros) come from
point_values, the one real Z-function: for every model a head, the section
at a = 1 (which alone drops a tail of size about 1/sqrt(2t)), plus the
model's correction, the Riemann-Siegel remainder (hardy_z) or the Dirichlet
series beyond about 2t head terms by Euler-Maclaurin. Its domain is finite
t >= 10, and no term count is taken where no array can hold it.

Every section is summed one way (section_eval), at one parameter point per
call: per chunk of terms, one reduction over the terms of each point, with
the chunk partials added by numerics.csum in chunk order. A point's sums
depend on that point alone, so its values are the same alone, in any batch
of points and on every rerun.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (DimensionError, DomainError, FlatPointError,
                     IndexRangeError, NonConvergenceError, NotAGramPointError)
from .numerics import WORK_ELEMENTS, csum, running_csum
from .special import T_FLOOR, TWO_PI, ThetaKind, gram_gap, theta, theta_deriv, theta_main_deriv


def _term_count(t, count: float) -> float:
    """count, the terms a sum takes at t, refused with DomainError where no
    array holds them: NaN or infinite (a non-finite t) or from sys.maxsize
    up (t = 1e308). Both cutoffs and _head_size count here, before any work."""
    if not abs(count) < sys.maxsize:
        raise DomainError(f"t = {t} is out of range: a sum there takes {count} terms")
    return count


@dataclass(frozen=True)
class CoefficientModel:
    """Immutable description of one rotated Dirichlet sum."""

    name: str
    theta_kind: ThetaKind
    coeff_period: tuple[float, ...] | None = None  # None means c_m = 1 for all m

    def robust_cutoff(self, t: float) -> int:
        return max(1, int(math.floor(_term_count(t, t / 2.0))))

    def classical_cutoff(self, g: float) -> int:
        # one term below g = 8 pi, a negative g too: theta refuses g < 10
        return max(1, int(math.floor(_term_count(g, math.sqrt(max(g, 0.0) / TWO_PI)))))

    def coefficients(self, count: int) -> np.ndarray:
        """c_m for m = 1..count."""
        if self.coeff_period is None:
            return np.ones(count)
        pattern = np.asarray(self.coeff_period, dtype=float)
        return pattern[np.arange(count) % len(pattern)]

    @property
    def is_zeta(self) -> bool:
        """Unit coefficients with the Riemann-Siegel phase: the model of Z(t) itself."""
        return self.coeff_period is None and self.theta_kind is ThetaKind.RIEMANN_SIEGEL

    def theta(self, t):
        return theta(self.theta_kind, t)

    def theta_deriv(self, t: float, order: int = 1) -> float:
        return theta_deriv(self.theta_kind, t, order)

    def theta_main(self, t: float) -> float:
        return theta_main_deriv(self.theta_kind, t)


def riemann_model() -> CoefficientModel:
    return CoefficientModel(name="riemann", theta_kind=ThetaKind.RIEMANN_SIEGEL)


@lru_cache(maxsize=4)
def term_arrays(model: CoefficientModel, count: int):
    """Per-term arrays for m = 1..count: ln m, c_m, sqrt m (read-only).

    The one per-term table, read by the section (which forms c_m/sqrt m per
    chunk), the classical AFE, the closed forms, the A_k/B_k table and the
    neighbour adjustments. N(g) = floor(sqrt(g/2pi)), the count of the
    classical AFE and of hardy_z's main sum at g, holds over runs of about
    50 consecutive Gram points at n = 100 and 5,000 at n = 5e5, so a scan
    window needs one or two tables; keeping more only adds to the peak
    memory of ops that jump between heights."""
    m = np.arange(1, count + 1, dtype=float)
    table = np.log(m), model.coefficients(count), np.sqrt(m)
    for arr in table:
        arr.flags.writeable = False
    return table


def _as_weights(a, n: int) -> np.ndarray:
    """A parameter point as the weights of the N + 1 section terms, the head
    m = 1 at weight 1: a scalar is uniform, a length-N vector gives the
    weights of k = 1..N."""
    if isinstance(a, (int, float)):
        wts = np.full(n + 1, float(a))
    else:
        arr = np.asarray(a, dtype=float)
        if arr.shape != (n,):
            raise DimensionError(f"parameter point has dimension {arr.shape}, expected ({n},)")
        wts = np.empty(n + 1)
        wts[1:] = arr
    wts[0] = 1.0
    return wts


# terms per chunk of a section sum; with the points taken in groups of
# WORK_ELEMENTS // chunk, its (points, chunk) work arrays stay within
# WORK_ELEMENTS at any number of points
_CHUNK_TERMS = 4096


def _as_points(t) -> tuple[np.ndarray, bool]:
    """t as a 1-D real array of points, and whether t was such an array: a
    scalar is a batch of one point."""
    if not isinstance(t, np.ndarray):
        return np.array([t], dtype=float), False
    if t.ndim != 1 or np.iscomplexobj(t):
        raise DimensionError(f"points must be a 1-D real array, got {t.dtype} {t.shape}")
    return t, True


def _by_size(t: np.ndarray, sizes: list[int], evaluate) -> dict:
    """evaluate(points, size), a dict of one array per key, called once per
    distinct size among the points t in ascending order, with the values put
    back in the order of t."""
    distinct = sorted(set(sizes))  # np.unique loads 1.7 MB more RSS
    if len(distinct) == 1:  # one group, as in most windows: no masks to apply
        return evaluate(t, distinct[0])
    sizes = np.array(sizes)
    out: dict = {}
    for size in distinct:
        group = sizes == size
        for key, vals in evaluate(t[group], size).items():
            out.setdefault(key, np.empty(len(t)))[group] = vals
    return out


def section_eval(model: CoefficientModel, t, a, *, orders: tuple[int, ...] = (0,),
                 deriv_mode: str = "main", n_terms: int | None = None) -> dict:
    """Evaluate Z_N(t; a) and its requested t-derivatives in one trig pass.

    n_terms pins the section dimension N (defaults to the robust cutoff at t);
    continuation code passes it explicitly so the dimension never jumps while
    t slides across an even integer. a is one parameter point: a float
    (uniform weight) or a length-N vector. orders are taken from 0, 1 and
    2, and at a complex t from 0 alone: theta' and theta'' are taken at a
    real t only. At a real or complex scalar t each order maps to one float
    (or complex). t may also be a 1-D array of P real points, with n_terms
    pinned: each order then maps to one value per point.
    WindowProxy's direct form tabulates a whole window in one call, and
    point_values at an array of points takes its heads this way.

    A scalar t is a batch of one point, and every call sums the same way.
    The terms run in chunks of _CHUNK_TERMS, and a chunk's points in groups
    of at most WORK_ELEMENTS // chunk, so no (points, chunk) work array holds
    more than WORK_ELEMENTS, whatever the number of points. Per chunk and
    group the phases theta(t_p) - t_p ln m form a (group, chunk) array; their
    cos and sin (each only where an order needs it) and the factors
    theta'(t_p) - ln m (and theta''(t_p) for full order 2) give each order's
    terms. Each point's terms are reduced against the weight row
    w c_m/sqrt(m) of term_arrays (the head m = 1 at weight 1) by np.einsum
    over a C-contiguous (1, chunk) row, one sum per point in an order fixed
    by the chunk alone; a matrix product would pick its kernel, and so its
    summation order, by the number of points. One numerics.csum call per
    order adds each point's chunk partials in chunk order (real and
    imaginary parts apart at a complex t). So a point's values are
    bit-identical alone, in any batch or group and on every rerun.
    """
    if not set(orders) <= {0, 1, 2}:
        raise ValueError(f"section_eval evaluates orders 0, 1 and 2, got {orders}")
    if isinstance(t, complex) and (1 in orders or 2 in orders):
        raise ValueError(f"section_eval evaluates order 0 only at a complex t, got {t}")
    if deriv_mode not in ("main", "full"):
        raise ValueError(f"unknown deriv_mode {deriv_mode!r}")
    points = isinstance(t, np.ndarray)
    if points:
        if n_terms is None:
            raise ValueError("section_eval at an array of points needs n_terms")
        _as_points(t)
    n = model.robust_cutoff(t.real if isinstance(t, complex) else t) \
        if n_terms is None else n_terms
    wts = _as_weights(a, n)[None, :]
    pts = t.tolist() if points else [t]
    tv = np.array(pts)[:, None]
    ln_m, c, sqrt_m = term_arrays(model, n + 1)
    th = np.array([model.theta(x) for x in pts])[:, None]
    if 1 in orders or 2 in orders:
        tp = np.array([model.theta_main(x) if deriv_mode == "main"
                       else model.theta_deriv(x, 1) for x in pts])[:, None]
    full_sin = 2 in orders and deriv_mode == "full"
    if full_sin:
        tpp = np.array([model.theta_deriv(x, 2) for x in pts])[:, None]
    group = max(1, WORK_ELEMENTS // min(n + 1, _CHUNK_TERMS))
    starts = range(0, n + 1, _CHUNK_TERMS)
    # one row of chunk partials per point
    # float at a real t, int included; complex at a complex t
    partials = {j: np.empty((len(pts), len(starts)), dtype=np.result_type(tv, float))
                for j in orders}
    for col, lo in enumerate(starts):
        hi = min(lo + _CHUNK_TERMS, n + 1)
        lnm = ln_m[lo:hi]
        row = wts[:, lo:hi] * (c[lo:hi] / sqrt_m[lo:hi])  # (1, chunk), C order
        for first in range(0, len(pts), group):
            part = slice(first, first + group)
            phases = th[part] - tv[part] * lnm
            cos_p = np.cos(phases) if 0 in orders or 2 in orders else None
            sin_p = np.sin(phases) if 1 in orders or full_sin else None
            del phases
            if 0 in orders:
                partials[0][part, col] = np.einsum("pk,bk->pb", cos_p, row)[:, 0]
            if 1 in orders or 2 in orders:
                factors = tp[part] - lnm
            if 1 in orders:
                partials[1][part, col] = -np.einsum("pk,bk->pb", sin_p * factors, row)[:, 0]
            if 2 in orders:
                terms = cos_p * factors
                terms *= factors
                if full_sin:
                    terms += sin_p * tpp[part]
                partials[2][part, col] = -np.einsum("pk,bk->pb", terms, row)[:, 0]
    out: dict = {}
    for j, rows in partials.items():
        if points:
            out[j] = csum(rows)
        elif np.iscomplexobj(rows):
            out[j] = complex(csum(rows[0].real), csum(rows[0].imag))
        else:
            out[j] = csum(rows[0])
    return out


# Chebyshev points of the first kind, x_j = cos((j + 1/2) pi / 25), and the
# DCT-II matrix that maps values at them to the coefficients c_k of the
# interpolant sum_k c_k T_k(x). On the windows below they interpolate better
# than the 25 extrema (1.7e-8 against 3.2e-8 in S'' at g_0, where the window
# is widest).
_CHEB_NODES = 25
_CHEB_K = np.arange(_CHEB_NODES, dtype=float)
_CHEB_ANGLES = math.pi * (_CHEB_K + 0.5) / _CHEB_NODES
_CHEB_X = np.cos(_CHEB_ANGLES)
_CHEB_FIT = np.cos(np.outer(_CHEB_K, _CHEB_ANGLES)) * (2.0 / _CHEB_NODES)
_CHEB_FIT[0] *= 0.5


# B_2k / (2k)! for k = 1..18, the Euler-Maclaurin tail coefficients of
# _em_tail; tests/test_zmodel.py regenerates them with mpmath.
_EM_COEFS = (
    0.08333333333333333, -0.001388888888888889, 3.306878306878307e-05,
    -8.267195767195768e-07, 2.08767569878681e-08, -5.284190138687493e-10,
    1.3382536530684679e-11, -3.3896802963225827e-13, 8.586062056277845e-15,
    -2.174868698558062e-16, 5.5090028283602295e-18, -1.3954464685812522e-19,
    3.534707039629467e-21, -8.953517427037546e-23, 2.267952452337683e-24,
    -5.744790668872202e-26, 1.455172475614865e-27, -3.6859949406653103e-29,
)
# |B_38| / 38! = 2 zeta(38) / (2 pi)^38, with zeta(38) < 1 + 2^-37: the
# coefficient of the first dropped term
_EM_DROPPED = 2.0000000001 / TWO_PI ** 38


def _em_tail(s, h):
    """The Euler-Maclaurin tail of a Dirichlet series' residue class
    (Edwards, Riemann's Zeta Function, 6.4): with y = p h the class's last
    summed term and p its step,

        sum_{j>=1} (y + p j)^(-s) = y^(-s) R(s),
        R(s) = h/(s - 1) - 1/2 + sum_{k=1..18} B_2k/(2k)! s(s+1)...(s+2k-2) h^(1-2k),

    up to the dropped tail. While h > t/2pi (s = 1/2 + it) the k-th term
    shrinks like (t/2pi h)^(2k). Returns the jets (R, R', R'') in s and the
    first dropped factor s(s+1)...(s+36) h^(-37), which _EM_DROPPED scales
    to the first dropped term. s may be a complex scalar or array; the zeta
    tail is the one-class, step-1 case h = y."""
    u = s - 1.0
    r0, r1, r2 = h / u - 0.5, -h / (u * u), 2.0 * h / (u * u * u)
    q0, q1, q2 = s / h, 1.0 / h, 0.0  # s(s+1)...(s+2k-2) / h^(2k-1), k = 1
    for k, coef in enumerate(_EM_COEFS, start=1):
        r0, r1, r2 = r0 + coef * q0, r1 + coef * q1, r2 + coef * q2
        for c in (2 * k - 1, 2 * k):  # one more factor (s + c) / h
            lin = (s + c) / h
            q0, q1, q2 = q0 * lin, q1 * lin + q0 / h, q2 * lin + 2.0 * q1 / h
    return (r0, r1, r2), q0


def _zeta_block_sums(model: CoefficientModel, t: np.ndarray, n: int) -> np.ndarray:
    """The zeta model's section sums over k = 1..n and their main-mode
    t-derivatives, S^(j)(t) = sum_{m=2..M} d^j/dt^j cos(theta - t ln m)/sqrt m
    (theta' taken as its main term), at the points t: a (3, P) array.

    With s = 1/2 + it and M = n + 1, T_j = sum_{m=2..M} (ln m)^j m^(-s) is
    (-1)^j P^(j)(s) - [j = 0] for P(s) = sum_{m<=M} m^(-s), and
    P(s) = zeta(s) - M^(-s) R(s) with R from _em_tail at h = M, whose k-th
    term is pi^(-2k) at M = t/2. zeta, zeta' and zeta''
    are e^(-i theta) (Z, -i(Z' - i theta' Z), -(Z'' - 2i theta' Z' -
    i theta'' Z - theta'^2 Z)) from one hardy_z call at all the points,
    O(sqrt t) terms per point and one main-sum pass per value of N. With
    E_j = e^(i theta) T_j and theta'_m the main term, S^(0) = Re E_0,
    S^(1) = -Im(theta'_m E_0 - E_1) and S^(2) = -Re(theta'_m^2 E_0 -
    2 theta'_m E_1 + E_2).
    """
    big_m = float(n + 1)
    ln_m = math.log(big_m)
    (r0, r1, r2), _ = _em_tail(0.5 + 1j * t, big_m)
    z0, z1, z2 = hardy_z(model, t, (0, 1, 2)).values()
    th = np.array([model.theta(x) for x in t.tolist()])
    tp = np.array([model.theta_deriv(x, 1) for x in t.tolist()])
    tpp = np.array([model.theta_deriv(x, 2) for x in t.tolist()])
    tpm = np.array([model.theta_main(x) for x in t.tolist()])
    y = np.exp(1j * (th - t * ln_m)) / math.sqrt(big_m)  # e^(i theta) M^(-s)
    e0 = z0 - y * r0 - np.exp(1j * th)
    e1 = 1j * z1 + tp * z0 + y * (r1 - ln_m * r0)
    e2 = -(z2 - 2j * tp * z1 - 1j * tpp * z0 - tp * tp * z0) \
        - y * (r2 - 2.0 * ln_m * r1 + ln_m * ln_m * r0)
    return np.array([e0.real, -(tpm * e0 - e1).imag,
                     -(tpm * tpm * e0 - 2.0 * tpm * e1 + e2).real])


class WindowProxy:
    """Chebyshev proxies of the block sums of a section near one Gram point.

    A window is built from its Gram point g0 and its shift set alone. Its
    dimension is the robust cutoff N = floor(g0/2), kept when it re-centres.
    It has one block, every term index k = 1..N (shift_set None: the linear
    curve), or two, a corrected curve's shift block (the indices in
    shift_set) and descend block (the rest). The section splits as

        Z_N^(j)(t; w) = head^(j)(t) + sum_B w_B S_B^(j)(t),   j = 0, 1, 2,

    with main-mode derivatives and the m = 1 head evaluated exactly. The proxy
    interpolates every S_B^(j) at the 25 Chebyshev points of a window of
    half-width one local Gram gap (special.gram_gap at g0). The sum over all
    N indices is tabulated in one of two forms:

    * direct: one section_eval call at all 25 nodes, one cos/sin pass over
      the N + 1 terms per node (see section_eval).
      Within 1.7e-8 relative of the direct sums at g_0, where the window is
      widest. Taken by the Davenport-Heilbronn model at every N and by the
      zeta model below one chunk of terms (N < _CHUNK_TERMS, n <= 8048).
    * tail: for the zeta model from N = _CHUNK_TERMS = 4096 on (n >= 8049).
      One hardy_z call at the 25 nodes and an Euler-Maclaurin tail
      (_zeta_block_sums), O(sqrt t) work per node in place of O(t) and one
      main-sum pass per window. The tail's precondition M = N + 1 > t/2pi
      is no test: M > g0/2 by the cutoff, so it holds at every t < pi g0.

    With two blocks, either form sums the shift block directly over the
    indices up to its last one (k <= max(15, ceil(sqrt N)) for a corrected
    curve), and the descend block is the total minus the shift block; a
    shift index outside [1, N] is refused here, where the set becomes weights.

    Against an mpmath reference at n = 239558, 730119 and 988941 both forms
    are within 7.7e-9 of max(1, |S|), the rounding floor of the phases
    t ln m in either form.

    The window is first centred on g0 and tabulated when first needed; a
    point outside it re-tabulates the window centred on that point. Where a
    window, the first one included, would reach below theta's domain floor
    (t < 10 + gap, near the lowest Gram points only) it spans [10, t + gap]
    instead, which is narrower and so no less accurate.
    """

    def __init__(self, model: CoefficientModel, g0: float, shift_set=None):
        self.model = model
        self.n_terms = model.robust_cutoff(g0)
        self.blocks = 1 if shift_set is None else 2
        if any(not 1 <= k <= self.n_terms for k in shift_set or ()):
            raise ValueError("shift indices must lie in [1, dimension]")
        # the shift block's weights over k = 1..K, K its last index (none
        # when the set is empty or there is one block)
        self.shift_weights = np.zeros(max(shift_set or (), default=0))
        self.shift_weights[[k - 1 for k in shift_set or ()]] = 1.0
        self.gap = gram_gap(model.theta_kind, g0)
        self._centre(g0)
        self._c1 = float(model.coefficients(1)[0])
        self._coef = None
        self._fold = None  # (w, the coefficients folded with w): see section
        # the zeta model's direct form never runs past one chunk of terms; the
        # tail form is already the faster one at N = 1,258 (n = 2000, 2-vCPU VM)
        self.tail_form = model.is_zeta and self.n_terms >= _CHUNK_TERMS

    def head(self, t: float) -> tuple[float, float, float]:
        """The m = 1 term of the section and its main-mode t-derivatives."""
        th, tp = self.model.theta(t), self.model.theta_main(t)
        c1_cos = self._c1 * math.cos(th)
        return c1_cos, -self._c1 * math.sin(th) * tp, -c1_cos * tp * tp

    def _tabulate(self) -> np.ndarray:
        nodes = self.center + self.half_width * _CHEB_X
        heads = np.array([self.head(t) for t in nodes]).T

        def direct(weights, n_terms):  # (3, 25): the sums less the heads
            vals = section_eval(self.model, nodes, weights, orders=(0, 1, 2),
                                n_terms=n_terms)
            return np.array([vals[j] for j in range(3)]) - heads

        if self.tail_form:
            total = _zeta_block_sums(self.model, nodes, self.n_terms)
        else:
            total = direct(1.0, self.n_terms)
        block_sums = [total]
        if self.blocks == 2:
            shift = direct(self.shift_weights, len(self.shift_weights)) \
                if len(self.shift_weights) else np.zeros_like(total)
            block_sums = [shift, total - shift]
        # column j blocks + b holds order j of block b; the fit takes this
        # C-contiguous (25, 3 blocks) operand, since a transposed or wider one
        # changes the BLAS kernel and with it the last bits of the traces
        return _CHEB_FIT @ np.column_stack([s[j] for j in range(3) for s in block_sums])

    def _centre(self, t: float) -> None:
        """Centre the window on t with half-width one gap, or span
        [10, t + gap] where that would put nodes below theta's domain floor."""
        if not t >= T_FLOOR:
            raise DomainError(f"WindowProxy requires t >= 10, got {t}")
        if t - self.gap >= T_FLOOR:
            self.center, self.half_width = t, self.gap
        else:
            self.center = 0.5 * (T_FLOOR + t + self.gap)
            self.half_width = 0.5 * (t + self.gap - T_FLOOR)

    def _locate(self, t: float) -> float:
        """t's place x in [-1, 1] on the window, which is re-centred on t
        (dropping its coefficients and fold) when t lies outside it and
        tabulated when first needed."""
        x = (t - self.center) / self.half_width
        if not abs(x) <= 1.0 + 1e-12:  # a window edge rounds to |x| = 1 + ulp
            self._centre(t)
            self._coef = self._fold = None
            x = (t - self.center) / self.half_width
        if self._coef is None:
            self._coef = self._tabulate()
        return min(max(x, -1.0), 1.0)

    def sums(self, t: float) -> np.ndarray:
        """S_B^(j)(t) as a (3, blocks) array, row j = order."""
        x = self._locate(t)
        return (np.cos(_CHEB_K * math.acos(x)) @ self._coef).reshape(3, self.blocks)

    def section(self, t: float, w: tuple[float, ...]) -> tuple[float, float, float]:
        """Z_N^(j)(t; w) for j = 0, 1, 2, one weight per block. The weights
        are folded into the coefficients once per weight tuple and window,
        so each further call at the same w is one (25,) @ (25, 3) product."""
        head = self.head(t)
        if not any(w):
            return head
        x = self._locate(t)
        if self._fold is None or self._fold[0] != tuple(w):
            fold = self._coef.reshape(-1, self.blocks) @ np.array(w, dtype=float)
            self._fold = tuple(w), fold.reshape(_CHEB_NODES, 3)
        s0, s1, s2 = (np.cos(_CHEB_K * math.acos(x)) @ self._fold[1]).tolist()
        return head[0] + s0, head[1] + s1, head[2] + s2


@dataclass(frozen=True)
class ClassicalValues:
    """Classical-AFE value pair at a Gram point (or arrays of them, one value
    per point, from classical_afe at an array of Gram points)."""
    z: float
    zprime: float


def gram_index_of(model: CoefficientModel, g: float) -> int:
    """Recover n from theta(g)/pi, complaining if g is not a Gram point."""
    x = model.theta(g) / math.pi
    n = int(round(x))
    if abs(x - n) > 1e-6:
        raise NotAGramPointError(f"theta({g})/pi = {x} is not integral within 1e-06")
    return n


def localized_sum(model: CoefficientModel, g: float, a_lo: int, b_hi: int,
                  which: str = "z") -> float:
    """Partial classical-AFE sum over term indices k in [a_lo, b_hi].

    which = "z":       2 (-1)^n sum c_k cos(ln k g)/sqrt(k)
    which = "zprime":  (-1)^n sum c_k ln(g/(2 pi k^2)) sin(ln k g)/sqrt(k)

    localized_sum(1, N(n)) reproduces classical_afe bit for bit: both sum
    the rows of _classical_terms and scale the sum.
    """
    n_cut = model.classical_cutoff(g)
    if not (1 <= a_lo <= b_hi <= n_cut):
        raise IndexRangeError(f"need 1 <= {a_lo} <= {b_hi} <= {n_cut}")
    if which not in ("z", "zprime"):
        raise ValueError(f"which must be 'z' or 'zprime', got {which!r}")
    signs, z_terms, zp_terms = _classical_terms(model, np.array([g]), n_cut)
    terms, factor = (z_terms, 2.0 * signs[0]) if which == "z" else (zp_terms, signs[0])
    return factor * csum(terms[0, a_lo - 1:b_hi])


def _classical_terms(model: CoefficientModel, g: np.ndarray, n_cut: int
                     ) -> tuple[list[float], np.ndarray, np.ndarray]:
    """(-1)^n at the Gram points g = g_n, which share N(g) = n_cut, and the
    unsigned term rows c_k cos(ln k g)/sqrt(k) and
    c_k ln(g/(2 pi k^2)) sin(ln k g)/sqrt(k), k = 1..N, one (P, N) array each
    from one cos and sin pass. Callers scale a row's sum by 2 (-1)^n (Z) or
    (-1)^n (Z') after summing: scaled terms can sum to +0.0 where the scaled
    sum is -0.0."""
    signs = [-1.0 if gram_index_of(model, x) % 2 else 1.0 for x in g.tolist()]
    ln_k, c, sqrt_k = term_arrays(model, n_cut)
    arg = g[:, None] * ln_k
    # ln(g / (2 pi k^2)) analogue
    length = 2.0 * (np.array([model.theta_main(x) for x in g.tolist()])[:, None] - ln_k)
    return signs, c * np.cos(arg) / sqrt_k, c * length * np.sin(arg) / sqrt_k


def _classical_sums(model: CoefficientModel, g: np.ndarray, n_cut: int) -> dict:
    signs, z_terms, zp_terms = _classical_terms(model, g, n_cut)
    signs = np.array(signs)
    return {"z": 2.0 * signs * csum(z_terms), "zprime": signs * csum(zp_terms)}


def classical_afe(model: CoefficientModel, g) -> ClassicalValues:
    """Z(g_n) and Z'(g_n) from the classical AFE (error term not added).

    g may also be a 1-D array of Gram points: z and zprime then hold one
    value per point. The points that share N(g) take their terms from one
    cos and sin pass, and each point's rows are summed by csum on their own,
    so a point's values equal its one-point call bit for bit. A point out of
    the domain is refused before any terms, by its term count or by theta."""
    pts, points = _as_points(g)
    sums = _by_size(pts, [model.classical_cutoff(x) for x in pts.tolist()],
                    lambda group, n_cut: _classical_sums(model, group, n_cut))
    if points:
        return ClassicalValues(z=sums["z"], zprime=sums["zprime"])
    return ClassicalValues(z=float(sums["z"][0]), zprime=float(sums["zprime"][0]))


def classical_partial_sums(model: CoefficientModel, g: float
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Running partial sums S(k), k = 1..N(g), of the classical AFE's Z and
    Z' rows, in that order: the running sums of the unsigned terms, scaled
    after summing by 2 (-1)^n and (-1)^n (see _classical_terms)."""
    signs, z_terms, zp_terms = _classical_terms(model, np.array([g]),
                                                model.classical_cutoff(g))
    return 2.0 * signs[0] * running_csum(z_terms[0]), signs[0] * running_csum(zp_terms[0])


# Riemann-Siegel remainder coefficients C_0..C_3 (Edwards, Riemann's Zeta
# Function, ch. 7; Gabcke 1979), built from
#     C_0(p) = cos(2 pi (p^2 - p - 1/16)) / cos(2 pi p),
#     C_1 = -C_0^(3)/(96 pi^2),  C_2 = C_0^(2)/(64 pi^2) + C_0^(6)/(18432 pi^4),
#     C_3 = -C_0^(1)/(64 pi^2) - C_0^(5)/(3840 pi^4) - C_0^(9)/(5308416 pi^6),
# as Taylor series in x = p - 1/2. C_0 and C_2 are even in x, C_1 and C_3 odd;
# each tuple lists the coefficients of x^s, x^(s+2), ..., x^(s+40) with s the
# parity, and the dropped tail is below 1e-16 on |x| <= 1/2.
# tests/test_zmodel.py regenerates them with mpmath.
_RS_C0 = (
    0.3826834323650898, 1.7489618723100817, 2.118025207685496, -0.8707216670511481,
    -3.4733112243465167, -1.6626947308999325, 1.216731288919232, 1.3014304161007977,
    0.03051102182736167, -0.3755803051545095, -0.1085784416564066, 0.051832902999549624,
    0.029999480619902277, -0.0022759396706125644, -0.004382647416580339,
    -0.0004064230183729847, 0.0004006097785422114, 8.971057991388841e-05,
    -2.3025650027239108e-05, -9.380006601906792e-06, 6.323514947609108e-07,
)
_RS_C1 = (
    -0.053650205256750697, 0.11027818741081483, 1.2317200154315227, 1.2634964862799458,
    -1.695108997559503, -2.9998711967650102, -0.10819944959899208, 1.9407662946212714,
    0.7838423561500687, -0.5054829667900366, -0.38450723496057976, 0.03747264646531532,
    0.09092026610973176, 0.01044923755006451, -0.012582979651583417,
    -0.003399503721151274, 0.0010410950537714891, 0.0005010949051118486,
    -3.956359669003182e-05, -4.7624592453571896e-05, -1.8539355338085133e-06,
)
_RS_C2 = (
    0.005188542830293168, 0.0012378633552253898, -0.18137505725166997,
    0.14291492748532125, 1.3303391766687565, 0.3522472353403734, -2.421001595891951,
    -1.6760787022538108, 1.3689416723328371, 1.5539019430222982, -0.1722164273472998,
    -0.6359068055045431, -0.09911649873041208, 0.14033480067387008, 0.04782352019827292,
    -0.017356040641479782, -0.010225012534028593, 0.0009274149159794888,
    0.0013572194372373386, 6.41369012029388e-05, -0.0001230080569819663,
)
_RS_C3 = (
    -0.0026794321814389136, 0.02995372109103515, -0.042570172541828696,
    -0.28997965779803886, 0.4888831999235446, 1.230855876395746, -0.8297560708527408,
    -2.249763536666567, 0.07845139961005472, 1.7467492800868893, 0.45968080979749937,
    -0.6619353471039775, -0.31590441036173633, 0.12844792545207495, 0.10073382716626152,
    -0.009530183848825268, -0.019264421687514088, -0.001246463715876929,
    0.0024243969641103086, 0.000437647697741857, -0.00020714032687001792,
)
_RS_REMAINDER = ((0, _RS_C0), (1, _RS_C1), (0, _RS_C2), (1, _RS_C3))


def _parity_series(coeffs: tuple[float, ...], odd: int,
                   x: float) -> tuple[float, float, float]:
    """Value and first two x-derivatives of x^odd * sum_k coeffs[k] x^(2k),
    by Horner's rule in y = x^2 with accumulators for p(y), p'(y) and
    p''(y)/2."""
    y = x * x
    val = der = half_der2 = 0.0
    for c in reversed(coeffs):
        half_der2 = half_der2 * y + der
        der = der * y + val
        val = val * y + c
    if odd:
        return x * val, val + 2.0 * y * der, x * (6.0 * der + 8.0 * y * half_der2)
    return val, 2.0 * x * der, 2.0 * der + 8.0 * y * half_der2


def _rs_remainder(tau: float) -> tuple[float, float, float]:
    """The Riemann-Siegel remainder (-1)^(N-1) tau^(-1/2) sum_{j=0..3}
    C_j(p) tau^(-j) at tau = sqrt(t/2pi), N = floor(tau), p = tau - N, and
    its first two t-derivatives (analytic, twice in tau for the second)."""
    n = int(tau)
    x = tau - n - 0.5
    rem = drem = d2rem = 0.0
    for j, (odd, coeffs) in enumerate(_RS_REMAINDER):
        c, dc, d2c = _parity_series(coeffs, odd, x)
        weight = tau ** (-0.5 - j)
        rem += c * weight
        drem += (dc - (0.5 + j) * c / tau) * weight
        d2rem += (d2c - (1.0 + 2.0 * j) * dc / tau
                  + (0.5 + j) * (1.5 + j) * c / (tau * tau)) * weight
    sign = 1.0 if n % 2 else -1.0  # (-1)^(N-1)
    return (sign * rem, sign * drem / (4.0 * math.pi * tau),  # dtau/dt
            sign * (d2rem - drem / tau) / (16.0 * math.pi ** 2 * tau * tau))  # d2tau/dt2


def hardy_z(model: CoefficientModel, t, orders: tuple[int, ...] = (0, 1)) -> dict:
    """Z(t), Z'(t) and Z''(t) of the zeta model: its point values without
    the allowance, the Riemann-Siegel formula with remainder terms,

        Z(t) = 2 sum_{m=1..N} cos(theta(t) - t ln m)/sqrt(m)
               + (-1)^(N-1) tau^(-1/2) sum_{j=0..3} C_j(p) tau^(-j),

    with tau = sqrt(t/2pi), N = floor(tau) and p = tau - N. Against
    mpmath.siegelz the error in Z is below 1e-4 on [10, 30], 1e-5 on
    [30, 100], 1e-6 on [100, 1e3] and 1e-8 on [1e3, 1e4], and in Z'' below
    2e-5, 3e-7, 4e-9 and 2e-10 there; hardy_z_error(t) is the allowance that
    point_values grants Z at any height.
    """
    if not model.is_zeta:
        raise ValueError(f"hardy_z needs the zeta model, got {model.name!r}")
    return point_values(model, t, orders)[0]


def hardy_z_error(t: float) -> float:
    """Error allowance for hardy_z(t)[0]: the first dropped term, O(tau^(-9/2)),
    plus rounding in the phases theta(t) - t ln m, which grows like t ln t.

    The first constant holds about twice the largest error seen against
    mpmath on [10, 1e4] (4.5e-4 tau^(-9/2)); at t = 4.9e6 the error seen is
    3e-9, 1/25 of the allowance. The second has no such margin near
    t = 4.5e5, where Z carries the rounding of theta (about 2.3e6) times
    dZ/dtheta: within 1 of g_730119 the error reaches 5.86e-9 against an
    allowance of 5.86e-9, and within 50 of it 9.0e-9, 1.53 times the
    allowance (3 of 150 random points exceed it). It is kept as it is: it
    sets classify's indeterminate threshold, and so the Gram records.
    """
    return 1e-3 * (t / TWO_PI) ** -2.25 + _rounding_allowance(t)


def _rounding_allowance(t: float) -> float:
    """Rounding in a point value at t: the phases theta(t) - t ln m carry
    errors that grow like t ln t."""
    return 1e-15 * t * math.log(t)


@dataclass
class NewtonResult:
    t: float
    iterates: list[float]
    converged: bool
    final_value: float


_HEAD_GRID = 64  # a non-zeta model's head term counts are multiples of this


def _head_size(model: CoefficientModel, t: float) -> int:
    """M, the terms of point_values' head at t, a function of t alone: for
    the zeta model the Riemann-Siegel N = floor(sqrt(t/2pi)); for any other
    p t/(0.8 pi) (about 2t at period 5, so the tail's k-th Euler-Maclaurin
    term shrinks like 0.4^(2k)), rounded up to a multiple of _HEAD_GRID."""
    if model.is_zeta:
        return model.classical_cutoff(t)
    p = len(model.coeff_period or (1.0,))
    return _HEAD_GRID * math.ceil(_term_count(t, p * t / (0.4 * TWO_PI * _HEAD_GRID)))


def _em_correction(model: CoefficientModel, t: float, big_m: int
                   ) -> tuple[float, float, float, float]:
    """A non-zeta model's Dirichlet series sum_{m>M} c_m m^(-s), s = 1/2 + it,
    beyond the head m = 1..M: what it adds to Z, Z' and Z'' at t, and the
    allowance of Z.

    Each residue class a of the coefficient period p is summed apart:
    c_a sum_{j>=1} (y_a + p j)^(-s), y_a the class's last head term, is
    c_a y_a^(-s) R_a(s) with R_a, R_a' and R_a'' from _em_tail, summed in
    complex scalars. With E_j = e^(i theta) T^(j)(s), T the tail, Z gains
    Re E_0, Z' gains -Im(theta' E_0 + E_1) and Z'' gains
    Re((i theta'' - theta'^2) E_0 - 2 theta' E_1 - E_2). The allowance is
    the first dropped Euler-Maclaurin term of the classes, times
    |s + 37|/(1/2 + 37) (Edwards 6.4), plus _rounding_allowance(t).
    Against mpmath at the 498 Davenport-Heilbronn Gram points g_n, n in
    [2, 300), [1000, 1100) and [1900, 2000), the error in Z is at most 0.31
    of the allowance; at g_5000 it is 1.6e-12, 0.04 of it.
    """
    period = model.coeff_period or (1.0,)
    p = len(period)
    s = complex(0.5, t)
    th = model.theta(t)
    e0 = e1 = e2 = 0j
    dropped = 0.0
    for a, c in enumerate(period, start=1):
        if c == 0.0:
            continue
        y = big_m - (big_m - a) % p
        (r0, r1, r2), q = _em_tail(s, y / p)
        ln_y = math.log(y)
        rot = c * cmath.exp(1j * (th - t * ln_y)) / math.sqrt(y)  # c_a e^(i theta) y^(-s)
        e0 += rot * r0
        e1 += rot * (r1 - ln_y * r0)
        e2 += rot * (r2 - 2.0 * ln_y * r1 + ln_y * ln_y * r0)
        dropped += abs(rot * q)
    tp, tpp = model.theta_deriv(t, 1), model.theta_deriv(t, 2)
    return (e0.real, -(tp * e0 + e1).imag,
            ((1j * tpp - tp * tp) * e0 - 2.0 * tp * e1 - e2).real,
            _EM_DROPPED * dropped * abs(s + 37.0) / 37.5 + _rounding_allowance(t))


def point_values(model: CoefficientModel, t, orders: tuple[int, ...] = (0, 1)
                 ) -> tuple[dict, float]:
    """Z(t) and Z'(t) of the model's real Z-function, for point work
    (Gram-point signs and viscosity, Newton zeros), and the allowance of Z:
    the |Z| below which its sign is not trusted.

    Every model sums a head, the section at a = 1 over m = 1..M
    (_head_size) with full-mode derivatives, and adds its correction: the
    zeta model takes twice the head (the Riemann-Siegel main sum) plus
    _rs_remainder, with allowance hardy_z_error(t) (see hardy_z); any other
    adds its Dirichlet series beyond the head by Euler-Maclaurin
    (_em_correction), with the first dropped term plus rounding as the
    allowance. The domain, finite t >= 10 with a head an array can hold
    (_term_count), is checked at every point before any work. t may also
    be a 1-D array of points: each order and the allowance then hold one
    value per point, the points that share M summed in one section_eval
    call, and each point's values equal its one-point call bit for bit.
    """
    pts, points = _as_points(t)
    xs = pts.tolist()
    for x in xs:
        if not T_FLOOR <= x < math.inf:
            raise DomainError(f"point_values requires finite t >= 10, got {x}")
    sizes = [_head_size(model, x) for x in xs]
    head = _by_size(pts, sizes, lambda group, m: section_eval(
        model, group, 1.0, orders=orders, deriv_mode="full", n_terms=m - 1))
    if model.is_zeta:  # the approximate functional equation's two sums are conjugate
        scale, rows = 2.0, [(*_rs_remainder(math.sqrt(x / TWO_PI)), hardy_z_error(x))
                            for x in xs]
    else:
        scale, rows = 1.0, [_em_correction(model, x, m) for x, m in zip(xs, sizes)]
    # rows 0-2 add to orders 0-2, row 3 is the allowance; empty for no points
    corr = np.array(rows).reshape(-1, 4).T
    vals = {j: scale * head[j] + corr[j] for j in sorted(head)}
    if points:
        return vals, corr[3]
    return {j: float(v[0]) for j, v in vals.items()}, float(corr[3][0])


def find_zero_newton(model: CoefficientModel, t0: float) -> NewtonResult:
    """Newton iteration t <- t - Z(t)/Z'(t), with full iterate history.

    Z and Z' come from point_values, which refuses a t0 outside its domain
    before any work. Stops
    when |Z| < 1e-10, or when the step falls below rounding scale (at large
    heights the rounding noise of the sum sits above 1e-10, so a pure value
    test could spin forever at the fixed point). Raises FlatPointError if
    |Z'| falls below 1e-12 and NonConvergenceError after 50 steps; both
    carry the iterate list.
    """
    t = float(t0)
    iterates = [t]
    step_floor = 1e-13 * max(1.0, abs(t0))
    for _ in range(50):
        vals = point_values(model, t)[0]
        z, zp = vals[0], vals[1]
        if abs(z) < 1e-10:
            return NewtonResult(t=t, iterates=iterates, converged=True, final_value=z)
        if abs(zp) < 1e-12:
            raise FlatPointError(f"flat point at t={t}: |Z'|={abs(zp):.3e}", iterates)
        step = z / zp
        t = t - step
        iterates.append(t)
        if abs(step) <= step_floor:
            return NewtonResult(t=t, iterates=iterates, converged=True,
                                final_value=point_values(model, t, (0,))[0][0])
    z = point_values(model, t, (0,))[0][0]
    if abs(z) < 1e-10:
        return NewtonResult(t=t, iterates=iterates, converged=True, final_value=z)
    raise NonConvergenceError(
        f"no convergence after 50 iterations (|Z|={abs(z):.3e})", iterates)
