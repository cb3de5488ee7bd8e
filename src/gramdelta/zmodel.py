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
point_values: for the Riemann model hardy_z, the Riemann-Siegel formula with
remainder terms, not the section, which at a = 1 drops a tail of size about
1/sqrt(2t).

Every section is summed one way (section_eval): matrix products over chunks
of terms, with the chunk partials added by numerics.csum in chunk order. The
summation order is fixed by the shape of a call, so reruns emit bit-identical
values; a point's last bits may differ with the batch of points it sits in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (DimensionError, DomainError, FlatPointError,
                     IndexRangeError, NonConvergenceError, NotAGramPointError)
from .numerics import csum, running_csum
from .special import ThetaKind, gram_gap, theta, theta_deriv, theta_main_deriv

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class CoefficientModel:
    """Immutable description of one rotated Dirichlet sum."""

    name: str
    theta_kind: ThetaKind
    coeff_period: tuple[float, ...] | None = None  # None means c_m = 1 for all m

    def robust_cutoff(self, t: float) -> int:
        return max(1, int(math.floor(t / 2.0)))

    def classical_cutoff(self, g: float) -> int:
        return max(1, int(math.floor(math.sqrt(g / TWO_PI))))

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


@lru_cache(maxsize=32)
def _basis(model: CoefficientModel, m_count: int):
    """Per-term arrays for m = 1..m_count: ln m, c_m/sqrt(m)."""
    m = np.arange(1, m_count + 1, dtype=float)
    ln_m = np.log(m)
    q = model.coefficients(m_count) / np.sqrt(m)
    return ln_m, q


def _as_weights(a, n: int) -> np.ndarray:
    """A parameter point as the weights of the N + 1 section terms, the head
    m = 1 at weight 1: a scalar (None is 0) is uniform, a vector gives one
    (N + 1,) row, and a 2-D array of shape (B, N) is a stack of B parameter
    points (block masks, for instance), whose (B, N + 1) weights give one
    section sum per row."""
    if a is None:
        a = 0.0
    if isinstance(a, (int, float)):
        wts = np.full(n + 1, float(a))
    else:
        arr = np.asarray(a, dtype=float)
        if arr.ndim not in (1, 2) or arr.shape[-1] != n:
            raise DimensionError(f"parameter point has dimension {arr.shape}, expected ({n},)")
        wts = np.empty(arr.shape[:-1] + (n + 1,))
        wts[..., 1:] = arr
    wts[..., 0] = 1.0
    return wts


_CHUNK_TERMS = 4096  # terms per chunk of a section sum: bounds its (P, chunk) arrays


def section_eval(model: CoefficientModel, t, a, *, orders: tuple[int, ...] = (0,),
                 deriv_mode: str = "main", n_terms: int | None = None) -> dict:
    """Evaluate Z_N(t; a) and its requested t-derivatives in one trig pass.

    n_terms pins the section dimension N (defaults to the robust cutoff at t);
    continuation code passes it explicitly so the dimension never jumps while
    t slides across an even integer. At a real or complex scalar t each order
    maps to one float (or complex). t may also be a 1-D array of P real
    points, with n_terms pinned: each order then maps to one value per point,
    and a may also be a (B, N) stack of parameter points, which gives a
    (P, B) array. WindowProxy's direct form tabulates a whole window in one
    call, and hardy_z at an array of points takes its main sums this way.

    A scalar t is a batch of one point, and every call sums the same way.
    The terms run in chunks of _CHUNK_TERMS. Per chunk the phases
    theta(t_p) - t_p ln m form a (P, chunk) array; their cos and sin (each
    only where an order needs it) and the factors theta'(t_p) - ln m (and
    theta''(t_p) for full order 2) give each order's terms, summed with one
    matrix product against the weight columns w c_m/sqrt(m), the head m = 1
    at weight 1. numerics.csum adds the chunk partials in chunk order (real
    and imaginary parts apart at a complex t). The summation order is fixed
    by the shape of the call, so reruns are bit-identical; a point's last
    bits may differ with the batch it sits in.
    """
    points = isinstance(t, np.ndarray)
    if points:
        if n_terms is None:
            raise ValueError("section_eval at an array of points needs n_terms")
        if t.ndim != 1 or np.iscomplexobj(t):
            raise DimensionError(f"points must be a 1-D real array, got {t.dtype} {t.shape}")
    n = model.robust_cutoff(t.real if isinstance(t, complex) else t) \
        if n_terms is None else n_terms
    wts = _as_weights(a, n)
    if wts.ndim == 2 and not points:
        raise DimensionError(f"parameter point has dimension {np.shape(a)}, expected ({n},) "
                             "at a scalar t")
    if deriv_mode not in ("main", "full"):
        raise ValueError(f"unknown deriv_mode {deriv_mode!r}")
    pts = t.tolist() if points else [t]
    tv = np.array(pts)[:, None]
    ln_m, q = _basis(model, n + 1)
    th = np.array([model.theta(x) for x in pts])[:, None]
    if 1 in orders or 2 in orders:
        tp = np.array([model.theta_main(x) if deriv_mode == "main"
                       else model.theta_deriv(x, 1) for x in pts])[:, None]
    full_sin = 2 in orders and deriv_mode == "full"
    if full_sin:
        tpp = np.array([model.theta_deriv(x, 2) for x in pts])[:, None]
    stack = wts.reshape(-1, n + 1)
    partials = {j: [] for j in orders}
    for lo in range(0, n + 1, _CHUNK_TERMS):
        hi = min(lo + _CHUNK_TERMS, n + 1)
        lnm = ln_m[lo:hi]
        cols = (stack[:, lo:hi] * q[lo:hi]).T
        phases = th - tv * lnm
        cos_p = np.cos(phases) if 0 in orders or 2 in orders else None
        sin_p = np.sin(phases) if 1 in orders or full_sin else None
        del phases
        if 0 in orders:
            partials[0].append(cos_p @ cols)
        if 1 in orders or 2 in orders:
            factors = tp - lnm
        if 1 in orders:
            partials[1].append(-((sin_p * factors) @ cols))
        if 2 in orders:
            terms = cos_p * factors
            terms *= factors
            if full_sin:
                terms += sin_p * tpp
            partials[2].append(-(terms @ cols))
    cplx = np.iscomplexobj(tv)
    out: dict = {}
    for j in orders:
        # one row of chunk partials per (point, weight row)
        rows = np.array(partials[j]).reshape(len(partials[j]), -1).T
        sums = [complex(csum(row.real), csum(row.imag)) if cplx else csum(row)
                for row in rows]
        out[j] = np.array(sums).reshape((len(pts),) + wts.shape[:-1]) if points else sums[0]
    return out


def z_section(model: CoefficientModel, t, a) -> float:
    """The section value Z_N(t; a); a may be a scalar (uniform point) or a vector."""
    return section_eval(model, t, a)[0]


def z_section_deriv(model: CoefficientModel, t: float, a, order: int = 1,
                    mode: str = "main") -> float:
    """Analytic d/dt of the section, order 1 or 2.

    mode "main" uses theta' = (1/2) ln(t/2pi) exactly as in the closed forms;
    mode "full" keeps the asymptotic correction terms of theta'.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    return section_eval(model, t, a, orders=(order,), deriv_mode=mode)[order]


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
# _zeta_block_sums; tests/test_zmodel.py regenerates them with mpmath.
_EM_COEFS = (
    0.08333333333333333, -0.001388888888888889, 3.306878306878307e-05,
    -8.267195767195768e-07, 2.08767569878681e-08, -5.284190138687493e-10,
    1.3382536530684679e-11, -3.3896802963225827e-13, 8.586062056277845e-15,
    -2.174868698558062e-16, 5.5090028283602295e-18, -1.3954464685812522e-19,
    3.534707039629467e-21, -8.953517427037546e-23, 2.267952452337683e-24,
    -5.744790668872202e-26, 1.455172475614865e-27, -3.6859949406653103e-29,
)


def _zeta_block_sums(model: CoefficientModel, t: np.ndarray, n: int) -> np.ndarray:
    """The zeta model's section sums over k = 1..n and their main-mode
    t-derivatives, S^(j)(t) = sum_{m=2..M} d^j/dt^j cos(theta - t ln m)/sqrt m
    (theta' taken as its main term), at the points t: a (3, P) array.

    With s = 1/2 + it and M = n + 1, T_j = sum_{m=2..M} (ln m)^j m^(-s) is
    (-1)^j P^(j)(s) - [j = 0] for P(s) = sum_{m<=M} m^(-s), and the
    Euler-Maclaurin formula (Edwards, Riemann's Zeta Function, 6.4) gives
    P(s) = zeta(s) - M^(-s) R(s) exactly up to its dropped tail, with

        R(s) = M/(s - 1) - 1/2 + sum_{k=1..18} B_2k/(2k)! s(s+1)...(s+2k-2) M^(1-2k).

    While M > t/2pi its k-th term shrinks like (t/2pi M)^(2k), pi^(-2k) at
    M = t/2; R, R' and R'' are carried as jets in s. zeta, zeta' and zeta''
    are e^(-i theta) (Z, -i(Z' - i theta' Z), -(Z'' - 2i theta' Z' -
    i theta'' Z - theta'^2 Z)) from one hardy_z call at all the points,
    O(sqrt t) terms per point and one main-sum pass per value of N. With
    E_j = e^(i theta) T_j and theta'_m the main term, S^(0) = Re E_0,
    S^(1) = -Im(theta'_m E_0 - E_1) and S^(2) = -Re(theta'_m^2 E_0 -
    2 theta'_m E_1 + E_2).
    """
    big_m = float(n + 1)
    ln_m = math.log(big_m)
    s = 0.5 + 1j * t
    u = s - 1.0
    r0, r1, r2 = big_m / u - 0.5, -big_m / (u * u), 2.0 * big_m / (u * u * u)
    q0, q1, q2 = s / big_m, 1.0 / big_m, 0.0  # s(s+1)...(s+2k-2) / M^(2k-1), k = 1
    for k, coef in enumerate(_EM_COEFS, start=1):
        r0, r1, r2 = r0 + coef * q0, r1 + coef * q1, r2 + coef * q2
        for c in (2 * k - 1, 2 * k):  # one more factor (s + c) / M
            lin = (s + c) / big_m
            q0, q1, q2 = q0 * lin, q1 * lin + q0 / big_m, q2 * lin + 2.0 * q1 / big_m
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

    For blocks B of term indices k = 1..N (boolean masks; None is the single
    block of all indices) the section splits as

        Z_N^(j)(t; w) = head^(j)(t) + sum_B w_B S_B^(j)(t),   j = 0, 1, 2,

    with main-mode derivatives and the m = 1 head evaluated exactly. The proxy
    interpolates every S_B^(j) at the 25 Chebyshev points of a window of
    half-width one local Gram gap (special.gram_gap at g0), tabulated in one
    of two forms:

    * direct: one section_eval call at all 25 nodes, one cos/sin pass over
      the N + 1 terms per node (see section_eval).
      Within 1.7e-8 relative of the direct sums at g_0, where the window is
      widest. Taken by the Davenport-Heilbronn model at every N and by the
      zeta model below one chunk of terms (N < _CHUNK_TERMS, n <= 8048).
    * tail: for the zeta model from N = _CHUNK_TERMS on, when the blocks
      partition the indices and g0 <= 3 (N + 1). The sum over all N indices
      comes from one hardy_z call at the 25 nodes and an Euler-Maclaurin
      tail (_zeta_block_sums), O(sqrt t) work per node in place of O(t) and
      one main-sum pass per window; every block but the last is
      summed directly over the indices up to its last one (the shift block
      of a corrected curve, k <= max(15, ceil(sqrt N))), and the last block
      is the total minus those.

    Against an mpmath reference at n = 239558, 730119 and 988941 both forms
    are within 7.7e-9 of max(1, |S|), the rounding floor of the phases
    t ln m in either form.

    section folds a weight tuple into the coefficients once and keeps the
    fold until the weights change or the window is re-tabulated, so a Newton
    step at fixed weights is one (25,) @ (25, 3) product and the head.

    The window is first centred on g0 and tabulated when first needed; a
    point outside it re-tabulates the window centred on that point. Where
    that window would reach below theta's domain floor (t < 10 + gap, near
    the lowest Gram points only) it spans [10, t + gap] instead, which is
    narrower and so no less accurate.
    """

    def __init__(self, model: CoefficientModel, n_terms: int, masks, g0: float):
        self.model = model
        self.n_terms = n_terms
        self.weights = 1.0 if masks is None else np.array(masks, dtype=float)
        self.blocks = 1 if masks is None else len(masks)
        self.gap = gram_gap(model.theta_kind, g0)
        self.half_width = self.gap
        self.center = g0
        self._c1 = float(model.coefficients(1)[0])
        self._coef = None
        self._fold = None  # (w, the coefficients folded with w): see section
        # the zeta model's direct form never runs past one chunk of terms; the
        # tail form is already the faster one at N = 1,258 (n = 2000, 2-vCPU VM)
        self.tail_form = (model.is_zeta and n_terms >= _CHUNK_TERMS
                          and g0 <= 3.0 * (n_terms + 1)
                          and (masks is None or bool(np.all(self.weights.sum(axis=0) == 1.0))))
        # indices summed directly in the tail form: up to the last one that a
        # block other than the last one holds
        lead = np.flatnonzero(np.any(self.weights[:-1], axis=0)) if self.blocks > 1 else []
        self._lead_terms = int(lead[-1]) + 1 if len(lead) else 0

    def head(self, t: float) -> tuple[float, float, float]:
        """The m = 1 term of the section and its main-mode t-derivatives."""
        th, tp = self.model.theta(t), self.model.theta_main(t)
        c1_cos = self._c1 * math.cos(th)
        return c1_cos, -self._c1 * math.sin(th) * tp, -c1_cos * tp * tp

    def _tabulate(self) -> np.ndarray:
        nodes = self.center + self.half_width * _CHEB_X
        heads = np.array([self.head(t) for t in nodes])
        if not self.tail_form:
            vals = section_eval(self.model, nodes, self.weights, orders=(0, 1, 2),
                                n_terms=self.n_terms)
            rows = [vals[j].reshape(_CHEB_NODES, -1) - heads[:, j:j + 1] for j in range(3)]
        else:
            total = _zeta_block_sums(self.model, nodes, self.n_terms)
            lead = np.zeros((3, _CHEB_NODES, self.blocks - 1))
            if self._lead_terms:
                vals = section_eval(self.model, nodes, self.weights[:-1, :self._lead_terms],
                                    orders=(0, 1, 2), n_terms=self._lead_terms)
                lead = np.array([vals[j] - heads[:, j:j + 1] for j in range(3)])
            rows = [np.concatenate([lead[j], (total[j] - lead[j].sum(axis=1))[:, None]],
                                   axis=1) for j in range(3)]
        return _CHEB_FIT @ np.concatenate(rows, axis=1)

    def _locate(self, t: float) -> float:
        """t's place x in [-1, 1] on the window, which is re-centred on t
        (dropping its coefficients and fold) when t lies outside it and
        tabulated when first needed."""
        x = (t - self.center) / self.half_width
        if not abs(x) <= 1.0 + 1e-12:  # a window edge rounds to |x| = 1 + ulp
            if not t >= 10.0:
                raise DomainError(f"WindowProxy requires t >= 10, got {t}")
            if t - self.gap >= 10.0:
                self.center, self.half_width = t, self.gap
            else:  # span [10, t + gap]: no node below theta's domain floor
                self.center = 0.5 * (10.0 + t + self.gap)
                self.half_width = 0.5 * (t + self.gap - 10.0)
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
        are folded into the coefficients once per weight tuple, so each
        further call at the same w is one (25,) @ (25, 3) product."""
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
    """Classical-AFE value pair at a Gram point."""
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

    localized_sum(1, N(n)) reproduces classical_afe bit for bit: both build
    their terms by _classical_terms.
    """
    n_cut = model.classical_cutoff(g)
    if not (1 <= a_lo <= b_hi <= n_cut):
        raise IndexRangeError(f"need 1 <= {a_lo} <= {b_hi} <= {n_cut}")
    sign = -1.0 if gram_index_of(model, g) % 2 else 1.0
    terms = _classical_terms(model, g, (which,))[0][a_lo - 1:b_hi]
    factor = 2.0 * sign if which == "z" else sign
    return factor * csum(terms)


@lru_cache(maxsize=4)
def term_arrays(model: CoefficientModel, count: int):
    """Per-term arrays for m = 1..count: ln m, c_m, sqrt m (read-only).

    The one source of these arrays for the classical AFE, the closed forms,
    the A_k/B_k table and the neighbour adjustments; the section keeps its
    own (ln m, c_m/sqrt m) basis. N(g) holds over runs of about 50
    consecutive Gram points at n = 100 and 5,000 at n = 5e5, so a scan
    window needs one or two tables; keeping more only adds to the peak
    memory of ops that jump between heights."""
    m = np.arange(1, count + 1, dtype=float)
    table = np.log(m), model.coefficients(count), np.sqrt(m)
    for arr in table:
        arr.flags.writeable = False
    return table


def _classical_terms(model: CoefficientModel, g: float,
                     which: tuple[str, ...]) -> list[np.ndarray]:
    """Unsigned classical-AFE term arrays for k = 1..N(g), one per entry of
    which ("z" or "zprime"), from one pass of cos and sin over ln k g."""
    ln_k, c, sqrt_k = term_arrays(model, model.classical_cutoff(g))
    arg = ln_k * g
    out = []
    for kind in which:
        if kind == "z":
            out.append(c * np.cos(arg) / sqrt_k)
        elif kind == "zprime":
            length = 2.0 * (model.theta_main(g) - ln_k)  # ln(g / (2 pi k^2)) analogue
            out.append(c * length * np.sin(arg) / sqrt_k)
        else:
            raise ValueError(f"which must be 'z' or 'zprime', got {kind!r}")
    return out


def classical_afe(model: CoefficientModel, g: float) -> ClassicalValues:
    """Z(g_n) and Z'(g_n) from the classical AFE (error term not added)."""
    if not g >= 10.0:
        raise DomainError(f"classical_afe requires g >= 10, got {g}")
    sign = -1.0 if gram_index_of(model, g) % 2 else 1.0
    z_terms, zp_terms = _classical_terms(model, g, ("z", "zprime"))
    return ClassicalValues(z=2.0 * sign * csum(z_terms), zprime=sign * csum(zp_terms))


def classical_partial_sums(model: CoefficientModel, g: float, which: str) -> np.ndarray:
    """Running partial sums S(k) of the classical AFE, k = 1..N(g), signed."""
    n = gram_index_of(model, g)
    sign = -1.0 if n % 2 else 1.0
    factor = 2.0 * sign if which == "z" else sign
    return factor * running_csum(_classical_terms(model, g, (which,))[0])


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
    """Z(t), Z'(t) and Z''(t) by the Riemann-Siegel formula with remainder
    terms,

        Z(t) = 2 sum_{m=1..N} cos(theta(t) - t ln m)/sqrt(m)
               + (-1)^(N-1) tau^(-1/2) sum_{j=0..3} C_j(p) tau^(-j),

    with tau = sqrt(t/2pi), N = floor(tau) and p = tau - N. The main sum is
    twice the section of dimension N - 1 at a = 1 (full-mode derivatives);
    the remainder (_rs_remainder) is differentiated analytically, twice in
    tau for Z''. Against mpmath.siegelz the error in Z is below 1e-4 on
    [10, 30], 1e-5 on [30, 100], 1e-6 on [100, 1e3] and 1e-8 on [1e3, 1e4],
    and in Z'' below 2e-5, 3e-7, 4e-9 and 2e-10 there; hardy_z_error(t) is
    the allowance that point_values grants Z at any height. Only the zeta
    model has this remainder.

    t may also be a 1-D array of points: each order then maps to one
    value per point. The main sums of the points that share N come from one
    section_eval call at those points, the remainder from _rs_remainder per
    point. A scalar t is a batch of one point; a point's last bits may
    differ with the batch it sits in (see section_eval).
    """
    if not model.is_zeta:
        raise ValueError(f"hardy_z needs the zeta model, got {model.name!r}")
    if not set(orders) <= {0, 1, 2}:
        raise ValueError(f"hardy_z evaluates orders 0, 1 and 2, got {orders}")
    points = isinstance(t, np.ndarray)
    if points and (t.ndim != 1 or np.iscomplexobj(t)):
        raise DimensionError(f"points must be a 1-D real array, got {t.dtype} {t.shape}")
    taus = []
    for x in t.tolist() if points else [t]:
        if not 10.0 <= x < math.inf:
            raise DomainError(f"hardy_z requires finite t >= 10, got {x}")
        taus.append(math.sqrt(x / TWO_PI))
    if not points:
        main = section_eval(model, t, 1.0, orders=orders, deriv_mode="full",
                            n_terms=int(taus[0]) - 1)
        rem = _rs_remainder(taus[0])
    else:
        sizes = np.array([int(tau) for tau in taus])  # N per point
        main = {j: np.empty(len(t)) for j in orders}
        for n in sorted(set(sizes.tolist())):  # np.unique loads 1.7 MB more RSS
            group = sizes == n
            vals = section_eval(model, t[group], 1.0, orders=orders, deriv_mode="full",
                                n_terms=n - 1)
            for j in orders:
                main[j][group] = vals[j]
        rem = np.array([_rs_remainder(tau) for tau in taus]).T
    return {j: 2.0 * main[j] + rem[j] for j in sorted(set(orders))}


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
    return 1e-3 * (t / TWO_PI) ** -2.25 + 1e-15 * t * math.log(t)


@dataclass
class NewtonResult:
    t: float
    iterates: list[float]
    converged: bool
    final_value: float


_SECTION_SIGN_FLOOR = 1e-4  # |Z| below which a section value's sign is not trusted


def point_values(model: CoefficientModel, t: float, orders: tuple[int, ...] = (0, 1)
                 ) -> tuple[dict[int, float], float]:
    """Z(t) and Z'(t) for point work (Gram-point signs and viscosity, Newton
    zeros) and the |Z| below which the sign of Z is not trusted.

    The zeta model takes hardy_z, with allowance hardy_z_error(t); any other
    model its section at a = 1 with the full-mode derivative, whose dropped
    tail is O(t^(-1/2)), with allowance 1e-4.
    """
    if model.is_zeta:
        return hardy_z(model, t, orders), hardy_z_error(t)
    return (section_eval(model, t, 1.0, orders=orders, deriv_mode="full"),
            _SECTION_SIGN_FLOOR)


def find_zero_newton(model: CoefficientModel, t0: float) -> NewtonResult:
    """Newton iteration t <- t - Z(t)/Z'(t), with full iterate history.

    Z and Z' come from point_values: hardy_z for the zeta model, the section
    at a = 1 for any other. Stops when |Z| < 1e-10, or when the
    step falls below rounding scale (at large heights the rounding noise of
    the sum sits above 1e-10, so a pure value test could spin forever at the
    fixed point). Raises FlatPointError if |Z'| falls below 1e-12 and
    NonConvergenceError after 50 steps; both carry the iterate list.
    """
    if not 10.0 <= t0 < math.inf:
        raise DomainError(f"find_zero_newton requires finite t0 >= 10, got {t0}")
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
