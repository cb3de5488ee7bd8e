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

Point values of the Riemann model (Gram-point viscosity, Newton zeros) come
from hardy_z, the Riemann-Siegel formula with remainder terms, not from the
section: at a = 1 the section drops a tail of size about 1/sqrt(2t).

All sums run in ascending term order with compensated accumulation
(numerics.csum), so repeated runs emit bit-identical values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import (DimensionError, DomainError, FlatPointError,
                     IndexRangeError, NonConvergenceError, NotAGramPointError)
from .numerics import csum, running_csum
from .special import ThetaKind, theta, theta_deriv, theta_main_deriv

TWO_PI = 2.0 * math.pi


def robust_cutoff_half_t(t: float) -> int:
    return max(1, int(math.floor(t / 2.0)))


def classical_cutoff_sqrt(g: float) -> int:
    return max(1, int(math.floor(math.sqrt(g / TWO_PI))))


@dataclass(frozen=True)
class CoefficientModel:
    """Immutable description of one rotated Dirichlet sum."""

    name: str
    theta_kind: ThetaKind
    coeff_period: tuple[float, ...] | None = None  # None means c_m = 1 for all m
    robust_cutoff: Callable[[float], int] = robust_cutoff_half_t
    classical_cutoff: Callable[[float], int] = classical_cutoff_sqrt

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


def _as_weights(a, n: int, stack: bool = False):
    """Normalize a parameter point: scalar -> uniform, sequence -> validated array.

    With stack, a 2-D array of shape (B, n) is a stack of B parameter points
    (block masks, for instance); the point path then returns one sum per row.
    """
    if a is None:
        return 0.0
    if isinstance(a, (int, float)):
        return float(a)
    arr = np.asarray(a, dtype=float)
    if arr.ndim not in ((1, 2) if stack else (1,)) or arr.shape[-1] != n:
        raise DimensionError(f"parameter point has dimension {arr.shape}, expected ({n},)")
    return arr


def section_eval(model: CoefficientModel, t, a, *, orders: tuple[int, ...] = (0,),
                 deriv_mode: str = "main", n_terms: int | None = None) -> dict:
    """Evaluate Z_N(t; a) and its requested t-derivatives in one trig pass.

    n_terms pins the section dimension N (defaults to the robust cutoff at t);
    continuation code passes it explicitly so the dimension never jumps while
    t slides across an even integer. Each order maps to one float.

    t may also be a 1-D array of real points, with n_terms pinned: each order
    then maps to one value per point, and a may also be a (B, N) stack of
    parameter points, which gives a (points, B) array (see _section_points).
    WindowProxy tabulates a whole window in one call.
    """
    if isinstance(t, np.ndarray):
        if n_terms is None:
            raise ValueError("section_eval at an array of points needs n_terms")
        return _section_points(model, t, _as_weights(a, n_terms, stack=True), orders,
                               deriv_mode, n_terms)
    n = model.robust_cutoff(t.real if isinstance(t, complex) else t) \
        if n_terms is None else n_terms
    w = _as_weights(a, n)
    ln_m, q = _basis(model, n + 1)
    th = model.theta(t)
    phases = th - t * ln_m

    if 1 in orders or 2 in orders:
        if deriv_mode == "main":
            tp = model.theta_main(t)
        elif deriv_mode == "full":
            tp = model.theta_deriv(t, 1)
        else:
            raise ValueError(f"unknown deriv_mode {deriv_mode!r}")
        factors = tp - ln_m
    full_sin = 2 in orders and deriv_mode == "full"
    cos_p = np.cos(phases) if 0 in orders or 2 in orders else None
    sin_p = np.sin(phases) if 1 in orders or full_sin else None
    del phases  # holds N + 1 floats; the trig arrays replace it

    out: dict = {}
    if 0 in orders:
        terms = q * cos_p
        out[0] = _weighted(terms, w)
    if 1 in orders:
        terms = -q * sin_p * factors
        out[1] = _weighted(terms, w)
    if 2 in orders:
        terms = -q * cos_p * factors * factors
        if full_sin:
            terms = terms - q * sin_p * model.theta_deriv(t, 2)
        out[2] = _weighted(terms, w)
    return out


def _csum_any(terms: np.ndarray):
    if np.iscomplexobj(terms):
        return complex(csum(terms.real), csum(terms.imag))
    return csum(terms)


def _weighted(terms: np.ndarray, w):
    """Weighted sum of the terms; the head (m = 1) always has weight 1."""
    if isinstance(w, float):
        head = terms[0] if np.iscomplexobj(terms) else float(terms[0])
        if w == 0.0:
            return head
        return head + w * _csum_any(terms[1:])
    weighted = terms.copy()
    weighted[1:] *= w
    return _csum_any(weighted)


_CHUNK_TERMS = 4096
_TAYLOR_TOL = 2.0 ** -56


def _taylor_terms(x: float) -> int:
    """Number of terms J of the series e^(iy) = sum_j (iy)^j / j! that
    brings its remainder bound x^J / J! on |y| <= x below 2^-56; 0 when
    x > 1, where the terms grow before they shrink and cancel in the sum."""
    if not x <= 1.0:
        return 0
    terms, bound = 0, 1.0
    while bound >= _TAYLOR_TOL:
        terms += 1
        bound *= x / terms
    return terms


_TAYLOR_MAX_TERMS = _taylor_terms(1.0)


def _taylor_coefs(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of (i d)^j / j! for d in dist and
    j < _TAYLOR_MAX_TERMS, one row per d."""
    j = np.arange(_TAYLOR_MAX_TERMS)
    coef = dist[:, None] ** j / np.cumprod(np.maximum(j, 1))
    return (coef * np.array([1.0, 0.0, -1.0, 0.0])[j % 4],
            coef * np.array([0.0, 1.0, 0.0, -1.0])[j % 4])


def _section_points(model: CoefficientModel, t: np.ndarray, w, orders: tuple[int, ...],
                    deriv_mode: str, n: int) -> dict:
    """section_eval at P real points that lie close together.

    With c the point nearest the middle of the set and d_p = t_p - c, each
    term factors as e^(-i t_p ln m) = e^(-i c ln m) e^(-i d_p ln m), and a
    point at -d_p reuses the sums of d_p, conjugated. So the 25 mirrored
    Chebyshev nodes of a WindowProxy window (d = 0 and 12 pairs +-d) need
    the sums for 13 distinct |d|, not 25.

    The terms run in chunks of 4096. Per chunk the columns v = w q f^k
    (k < 1 + max order, f = ln m - theta'(c)) are multiplied by cos and sin
    of c ln m, one trig pass for all points, and the sums of v cos(|d| ln m)
    and v sin(|d| ln m) are formed one of two ways:

    * moments: with u = ln m - mid the offset from the chunk's middle log,
      sum v e^(i d ln m) = e^(i d mid) sum_j (i d)^j / j! sum v u^j. The J
      moments sum v u^j are one matrix product for all points; J is the
      fewest terms whose remainder bound (max|d| r/2)^J / J! is below 2^-56,
      r the chunk's ln m span. Taken when max|d| r/2 <= 1 (_taylor_terms),
      which holds for every chunk past the first at the spacing of a window.
    * trig rows: otherwise (the first chunk, m <= 4096, spans 8.3 in ln m;
      points far apart) one cos/sin pass of |d| ln m per distinct |d|.

    numerics.csum adds the chunk partials in chunk order. Per point the sums
    of v cos(t_p ln m) and v sin(t_p ln m) follow by the angle sum rules and
    are rotated by theta(t_p); orders 1 and 2 take the factor theta'(t_p) -
    ln m as (theta'(t_p) - theta'(c)) - f. Against the scalar path the
    values agree to the rounding floor of the phases t ln m; the two chunk
    forms agree to about 1e-15 of the largest value.
    """
    if t.ndim != 1 or np.iscomplexobj(t):
        raise DimensionError(f"points must be a 1-D real array, got {t.dtype} {t.shape}")
    if deriv_mode not in ("main", "full"):
        raise ValueError(f"unknown deriv_mode {deriv_mode!r}")
    ln_m, q = _basis(model, n + 1)
    centre = int(np.argmin(np.abs(t - 0.5 * (t.min() + t.max()))))
    c = t[centre]
    offset = t - c
    dist, slot = np.unique(np.abs(offset), return_inverse=True)
    zero = int(dist[0] == 0.0)  # the centre itself needs no trig pass
    stack = None if isinstance(w, float) else np.atleast_2d(w)
    blocks = 1 if stack is None else len(stack)
    ncols = 1 + max(orders)
    if ncols == 1:
        tp = np.zeros(len(t))
    elif deriv_mode == "main":
        tp = np.array([model.theta_main(x) for x in t])
    else:
        tp = np.array([model.theta_deriv(x, 1) for x in t])
    partials = []
    re = im = None  # Taylor coefficients, built at the first chunk that uses them
    for lo in range(0, n + 1, _CHUNK_TERMS):
        hi = min(lo + _CHUNK_TERMS, n + 1)
        lnm = ln_m[lo:hi]
        # term i (0-based, m = i + 1) has weight w[i - 1]; the head i = 0 has 1
        if stack is None:
            wts = np.full((1, hi - max(lo, 1)), w)
        else:
            wts = stack[:, max(lo - 1, 0):hi - 1]
        if lo == 0:
            wts = np.concatenate([np.ones((blocks, 1)), wts], axis=1)
        powers = [q[lo:hi]]
        for _ in range(1, ncols):
            powers.append(powers[-1] * (lnm - tp[centre]))
        cols = (wts[:, None, :] * np.array(powers)).reshape(blocks * ncols, hi - lo)
        arg = c * lnm
        cols = np.concatenate([cols * np.cos(arg), cols * np.sin(arg)])
        mid = 0.5 * (lnm[0] + lnm[-1])
        terms = _taylor_terms(dist[-1] * (mid - lnm[0]))
        if terms:
            u = lnm - mid
            u_pow = np.empty((terms, hi - lo))  # row j holds u^j
            u_pow[0] = 1.0
            for j in range(1, terms):
                np.multiply(u_pow[j - 1], u, out=u_pow[j])
            if re is None:
                re, im = _taylor_coefs(dist)
            # sum v e^(i d ln m) = e^(i d mid) sum_j (i d)^j / j! sum v u^j
            cos_mid, sin_mid = np.cos(dist * mid)[:, None], np.sin(dist * mid)[:, None]
            rows = np.concatenate([cos_mid * re[:, :terms] - sin_mid * im[:, :terms],
                                   sin_mid * re[:, :terms] + cos_mid * im[:, :terms]])
            partials.append(rows @ (u_pow @ cols.T))
        else:
            trig = np.zeros((2, len(dist), hi - lo))
            trig[0, :zero] = 1.0
            arg = np.outer(dist[zero:], lnm)
            trig[0, zero:], trig[1, zero:] = np.cos(arg), np.sin(arg)
            partials.append(trig.reshape(2 * len(dist), hi - lo) @ cols.T)
    flat = np.array(partials).reshape(len(partials), -1)
    total = np.array([csum(col) for col in flat.T]).reshape(2, len(dist), 2, -1)
    # row k of total[0] holds sum v cos(c ln m) cos(|d_k| ln m) and sum v sin(c ln m)
    # cos(|d_k| ln m); total[1] the same with sin(|d_k| ln m)
    xc, xs = total[0, slot, 0], total[0, slot, 1]
    yc, ys = total[1, slot, 0], total[1, slot, 1]
    s = np.sign(offset)[:, None]
    sum_cos, sum_sin = xc - s * ys, xs + s * yc  # sum v cos(t_p ln m), v sin(t_p ln m)
    th = np.array([model.theta(x) for x in t])[:, None]
    rot_cos = np.cos(th) * sum_cos + np.sin(th) * sum_sin  # sum v cos(theta - t ln m)
    rot_sin = np.sin(th) * sum_cos - np.cos(th) * sum_sin  # sum v sin(theta - t ln m)
    rot_cos = rot_cos.reshape(len(t), blocks, ncols)
    rot_sin = rot_sin.reshape(len(t), blocks, ncols)
    delta = (tp - tp[centre])[:, None]
    out: dict = {}
    if 0 in orders:
        out[0] = rot_cos[..., 0]
    if 1 in orders:
        out[1] = -delta * rot_sin[..., 0] + rot_sin[..., 1]
    if 2 in orders:
        out[2] = -(delta * delta * rot_cos[..., 0] - 2.0 * delta * rot_cos[..., 1]
                   + rot_cos[..., 2])
        if deriv_mode == "full":
            tpp = np.array([model.theta_deriv(x, 2) for x in t])[:, None]
            out[2] = out[2] - tpp * rot_sin[..., 0]
    if stack is None or w.ndim == 1:
        out = {j: v[:, 0] for j, v in out.items()}
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
# is widest). The 12 positive points are mirrored exactly, x_(24-j) = -x_j,
# and the middle one is 0.0, so the nodes c +- h x_j pair up in
# section_eval's point path.
_CHEB_NODES = 25
_CHEB_K = np.arange(_CHEB_NODES, dtype=float)
_CHEB_ANGLES = math.pi * (_CHEB_K + 0.5) / _CHEB_NODES
_CHEB_X = np.cos(_CHEB_ANGLES[:_CHEB_NODES // 2])
_CHEB_X = np.concatenate([_CHEB_X, [0.0], -_CHEB_X[::-1]])
_CHEB_FIT = np.cos(np.outer(_CHEB_K, _CHEB_ANGLES)) * (2.0 / _CHEB_NODES)
_CHEB_FIT[0] *= 0.5


class WindowProxy:
    """Chebyshev proxies of the block sums of a section near one Gram point.

    For blocks B of term indices k = 1..N (boolean masks; None is the single
    block of all indices) the section splits as

        Z_N^(j)(t; w) = head^(j)(t) + sum_B w_B S_B^(j)(t),   j = 0, 1, 2,

    with main-mode derivatives and the m = 1 head evaluated exactly. The proxy
    interpolates every S_B^(j) at the 25 Chebyshev points of a window of
    half-width one local Gram gap, pi / theta_main'(g0), tabulated by one
    section_eval call per window at all 25 nodes: one cos/sin pass over the
    N + 1 terms, and past the first 4096 terms Taylor moments in place of
    the trig passes of the node offsets (see _section_points). Against the
    direct sums it is within 1.7e-8 relative at g_0, where the window is
    widest, and 7.4e-9 at g_730119, the rounding floor of the 225,307-term
    sum itself. The window is first centred on g0 and tabulated when first
    needed; a point outside it re-tabulates the window centred on that
    point. Where that window would reach below theta's domain floor
    (t < 10 + gap, near the lowest Gram points only) it spans [10, t + gap]
    instead, which is narrower and so no less accurate.
    """

    def __init__(self, model: CoefficientModel, n_terms: int, masks, g0: float):
        self.model = model
        self.n_terms = n_terms
        self.weights = 1.0 if masks is None else np.array(masks, dtype=float)
        self.blocks = 1 if masks is None else len(masks)
        self.gap = math.pi / model.theta_main(g0)
        self.half_width = self.gap
        self.center = g0
        self._c1 = float(model.coefficients(1)[0])
        self._coef = None

    def head(self, t: float) -> tuple[float, float, float]:
        """The m = 1 term of the section and its main-mode t-derivatives."""
        th, tp = self.model.theta(t), self.model.theta_main(t)
        c1_cos = self._c1 * math.cos(th)
        return c1_cos, -self._c1 * math.sin(th) * tp, -c1_cos * tp * tp

    def _tabulate(self) -> np.ndarray:
        nodes = self.center + self.half_width * _CHEB_X
        vals = section_eval(self.model, nodes, self.weights, orders=(0, 1, 2),
                            n_terms=self.n_terms)
        heads = np.array([self.head(t) for t in nodes])
        rows = np.concatenate([vals[j].reshape(_CHEB_NODES, -1) - heads[:, j:j + 1]
                               for j in range(3)], axis=1)
        return _CHEB_FIT @ rows

    def sums(self, t: float) -> np.ndarray:
        """S_B^(j)(t) as a (3, blocks) array, row j = order."""
        x = (t - self.center) / self.half_width
        if not abs(x) <= 1.0 + 1e-12:  # a window edge rounds to |x| = 1 + ulp
            if not t >= 10.0:
                raise DomainError(f"WindowProxy requires t >= 10, got {t}")
            if t - self.gap >= 10.0:
                self.center, self.half_width = t, self.gap
            else:  # span [10, t + gap]: no node below theta's domain floor
                self.center = 0.5 * (10.0 + t + self.gap)
                self.half_width = 0.5 * (t + self.gap - 10.0)
            self._coef = None
            x = (t - self.center) / self.half_width
        if self._coef is None:
            self._coef = self._tabulate()
        x = min(max(x, -1.0), 1.0)
        return (np.cos(_CHEB_K * math.acos(x)) @ self._coef).reshape(3, self.blocks)

    def section(self, t: float, w: tuple[float, ...]) -> tuple[float, float, float]:
        """Z_N^(j)(t; w) for j = 0, 1, 2, one weight per block."""
        head = self.head(t)
        if not any(w):
            return head
        s0, s1, s2 = (self.sums(t) @ np.array(w)).tolist()
        return head[0] + s0, head[1] + s1, head[2] + s2


@dataclass(frozen=True)
class ClassicalValues:
    """Classical-AFE value pair at a Gram point."""
    n: int
    z: float
    zprime: float

    @property
    def viscosity(self) -> float:
        if self.z == 0.0:
            return math.inf
        return abs(self.zprime / self.z)


def gram_index_of(model: CoefficientModel, g: float, tol: float = 1e-6) -> int:
    """Recover n from theta(g)/pi, complaining if g is not a Gram point."""
    x = model.theta(g) / math.pi
    n = int(round(x))
    if abs(x - n) > tol:
        raise NotAGramPointError(f"theta({g})/pi = {x} is not integral within {tol}")
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
def _classical_table(model: CoefficientModel, n_cut: int):
    """Per-term arrays for k = 1..n_cut: ln k, c_k, sqrt k (read-only).

    N(g) holds over runs of about 50 consecutive Gram points at n = 100 and
    5,000 at n = 5e5, so a scan window needs one or two tables; keeping more
    only adds to the peak memory of ops that jump between heights."""
    k = np.arange(1, n_cut + 1, dtype=float)
    table = np.log(k), model.coefficients(n_cut), np.sqrt(k)
    for arr in table:
        arr.flags.writeable = False
    return table


def _classical_terms(model: CoefficientModel, g: float,
                     which: tuple[str, ...]) -> list[np.ndarray]:
    """Unsigned classical-AFE term arrays for k = 1..N(g), one per entry of
    which ("z" or "zprime"), from one pass of cos and sin over ln k g."""
    ln_k, c, sqrt_k = _classical_table(model, model.classical_cutoff(g))
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
    n = gram_index_of(model, g)
    sign = -1.0 if n % 2 else 1.0
    z_terms, zp_terms = _classical_terms(model, g, ("z", "zprime"))
    return ClassicalValues(n=n, z=2.0 * sign * csum(z_terms), zprime=sign * csum(zp_terms))


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


def _parity_series(coeffs: tuple[float, ...], odd: int, x: float) -> tuple[float, float]:
    """Value and x-derivative of x^odd * sum_k coeffs[k] x^(2k)."""
    y = x * x
    val = der = 0.0
    for c in reversed(coeffs):
        der = der * y + val
        val = val * y + c
    if odd:
        return x * val, val + 2.0 * y * der
    return val, 2.0 * x * der


def hardy_z(model: CoefficientModel, t: float,
            orders: tuple[int, ...] = (0, 1)) -> dict[int, float]:
    """Z(t) and Z'(t) by the Riemann-Siegel formula with remainder terms,

        Z(t) = 2 sum_{m=1..N} cos(theta(t) - t ln m)/sqrt(m)
               + (-1)^(N-1) tau^(-1/2) sum_{j=0..3} C_j(p) tau^(-j),

    with tau = sqrt(t/2pi), N = floor(tau) and p = tau - N. The main sum is
    twice the section of dimension N - 1 at a = 1 (full-mode derivative); the
    remainder is differentiated analytically. Against mpmath.siegelz the
    error in Z is below 1e-4 on [10, 30], 1e-5 on [30, 100], 1e-6 on
    [100, 1e3] and 1e-8 on [1e3, 1e4]; hardy_z_error(t) is the allowance
    that classify grants it at any height. Only the zeta model has this
    remainder.
    """
    if not model.is_zeta:
        raise ValueError(f"hardy_z needs the zeta model, got {model.name!r}")
    if not set(orders) <= {0, 1}:
        raise ValueError(f"hardy_z evaluates orders 0 and 1, got {orders}")
    if not t >= 10.0:
        raise DomainError(f"hardy_z requires t >= 10, got {t}")
    tau = math.sqrt(t / TWO_PI)
    n = int(tau)
    main = section_eval(model, t, 1.0, orders=orders, deriv_mode="full", n_terms=n - 1)
    x = tau - n - 0.5
    rem = drem = 0.0
    for j, (odd, coeffs) in enumerate(_RS_REMAINDER):
        c, dc = _parity_series(coeffs, odd, x)
        weight = tau ** (-0.5 - j)
        rem += c * weight
        drem += (dc - (0.5 + j) * c / tau) * weight
    sign = 1.0 if n % 2 else -1.0  # (-1)^(N-1)
    out: dict[int, float] = {}
    if 0 in orders:
        out[0] = 2.0 * main[0] + sign * rem
    if 1 in orders:
        out[1] = 2.0 * main[1] + sign * drem / (4.0 * math.pi * tau)  # dtau/dt
    return out


def hardy_z_error(t: float) -> float:
    """Error allowance for hardy_z(t)[0]: the first dropped term, O(tau^(-9/2)),
    plus rounding in the phases theta(t) - t ln m, which grows like t ln t.

    Both constants hold about twice the largest error seen against mpmath
    (4.5e-4 tau^(-9/2) on [10, 1e4]; 3e-9 at t = 4.9e6).
    """
    return 1e-3 * (t / TWO_PI) ** -2.25 + 1e-15 * t * math.log(t)


@dataclass
class NewtonResult:
    t: float
    iterates: list[float]
    converged: bool
    final_value: float


def _newton_values(model: CoefficientModel, t: float,
                   orders: tuple[int, ...]) -> dict[int, float]:
    if model.is_zeta:
        return hardy_z(model, t, orders)
    return section_eval(model, t, 1.0, orders=orders)


def find_zero_newton(model: CoefficientModel, t0: float, max_iter: int = 50,
                     tol: float = 1e-10) -> NewtonResult:
    """Newton iteration t <- t - Z(t)/Z'(t), with full iterate history.

    Z is hardy_z for the zeta model; any other model iterates on its section
    at a = 1 with the main-mode derivative. Stops when |Z| < tol, or when the
    step falls below rounding scale (at large heights the rounding noise of
    the sum sits above 1e-10, so a pure value test could spin forever at the
    fixed point). Raises FlatPointError if |Z'| falls below 1e-12 and
    NonConvergenceError if the budget runs out; both carry the iterate list.
    """
    if not t0 >= 10.0:
        raise DomainError(f"find_zero_newton requires t0 >= 10, got {t0}")
    t = float(t0)
    iterates = [t]
    step_floor = 1e-13 * max(1.0, abs(t0))
    for _ in range(max_iter):
        vals = _newton_values(model, t, (0, 1))
        z, zp = vals[0], vals[1]
        if abs(z) < tol:
            return NewtonResult(t=t, iterates=iterates, converged=True, final_value=z)
        if abs(zp) < 1e-12:
            raise FlatPointError(f"flat point at t={t}: |Z'|={abs(zp):.3e}", iterates)
        step = z / zp
        t = t - step
        iterates.append(t)
        if abs(step) <= step_floor:
            return NewtonResult(t=t, iterates=iterates, converged=True,
                                final_value=_newton_values(model, t, (0,))[0])
    z = _newton_values(model, t, (0,))[0]
    if abs(z) < tol:
        return NewtonResult(t=t, iterates=iterates, converged=True, final_value=z)
    raise NonConvergenceError(
        f"no convergence after {max_iter} iterations (|Z|={abs(z):.3e})", iterates)
