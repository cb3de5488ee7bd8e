"""Neighbour adjustments of the classical AFE, localized-sum analysis and the
Monte-Carlo sorted-vector baseline.

The adjustment phase is phi_k = ln(k) * delta with delta = pi / theta_main'(g_n),
the uniform Gram spacing. With synthetic neighbours g_n +- delta the two
recombinations

    Z(g_n)  = (Z_c^- + Z_c^+) / 2
    Z'(g_n) = (Z_s^- - Z_s^+) / 2

are exact trigonometric identities and hold to rounding error; with true
(refined) neighbour Gram points they hold only approximately, which is the
point of reporting the residuals. alpha_c = 2/cos(phi) has a pole at
phi = pi/2 (k = (g/2pi)^(1/4)); alpha_s = ln(g/(2pi k^2))/sin(phi) has one at
k = 1, where the corresponding Z' term is identically zero, so k = 1 is
always excluded from the sine sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IndexRangeError
from .gram import gram_point
from .numerics import WORK_ELEMENTS, adaptive_simpson, csum, uniform01
from .special import gram_gap
from .zmodel import CoefficientModel, classical_partial_sums, term_arrays

_POLE_EPS = 1e-8


@dataclass
class AdjustmentContext:
    """Shared per-(model, n) data for every operation in this module."""
    g: float
    n_cut: int
    delta: float            # synthetic neighbour spacing
    lnfac: float            # ln(g/2pi) analogue, = 2 theta_main'(g)
    ln_k: np.ndarray        # k = 1..N, from zmodel.term_arrays (read-only)
    c: np.ndarray
    sqrt_k: np.ndarray
    phases: np.ndarray      # phi_k
    alpha_c: np.ndarray
    alpha_s: np.ndarray
    incl_c: np.ndarray      # terms clear of an alpha_c pole
    incl_s: np.ndarray      # terms clear of an alpha_s pole, k = 1 never
    ph_center: np.ndarray   # ln(k) g
    ph_minus: np.ndarray    # neighbour phase arrays ln(k) g_(n-+1)
    ph_plus: np.ndarray


def _context(model: CoefficientModel, n: int, neighbor_mode: str = "synthetic"
             ) -> AdjustmentContext:
    if neighbor_mode not in ("synthetic", "true"):
        raise ValueError(f"neighbor_mode must be 'synthetic' or 'true', got {neighbor_mode!r}")
    g = gram_point(model, n)
    n_cut = model.classical_cutoff(g)
    lnfac = 2.0 * model.theta_main(g)
    delta = gram_gap(model.theta_kind, g)
    ln_k, c, sqrt_k = term_arrays(model, n_cut)
    phases = ln_k * delta
    cos_phi, sin_phi = np.cos(phases), np.sin(phases)
    with np.errstate(divide="ignore"):
        alpha_c = 2.0 / cos_phi
        alpha_s = (lnfac - 2.0 * ln_k) / sin_phi
    incl_c = np.abs(cos_phi) >= _POLE_EPS
    incl_s = np.abs(sin_phi) >= _POLE_EPS
    incl_s[0] = False  # ln(1) = 0: the Z' term is identically zero
    # reduce mod 2pi before any +-phi arithmetic: the raw products reach ~1e7,
    # where a single rounding already costs 1e-9 of phase and would drown the
    # exactness of the recombination identities
    ph_center = np.mod(ln_k * g, 2.0 * math.pi)
    if neighbor_mode == "synthetic":
        ph_minus = ph_center - phases
        ph_plus = ph_center + phases
    else:
        ph_minus = np.mod(ln_k * gram_point(model, n - 1), 2.0 * math.pi)
        ph_plus = np.mod(ln_k * gram_point(model, n + 1), 2.0 * math.pi)
    return AdjustmentContext(g=g, n_cut=n_cut, delta=delta, lnfac=lnfac, ln_k=ln_k, c=c,
                             sqrt_k=sqrt_k, phases=phases, alpha_c=alpha_c,
                             alpha_s=alpha_s, incl_c=incl_c, incl_s=incl_s,
                             ph_center=ph_center, ph_minus=ph_minus, ph_plus=ph_plus)


def adjustment_phase(model: CoefficientModel, n: int, k: float) -> float:
    """phi_k at real k; exactly pi at the continuous endpoint k = sqrt(g/2pi)."""
    return math.log(k) * gram_gap(model.theta_kind, gram_point(model, n))


@dataclass
class AdjustmentReport:
    n: int
    neighbor_mode: str
    phases: np.ndarray
    alpha_c: np.ndarray
    alpha_s: np.ndarray
    zc_minus: float
    zc_plus: float
    zs_minus: float
    zs_plus: float
    z_reference: float        # Z(g_n) over the cosine-included index set
    zprime_reference: float   # Z'(g_n) over the sine-included index set
    residual_z: float
    residual_zprime: float
    excluded_c: tuple[int, ...]
    excluded_s: tuple[int, ...]


def adjustments(model: CoefficientModel, n: int,
                neighbor_mode: str = "synthetic") -> AdjustmentReport:
    """Cosine/sine adjustments of the neighbour sums and their recombination.

    Terms whose alpha hits a pole (|cos phi| or |sin phi| below 1e-8) are
    flagged and excluded from both sides of the identity, so the synthetic
    residuals stay at rounding level; the excluded indices are reported.
    """
    if n < 1:
        raise ValueError(f"adjustments needs n >= 1, got {n}")
    ctx = _context(model, n, neighbor_mode)
    c, incl_c, incl_s = ctx.c, ctx.incl_c, ctx.incl_s
    sign = -1.0 if n % 2 else 1.0

    cos_m = np.cos(ctx.ph_minus)
    cos_p = np.cos(ctx.ph_plus)
    inv_sqrt = 1.0 / ctx.sqrt_k

    zc_m = sign * csum((c * cos_m * inv_sqrt * ctx.alpha_c)[incl_c])
    zc_p = sign * csum((c * cos_p * inv_sqrt * ctx.alpha_c)[incl_c])
    zs_m = sign * csum((c * cos_m * inv_sqrt * ctx.alpha_s)[incl_s])
    zs_p = sign * csum((c * cos_p * inv_sqrt * ctx.alpha_s)[incl_s])

    z_ref = 2.0 * sign * csum((c * np.cos(ctx.ph_center) * inv_sqrt)[incl_c])
    zp_ref = sign * csum(
        (c * (ctx.lnfac - 2.0 * ctx.ln_k) * np.sin(ctx.ph_center) * inv_sqrt)[incl_s])

    return AdjustmentReport(
        n=n, neighbor_mode=neighbor_mode, phases=ctx.phases,
        alpha_c=ctx.alpha_c, alpha_s=ctx.alpha_s,
        zc_minus=zc_m, zc_plus=zc_p, zs_minus=zs_m, zs_plus=zs_p,
        z_reference=z_ref, zprime_reference=zp_ref,
        residual_z=abs(z_ref - 0.5 * (zc_m + zc_p)),
        residual_zprime=abs(zp_ref - 0.5 * (zs_m - zs_p)),
        excluded_c=tuple(int(i) + 1 for i in np.flatnonzero(~incl_c)),
        excluded_s=tuple(int(i) + 1 for i in np.flatnonzero(~incl_s)))


@dataclass
class AlphaAverage:
    value: float
    principal_value: bool


def _alpha_c_fn(ctx: AdjustmentContext):
    return lambda k: 2.0 / math.cos(ctx.delta * math.log(k))


def _alpha_s_fn(ctx: AdjustmentContext):
    return lambda k: (ctx.lnfac - 2.0 * math.log(k)) / math.sin(ctx.delta * math.log(k))


def alpha_average(model: CoefficientModel, n: int, a: float, b: float,
                  which: str) -> AlphaAverage:
    """Mean of alpha over [a, b] by adaptive quadrature.

    A straddled alpha_c pole at k* = (g/2pi)^(1/4) is handled as a Cauchy
    principal value (flagged in the result): symmetric windows of half-width
    d around k* contribute -2d/delta + O(d^3) analytically, the rest is
    ordinary quadrature. For alpha_s the non-integrable k = 1 endpoint is
    clipped to k = 1.5, half a cell away from the excluded discrete term.
    """
    return _alpha_mean(_context(model, n), a, b, which)


def _alpha_mean(ctx: AdjustmentContext, a: float, b: float, which: str) -> AlphaAverage:
    if not (1.0 <= a < b <= ctx.n_cut + 1e-9):
        raise IndexRangeError(f"need 1 <= a < b <= {ctx.n_cut}")
    if which == "c":
        f = _alpha_c_fn(ctx)
        pole = math.exp(0.5 * math.pi / ctx.delta)  # phi = pi/2, k* = (g/2pi)^(1/4)
        if a < pole < b:
            d = min(0.5, 0.45 * (pole - a), 0.45 * (b - pole))
            if d < 1e-9:
                raise IndexRangeError("interval degenerate around the alpha_c pole")
            core = -2.0 * d / ctx.delta
            val = (adaptive_simpson(f, a, pole - d) + core
                   + adaptive_simpson(f, pole + d, b)) / (b - a)
            return AlphaAverage(value=val, principal_value=True)
        if abs(a - pole) < 1e-9 or abs(b - pole) < 1e-9:
            raise IndexRangeError("interval endpoint sits on the alpha_c pole")
        return AlphaAverage(value=adaptive_simpson(f, a, b) / (b - a), principal_value=False)
    if which == "s":
        f = _alpha_s_fn(ctx)
        lo = max(a, 1.5)
        if b <= lo:
            raise IndexRangeError("interval lies inside the alpha_s pole exclusion")
        return AlphaAverage(value=adaptive_simpson(f, lo, b) / (b - lo), principal_value=a < 1.5)
    raise ValueError(f"which must be 'c' or 's', got {which!r}")


@dataclass
class PartitionApprox:
    approx: float
    exact: float
    rel_err: float
    segment_means: list[float]


def partition_approx(model: CoefficientModel, n: int, partition,
                     which: str, side: str) -> PartitionApprox:
    """Piecewise-constant alpha approximation of an adjustment sum.

    Each segment contributes alpha_avg(segment) times the unit-alpha
    neighbour sum (-1)^n sum c_k cos(ln k g_(n+-1))/sqrt(k) over its discrete
    indices; the comparison target is the exact adjustment over the same
    included index set. Refining the partition should shrink rel_err.
    """
    pts = [int(p) for p in partition]
    ctx = _context(model, n)
    if pts[0] != 1 or pts[-1] != ctx.n_cut or any(x >= y for x, y in zip(pts, pts[1:])):
        raise IndexRangeError(
            f"partition must rise strictly from 1 to {ctx.n_cut}, got {pts[:5]}...")
    if side not in ("+", "-"):
        raise ValueError(f"side must be '+' or '-', got {side!r}")
    ph_nb = ctx.ph_plus if side == "+" else ctx.ph_minus
    sign = -1.0 if n % 2 else 1.0
    base_terms = sign * ctx.c * np.cos(ph_nb) / ctx.sqrt_k

    if which == "c":
        incl, alpha = ctx.incl_c, ctx.alpha_c
    elif which == "s":
        incl, alpha = ctx.incl_s, ctx.alpha_s
    else:
        raise ValueError(f"which must be 'c' or 's', got {which!r}")

    exact = csum((alpha * base_terms)[incl])
    approx = 0.0
    means = []
    for lo, hi in zip(pts, pts[1:]):
        hi_incl = hi if hi == ctx.n_cut else hi - 1  # discrete tiles [lo, hi-1], last [lo, N]
        seg_mask = np.zeros(ctx.n_cut, dtype=bool)
        seg_mask[lo - 1:hi_incl] = True
        seg_mask &= incl
        if not seg_mask.any():  # every term excluded (e.g. the bare k=1 cell)
            means.append(0.0)
            continue
        # integrate over the half-cell-aligned window [lo-1/2, hi_incl+1/2] so a
        # one-integer segment reproduces its own alpha by the midpoint rule
        w_lo = max(1.0, lo - 0.5)
        w_hi = min(ctx.n_cut + 0.0, hi_incl + 0.5)
        avg = _alpha_mean(ctx, w_lo, w_hi, which).value
        means.append(avg)
        approx += avg * csum(base_terms[seg_mask])
    scale = max(abs(exact), 1e-300)
    return PartitionApprox(approx=approx, exact=exact,
                           rel_err=abs(approx - exact) / scale, segment_means=means)


@dataclass
class StageReport:
    """Three-stage decomposition of the classical partial sums at g_n."""
    n: int
    surge_end: int                 # ceil((g/2pi)^(1/4))
    middle: tuple[int, int]        # [floor(q/2), floor(2q)]
    z_partials: np.ndarray
    zprime_partials: np.ndarray
    surge_magnitude: float         # |Z' partial at surge end|
    post_surge_net_change: float   # |Z'(N) - Z'(surge end)|
    initial_max_abs_zprime: float  # max |Z' partial| over the initial range
    final_net_change: float        # |Z'(N) - Z'(0.9 N)|
    middle_rms_dev: float          # Lemma decomposition vs doubled-cosine form


def stage_analysis(model: CoefficientModel, n: int) -> StageReport:
    """Initial surge / middle fluctuation / final stability of the partial sums.

    The middle-window check compares the per-term split
    P_k = (-1)^n (alpha_s/sqrt k)(cos(ln k g-) - cos(ln k g- + 2 phi_k))
    against Q_k = 2 (-1)^n (alpha_s/sqrt k) cos(ln k g-) (the 2 phi ~ pi
    approximation) and reports the RMS deviation relative to Q over the
    window without k = 1, where alpha_s has its pole.
    """
    ctx = _context(model, n)
    g = ctx.g
    z_part, zp_part = classical_partial_sums(model, g)
    q4 = (g / (2.0 * math.pi)) ** 0.25
    surge_end = min(ctx.n_cut, math.ceil(q4))
    mid_lo = max(1, math.floor(0.5 * q4))
    mid_hi = min(ctx.n_cut, math.floor(2.0 * q4))

    zp_total = zp_part[-1]
    i9 = max(1, math.floor(0.9 * ctx.n_cut))
    sign = -1.0 if n % 2 else 1.0
    # the RMS skips the alpha_s pole at k = 1, which the window holds for
    # g < 2 pi 256; a window left empty (g_0, g_1) deviates by nothing
    idx = slice(max(2, mid_lo) - 1, mid_hi)
    alpha_s, sqrt_k = ctx.alpha_s[idx], ctx.sqrt_k[idx]
    phi = ctx.phases[idx]
    base = np.cos(ctx.ph_minus[idx])
    p_term = sign * alpha_s / sqrt_k * (base - np.cos(ctx.ph_minus[idx] + 2.0 * phi))
    q_term = 2.0 * sign * alpha_s / sqrt_k * base
    rms_dev = 0.0
    if sqrt_k.size:
        q_rms = math.sqrt(float(np.mean(q_term ** 2)))
        rms_dev = math.sqrt(float(np.mean((p_term - q_term) ** 2))) / max(q_rms, 1e-300)

    return StageReport(
        n=n, surge_end=surge_end, middle=(mid_lo, mid_hi),
        z_partials=z_part, zprime_partials=zp_part,
        surge_magnitude=abs(zp_part[surge_end - 1]),
        post_surge_net_change=abs(zp_total - zp_part[surge_end - 1]),
        initial_max_abs_zprime=float(np.max(np.abs(zp_part[:surge_end]))),
        final_net_change=abs(zp_total - zp_part[i9 - 1]),
        middle_rms_dev=rms_dev)


@dataclass
class GramVectors:
    """Raw/sorted/baseline/essential Gram vectors plus the trial statistics."""
    n: int
    raw: np.ndarray
    sorted_v: np.ndarray
    baseline: np.ndarray
    essential: np.ndarray
    trials: int
    seed: int
    trial_sums: np.ndarray

    def sum_raw(self) -> float:
        return csum(self.raw)

    def sum_sorted(self) -> float:
        return csum(self.sorted_v)

    def sum_baseline(self) -> float:
        return csum(self.baseline)

    def sum_essential(self) -> float:
        return csum(self.essential)

    def baseline_standard_error(self) -> float:
        sd = float(np.std(self.trial_sums, ddof=1))
        return sd / math.sqrt(self.trials)


def gram_vectors(model: CoefficientModel, n: int, trials: int = 1000,
                 seed: int = 42) -> GramVectors:
    """v_n = c_k cos(ln k g_n)/sqrt(k) with its Monte-Carlo sorted baseline.

    The baseline is the per-rank mean over `trials` draws of sorted vectors
    cos(theta_k)/sqrt(k), theta_k uniform on [0, 2pi) from the splitmix64
    counter stream (seed, trial); identical seed and trials give bit-identical
    output, regardless of platform.
    """
    if trials < 100:
        raise ValueError(f"trials must be >= 100, got {trials}")
    g = gram_point(model, n)
    n_cut = model.classical_cutoff(g)
    ln_k, c, sqrt_k = term_arrays(model, n_cut)
    inv_sqrt = 1.0 / sqrt_k
    raw = c * np.cos(ln_k * g) * inv_sqrt
    sorted_v = np.sort(raw)

    acc = np.zeros(n_cut)
    trial_sums = np.empty(trials)
    rows = max(1, WORK_ELEMENTS // n_cut)  # trials drawn at once
    for first in range(0, trials, rows):
        last = min(first + rows, trials)
        phases = uniform01(seed, np.arange(first, last), n_cut) * (2.0 * math.pi)
        draws = np.sort(c * np.cos(phases) * inv_sqrt, axis=1)
        for draw in draws:
            acc += draw  # row by row, in trial order: the sum is reproducible
        trial_sums[first:last] = csum(draws)
    baseline = acc / trials
    essential = sorted_v - baseline
    return GramVectors(n=n, raw=raw, sorted_v=sorted_v, baseline=baseline,
                       essential=essential, trials=trials, seed=seed,
                       trial_sums=trial_sums)
