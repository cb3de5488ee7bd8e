"""Gram points, core zeros, good/bad classification, blocks and viscosity scans.

Seeds come from the Lambert-W closed forms; refinement is Newton on the
monotone residual theta(t) - target, driven to machine accuracy (the spec
floor of 1e-9 relative falls out for free). Two target conventions:

    gram_point(n):  theta(t) = pi n
    core_zero(n):   theta(t) = pi (n - 1/2)

For the Riemann seeds the printed core-zero closed form lands one Gram gap
below the (n - 1/2) branch; the monotone Newton bridges that offset, which is
what makes core_zero(6708) = 7004.95 rather than 7004.05.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DomainError, IndeterminateSignError
from .numerics import newton_scalar
from .special import ThetaKind, lambert_w0
from .zmodel import CoefficientModel, _head_size, classical_afe, point_values

_INV_E = math.exp(-1.0)


class GramKind(Enum):
    GOOD = "good"
    BAD = "bad"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class GramRecord:
    n: int
    t: float
    z: float
    zprime: float
    kind: GramKind
    viscosity: float


@dataclass(frozen=True)
class GramBlock:
    """Run {g_start, ..., g_(start+length)} with good endpoints, bad interior."""
    start: int
    length: int

    @property
    def interior_bad(self) -> tuple[int, ...]:
        return tuple(range(self.start + 1, self.start + self.length))

    @property
    def is_isolated(self) -> bool:
        return self.length == 2


# The lowest Gram and core-zero index of each theta kind, with the name its
# domain errors give: the seeds' domains, and where a bad run walked
# leftwards stops. Every lower index lands below theta's floor of t = 10
# (DH g_1 = 7.27, DH core seeds 5.32 and 8.96) or has no Lambert-W seed
_LOWEST = {ThetaKind.RIEMANN_SIEGEL: ("Riemann", 0, 1),
           ThetaKind.DAVENPORT_HEILBRONN: ("DH", 2, 3)}
# past it a seed's numerator, about 8 pi n, overflows a float
_MAX_INDEX = sys.float_info.max / (8.0 * math.pi)
# The widest window RecordSource.range takes: a window holds its records
# whole, about 0.45 KB per index, so this one, [0, 10**6], peaks near 0.5 GB
_MAX_WIDTH = 1_000_001


def _check_index(n: int) -> None:
    if not abs(n) < _MAX_INDEX:  # an int compares with a float exactly
        raise DomainError(f"Gram index of {len(str(abs(n)))} digits is out of range: "
                          "its seed overflows a float")


def _seed_gram(kind: ThetaKind, n: int) -> float:
    name, lowest, _ = _LOWEST[kind]
    if n < lowest:
        raise DomainError(f"{name} Gram index must be >= {lowest}, got {n}")
    _check_index(n)
    if kind is ThetaKind.RIEMANN_SIEGEL:
        x = (8.0 * n + 1.0) / (8.0 * math.e)
        return (8.0 * n + 1.0) * math.pi / (4.0 * lambert_w0(x))
    c = n - 0.125
    return 2.0 * math.pi * c / lambert_w0(5.0 * c * _INV_E)


def _seed_core(kind: ThetaKind, n: int) -> float:
    name, _, lowest = _LOWEST[kind]
    if n < lowest:
        raise DomainError(f"{name} core-zero index must be >= {lowest}, got {n}")
    _check_index(n)
    if kind is ThetaKind.RIEMANN_SIEGEL:
        x = (8.0 * n - 11.0) / (8.0 * math.e)
        return (8.0 * n - 11.0) * math.pi / (4.0 * lambert_w0(x))
    c = n - 0.625
    return 2.0 * math.pi * c / lambert_w0(5.0 * c * _INV_E)


def _refine_theta(model: CoefficientModel, t0: float, target: float) -> float:
    def f_and_df(t: float) -> tuple[float, float]:
        return model.theta(t) - target, model.theta_deriv(t, 1)

    t, _, _ = newton_scalar(f_and_df, t0, rel_step_tol=1e-13, max_iter=16)
    return t


def gram_point(model: CoefficientModel, n: int) -> float:
    """The n-th Gram point: seed by the closed form, refine theta(t) = pi n."""
    seed = _seed_gram(model.theta_kind, n)
    return _refine_theta(model, seed, math.pi * n)


def gram_point_seed(model: CoefficientModel, n: int) -> float:
    """Unrefined Lambert-W seed (exposed for the seed-gap checks)."""
    return _seed_gram(model.theta_kind, n)


def core_zero(model: CoefficientModel, n: int) -> float:
    """The n-th zero of the cosine core, on the branch theta(t) = pi (n - 1/2)."""
    seed = _seed_core(model.theta_kind, n)
    return _refine_theta(model, seed, math.pi * (n - 0.5))


# Gram points evaluated in one batch (gram_values). section_eval takes a
# chunk's points in groups of at most numerics.WORK_ELEMENTS elements; the
# slice bounds classical_afe's (points, N) rows (64 x 309 at g_1e6) and the
# per-point arrays and lists of one batch. A window's records are kept
# until its one put.
_SLICE = 64


class GramValues(NamedTuple):
    """The values at the Gram point t = g_n: the point pair (Z, Z') of
    zmodel.point_values, which classify decides from, with the |Z| below
    which its sign is not trusted, and the classical AFE pair (z, zprime),
    which only fills the record's z columns."""
    t: float
    z: float
    zprime: float
    point_z: float
    point_zprime: float
    allowance: float


def gram_values(model: CoefficientModel, indices: list[int]) -> list[GramValues]:
    """GramValues at the Gram points of the indices, as one batch.

    The Gram points are found per index; the classical pairs come from one
    classical_afe call and the point pairs from one point_values call at all
    of them, so the points that share a term count share a trig pass. Each
    point's sums depend on that point alone, so its values are the same in
    any batch, the batch of one included."""
    g = np.array([gram_point(model, n) for n in indices])
    classical = classical_afe(model, g)
    point, allowance = point_values(model, g)
    return [GramValues(*row) for row in zip(
        g.tolist(), classical.z.tolist(), classical.zprime.tolist(),
        point[0].tolist(), point[1].tolist(), allowance.tolist())]


def classify(model: CoefficientModel, n: int,
             values: GramValues | None = None) -> GramRecord:
    """GramRecord for index n; good means (-1)^n Z(g_n) > 0.

    The sign is read from one look, the point pair (Z, Z') at g of
    zmodel.point_values (a section head plus the model's correction),
    trusted where |Z| reaches its allowance (hardy_z_error for the zeta
    model: below 1e-4 from t = 10, 1e-8 near t = 1e4; the first dropped
    Euler-Maclaurin term plus rounding for any other). Below that the
    record is flagged indeterminate rather than silently classified.

    Viscosity |Z'/Z| is taken from the same point pair, so it is the true
    logarithmic derivative; the record's z/zprime keep the classical pair that
    the adjustment identities are built on.

    values are n's GramValues from a gram_values batch; without them n is
    evaluated as a batch of one, which gives the same values.
    """
    if values is None:
        (values,) = gram_values(model, [n])
    sign = -1.0 if n % 2 else 1.0
    if abs(values.point_z) < values.allowance:
        kind = GramKind.INDETERMINATE
    else:
        kind = GramKind.GOOD if sign * values.point_z > 0 else GramKind.BAD
    viscosity = (math.inf if values.point_z == 0.0
                 else abs(values.point_zprime / values.point_z))
    return GramRecord(n=n, t=values.t, z=values.z, zprime=values.zprime,
                      kind=kind, viscosity=viscosity)


class RecordSource:
    """Classification, layered over a cache store when one is given."""

    def __init__(self, model: CoefficientModel, store=None):
        self.model = model
        self.store = store

    def get(self, n: int) -> GramRecord:
        return self.range(n, n)[0]

    def range(self, n_from: int, n_to: int) -> list[GramRecord]:
        """Records n_from..n_to. The ones not cached are evaluated in batches
        of up to _SLICE indices (gram_values), classified, and stored with
        one put once all of them are. A record is the same whichever batch
        it was evaluated in, so a window gives the same records scanned whole
        or in pieces, cold or over a warm cache. Scans run on the calling
        thread, so `gdl --threads` changes nothing. A reversed window is
        refused: it would hold no record. So is one whose end seeds a height
        that theta or the head's term count refuses, before a store shard is
        named after it, and then one wider than _MAX_WIDTH indices, before
        the store is read."""
        if n_from > n_to:
            raise ValueError(f"need n_from <= n_to, got [{n_from}, {n_to}]")
        for n in (n_from, n_to):
            height = _seed_gram(self.model.theta_kind, n)
            self.model.theta(height)
            _head_size(self.model, height)
        if n_to - n_from + 1 > _MAX_WIDTH:
            raise ValueError(f"window [{n_from}, {n_to}] holds {n_to - n_from + 1} indices, "
                             f"more than the {_MAX_WIDTH} a window may hold")
        indices = range(n_from, n_to + 1)
        records = [None if self.store is None else self.store.get(self.model.name, n)
                   for n in indices]
        missing = [n for n, rec in zip(indices, records) if rec is None]
        computed = []
        for lo in range(0, len(missing), _SLICE):
            part = missing[lo:lo + _SLICE]
            computed += [classify(self.model, n, values)
                         for n, values in zip(part, gram_values(self.model, part))]
        if computed and self.store is not None:
            self.store.put(self.model.name, *computed)
        fresh = iter(computed)
        return [next(fresh) if rec is None else rec for rec in records]


def _walk(model: CoefficientModel, n_from: int, n_to: int,
          source: RecordSource | None) -> tuple[list[GramRecord], list[GramBlock]]:
    """The records n_from..n_to, from one source.range call, and the Gram
    blocks of the maximal bad runs that meet the window. A run that crosses
    an edge is followed through source.get to its end, leftwards down to the
    model's lowest Gram index. An indeterminate record met is refused."""
    src = source or RecordSource(model)
    window = src.range(n_from, n_to)
    lowest = _LOWEST[model.theta_kind][1]

    def bad(n: int) -> bool:
        rec = window[n - n_from] if n_from <= n <= n_to else src.get(n)
        if rec.kind is GramKind.INDETERMINATE:
            raise IndeterminateSignError(f"Gram point n={rec.n} is indeterminate")
        return rec.kind is GramKind.BAD

    found: list[GramBlock] = []
    n = n_from
    while n <= n_to:
        if not bad(n):
            n += 1
            continue
        lo = hi = n
        while lo - 1 >= lowest and bad(lo - 1):
            lo -= 1
        while bad(hi + 1):
            hi += 1
        found.append(GramBlock(start=lo - 1, length=hi - lo + 2))
        n = hi + 1
    return window, found


def blocks(model: CoefficientModel, n_from: int, n_to: int,
           source: RecordSource | None = None) -> list[GramBlock]:
    """Maximal Gram blocks covering every bad index in [n_from, n_to].

    A block that starts or ends outside the requested window is completed by
    classifying beyond the edge, so the partition into blocks is exact. The
    window's rule is RecordSource.range's: a reversed one is refused.
    """
    return _walk(model, n_from, n_to, source)[1]


@dataclass
class GbgRow:
    """One index of a G-B-G scan; isolated and corrupt are false on good points."""
    n: int
    t: float
    viscosity: float
    kind: GramKind
    isolated: bool
    corrupt: bool


@dataclass
class GbgScanReport:
    """Every index in range, with the repulsion-conjecture verdict."""
    rows: list[GbgRow] = field(default_factory=list)

    @property
    def bad_points(self) -> list[GbgRow]:
        return [r for r in self.rows if r.kind is GramKind.BAD]

    @property
    def offenders(self) -> list[GbgRow]:
        return [r for r in self.rows if r.corrupt and r.isolated]

    @property
    def conjecture_holds(self) -> bool:
        return not self.offenders


def gbg_scan(model: CoefficientModel, n_from: int, n_to: int,
             bound: float = 4.0, source: RecordSource | None = None) -> GbgScanReport:
    """Scan for bad points; corrupt means viscosity < bound.

    The verdict asserts that no corrupt point is isolated: the interior of a
    Gram block of length 2, read from the blocks of the window (see blocks).
    A NaN bound, under which no point is corrupt, is refused.
    """
    if math.isnan(bound):
        raise ValueError("bound must be a number, got nan")
    window, found = _walk(model, n_from, n_to, source)
    isolated = {b.interior_bad[0] for b in found if b.is_isolated}
    return GbgScanReport([
        GbgRow(n=rec.n, t=rec.t, viscosity=rec.viscosity, kind=rec.kind,
               isolated=rec.n in isolated,
               corrupt=rec.kind is GramKind.BAD and rec.viscosity < bound)
        for rec in window])
