from __future__ import annotations

import math

import numpy as np
import pytest

from gramdelta import (KAPPA, GramKind, TraceStatus, classify, core_zero,
                       dh_model, dh_violation_experiment, gram_point,
                       riemann_contrast, section_eval)
from gramdelta.errors import DomainError
from gramdelta.special import ThetaKind, theta
from gramdelta.zmodel import point_values

from oracles import bisect, dh_z_mpmath


def test_kappa_against_high_precision_radicals():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    ref = float((mp.sqrt(10 - 2 * mp.sqrt(5)) - 2) / (mp.sqrt(5) - 1))
    assert KAPPA == pytest.approx(ref, abs=1e-15)
    assert KAPPA == pytest.approx(0.2840790, abs=1e-6)


def test_coefficients_follow_the_character(davenport):
    # chi mod 5 with chi(2) = i: values at 1..5 are 1, i, -i, -1, 0
    chi = {1: 1 + 0j, 2: 1j, 3: -1j, 4: -1 + 0j, 0: 0j}
    coeffs = davenport.coefficients(15)
    for m in range(1, 16):
        expect = chi[m % 5].real + KAPPA * chi[m % 5].imag
        assert coeffs[m - 1] == pytest.approx(expect, abs=1e-15)
    assert coeffs[4] == coeffs[9] == coeffs[14] == 0.0
    assert coeffs[1] == -coeffs[2]


def test_dh_gram_point_anchor():
    g = gram_point(dh_model(), 44)
    assert g == pytest.approx(85.56, abs=0.05)
    assert theta(ThetaKind.DAVENPORT_HEILBRONN, g) == pytest.approx(
        44 * math.pi, abs=1e-8)
    assert g < gram_point(dh_model(), 45)


def test_dh_gram_point_against_w_oracle():
    # seed formula 2 pi (n - 1/8) / W(5 e^-1 (n - 1/8)) with a bisection W
    c = 44 - 0.125
    x = 5.0 * c / math.e
    w = bisect(lambda u: u * math.exp(u) - x, 1.0, 5.0, tol=1e-12)
    assert w == pytest.approx(3.22, abs=0.01)
    seed = 2.0 * math.pi * c / w
    assert gram_point(dh_model(), 44) == pytest.approx(seed, abs=0.05)


def test_dh_core_zero_bracketed_by_gram_points():
    model = dh_model()
    assert gram_point(model, 43) < core_zero(model, 44) < gram_point(model, 44)


def test_dh_core_function_is_cosine(davenport):
    for t in [40.0, 85.0]:
        assert section_eval(davenport, t, 0.0)[0] == pytest.approx(
            math.cos(theta(ThetaKind.DAVENPORT_HEILBRONN, t)), abs=1e-14)


def test_dh_core_has_two_sign_changes_between_g43_and_g45(davenport):
    lo, hi = gram_point(dh_model(), 43), gram_point(dh_model(), 45)
    grid = np.linspace(lo + 1e-6, hi - 1e-6, 400)
    vals = [section_eval(davenport, float(t), 0.0)[0] for t in grid]
    changes = sum(1 for a, b in zip(vals, vals[1:]) if a * b < 0)
    assert changes == 2


def test_dh_low_index_gram_point_below_domain_floor():
    with pytest.raises(DomainError):
        gram_point(dh_model(), 1)  # seed ~7.3 sits below the t >= 10 floor


def test_dh_violation_experiment():
    rep = dh_violation_experiment(steps=100)
    assert rep.violation
    assert rep.trace.status is TraceStatus.COLLISION
    assert rep.delta_end < 0  # (-1)^44 Delta(1) < 0: genuine corrected-law violation
    assert rep.first_order_deviation_ratio < 0.15
    assert rep.max_displacement < rep.displacement_bound


def test_dh_violation_refines_its_gram_point_once(gram_point_calls):
    rep = dh_violation_experiment(steps=100)
    assert gram_point_calls == [44]
    assert rep.g == rep.trace.samples[0].g == gram_point(dh_model(), 44)


def test_riemann_contrast_is_clean():
    rep = riemann_contrast(0, 30, steps=50)
    assert rep.clean


def test_dh_oracle_is_real_on_the_critical_line(davenport):
    # the combination of L(s, chi) and L(s, conj chi) that the functional
    # equation keeps real, at Gram points next to the off-line zeros
    # 0.80852 + 85.69935i and 0.65083 + 114.16334i and above them
    pytest.importorskip("mpmath")
    for n in (44, 64, 90, 300):
        assert abs(dh_z_mpmath(gram_point(davenport, n)).imag) < 1e-10, n


@pytest.mark.parametrize("n", [2, 44, 64, 76, 77, 90, 1033, 1996])
def test_dh_gram_kinds_against_the_oracle(davenport, n):
    # the kind is the sign of (-1)^n Z(g_n) (44, 64, 76, 77, 90, 1033 and
    # 1996 came out wrong from the classical AFE and the bare section; at
    # n = 2 the head is the shortest, 64 terms), and point_values' allowance
    # bounds its error in Z
    pytest.importorskip("mpmath")
    g = gram_point(davenport, n)
    ref = dh_z_mpmath(g).real
    vals, allowance = point_values(davenport, g, (0,))
    assert abs(vals[0] - ref) <= allowance
    good = (-1) ** n * ref > 0
    assert classify(davenport, n).kind is (GramKind.GOOD if good else GramKind.BAD)


@pytest.mark.parametrize("n", [2, 44, 1996])
def test_dh_point_derivatives_against_the_oracle(davenport, n):
    # Z' and Z'' of the point values against central differences of the
    # oracle at step 1e-4, whose own error is O(h^2): seen within 1.2e-8 and
    # 2.7e-7 here
    pytest.importorskip("mpmath")
    g = gram_point(davenport, n)
    h = 1e-4
    lo, mid, hi = (dh_z_mpmath(x).real for x in (g - h, g, g + h))
    vals, _ = point_values(davenport, g, (0, 1, 2))
    assert abs(vals[1] - (hi - lo) / (2.0 * h)) <= 1e-7
    assert abs(vals[2] - (hi - 2.0 * mid + lo) / (h * h)) <= 2e-6
