from __future__ import annotations

import math

import numpy as np
import pytest

from gramdelta.errors import DomainError
from gramdelta.special import (ThetaKind, gram_gap, lambert_w0, theta,
                               theta_deriv, theta_main_deriv)

from oracles import bisect, central_difference

RS = ThetaKind.RIEMANN_SIEGEL
DH = ThetaKind.DAVENPORT_HEILBRONN


def test_lambert_w0_fixed_points():
    assert lambert_w0(0.0) == 0.0
    assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-14)


def test_lambert_w0_at_one_vs_bisection_oracle():
    ref = bisect(lambda w: w * math.exp(w) - 1.0, 0.0, 1.0, tol=1e-13)
    assert ref == pytest.approx(0.567143290, abs=1e-9)
    assert lambert_w0(1.0) == pytest.approx(ref, abs=1e-12)


def test_lambert_w0_residual_property():
    xs = list(np.geomspace(1e-6, 1e6, 60)) + [-1.0 / math.e, -0.367879, -0.3,
                                              -0.1, 0.0, 0.5]
    rng = np.random.default_rng(11)
    xs += list(rng.uniform(-1.0 / math.e, 5.0, 40))
    for x in xs:
        w = lambert_w0(float(x))
        assert w >= -1.0
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))


def test_lambert_w0_domain_error():
    with pytest.raises(DomainError):
        lambert_w0(-1.0 / math.e - 1e-6)


def test_theta_zero_location_by_bisection():
    # the rotation phase vanishes once on [10, 20]
    root = bisect(lambda t: theta(RS, t), 10.0, 20.0, tol=1e-10)
    assert root == pytest.approx(17.8455995, abs=1e-6)
    assert abs(theta(RS, 17.8456)) < 1e-5


def test_theta_domain_floor():
    for kind in (RS, DH):
        with pytest.raises(DomainError):
            theta(kind, 9.99)
        with pytest.raises(DomainError):
            theta_deriv(kind, 5.0, 1)
        # t = inf gave NaN or inf with no error
        for phase in (theta, theta_deriv, theta_main_deriv):
            with pytest.raises(DomainError, match="finite"):
                phase(kind, math.inf)


def test_theta_refuses_a_height_where_its_value_overflows():
    # t ** 3 (theta), t ** 4 (theta') and t ** 5 (theta'') raised
    # OverflowError, and the DH theta was inf at 1e308 with no error
    for kind, t, phase in ((RS, 1e305, theta), (RS, complex(1e305, 1.0), theta),
                           (RS, 1e80, lambda k, t: theta_deriv(k, t, 1)),
                           (RS, 1e70, lambda k, t: theta_deriv(k, t, 2)),
                           (DH, 1e308, theta)):
        with pytest.raises(DomainError, match="overflows"):
            phase(kind, t)
    # below those heights a value is the formula's own, bit for bit
    t = 1e60
    assert theta_deriv(RS, t, 2) == 0.5 / t + 1.0 / (24.0 * t ** 3) + 7.0 / (480.0 * t ** 5)
    assert math.isfinite(theta(DH, 1e305))


def test_theta_deriv_matches_central_differences():
    for kind in (RS, DH):
        for t in [10.5, 25.0, 100.0, 1e4, 1e7]:
            h = 1e-4 * math.sqrt(t)
            fd = central_difference(lambda x: theta(kind, x), t, h)
            assert abs(theta_deriv(kind, t, 1) - fd) <= 1e-6
    fd2 = central_difference(lambda x: theta(RS, x), 100.0, 1e-2, order=2)
    assert theta_deriv(RS, 100.0, 2) == pytest.approx(fd2, rel=1e-6)


def test_dh_theta_against_gamma_reference():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for t in [10.0, 44.0, 85.56, 1200.0]:
        ref = float(mp.im(mp.loggamma(mp.mpf(3) / 4 + 1j * mp.mpf(t) / 2))
                    - t / 2 * mp.log(mp.pi / 5))
        assert theta(DH, t) == pytest.approx(ref, abs=1e-10)


def test_theta_main_term_accessor():
    t = 2.0 * math.pi * math.e
    assert theta_main_deriv(RS, t) == pytest.approx(0.5, abs=1e-15)
    assert theta_main_deriv(DH, 85.0) == pytest.approx(0.5 * math.log(425.0 / (2 * math.pi)))
    assert gram_gap(RS, t) == pytest.approx(math.pi / 0.5)


def test_theta_monotone_increasing():
    grid = np.geomspace(18.0, 1e7, 200)
    vals = [theta(RS, float(t)) for t in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_theta_accepts_complex_and_conjugates():
    for kind in (RS, DH):
        v = theta(kind, 120.0 + 0.1j)
        vc = theta(kind, 120.0 - 0.1j)
        assert abs(v.conjugate() - vc) < 1e-12
