from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from gramdelta import (GramKind, classical_afe, classify, core_zero,
                       find_zero_newton, gram_point, hardy_z, localized_sum,
                       z_section, z_section_deriv)
from gramdelta.errors import DimensionError, DomainError, IndexRangeError
from gramdelta.special import ThetaKind, theta
from gramdelta.zmodel import (_RS_REMAINDER, WindowProxy, _parity_series,
                              classical_partial_sums, hardy_z_error, section_eval)

from oracles import bisect, central_difference, zeta_euler_maclaurin


def test_core_is_cosine_of_theta(riemann):
    for t in [25.0, 100.0, 282.45]:
        assert z_section(riemann, t, 0.0) == pytest.approx(
            math.cos(theta(ThetaKind.RIEMANN_SIEGEL, t)), abs=1e-14)


def test_core_alternates_at_gram_points(riemann):
    g = gram_point(riemann, 126)
    assert z_section(riemann, g, 0.0) == pytest.approx(1.0, abs=1e-9)
    g = gram_point(riemann, 127)
    assert z_section(riemann, g, 0.0) == pytest.approx(-1.0, abs=1e-9)


def test_robust_section_vanishes_near_first_zero(riemann):
    # independent Euler-Maclaurin zeta oracle locates the first zero
    def hardy_em(t):
        rot = cmath.exp(1j * theta(ThetaKind.RIEMANN_SIEGEL, t))
        val = rot * zeta_euler_maclaurin(complex(0.5, t))
        assert abs(val.imag) < 1e-6  # the rotation really makes it real
        return val.real

    t1 = bisect(hardy_em, 14.0, 14.3, tol=1e-9)
    assert t1 == pytest.approx(14.134725, abs=1e-5)
    # the 7-term section carries its dropped-term error ~1/sqrt(2t) ~ 0.19
    # here, so the zero is displaced by ~0.11: it must still change sign in
    # the dropped-term window around the true zero
    assert abs(z_section(riemann, t1, 1.0)) < 0.2
    lo, hi = z_section(riemann, t1 - 0.2, 1.0), z_section(riemann, t1 + 0.2, 1.0)
    assert lo * hi < 0


def test_dimension_validation(riemann):
    n = riemann.robust_cutoff(100.0)
    with pytest.raises(DimensionError):
        z_section(riemann, 100.0, np.zeros(n + 3))
    z_section(riemann, 100.0, np.zeros(n))  # exact dimension passes


def test_second_derivative_at_origin_closed_form(riemann):
    for n in [90, 126, 201]:
        g = gram_point(riemann, n)
        expect = (1.0 if n % 2 else -1.0) * 0.25 * math.log(g / (2 * math.pi)) ** 2
        assert z_section_deriv(riemann, g, 0.0, 2) == pytest.approx(expect, rel=1e-12)
        assert abs(z_section_deriv(riemann, g, 0.0, 1)) < 1e-10


def test_first_derivative_matches_central_differences(riemann, davenport):
    # stay away from even integers, where the robust cutoff itself steps
    for model, t in [(riemann, 100.37), (riemann, 282.5), (davenport, 85.3)]:
        fd = central_difference(lambda x: z_section(model, x, 1.0), t, 1e-5)
        an = z_section_deriv(model, t, 1.0, 1, mode="full")
        assert an == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_derivative_grid_consistency(riemann):
    # full-mode analytic derivative vs central differences across a grid
    rng = np.random.default_rng(3)
    for t in rng.uniform(30.0, 600.0, 25):
        n = riemann.robust_cutoff(float(t))
        fd = central_difference(lambda x: section_eval(
            riemann, x, 1.0, orders=(0,), n_terms=n)[0], float(t), 1e-5)
        an = section_eval(riemann, float(t), 1.0, orders=(1,),
                          deriv_mode="full", n_terms=n)[1]
        assert an == pytest.approx(fd, rel=1e-6, abs=1e-7)


def test_classical_afe_leading_term(riemann):
    g = gram_point(riemann, 500)
    assert localized_sum(riemann, g, 1, 1, "z") == pytest.approx(2.0, abs=1e-12)


def test_localized_sum_is_bit_identical_with_classical(riemann):
    g = gram_point(riemann, 730119)
    n_cut = riemann.classical_cutoff(g)
    vals = classical_afe(riemann, g)
    assert localized_sum(riemann, g, 1, n_cut, "z") == vals.z
    assert localized_sum(riemann, g, 1, n_cut, "zprime") == vals.zprime


def test_localized_single_term(riemann):
    g = gram_point(riemann, 300)
    k = 5
    expect = 2.0 * math.cos(math.log(k) * g) / math.sqrt(k)
    assert localized_sum(riemann, g, k, k, "z") == pytest.approx(expect, rel=1e-12)


def test_localized_sum_range_validation(riemann):
    g = gram_point(riemann, 300)
    with pytest.raises(IndexRangeError):
        localized_sum(riemann, g, 0, 3, "z")
    with pytest.raises(IndexRangeError):
        localized_sum(riemann, g, 5, 4, "z")
    with pytest.raises(IndexRangeError):
        localized_sum(riemann, g, 1, 10 ** 6, "z")


def test_classical_values_track_truth_within_error_term(riemann):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 20
    for n in [126, 6708, 730119]:
        g = gram_point(riemann, n)
        vals = classical_afe(riemann, g)
        true_z = float(mp.siegelz(g))
        true_zp = float(mp.siegelz(g, derivative=1))
        envelope = 3.0 * g ** -0.25
        assert abs(vals.z - true_z) <= envelope
        assert abs(vals.zprime - true_zp) <= envelope * math.log(g)


def test_initial_surge_at_730119(riemann):
    g = gram_point(riemann, 730119)
    partials = classical_partial_sums(riemann, g, "zprime")
    surge_end = math.ceil((g / (2 * math.pi)) ** 0.25)
    surge = abs(partials[surge_end - 1])
    remaining = abs(partials[-1] - partials[surge_end - 1])
    assert surge > 3.0 * remaining


def test_cutoff_sign_consistency(riemann):
    # the two AFE flavours agree on the sign at every Gram point in [100, 200]
    # whose classical value clears the dropped O(g^-1/4) error term; below it
    # the classical sign is genuinely unreliable (n = 105, 113, 126, 195 all
    # flip there, and in each case the robust sign is the true one)
    checked = 0
    for n in range(100, 201):
        g = gram_point(riemann, n)
        z_cl = classical_afe(riemann, g).z
        if abs(z_cl) <= 3.0 * g ** -0.25:
            continue
        checked += 1
        assert z_cl * z_section(riemann, g, 1.0) > 0
    assert checked > 70


def test_self_conjugacy(riemann, davenport):
    rng = np.random.default_rng(20)
    for model in (riemann, davenport):
        for t0 in rng.uniform(30.0, 250.0, 10):
            tc = complex(t0, 0.1)
            n = model.robust_cutoff(t0)
            up = section_eval(model, tc, 1.0, n_terms=n)[0]
            down = section_eval(model, tc.conjugate(), 1.0, n_terms=n)[0]
            assert abs(up.conjugate() - down) <= 1e-12


def test_newton_lehmer_pair(riemann):
    res = find_zero_newton(riemann, core_zero(riemann, 6708))
    assert res.converged
    # the first zero of the Lehmer pair, t_6708 = 7005.0629
    assert res.t == pytest.approx(7005.0629, abs=0.015)
    res9 = find_zero_newton(riemann, core_zero(riemann, 6709))
    assert res9.t == pytest.approx(7005.10, abs=0.01)
    assert res.t < res9.t


def test_newton_misconverges_to_adjacent_zero(riemann):
    res = find_zero_newton(riemann, 450613.9648)
    # lands on the adjacent zero t_730121, far from the intended t_730120
    assert abs(res.t - 450613.8004) < 2e-3
    assert abs(res.t - 450613.7144) > 0.08


def test_newton_domain_error(riemann):
    with pytest.raises(DomainError):
        find_zero_newton(riemann, 5.0)


def test_classical_afe_rejects_non_gram_points(riemann):
    from gramdelta.errors import NotAGramPointError
    with pytest.raises(NotAGramPointError):
        classical_afe(riemann, 100.37)


# (interval, grid points, bound on |Z - siegelz|, bound on |Z' - siegelz'|)
# for hardy_z; the bounds hold with a factor 1.2 or more to spare on grids of
# 200 to 4000 points per interval (mpmath is too slow at large t for those)
_HARDY_Z_BOUNDS = [((10.0, 30.0), 41, 1.2e-4, 5e-5), ((30.0, 100.0), 41, 1e-5, 5e-6),
                   ((100.0, 1e3), 21, 1e-6, 1e-7), ((1e3, 1e4), 13, 1e-8, 1e-9)]


def test_hardy_z_against_mpmath(riemann):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for (lo, hi), points, z_bound, zp_bound in _HARDY_Z_BOUNDS:
            for t in np.linspace(lo, hi, points):
                vals = hardy_z(riemann, float(t))
                err = abs(vals[0] - float(mp.siegelz(t)))
                assert err <= min(z_bound, hardy_z_error(float(t))), t
                assert abs(vals[1] - float(mp.siegelz(t, derivative=1))) <= zp_bound, t
        t = 4.9e6
        err = abs(hardy_z(riemann, t, (0,))[0] - float(mp.siegelz(t)))
        assert err <= min(1e-8, hardy_z_error(t))


def test_hardy_z_viscosity_anchors(riemann):
    mp = pytest.importorskip("mpmath")
    for n in [6708, 730119, 9807962, 1921]:
        g = gram_point(riemann, n)
        with mp.workdps(30):
            true_z = mp.siegelz(g)
            true_zp = mp.siegelz(g, derivative=1)
            true_visc = float(abs(true_zp / true_z))
        assert hardy_z(riemann, g)[1] == pytest.approx(float(true_zp), rel=1e-4)
        assert classify(riemann, n).viscosity == pytest.approx(true_visc, rel=1e-4)


def test_classify_decisive_where_the_section_was_not(riemann):
    # the floor(t/2) section gave |Z| < 1e-4 at 18019 and 578694 (8.7e-5,
    # -7.0e-5); at 17027 the true |Z| is 4.8e-5, under that fixed cut
    mp = pytest.importorskip("mpmath")
    for n in [17027, 18019, 578694]:
        rec = classify(riemann, n)
        with mp.workdps(30):
            true_sign = (-1) ** n * mp.sign(mp.siegelz(rec.t))
        assert rec.kind is (GramKind.GOOD if true_sign > 0 else GramKind.BAD)


def _rs_coefficients_mpmath(mp, terms: int):
    """Taylor coefficients in x = p - 1/2 of C_0..C_3, by power-series division."""
    pi = mp.pi
    # C_0 = -cos(2 pi x^2 - 5 pi/8) / cos(2 pi x); cos(v) = Re e^(iv) termwise
    num = [mp.mpf(0)] * terms
    den = [mp.mpf(0)] * terms
    for i in range(terms):
        scale = (2 * pi) ** i / mp.factorial(i)
        den[i] = mp.re(mp.j ** i) * scale
        if 2 * i < terms:
            num[2 * i] = mp.re(mp.j ** i * mp.expj(-5 * pi / 8)) * scale
    c0 = []
    for k in range(terms):
        acc = -num[k] - sum(den[i] * c0[k - i] for i in range(1, k + 1))
        c0.append(acc / den[0])

    def d(m):
        out = c0
        for _ in range(m):
            out = [out[i] * i for i in range(1, len(out))] + [mp.mpf(0)]
        return out

    c1 = [-v / (96 * pi ** 2) for v in d(3)]
    c2 = [a / (64 * pi ** 2) + b / (18432 * pi ** 4) for a, b in zip(d(2), d(6))]
    c3 = [-a / (64 * pi ** 2) - b / (3840 * pi ** 4) - c / (5308416 * pi ** 6)
          for a, b, c in zip(d(1), d(5), d(9))]
    return [c0, c1, c2, c3]


def test_rs_remainder_coefficients_regenerate(riemann):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        series = _rs_coefficients_mpmath(mp, 60)
        for (odd, coeffs), full in zip(_RS_REMAINDER, series):
            expect = [float(full[odd + 2 * k]) for k in range(len(coeffs))]
            assert list(coeffs) == pytest.approx(expect, rel=1e-15, abs=1e-22)
            assert all(full[k] == 0 for k in range(1 - odd, 60, 2))  # parity
        # the C_0 series is the closed form, including across the removable
        # singularities at p = 1/4 and 3/4
        for p in [0.0, 0.03, 0.25 + 1e-9, 0.37, 0.5, 0.75 - 1e-9, 0.97]:
            p = mp.mpf(p)
            closed = mp.cos(2 * mp.pi * (p * p - p - mp.mpf(1) / 16)) / mp.cos(2 * mp.pi * p)
            odd, coeffs = _RS_REMAINDER[0]
            assert _parity_series(coeffs, odd, float(p) - 0.5)[0] == pytest.approx(
                float(closed), abs=1e-15)


def test_hardy_z_validation(riemann, davenport):
    with pytest.raises(ValueError):
        hardy_z(davenport, 100.0)
    with pytest.raises(ValueError):
        hardy_z(riemann, 100.0, (0, 2))
    with pytest.raises(DomainError):
        hardy_z(riemann, 9.0)


@pytest.mark.parametrize("mode", ["main", "full"])
def test_fused_orders_are_bit_identical(riemann, davenport, mode):
    # one cos and one sin pass serve all three orders; each order must equal
    # its own single-order call exactly, for every weight form
    for model, t in [(riemann, 7005.1), (riemann, 97.3), (davenport, 120.7)]:
        n = model.robust_cutoff(t)
        vec = np.linspace(-0.5, 1.5, n)
        for a in (0.0, 0.7, vec, np.stack([vec, 1.0 - vec])):
            fused = section_eval(model, t, a, orders=(0, 1, 2), deriv_mode=mode)
            for j in range(3):
                single = section_eval(model, t, a, orders=(j,), deriv_mode=mode)[j]
                assert np.array_equal(fused[j], single)


def test_stacked_weights_sum_each_row(riemann):
    t = 500.5
    n = riemann.robust_cutoff(t)
    rows = np.stack([np.ones(n), np.linspace(0.0, 1.0, n)])
    stacked = section_eval(riemann, t, rows, orders=(0, 1))
    for i in range(2):
        single = section_eval(riemann, t, rows[i], orders=(0, 1))
        assert stacked[0][i] == single[0] and stacked[1][i] == single[1]
    with pytest.raises(DimensionError):
        section_eval(riemann, t, np.ones((2, n + 1)))


@pytest.mark.parametrize("name,n", [("riemann", 0), ("riemann", 90), ("riemann", 20000),
                                    ("riemann", 730119), ("dh", 44)])
def test_window_proxy_against_direct_sums(riemann, davenport, name, n):
    # 41 points across the window, every order: within 2e-8 of the direct
    # block sum (1.7e-8 at g_0, where the window is widest)
    model = riemann if name == "riemann" else davenport
    g0 = gram_point(model, n)
    dim = model.robust_cutoff(g0)
    proxy = WindowProxy(model, dim, None, g0)
    for x in np.linspace(-1.0, 1.0, 41):
        t = g0 + proxy.half_width * x
        sums = proxy.sums(t)[:, 0]
        direct = section_eval(model, t, 1.0, orders=(0, 1, 2), n_terms=dim)
        head = proxy.head(t)
        for j in range(3):
            s_direct = direct[j] - head[j]
            assert abs(sums[j] - s_direct) <= 2e-8 * max(1.0, abs(s_direct))
    assert proxy.center == g0  # the grid never left the first window


def test_window_proxy_recentres_inside_the_theta_domain(riemann):
    # at g_0 the window is widest (half-width 6.02): a window centred on a point
    # just below it would put nodes under t = 10, so it spans [10, t + gap]
    g0 = gram_point(riemann, 0)
    dim = riemann.robust_cutoff(g0)
    proxy = WindowProxy(riemann, dim, None, g0)
    t = g0 - 1.01 * proxy.half_width
    sums = proxy.sums(t)[:, 0]
    assert proxy.center - proxy.half_width == pytest.approx(10.0, abs=1e-12)
    assert proxy.center + proxy.half_width == pytest.approx(t + proxy.gap, abs=1e-12)
    direct = section_eval(riemann, t, 1.0, orders=(0, 1, 2), n_terms=dim)
    head = proxy.head(t)
    for j in range(3):
        s_direct = direct[j] - head[j]
        assert abs(sums[j] - s_direct) <= 2e-8 * max(1.0, abs(s_direct))
    with pytest.raises(DomainError):
        proxy.sums(9.5)
