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
from gramdelta.zmodel import (_CHEB_X, _RS_REMAINDER, WindowProxy, _parity_series,
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
        for a in (0.0, 0.7, vec):
            fused = section_eval(model, t, a, orders=(0, 1, 2), deriv_mode=mode)
            for j in range(3):
                single = section_eval(model, t, a, orders=(j,), deriv_mode=mode)[j]
                assert np.array_equal(fused[j], single)


def test_scalar_point_refuses_weight_stack(riemann):
    # a (B, N) stack of parameter points is for the point path only
    t = 500.5
    n = riemann.robust_cutoff(t)
    for a in (np.ones((2, n)), np.ones((1, n)), np.ones((2, n + 1))):
        with pytest.raises(DimensionError):
            section_eval(riemann, t, a, orders=(0, 1))
    section_eval(riemann, np.array([t]), np.ones((2, n)), n_terms=n)


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


def _point_bound(t: float, order: int) -> float:
    """Rounding floor of the phases theta(t) - t ln m, about eps t ln t,
    times the factor (theta'(t) - ln m)^order of each term, at most about
    (ln(t)/2)^order: 4 eps t ln(t) (ln(t)/2)^order. Both paths round t ln m
    in floats (the scalar path per point, the point path once at the centre);
    test_section_points_against_exact_phases holds the scalar path itself to
    this bound."""
    return 4.0 * np.finfo(float).eps * t * math.log(t) * (0.5 * math.log(t)) ** order


def _window_nodes(model, n):
    g0 = gram_point(model, n)
    proxy = WindowProxy(model, model.robust_cutoff(g0), None, g0)
    return g0, proxy.n_terms, g0 + proxy.half_width * _CHEB_X


def _assert_points_match_scalar(model, t, a, dim, mode, check):
    """section_eval at the points t against one scalar call per point (and
    per row of a (B, N) stack), for the order sets (0,), (1, 2) and (0, 1, 2);
    check selects the points compared."""
    rows = a if np.ndim(a) == 2 else [a]
    single = []
    for i in check:
        vals = [section_eval(model, float(t[i]), row, orders=(0, 1, 2), deriv_mode=mode,
                             n_terms=dim) for row in rows]
        single.append({j: np.array([v[j] for v in vals]).reshape(np.shape(a)[:-1])
                       for j in range(3)})
    for orders in [(0,), (1, 2), (0, 1, 2)]:
        batch = section_eval(model, t, a, orders=orders, deriv_mode=mode, n_terms=dim)
        assert sorted(batch) == list(orders)
        for j in orders:
            assert batch[j].shape == (len(t),) + np.shape(a)[:-1]
            for i, ref in zip(check, single):
                assert np.all(np.abs(batch[j][i] - ref[j])
                              <= _point_bound(float(t[i]), j)), (orders, j, i)


@pytest.mark.parametrize("name,n", [("riemann", 0), ("riemann", 6708),
                                    ("riemann", 730119), ("dh", 44)])
@pytest.mark.parametrize("mode", ["main", "full"])
def test_section_points_match_scalar_calls(riemann, davenport, name, n, mode):
    # one call at the 25 window nodes against a scalar call per node, for
    # scalar, vector and (B, N) weights; at n = 730119 (N = 225,307) five
    # nodes are compared, to keep the scalar side short
    model = riemann if name == "riemann" else davenport
    _, dim, t = _window_nodes(model, n)
    vec = np.linspace(-0.5, 1.5, dim)
    check = [0, 3, 12, 20, 24] if n == 730119 else range(len(t))
    for a in (1.0, vec, np.stack([vec, 1.0 - vec])):
        _assert_points_match_scalar(model, t, a, dim, mode, check)


def test_section_points_unpaired_offsets(riemann, davenport):
    # offsets without a mirror partner, a repeated point, a lone point and
    # a set whose middle is not one of its points
    rng = np.random.default_rng(5)
    for model, n in [(riemann, 6708), (davenport, 44)]:
        g0, dim, _ = _window_nodes(model, n)
        t = g0 + np.sort(rng.uniform(-0.4, 0.4, 9))
        t = np.concatenate([t, t[2:3], [g0 - 0.4, g0 + 0.1]])
        vec = np.linspace(1.5, -0.5, dim)
        for pts in (t, t[:1]):
            for a in (1.0, vec, np.stack([vec, np.ones(dim)])):
                for mode in ("main", "full"):
                    _assert_points_match_scalar(model, pts, a, dim, mode,
                                                range(len(pts)))


def test_section_points_far_apart_mix_trig_rows_and_moments(riemann, monkeypatch):
    # points up to 50 apart at n = 730119 (N = 225,307): a chunk takes the
    # Taylor moments only where 50 times half its ln m span is at most 1,
    # past m ~ 1e5; every chunk below keeps the trig rows
    import gramdelta.zmodel as zmodel
    taylor, chosen = zmodel._taylor_terms, []
    monkeypatch.setattr(zmodel, "_taylor_terms",
                        lambda x: chosen.append(taylor(x)) or chosen[-1])
    g0 = gram_point(riemann, 730119)
    dim = riemann.robust_cutoff(g0)
    t = g0 + np.array([-50.0, -25.0, 0.0, 50.0])
    vec = np.linspace(-0.5, 1.5, dim)
    for a in (1.0, vec, np.stack([vec, 1.0 - vec])):
        for mode in ("main", "full"):
            _assert_points_match_scalar(riemann, t, a, dim, mode, range(len(t)))
    assert 0 in chosen and any(chosen)


def test_moment_chunks_match_trig_rows(riemann, monkeypatch):
    # the window call at n = 730119 against the same call with every chunk
    # on trig rows; seen up to 9e-16 of each order's largest value
    import gramdelta.zmodel as zmodel
    _, dim, t = _window_nodes(riemann, 730119)
    vec = np.linspace(-0.5, 1.5, dim)
    for a in (1.0, np.stack([vec, 1.0 - vec])):
        for mode in ("main", "full"):
            moments = section_eval(riemann, t, a, orders=(0, 1, 2), deriv_mode=mode,
                                   n_terms=dim)
            with monkeypatch.context() as patch:
                patch.setattr(zmodel, "_taylor_terms", lambda x: 0)
                trig = section_eval(riemann, t, a, orders=(0, 1, 2), deriv_mode=mode,
                                    n_terms=dim)
            for j in range(3):
                scale = np.max(np.abs(trig[j]))
                assert np.max(np.abs(moments[j] - trig[j])) <= 1e-14 * scale, (mode, j)


def test_taylor_terms_meet_the_remainder_bound():
    from gramdelta.zmodel import _TAYLOR_TOL, _taylor_terms

    def bound(x, terms):
        return x ** terms / math.factorial(terms)

    for x in (1e-9, 0.01, 0.193, 0.5, 1.0):
        terms = _taylor_terms(x)
        assert bound(x, terms) < _TAYLOR_TOL <= bound(x, terms - 1), x
    assert _taylor_terms(0.0) == 1
    assert _taylor_terms(0.193) == 12  # the second chunk of a g_730119 window
    for x in (1.0 + 1e-12, 2.3, 50.0, math.inf, math.nan):
        assert _taylor_terms(x) == 0  # trig rows


def test_section_points_validation(riemann):
    t = np.array([100.0, 100.5])
    with pytest.raises(ValueError):
        section_eval(riemann, t, 1.0)  # n_terms must be pinned
    with pytest.raises(DimensionError):
        section_eval(riemann, t.reshape(1, 2), 1.0, n_terms=50)
    with pytest.raises(DimensionError):
        section_eval(riemann, t, np.ones(49), n_terms=50)
    with pytest.raises(DomainError):
        section_eval(riemann, np.array([9.0, 11.0]), 1.0, n_terms=5)


def test_chebyshev_nodes_are_mirrored_exactly(riemann, davenport):
    assert _CHEB_X[12] == 0.0
    assert all(_CHEB_X[24 - j] == -_CHEB_X[j] for j in range(25))
    exact = np.cos(np.pi * (np.arange(25) + 0.5) / 25)
    assert np.max(np.abs(_CHEB_X - exact)) <= 4e-16
    # the window nodes c +- h x_j keep the pairing: 13 distinct |t - c|,
    # so a chunk on trig rows makes 13 cos/sin passes, not 25. A window across a
    # power of two (g_0's spans 16) rounds its two halves on different grids
    # and loses some pairs; test_section_points_match_scalar_calls covers it
    for model, n in [(riemann, 6708), (riemann, 730119), (davenport, 44)]:
        g0, _, t = _window_nodes(model, n)
        assert t[12] == g0
        assert len(np.unique(np.abs(t - g0))) == 13


def test_window_proxy_tabulates_in_one_call(riemann, monkeypatch):
    import gramdelta.zmodel as zmodel
    calls = []
    direct = zmodel.section_eval

    def counting(*args, **kwargs):
        calls.append(np.shape(args[1]))
        return direct(*args, **kwargs)

    monkeypatch.setattr(zmodel, "section_eval", counting)
    g0 = gram_point(riemann, 6708)
    proxy = WindowProxy(riemann, riemann.robust_cutoff(g0), None, g0)
    proxy.sums(g0)
    proxy.sums(g0 + 0.5 * proxy.half_width)
    assert calls == [(25,)]
    proxy.sums(g0 + 3.0 * proxy.half_width)  # outside: one more window
    assert calls == [(25,), (25,)]


def _exact_section(mp, t: float, dim: int) -> list[float]:
    """Z_N(t; 1) and its main-mode t-derivatives with every phase
    theta(t) - t ln m exact to 2^-120 of a turn: t ln p / 2 pi for each prime
    p by mpmath at 40 digits, composed over the factorisation of m in integer
    arithmetic. Only cos, sin and the compensated sums run in floats."""
    size = dim + 1
    spf = np.arange(size + 1)  # smallest prime factor
    for p in range(2, math.isqrt(size) + 1):
        if spf[p] == p:
            spf[p * p::p] = np.minimum(spf[p * p::p], p)
    bits = 120
    mask = (1 << bits) - 1
    with mp.workdps(40):
        x = mp.mpf(t)

        def turn(v):
            return int(mp.floor(mp.frac(v / (2 * mp.pi)) * 2 ** bits))

        th = turn(x / 2 * mp.log(x / (2 * mp.pi)) - x / 2 - mp.pi / 8
                  + 1 / (48 * x) + 7 / (5760 * x ** 3))
        tp = float(mp.log(x / (2 * mp.pi)) / 2)
        turns = [0, 0]
        for m in range(2, size + 1):
            p = int(spf[m])
            turns.append(turn(x * mp.log(p)) if p == m
                         else (turns[p] + turns[m // p]) & mask)
    frac = np.array([((th - v) & mask) >> (bits - 53) for v in turns[1:]],
                    dtype=float) * 2.0 ** -53
    phase = 2.0 * math.pi * frac
    m = np.arange(1, size + 1, dtype=float)
    q, f = 1.0 / np.sqrt(m), tp - np.log(m)
    cos_p, sin_p = np.cos(phase), np.sin(phase)
    return [math.fsum(q * cos_p), math.fsum(-q * sin_p * f),
            math.fsum(-q * cos_p * f * f)]


def test_section_points_against_exact_phases(riemann):
    # at one node of the g_730119 window (N = 225,307): the scalar path and
    # the point path both sit within _point_bound of the exact sums; seen at
    # nodes 0, 3, 12, 20 for orders 0 / 1 / 2: scalar up to 1.4e-9 / 4.4e-9 /
    # 2.2e-8, point path up to 3.1e-10 / 1.7e-9 / 7.5e-9, bounds 5.2e-9 /
    # 3.4e-8 / 2.2e-7
    mp = pytest.importorskip("mpmath")
    _, dim, t = _window_nodes(riemann, 730119)
    node = 3
    exact = _exact_section(mp, float(t[node]), dim)
    scalar = section_eval(riemann, float(t[node]), 1.0, orders=(0, 1, 2), n_terms=dim)
    points = section_eval(riemann, t, 1.0, orders=(0, 1, 2), n_terms=dim)
    for j in range(3):
        bound = _point_bound(float(t[node]), j)
        assert abs(scalar[j] - exact[j]) <= bound, j
        assert abs(points[j][node] - exact[j]) <= bound, j
