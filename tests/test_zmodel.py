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
                              _rs_remainder, classical_partial_sums, hardy_z_error,
                              point_values, section_eval)

from oracles import bisect, central_difference, section_fsum, zeta_euler_maclaurin


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


def test_point_values_of_the_zeta_model_are_hardy_z(riemann):
    for t in (14.1, 7005.06, 450613.8):
        vals, allowance = point_values(riemann, t)
        assert vals == hardy_z(riemann, t)
        assert allowance == hardy_z_error(t)


def test_dh_newton_ends_on_a_point_value_zero(davenport):
    res = find_zero_newton(davenport, core_zero(davenport, 44))
    assert res.converged
    assert abs(point_values(davenport, res.t, (0,))[0][0]) < 1e-10


def test_newton_domain_error(riemann, davenport):
    for model, t0 in [(riemann, 5.0), (riemann, math.inf), (davenport, math.inf),
                      (riemann, math.nan)]:
        with pytest.raises(DomainError):
            find_zero_newton(model, t0)


def test_classical_afe_rejects_non_gram_points(riemann):
    from gramdelta.errors import NotAGramPointError
    with pytest.raises(NotAGramPointError):
        classical_afe(riemann, 100.37)


# (interval, grid points, bound on |Z - siegelz|, on |Z' - siegelz'|, on
# |Z'' - siegelz''|) for hardy_z; the bounds hold with a factor 1.2 or more to
# spare on grids of 200 to 4000 points per interval (mpmath is too slow at
# large t for those)
_HARDY_Z_BOUNDS = [((10.0, 30.0), 41, 1.2e-4, 5e-5, 2e-5),
                   ((30.0, 100.0), 41, 1e-5, 5e-6, 3e-7),
                   ((100.0, 1e3), 21, 1e-6, 1e-7, 5e-9),
                   ((1e3, 1e4), 13, 1e-8, 1e-9, 2.5e-10)]


def _siegelz_orders(mp, t: float) -> list[float]:
    """Z, Z' and Z'' at t from one zeta and siegeltheta family, combined as
    mp.siegelz combines them below t = 500 prec (with 21 extra bits), where
    it would evaluate zeta and its lower derivatives again for each order."""
    with mp.extraprec(21):
        s = mp.mpc(0.5, t)
        z, z1, z2 = (mp.zeta(s, derivative=j) for j in range(3))
        th1, th2 = (mp.siegeltheta(t, derivative=j) for j in (1, 2))
        e1 = mp.expj(mp.siegeltheta(t))
        vals = [e1 * z, mp.j * e1 * (z1 + z * th1),
                -e1 * mp.fsum([2 * z1 * th1, z2, z * (th1 ** 2 - mp.j * th2)])]
    return [float(mp.re(v)) for v in vals]


def test_hardy_z_against_mpmath(riemann):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for (lo, hi), points, *bounds in _HARDY_Z_BOUNDS:
            assert hi < 500 * mp.mp.prec  # where siegelz takes zeta, not rs_z
            for t in np.linspace(lo, hi, points).tolist():
                vals = hardy_z(riemann, t, (0, 1, 2))
                errs = [abs(vals[j] - ref) for j, ref in enumerate(_siegelz_orders(mp, t))]
                assert errs[0] <= min(bounds[0], hardy_z_error(t)), t
                assert errs[1] <= bounds[1] and errs[2] <= bounds[2], t
        # seen: 2.9e-9, 1.9e-8 and 4.0e-8
        t = 4.9e6
        vals = hardy_z(riemann, t, (0, 1, 2))
        errs = [abs(vals[j] - float(mp.siegelz(t, derivative=j))) for j in range(3)]
        assert errs[0] <= min(1e-8, hardy_z_error(t))
        assert errs[1] <= 4e-8 and errs[2] <= 8e-8


@pytest.mark.parametrize("offset", [
    -0.2, 0.0, 0.7,
    pytest.param(47.44547188832237, marks=pytest.mark.xfail(
        strict=True, reason="Z is 9.0e-9 off, 1.53 times hardy_z_error (theta's rounding)"))])
def test_hardy_z_error_bounds_z_near_g_730119(riemann, offset):
    # the allowance is 5.9e-9 at g_730119, and Z carries the rounding of
    # theta (about 2.3e6) times dZ/dtheta: at these offsets Z is 4.1e-9 to
    # 4.2e-9 off mpmath (0.70-0.71 of the allowance); the last one exceeds it
    mp = pytest.importorskip("mpmath")
    t = gram_point(riemann, 730119) + offset
    with mp.workdps(30):
        assert abs(hardy_z(riemann, t, (0,))[0] - float(mp.siegelz(t))) <= hardy_z_error(t)


def test_hardy_z_orders_are_bit_identical_across_order_sets(riemann):
    # Gram records and cache shards hold Z and Z' from the default (0, 1)
    for t in (22.5, 7005.06, 450613.8, 4.9e6):
        both = hardy_z(riemann, t)
        for orders in [(0,), (1,), (0, 1, 2), (2, 0)]:
            vals = hardy_z(riemann, t, orders)
            assert sorted(vals) == sorted(orders)
            assert all(vals[j] == both[j] for j in orders if j < 2)


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
        hardy_z(riemann, 100.0, (0, 3))
    for t in (9.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            hardy_z(riemann, t)
        with pytest.raises(DomainError):
            hardy_z(riemann, np.array([100.0, t]))
    with pytest.raises(DimensionError):
        hardy_z(riemann, np.array([[100.0, 100.5]]))


@pytest.mark.parametrize("centre", [8.0 * math.pi, 2.0 * math.pi * 100 ** 2, 0.0],
                         ids=["N=1|2", "N=99|100", "g_730119"])
def test_hardy_z_points_match_scalar_calls(riemann, centre):
    # 25 nodes across t = 2 pi N^2 for N = 2 (the lower group, N = 1, sums
    # the head alone) and N = 100, or the g_730119 window, where all nodes
    # share N: one value per node and order, within twice the section's
    # summation bound of the scalar call and of the exactly rounded main sum
    # (the main sum is twice the section of dimension N - 1)
    if centre:
        t = centre + 2.0 * _CHEB_X
        sizes = {int(math.sqrt(x / (2.0 * math.pi))) for x in t.tolist()}
        assert len(sizes) == 2
    else:
        t = _window_nodes(riemann, 730119)[2]
    batch = hardy_z(riemann, t, (0, 1, 2))
    assert sorted(batch) == [0, 1, 2]
    for i, x in enumerate(t.tolist()):
        single = hardy_z(riemann, x, (0, 1, 2))
        tau = math.sqrt(x / (2.0 * math.pi))
        dim = int(tau) - 1
        exact = [2.0 * s + r for s, r in zip(section_fsum(riemann, x, 1.0, dim, "full"),
                                             _rs_remainder(tau))]
        for j in range(3):
            assert batch[j].shape == t.shape
            bound = 2.0 * _sum_bound(x, dim, j)
            assert abs(batch[j][i] - single[j]) <= bound, (i, j)
            assert abs(batch[j][i] - exact[j]) <= bound, (i, j)
            assert abs(single[j] - exact[j]) <= bound, (i, j)


def test_scalar_call_is_the_one_point_batch(riemann, davenport):
    # a scalar t is summed as a batch of one point, so it equals the
    # one-point array call bit for bit, for every weight form, mode and
    # order set; DH n = 20000 (N = 7,492) runs over two chunks of terms
    for model, n in [(riemann, 6708), (davenport, 44), (davenport, 20000)]:
        g0 = gram_point(model, n)
        dim = model.robust_cutoff(g0)
        for t in (g0, g0 + 0.3):
            for a in (0.0, 0.7, np.linspace(-0.5, 1.5, dim)):
                for mode in ("main", "full"):
                    for orders in [(0,), (1, 2), (0, 1, 2)]:
                        single = section_eval(model, t, a, orders=orders, deriv_mode=mode,
                                              n_terms=dim)
                        batch = section_eval(model, np.array([t]), a, orders=orders,
                                             deriv_mode=mode, n_terms=dim)
                        assert all(type(single[j]) is float for j in orders)
                        assert single == {j: batch[j][0] for j in orders}, (n, t, mode)
    for t in (22.5, 7005.06, 450613.8):
        single = hardy_z(riemann, t, (0, 1, 2))
        batch = hardy_z(riemann, np.array([t]), (0, 1, 2))
        assert single == {j: batch[j][0] for j in range(3)}, t


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
    # a (B, N) stack of parameter points needs an array of points
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


def _term_scale(proxy, t: float, w) -> np.ndarray:
    """Sum of the absolute terms of head + sum_k T_k(x) c_k @ w, per order:
    the scale of the rounding in the proxy's section."""
    x = min(max((t - proxy.center) / proxy.half_width, -1.0), 1.0)
    cheb = np.abs(np.cos(np.arange(25) * math.acos(x)))
    terms = (cheb @ np.abs(proxy._coef)).reshape(3, proxy.blocks)
    return np.abs(proxy.head(t)) + terms @ np.abs(np.array(w))


@pytest.mark.parametrize("name,n", [("riemann", 126), ("riemann", 6708),
                                    ("riemann", 730119), ("dh", 44)])
def test_window_proxy_section_matches_the_unfolded_sums(riemann, davenport, name, n):
    # section folds w into the coefficients once per weight tuple; it must
    # give head + sums(t) @ w within 1e-15 of the sum of the absolute terms
    # (seen up to 6.6e-16), for one block and for a shift / descend pair
    model = riemann if name == "riemann" else davenport
    g0, dim, masks = _shift_masks(model, n)
    for blocks, weights in [(None, [(1.0,), (0.37,), (-0.2,)]),
                            (masks, [(1.0, 1.0), (0.3, 0.9), (1.7, -0.4)])]:
        proxy = WindowProxy(model, dim, blocks, g0)
        for x in np.linspace(-1.0, 1.0, 21):
            t = g0 + proxy.half_width * x
            for w in weights:
                got = np.array(proxy.section(t, w))
                want = np.array(proxy.head(t)) + proxy.sums(t) @ np.array(w)
                assert np.all(np.abs(got - want) <= 1e-15 * _term_scale(proxy, t, w)), (x, w)
        assert proxy.center == g0


def test_window_proxy_fold_follows_the_window_and_the_weights(riemann):
    # a march at g_730119 on the corrected curve's two blocks that leaves the
    # first window twice, keeps one weight tuple across each re-tabulation
    # and alternates two tuples at one point: every value equals a fresh
    # solver's at the same (t, w), whose window is centred where the march's is
    from gramdelta.discriminant import _ExtremumSolver
    g0, _, masks = _shift_masks(riemann, 730119)
    march = _ExtremumSolver(riemann, 730119, g0, masks)
    gap = march.proxy.gap
    steps = [(g0, (0.2, 1.0)), (g0 + 0.6 * gap, (0.2, 1.0)), (g0 + 1.2 * gap, (0.2, 1.0)),
             (g0 + 1.2 * gap, (0.5, 0.8)), (g0 + 1.2 * gap, (0.2, 1.0)),
             (g0 + 2.0 * gap, (0.5, 0.8)), (g0 + 2.5 * gap, (0.5, 0.8)),
             (g0 + 2.5 * gap, 0.7)]
    centres = set()
    for t, w in steps:
        got = march.section(w, t)
        centres.add(march.proxy.center)
        fresh = _ExtremumSolver(riemann, 730119, g0, masks)
        if march.proxy.center != g0:
            fresh.proxy.sums(march.proxy.center)
        assert fresh.proxy.center == march.proxy.center
        assert fresh.section(w, t) == got, (t, w)
    assert len(centres) == 3  # two re-tabulations


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
    (ln(t)/2)^order: 4 eps t ln(t) (ln(t)/2)^order. Every section sum forms
    the phases by the same float operations, so each carries this rounding;
    test_section_points_against_exact_phases holds them to this bound
    against exactly rounded phases."""
    return 4.0 * np.finfo(float).eps * t * math.log(t) * (0.5 * math.log(t)) ** order


def _sum_bound(t: float, dim: int, order: int) -> float:
    """Allowed gap between two sums of the same terms of a section of
    dimension dim: 8 eps sqrt(dim + 1) (ln(t)/2)^order. A call at many points
    and one at a single point, and the exactly rounded sum of
    oracles.section_fsum, form the same terms from the same phases, so they
    differ only by how they sum them (matrix products per chunk in another
    order, or math.fsum)."""
    return 8.0 * np.finfo(float).eps * math.sqrt(dim + 1) * (0.5 * math.log(t)) ** order


def _window_nodes(model, n):
    g0 = gram_point(model, n)
    proxy = WindowProxy(model, model.robust_cutoff(g0), None, g0)
    return g0, proxy.n_terms, g0 + proxy.half_width * _CHEB_X


def _assert_points_match_scalar(model, t, a, dim, mode, check):
    """section_eval at the points t against one scalar call per point (and
    per row of a (B, N) stack) and against the exactly rounded sums of
    oracles.section_fsum, for the order sets (0,), (1, 2) and (0, 1, 2);
    check selects the points compared."""
    rows = a if np.ndim(a) == 2 else [a]
    single, exact = [], []
    for i in check:
        x = float(t[i])
        vals = [section_eval(model, x, row, orders=(0, 1, 2), deriv_mode=mode,
                             n_terms=dim) for row in rows]
        fsums = [section_fsum(model, x, row, dim, mode) for row in rows]
        single.append({j: np.array([v[j] for v in vals]).reshape(np.shape(a)[:-1])
                       for j in range(3)})
        exact.append({j: np.array([v[j] for v in fsums]).reshape(np.shape(a)[:-1])
                      for j in range(3)})
    for orders in [(0,), (1, 2), (0, 1, 2)]:
        batch = section_eval(model, t, a, orders=orders, deriv_mode=mode, n_terms=dim)
        assert sorted(batch) == list(orders)
        for j in orders:
            assert batch[j].shape == (len(t),) + np.shape(a)[:-1]
            for i, ref, ex in zip(check, single, exact):
                bound = _sum_bound(float(t[i]), dim, j)
                assert np.all(np.abs(batch[j][i] - ref[j]) <= bound), (orders, j, i)
                assert np.all(np.abs(batch[j][i] - ex[j]) <= bound), (orders, j, i)
                assert np.all(np.abs(ref[j] - ex[j]) <= bound), (orders, j, i)


@pytest.mark.parametrize("name,n", [("riemann", 0), ("riemann", 6708),
                                    ("dh", 44), ("dh", 20000)])
@pytest.mark.parametrize("mode", ["main", "full"])
def test_section_points_match_scalar_calls(riemann, davenport, name, n, mode):
    # one call at the 25 window nodes against a scalar call per node, for
    # scalar, vector and (B, N) weights; DH n = 20000 (N = 7,492) runs past
    # one chunk of terms, so the chunk partials are summed across two chunks
    model = riemann if name == "riemann" else davenport
    _, dim, t = _window_nodes(model, n)
    vec = np.linspace(-0.5, 1.5, dim)
    for a in (1.0, vec, np.stack([vec, 1.0 - vec])):
        _assert_points_match_scalar(model, t, a, dim, mode, range(len(t)))


def test_section_points_unpaired_offsets(riemann, davenport):
    # points that are not window nodes: nine random ones, a repeat of one of
    # them and two more, out of order; and a lone point. Each point's terms
    # depend on that point alone, whatever the rest of the set
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
    # at one node of the g_730119 window (N = 225,307): a call at that node
    # alone and one at all 25 nodes both sit within _point_bound of the exact
    # sums; seen at nodes 0, 3, 12, 20 for orders 0 / 1 / 2: both up to
    # 1.4e-9 / 4.4e-9 / 2.2e-8 (they round the same phases), bounds 5.2e-9 /
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


def test_em_coefficients_regenerate():
    mp = pytest.importorskip("mpmath")
    from gramdelta.zmodel import _EM_COEFS
    with mp.workdps(40):
        expect = [float(mp.bernoulli(2 * k) / mp.factorial(2 * k))
                  for k in range(1, len(_EM_COEFS) + 1)]
    assert list(_EM_COEFS) == expect


def test_window_proxy_selects_the_tail_form(riemann, davenport):
    from gramdelta.zmodel import _CHUNK_TERMS
    g0 = gram_point(riemann, 100000)
    dim = riemann.robust_cutoff(g0)
    mask = np.arange(1, dim + 1) <= 20
    assert WindowProxy(riemann, dim, None, g0).tail_form
    assert WindowProxy(riemann, dim, (mask, ~mask), g0).tail_form
    assert not WindowProxy(riemann, dim, (mask, mask), g0).tail_form  # no partition
    assert not WindowProxy(riemann, dim, None, 4.0 * dim).tail_form  # M far below t/2
    # the Davenport-Heilbronn model and N below one chunk take the direct form
    assert not WindowProxy(davenport, dim, None, g0).tail_form
    for n, tail in [(6708, False), (8048, False), (8049, True), (20000, True)]:
        g = gram_point(riemann, n)
        assert WindowProxy(riemann, riemann.robust_cutoff(g), None, g).tail_form is tail, n
    g = 2.0 * _CHUNK_TERMS + 1.0
    assert WindowProxy(riemann, _CHUNK_TERMS, None, g).tail_form
    assert not WindowProxy(riemann, _CHUNK_TERMS - 1, None, g - 2.0).tail_form


def _shift_masks(model, n):
    from gramdelta.curves import select_shift_indices
    g0 = gram_point(model, n)
    dim = model.robust_cutoff(g0)
    mask = np.isin(np.arange(1, dim + 1), list(select_shift_indices(model, n)))
    return g0, dim, (mask, ~mask)


@pytest.mark.parametrize("n,blocks", [(8049, 1), (8049, 2), (20000, 1), (20000, 2),
                                      (100000, 1), (730119, 1), (730119, 2)])
def test_tail_form_rows_match_the_direct_rows(riemann, n, blocks):
    # the window's node values in both forms, every order and block, within
    # 2e-8 of max(1, |S|); the shift block ({1, 2, 4, 6, 12} at 730119) is
    # summed directly up to its last index and the descend block is the total
    # minus it
    g0, dim, masks = _shift_masks(riemann, n)
    tail = WindowProxy(riemann, dim, masks if blocks == 2 else None, g0)
    direct = WindowProxy(riemann, dim, masks if blocks == 2 else None, g0)
    direct.tail_form = False
    assert tail.tail_form and tail.blocks == blocks
    for x in _CHEB_X:
        t = g0 + tail.half_width * x
        got, want = tail.sums(t), direct.sums(t)
        assert np.all(np.abs(got - want) <= 2e-8 * np.maximum(1.0, np.abs(want))), x
    if blocks == 2:  # {1} at 8049; empty at 20000, where no index is summed directly
        assert tail._lead_terms == np.max(np.flatnonzero(masks[0]) + 1, initial=0)
    if (n, blocks) == (730119, 2):
        assert tail._lead_terms == 12


def _mp_block_sums(mp, t: float, n: int) -> list[float]:
    """S^(j)(t), j = 0, 1, 2, of the zeta model's section over k = 1..n in
    mpmath: zeta and its s-derivatives at 30 digits minus the Euler-Maclaurin
    tail at M = n + 1, rotated by the model's theta."""
    with mp.workdps(30):
        x = mp.mpf(t)
        s = mp.mpc(0.5, x)
        big_m = mp.mpf(n + 1)

        def tail(s):  # P(s) = zeta(s) - tail(s), P the partial sum to M
            out = big_m ** (1 - s) / (s - 1) - big_m ** (-s) / 2
            poly = s
            for k in range(1, 25):
                out += mp.bernoulli(2 * k) / mp.factorial(2 * k) * poly \
                    * big_m ** (1 - s - 2 * k)
                poly *= (s + 2 * k - 1) * (s + 2 * k)
            return out

        th = x / 2 * mp.log(x / (2 * mp.pi)) - x / 2 - mp.pi / 8 \
            + 1 / (48 * x) + 7 / (5760 * x ** 3)
        rot = mp.expj(th)
        e = [rot * (mp.zeta(s) - tail(s) - 1),
             -rot * (mp.zeta(s, derivative=1) - mp.diff(tail, s, 1)),
             rot * (mp.zeta(s, derivative=2) - mp.diff(tail, s, 2))]
        tpm = mp.log(x / (2 * mp.pi)) / 2
        return [float(mp.re(e[0])), float(-mp.im(tpm * e[0] - e[1])),
                float(-mp.re(tpm * tpm * e[0] - 2 * tpm * e[1] + e[2]))]


@pytest.mark.parametrize("n", [8049, 20000, 239558, 730119, 988941])
def test_both_window_forms_against_mpmath(riemann, n):
    # at two nodes of the window, each form within 2e-8 of max(1, |S|) of the
    # mpmath sums; seen over every third node at these heights, with the tail
    # form's 25 nodes in one call: orders 0 and 1 at most 4.8e-9 (tail) and
    # 3.3e-9 (direct), order 2 at most 7.7e-9 (tail) and 5.2e-9 (direct)
    mp = pytest.importorskip("mpmath")
    from gramdelta.zmodel import _zeta_block_sums
    g0 = gram_point(riemann, n)
    dim = riemann.robust_cutoff(g0)
    proxy = WindowProxy(riemann, dim, None, g0)
    for x in (_CHEB_X[3], 0.0):
        t = g0 + proxy.half_width * x
        ref = _mp_block_sums(mp, t, dim)
        tail = _zeta_block_sums(riemann, np.array([t]), dim)[:, 0]
        head = proxy.head(t)
        direct = section_eval(riemann, t, 1.0, orders=(0, 1, 2), n_terms=dim)
        for j in range(3):
            bound = 2e-8 * max(1.0, abs(ref[j]))
            assert abs(tail[j] - ref[j]) <= bound, (x, j)
            assert abs(direct[j] - head[j] - ref[j]) <= bound, (x, j)
