from __future__ import annotations

import math

import numpy as np
import pytest

from gramdelta import (TraceStatus, closed_forms, discriminant_at, gram_point, linear,
                       second_order_approx, section_eval, term_table, track_extremum)
from gramdelta.discriminant import _ExtremumSolver
from gramdelta.errors import DimensionError, TraceError


def _constant(r):
    """Stays at the origin of parameter space (degenerate test curve)."""
    return 0.0


def _jump(r):
    """Discontinuous at r = 1/2; continuation must give up there."""
    return 0.0 if r < 0.5 else 40.0


def _delta_uniform(model, n, r):
    g0 = gram_point(model, n)
    solver = _ExtremumSolver(model, n, g0)
    sol = solver.solve(float(r), g0)
    return solver.value(float(r), sol[0])


def test_constant_curve_keeps_core_values(riemann):
    n = 91
    g = gram_point(riemann, n)
    trace = track_extremum(riemann, n, _constant, steps=60)
    assert trace.status is TraceStatus.NON_COLLIDING
    for s in trace.samples:
        assert s.delta == pytest.approx(-1.0, abs=1e-9)
        assert s.g == pytest.approx(g, abs=1e-7)


def test_trace_start_sample_invariants(riemann):
    trace = track_extremum(riemann, 90, linear, steps=60)
    first = trace.samples[0]
    assert first.r == 0.0
    assert first.delta == pytest.approx(1.0, abs=1e-9)
    signs = {math.copysign(1.0, s.ztt) for s in trace.samples}
    assert len(signs) == 1  # curvature never flips on a non-colliding trace


def test_linear_traces_noncolliding(riemann):
    for n in [90, 126]:
        trace = track_extremum(riemann, n, linear, steps=100)
        assert trace.status is TraceStatus.NON_COLLIDING
        assert trace.sign_invariant()


def test_good_point_tracks_first_order(riemann):
    n = 90
    g = gram_point(riemann, n)
    trace = track_extremum(riemann, n, linear, steps=100)
    dev = max(abs(s.delta - section_eval(riemann, g, s.r)[0]) for s in trace.samples)
    assert dev < 0.01  # H_90 ~ 0.002: first order is nearly the whole story


def test_discriminant_at_values(riemann):
    assert discriminant_at(riemann, 90, linear, 0.0) == 1.0
    d126 = discriminant_at(riemann, 126, linear, 1.0)
    assert d126 > 0  # corrected Gram law at the first classical violation
    d6708 = discriminant_at(riemann, 6708, linear, 1.0, steps=100)
    assert d6708 > 0  # holds despite the Lehmer-pair proximity


def test_dimension_mismatch_rejected(riemann):
    with pytest.raises(DimensionError):  # section_eval's check of the weight vector
        track_extremum(riemann, 90, lambda r: np.full(4, r), steps=60)


def test_steps_floor(riemann):
    with pytest.raises(ValueError):
        track_extremum(riemann, 90, linear, steps=10)


def test_continuation_lost_is_a_verdict_not_an_exception(riemann):
    n = 91
    trace = track_extremum(riemann, n, _jump, steps=60)
    assert trace.status is TraceStatus.CONTINUATION_LOST
    assert trace.r_event == pytest.approx(0.5, abs=0.02)
    with pytest.raises(TraceError):
        discriminant_at(riemann, n, _jump, 1.0, steps=60)


def test_closed_form_hessian_anchors(riemann):
    h90 = closed_forms(riemann, 90).hessian_quadratic
    h126 = closed_forms(riemann, 126).hessian_quadratic
    assert h90 == pytest.approx(0.00203615, rel=0.01)
    assert h126 == pytest.approx(2.22893, rel=0.01)
    assert closed_forms(riemann, 90).hessian_constant == 4.0


def test_hessian_sign_law(riemann):
    assert closed_forms(riemann, 90).hessian_quadratic > 0
    assert closed_forms(riemann, 91).hessian_quadratic < 0


def test_gradient_identity_residual(riemann):
    for n in [90, 126, 6708]:
        rep = closed_forms(riemann, n)
        assert rep.gradient_identity_residual <= 1e-10


def test_grad_delta_formula(riemann):
    n = 126
    g = gram_point(riemann, n)
    rep = closed_forms(riemann, n)
    for k in [1, 2, 7]:
        expect = math.cos(126 * math.pi - math.log(k + 1) * g) / math.sqrt(k + 1)
        assert rep.grad_delta[k - 1] == pytest.approx(expect, abs=1e-9)


def _reference_gradients(model, n: int) -> tuple[np.ndarray, np.ndarray]:
    """dDelta/da_k and dg_n/da_k for k = 1..N, with their own cos/sin pass
    over per-term arrays rebuilt from scratch."""
    g = gram_point(model, n)
    n_terms = model.robust_cutoff(g)
    m = np.arange(2, n_terms + 2, dtype=float)
    ln_m, coeff, sqrt_m = np.log(m), model.coefficients(n_terms + 1)[1:], np.sqrt(m)
    phase = model.theta(g) - g * ln_m
    cos_t, sin_t = np.cos(phase), np.sin(phase)
    lnfac = 2.0 * model.theta_main(g)
    length = lnfac - 2.0 * ln_m
    parity = -(-1.0 if n % 2 else 1.0)
    grad_delta = coeff * cos_t / sqrt_m
    grad_gram = 2.0 * parity * coeff * sin_t * length / (sqrt_m * lnfac * lnfac)
    return grad_delta, grad_gram


@pytest.mark.parametrize("name,n", [("riemann", 90), ("riemann", 126), ("riemann", 6708),
                                    ("riemann", 730119), ("dh", 44)])
def test_closed_form_gradients_are_bit_identical_to_the_reference(riemann, davenport,
                                                                  name, n):
    model = riemann if name == "riemann" else davenport
    grad_delta, grad_gram = _reference_gradients(model, n)
    rep = closed_forms(model, n)
    assert rep.grad_delta.tobytes() == grad_delta.tobytes()
    assert rep.grad_gram.tobytes() == grad_gram.tobytes()


def test_term_table_defaults_to_every_term_of_the_section(riemann, davenport):
    for model, n in ((riemann, 126), (riemann, 6708), (davenport, 44)):
        table = term_table(model, n)
        n_terms = model.robust_cutoff(gram_point(model, n))
        assert table.g == gram_point(model, n)
        assert table.k.tolist() == list(range(1, n_terms + 1))
        assert all(len(col) == n_terms for col in (table.cos_term, table.sin_term,
                                                    table.a, table.b, table.grad_gram))


def test_finite_difference_gradients(riemann):
    eps = 1e-5
    for n in [90, 126]:
        g0 = gram_point(riemann, n)
        solver = _ExtremumSolver(riemann, n, g0)
        rep = closed_forms(riemann, n)
        n_dim = riemann.robust_cutoff(g0)
        sign0 = 1.0 if n % 2 == 0 else -1.0
        for k in [0, 1, 2, 4, 9, 19]:
            a = np.zeros(n_dim)
            a[k] = eps
            sol = solver.solve(a, g0)
            fd_delta = (solver.value(a, sol[0]) - sign0) / eps
            assert abs(fd_delta - rep.grad_delta[k]) <= 1e-4
            if abs(rep.grad_gram[k]) > 1e-3:
                fd_gram = (sol[0] - g0) / eps
                assert fd_gram == pytest.approx(rep.grad_gram[k], rel=1e-3)


def test_finite_difference_hessian(riemann):
    h = 0.01
    for n in [90, 126]:
        d0 = 1.0 if n % 2 == 0 else -1.0
        fd_h = (_delta_uniform(riemann, n, h) - 2 * d0
                + _delta_uniform(riemann, n, -h)) / h ** 2
        fd_h2 = (_delta_uniform(riemann, n, h / 2) - 2 * d0
                 + _delta_uniform(riemann, n, -h / 2)) / (h / 2) ** 2
        richardson = (4 * fd_h2 - fd_h) / 3
        closed = closed_forms(riemann, n).hessian_quadratic
        assert richardson == pytest.approx(closed, rel=1e-3)


def test_second_order_approx_origin(riemann):
    assert second_order_approx(riemann, 90, 0.0) == pytest.approx(1.0, abs=1e-9)
    assert second_order_approx(riemann, 91, 0.0) == pytest.approx(-1.0, abs=1e-9)


def test_second_order_refines_its_gram_point_once(riemann, gram_point_calls):
    second_order_approx(riemann, 126, 0.3)
    assert gram_point_calls == [126]


def test_second_order_cubic_decay(riemann):
    n = 90
    errs = [abs(_delta_uniform(riemann, n, r) - second_order_approx(riemann, n, r))
            for r in (0.05, 0.1, 0.2)]
    for ratio in (errs[1] / errs[0], errs[2] / errs[1]):
        assert 4.0 <= ratio <= 16.0  # cubic remainder: ratio ~ 8 within factor 2


def test_second_order_term_magnitude_126(riemann):
    n, r = 126, 0.3
    g = gram_point(riemann, n)
    term = second_order_approx(riemann, n, r) - section_eval(riemann, g, r)[0]
    assert term == pytest.approx(0.5 * 2.22893 * r * r, rel=0.01)
    assert term > 0


@pytest.mark.parametrize("name,n", [("riemann", 6708), ("dh", 44)])
def test_proxy_march_matches_direct_march(riemann, davenport, name, n):
    model = riemann if name == "riemann" else davenport
    dim = model.robust_cutoff(gram_point(model, n))
    proxied = track_extremum(model, n, linear, steps=100)
    # the linear curve with its weights spelled out term by term: the direct path
    direct = track_extremum(model, n, lambda r: np.full(dim, float(r)), steps=100)
    assert proxied.status is direct.status
    assert proxied.r_event == direct.r_event
    assert [s.r for s in proxied.samples] == [s.r for s in direct.samples]
    for a, b in zip(proxied.samples, direct.samples):
        assert abs(a.g - b.g) <= 1e-8
        assert abs(a.delta - b.delta) <= 1e-8
    if name == "dh":
        assert proxied.status is TraceStatus.COLLISION


def test_proxy_march_keeps_the_730119_collision(riemann):
    # r_event of the direct floor(t/2)-term march, before the proxy
    trace = track_extremum(riemann, 730119, linear, steps=50)
    assert trace.status is TraceStatus.COLLISION
    assert abs(trace.r_event - 0.24384918212890616) <= 1e-6


def test_march_is_deterministic_and_plain_floats(riemann):
    def run(n):
        return track_extremum(riemann, n, linear, steps=60)

    first = run(6708)
    run(90)  # other work in between must not leak a window into the next march
    again = run(6708)
    assert first.samples == again.samples and first.r_event == again.r_event
    assert all(type(v) is float for s in first.samples
               for v in (s.r, s.g, s.delta, s.ztt))


def test_fresh_solver_starts_on_its_own_window(riemann):
    g0 = gram_point(riemann, 6708)
    used = _ExtremumSolver(riemann, 6708, g0)
    used.solve(0.5, g0 + 2.0 * used.proxy.half_width)  # re-centres that proxy
    fresh = _ExtremumSolver(riemann, 6708, g0)
    assert fresh.proxy.center == g0
    assert fresh.solve(0.5, g0) == _ExtremumSolver(riemann, 6708, g0).solve(0.5, g0)
