from __future__ import annotations

import math

import numpy as np
import pytest

from gramdelta import (corrected_curve, descending_stage, gram_point, linear,
                       select_shift_indices, shifting_stage, term_table, track_extremum)
from gramdelta.discriminant import _ExtremumSolver
from gramdelta.zmodel import WindowProxy

# printed reference rows for n = 730119, k = 1..15
PAPER_COS = [-0.14, 0.25, 0.96, -0.53, 0.99, -0.20, 0.41, 0.88, 0.77, -0.99,
             0.03, 0.21, 0.94, 0.95, -0.85]
PAPER_SIN = [0.99, 0.97, 0.28, 0.85, -0.11, 0.98, -0.91, -0.48, 0.64, -0.11,
             -1.0, 0.98, 0.33, 0.30, -0.53]
PAPER_A = [-0.099, 0.14, 0.48, -0.24, 0.41, -0.074, 0.14, 0.29, 0.24, -0.30,
           0.0082, 0.058, 0.25, 0.25, -0.21]
PAPER_B = [6.86, 5.02, 1.16, 3.02, -0.345, 2.70, -2.27, -1.09, 1.34, -0.210,
           -1.79, 1.64, 0.521, 0.449, -0.748]


def test_term_table_reproduces_printed_rows(riemann):
    table = term_table(riemann, 730119, 15)
    for i in range(15):
        assert table.cos_term[i] == pytest.approx(PAPER_COS[i], abs=0.005)
        assert table.sin_term[i] == pytest.approx(PAPER_SIN[i], abs=0.005)
        assert table.a[i] == pytest.approx(PAPER_A[i], abs=0.005)
        assert table.b[i] == pytest.approx(PAPER_B[i], abs=0.05)


def test_term_table_row_norms(riemann):
    table = term_table(riemann, 730119, 15)
    norms = table.cos_term ** 2 + table.sin_term ** 2
    assert np.all(np.abs(norms - 1.0) < 1e-12)


def test_term_table_cutoff_guard(riemann):
    with pytest.raises(ValueError):
        term_table(riemann, 90, 10 ** 6)


def test_shift_selection(riemann):
    assert select_shift_indices(riemann, 730119, 1.5, 15) == {1, 2, 4, 6, 12}
    assert select_shift_indices(riemann, 730119, 1.3, 15) == {1, 2, 4, 6, 9, 12}
    assert select_shift_indices(riemann, 730119, math.inf, 15) == set()
    with pytest.raises(ValueError):
        select_shift_indices(riemann, 730119, 1.5, 10)


def test_curve_endpoint_contracts(riemann):
    assert linear(0.0) == 0.0
    assert linear(1.0) == 1.0
    assert type(linear(1)) is float  # the one-block proxy's uniform weight


def test_curve_validation(riemann):
    # the window refuses them where the set becomes weights: {0} raised
    # IndexError from the weight row, and {N + 1} summed past the section
    g = gram_point(riemann, 90)
    dim = riemann.robust_cutoff(g)
    for shift_set in ({dim + 1}, {0}, {1, dim + 1}):
        with pytest.raises(ValueError, match=r"shift indices must lie in \[1, dimension\]"):
            _ExtremumSolver(riemann, 90, g, shift_set)
    _ExtremumSolver(riemann, 90, g, {1, dim})  # both ends of the range pass


def test_two_param_empty_shift_matches_linear(riemann):
    # with no shift indices the descent from (0, 0) is the linear curve
    n = 90
    t_lin = track_extremum(riemann, n, linear, steps=60)
    solver = _ExtremumSolver(riemann, n, gram_point(riemann, n), set())
    descent = descending_stage(solver, (0.0, 0.0), steps=60)
    assert [s.r for s in t_lin.samples[1:]] == [p.r1 for p in descent.points]
    assert [p.r1 for p in descent.points] == [p.r2 for p in descent.points]
    for a, b in zip(t_lin.samples[1:], descent.points):
        assert abs(a.delta - b.delta) <= 1e-12
        assert abs(a.g - b.g) <= 1e-9


def test_shifting_stage_empty_set_degenerates(riemann):
    res = shifting_stage(_ExtremumSolver(riemann, 126, gram_point(riemann, 126), set()),
                         steps=100)
    assert res.exit_point == (1.0, 0.0)
    assert not res.truncated
    assert res.points[-1].delta == pytest.approx(1.0, abs=1e-9)


def test_shifting_stage_level_constraint(riemann):
    # any nonempty shift set is valid input; the stage must hold the level
    solver = _ExtremumSolver(riemann, 6708, gram_point(riemann, 6708), {1, 2, 3})
    res = shifting_stage(solver, steps=100)
    assert not res.truncated
    assert len(res.points) > 50
    for p in res.points:
        assert abs(p.delta - 1.0) <= 1.5e-3  # (-1)^n = +1 here


def test_descending_stage_trivial_start(riemann):
    solver = _ExtremumSolver(riemann, 90, gram_point(riemann, 90), set())
    res = descending_stage(solver, (1.0, 1.0), steps=100)
    assert res.energy_ok
    assert res.r_collision is None
    assert res.stop_reason is None


def test_descent_that_never_ran_is_not_energy_ok(riemann, monkeypatch):
    monkeypatch.setattr(_ExtremumSolver, "solve", lambda self, a, t_seed: None)
    solver = _ExtremumSolver(riemann, 90, gram_point(riemann, 90), set())
    res = descending_stage(solver, (1.0, 1.0))
    assert res.points == []
    assert not res.energy_ok
    assert res.stop_reason == "Newton failed"


@pytest.mark.parametrize("n,cutoff", [(0, 8), (1, 11), (2, 13)])
def test_shift_selection_names_a_cutoff_below_the_surge_window(riemann, n, cutoff):
    with pytest.raises(ValueError) as err:
        select_shift_indices(riemann, n)
    assert str(err.value) == (f"the robust cutoff N = {cutoff} at g_{n} is below "
                              "the 15-term surge window")


def test_corrected_curve_good_point(riemann):
    rep = corrected_curve(riemann, 90, steps=100)
    assert rep.verdict == "true"
    assert rep.delta_end is not None and rep.delta_end > 0


def test_corrected_curve_126_linear_like(riemann):
    rep = corrected_curve(riemann, 126, steps=100)
    assert rep.verdict == "true"
    assert rep.shift_warning  # nothing selected: descending from (1, 0)
    assert rep.shifting.exit_point == (1.0, 0.0)
    assert rep.delta_end > 0


def test_corrected_curve_211_shifts_in_the_direct_form(riemann):
    # the shift set {1} with N = 207: both blocks of the window are tabulated
    # in the direct form, the shift block summed directly and the descend
    # block as the total minus it
    rep = corrected_curve(riemann, 211, steps=100)
    assert rep.shift_set == {1}
    assert not rep.shifting.truncated
    assert rep.verdict == "true"


def test_corrected_curve_6708(riemann):
    rep = corrected_curve(riemann, 6708, steps=100)
    assert rep.verdict == "true"
    sign = 1.0  # n even
    assert all(sign * p.delta > 0 for p in rep.points)


def test_stage_points_are_plain_floats(riemann):
    rep = corrected_curve(riemann, 6708, steps=100)
    assert all(type(v) is float for p in rep.points
               for v in (p.r1, p.r2, p.g, p.delta))


def test_corrected_curve_tabulates_one_window(riemann, monkeypatch):
    # both stages march on one solver, so its window is tabulated once
    calls = []
    tabulate = WindowProxy._tabulate

    def counted(self):
        calls.append(self.center)
        return tabulate(self)

    monkeypatch.setattr(WindowProxy, "_tabulate", counted)
    rep = corrected_curve(riemann, 730119, steps=50)
    assert rep.verdict == "true"
    assert len(calls) == 1
    assert rep.descent.stop_reason is None
