"""The continuation loop `march`: its step rules on stub states, the verdicts it
gives the stages, and the accepted grids it produced before the three step
loops became one (recorded then, so they pin the refactor)."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from gramdelta import (TraceStatus, corrected_curve, descending_stage, gram_point, linear,
                       track_extremum)
from gramdelta.discriminant import _ExtremumSolver, march


def _state(r, root=2.0):
    return SimpleNamespace(g=r, delta=root - r)


def test_march_refuses_fewer_than_50_steps():
    for steps in (0, -3, 10, 49):
        with pytest.raises(ValueError, match=r"steps must be in \[50, 100000\]"):
            march(lambda r0, r1, s: _state(r1), _state(0.0), steps)


def test_march_refuses_more_steps_than_it_can_finish():
    # a base step below 1e-5 would end the march at its first rejection, and
    # below half an ulp of r the march appends samples without advancing
    calls = []

    def advance(r_from, r_to, state):
        calls.append(r_to)
        return _state(r_to)

    for steps in (100_001, 10 ** 18):
        with pytest.raises(ValueError, match=rf"steps must be in \[50, 100000\], got {steps}"):
            march(advance, _state(0.0), steps)
    assert calls == []
    run = march(advance, _state(0.0), 100_000)  # the finest base step still finishes
    assert run.samples[-1][0] == pytest.approx(1.0, abs=1e-12)


def test_march_halves_on_rejection_and_doubles_back():
    calls = []

    def advance(r_from, r_to, state):
        calls.append((r_from, r_to))
        return "stub refuses" if len(calls) in (3, 4) else _state(r_to)

    run = march(advance, _state(0.0), 50)
    grid = [r for r, _ in run.samples]
    assert grid[:6] == pytest.approx([0.0, 0.02, 0.04, 0.045, 0.055, 0.075], abs=1e-15)
    assert grid[-1] == pytest.approx(1.0, abs=1e-12)
    assert all(b - a <= 0.02 + 1e-15 for a, b in zip(grid, grid[1:]))
    assert run.rejections == [(calls[2][1], "stub refuses"), (calls[3][1], "stub refuses")]
    assert run.status is TraceStatus.NON_COLLIDING and run.r_event is None
    assert run.stop_reason is None  # it reached r = 1 despite the rejections


def test_march_that_never_converges_is_lost_at_its_last_sample():
    run = march(lambda r0, r1, s: "Newton failed", _state(0.0), 50)
    # 0.02 halves 11 times before it falls below 1e-5
    assert [r for r, _ in run.rejections] == pytest.approx([0.02 / 2 ** k for k in range(11)])
    assert {why for _, why in run.rejections} == {"Newton failed"}
    assert run.status is TraceStatus.CONTINUATION_LOST and run.r_event == 0.0
    assert run.stop_reason == "Newton failed"
    assert [r for r, _ in run.samples] == [0.0]


def test_march_bisects_the_first_crossing_and_goes_on():
    probes = []

    def probe(r, g_seed):
        probes.append((r, g_seed))
        return _state(r, root=0.31)

    def advance(r_from, r_to, state):  # lost past r = 0.5: the collision stays
        return "stub refuses" if r_to > 0.5 else _state(r_to, root=0.31)

    run = march(advance, _state(0.0, root=0.31), 50,
                crossed=lambda s: s.delta <= 0.0, probe=probe)
    assert run.status is TraceStatus.COLLISION
    assert run.r_event == pytest.approx(0.31, abs=1e-6)
    assert probes[0] == pytest.approx((0.31, 0.31))  # midpoint of [0.30, 0.32], midpoint g
    assert 0.02 / 2 ** len(probes) <= 1e-6 < 0.02 / 2 ** (len(probes) - 1)
    assert 0.5 - 2e-5 < run.samples[-1][0] <= 0.5

    stop = march(advance, _state(0.0, root=0.31), 50, crossed=lambda s: s.delta <= 0.0,
                 probe=lambda r, g_seed: "probe failed")
    assert stop.r_event == pytest.approx(0.31)  # the first bracket's midpoint


def test_descent_underflow_is_undetermined_not_a_collision(riemann, monkeypatch):
    # n = 126 selects no shift indices, so only the descent calls the solver
    monkeypatch.setattr(_ExtremumSolver, "solve", lambda self, a, t_seed: None)
    solver = _ExtremumSolver(riemann, 126, gram_point(riemann, 126), set())
    descent = descending_stage(solver, (1.0, 0.0), steps=50)
    assert descent.points == [] and not descent.energy_ok
    assert descent.r_collision is None
    assert descent.stop_reason == "Newton failed"
    rep = corrected_curve(riemann, 126, steps=50)
    assert rep.verdict == "undetermined"
    assert rep.descent.stop_reason == "Newton failed"


# Recorded before `march` replaced the three step loops (steps = 50). Accepted r
# values are sums of halved base steps, so they do not depend on the BLAS build.
GRID_50 = [
    0.0, 0.02, 0.04, 0.06, 0.08, 0.1, 0.12000000000000001, 0.14, 0.16, 0.18,
    0.19999999999999998, 0.21999999999999997, 0.23999999999999996, 0.25999999999999995,
    0.27999999999999997, 0.3, 0.32, 0.34, 0.36000000000000004, 0.38000000000000006,
    0.4000000000000001, 0.4200000000000001, 0.4400000000000001, 0.46000000000000013,
    0.48000000000000015, 0.5000000000000001, 0.5200000000000001, 0.5400000000000001,
    0.5600000000000002, 0.5800000000000002, 0.6000000000000002, 0.6200000000000002,
    0.6400000000000002, 0.6600000000000003, 0.6800000000000003, 0.7000000000000003,
    0.7200000000000003, 0.7400000000000003, 0.7600000000000003, 0.7800000000000004,
    0.8000000000000004, 0.8200000000000004, 0.8400000000000004, 0.8600000000000004,
    0.8800000000000004, 0.9000000000000005, 0.9200000000000005, 0.9400000000000005,
    0.9600000000000005, 0.9800000000000005, 1.0]

# r2 of the shifting stage at n = 726787: the corrector's output, so BLAS-close
SHIFT_R2_726787 = [
    0.0, 0.0, 0.0, 0.0, 0.00022420526177939826, 0.00022420526177939826,
    0.00022420526177939826, 0.0004383197978629216, 0.0004383197978629216,
    0.0004383197978629216, 0.0006901094751591561, 0.0006901094751591561,
    0.0006901094751591561, 0.0009782501242437687, 0.0009782501242437687,
    0.0011899954930593155, 0.0011899954930593155, 0.0014168765210010542,
    0.0014168765210010542, 0.001658623102566719, 0.001658623102566719,
    0.0019148954210412542, 0.0019148954210412542, 0.002185365212136227,
    0.002185365212136227, 0.0024697153168140645, 0.0024697153168140645,
    0.002767639229408577, 0.002767639229408577, 0.003078840549709192,
    0.003078840549709192, 0.0034030326143369137, 0.0034030326143369137,
    0.0037399380206153713, 0.0037399380206153713, 0.0040892882822107166,
    0.0040892882822107166, 0.004450823391974978, 0.004636251333287349,
    0.0048244666740992126, 0.005015604020879635, 0.005209633722605097,
    0.005406526424780299, 0.0056062532220675755, 0.00580878570737091,
    0.006014095868629963, 0.0062221560927899515, 0.006432939222047714,
    0.006646418479886223, 0.006862567468984775, 0.00708136026604661]


def test_linear_trace_grid_at_730119(riemann):
    trace = track_extremum(riemann, 730119, linear, steps=50)
    assert [s.r for s in trace.samples] == GRID_50
    assert trace.status is TraceStatus.COLLISION
    assert repr(trace.r_event) == "0.24384918212890616"


def _descent_is_the_segment(report):
    r1_0, r2_0 = report.shifting.exit_point
    got = [(p.r1, p.r2) for p in report.descent.points]
    assert got == [(r1_0 + s * (1.0 - r1_0), r2_0 + s * (1.0 - r2_0)) for s in GRID_50[1:]]
    assert got[-1] == (1.0, 1.0)


def test_corrected_curve_truncated_shift_then_collision_at_725240(riemann):
    # the shifting stage stops at r1 ~ 0.001 and the descent collides: a
    # truncated stage leaves the verdict "undetermined", never "false"
    rep = corrected_curve(riemann, 725240, steps=50)
    assert sorted(rep.shift_set) == [1, 2, 3, 4, 5, 6, 8, 10]
    assert [(p.r1, p.r2) for p in rep.shifting.points] == [
        (0.0, 0.0), (0.000625, 0.0), (0.0009375, 0.0), (0.001015625, 0.0)]
    assert rep.shifting.truncated
    assert rep.shifting.stop_reason == "r2 would leave [0, 1]"
    _descent_is_the_segment(rep)
    assert rep.descent.r_collision == pytest.approx(0.5288229370117188, abs=1e-6)
    assert rep.verdict == "undetermined"


def test_corrected_curve_untruncated_false_at_726787(riemann):
    # the linear curve does not collide here, the corrected one does
    rep = corrected_curve(riemann, 726787, steps=50)
    assert sorted(rep.shift_set) == [6]
    assert [p.r1 for p in rep.shifting.points] == GRID_50
    assert [p.r2 for p in rep.shifting.points] == pytest.approx(SHIFT_R2_726787, abs=1e-10)
    assert not rep.shifting.truncated and rep.shifting.stop_reason is None
    _descent_is_the_segment(rep)
    assert rep.descent.r_collision == pytest.approx(0.31299774169921873, abs=1e-6)
    assert rep.verdict == "false"
