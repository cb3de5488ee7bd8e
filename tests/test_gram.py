from __future__ import annotations

import math
import re

import numpy as np
import pytest

from gramdelta import (GramKind, blocks, classify, core_zero, gbg_scan,
                       gram_point, gram_point_seed)
from gramdelta.cache import RecordStore
from gramdelta.cli import main
from gramdelta.errors import DomainError, IndeterminateSignError
from gramdelta.gram import GramBlock, GramRecord, RecordSource
from gramdelta.numerics import csum, running_csum
from gramdelta.special import ThetaKind, theta
from gramdelta.zmodel import (CoefficientModel, classical_partial_sums, gram_index_of,
                              hardy_z, hardy_z_error, localized_sum, point_values,
                              section_eval)

from oracles import bisect


def test_gram_point_contract(riemann):
    for n in [0, 90, 126, 6708, 730119, 9807962]:
        g = gram_point(riemann, n)
        assert abs(theta(ThetaKind.RIEMANN_SIEGEL, g) - math.pi * n) \
            <= 1e-9 * max(1.0, math.pi * n)
        assert abs(gram_point_seed(riemann, n) - g) < 0.5


def test_gram_point_126_against_bisection(riemann):
    root = bisect(lambda t: theta(ThetaKind.RIEMANN_SIEGEL, t) - 126 * math.pi,
                  280.0, 285.0, tol=1e-10)
    assert gram_point(riemann, 126) == pytest.approx(root, abs=1e-8)
    assert gram_point(riemann, 126) == pytest.approx(282.455, abs=1e-3)


def test_seed_gap_logarithmic_sweep(riemann):
    for n in np.unique(np.geomspace(1, 1e7, 40).astype(int)):
        g = gram_point(riemann, int(n))
        assert abs(gram_point_seed(riemann, int(n)) - g) < 0.5


def test_gram_points_strictly_increasing(riemann):
    prev = gram_point(riemann, 0)
    for n in range(1, 60):
        cur = gram_point(riemann, n)
        assert cur > prev
        prev = cur


def test_core_zero_anchors(riemann):
    assert core_zero(riemann, 6708) == pytest.approx(7004.95, abs=0.01)
    assert core_zero(riemann, 6709) == pytest.approx(7005.84, abs=0.01)
    # the published 450613.9648 is labelled index 730120 in a place that uses
    # the closed-form convention, one below the (n - 1/2) pi branch that the
    # published 7004.95 = index 6708 uses; under the latter it is n = 730119
    assert core_zero(riemann, 730119) == pytest.approx(450613.9648, abs=1e-3)


def test_core_zeros_interleave_gram_points(riemann):
    for n in list(range(20, 40)) + [500, 1000, 5000]:
        t0 = core_zero(riemann, n)
        g = gram_point(riemann, n)
        t1 = core_zero(riemann, n + 1)
        assert t0 < g < t1


def test_core_zero_domain_error(riemann):
    with pytest.raises(DomainError):
        core_zero(riemann, 0)  # seed argument below -1/e


def test_classification_anchors(riemann):
    assert classify(riemann, 126).kind is GramKind.BAD
    assert classify(riemann, 90).kind is GramKind.GOOD
    for n in range(0, 126):
        assert classify(riemann, n).kind is GramKind.GOOD


def test_viscosity_robust_values(riemann):
    # mpmath ground truth: 6.40775 and 4.45773; paper quotes 6.41706 / 4.46023
    assert classify(riemann, 6708).viscosity == pytest.approx(6.40775, rel=5e-3)
    assert classify(riemann, 730119).viscosity == pytest.approx(4.45773, rel=5e-3)


def test_record_invariants(riemann):
    rec = classify(riemann, 126)
    assert abs(theta(ThetaKind.RIEMANN_SIEGEL, rec.t) - math.pi * 126) <= 1e-9 * math.pi * 126
    assert rec.kind is GramKind.BAD
    assert rec.viscosity >= 0.0


def test_blocks_at_the_corrupt_point(riemann):
    found = blocks(riemann, 9807958, 9807965)
    assert len(found) == 1
    block = found[0]
    assert block.start == 9807960
    assert block.length == 3
    assert block.interior_bad == (9807961, 9807962)
    assert not block.is_isolated


def test_blocks_extend_beyond_window_edges(riemann):
    # the window starts inside the block's interior; the block must come back whole
    found = blocks(riemann, 9807962, 9807965)
    assert found[0].start == 9807960
    assert found[0].length == 3


def test_block_isolated_at_6708(riemann):
    found = blocks(riemann, 6700, 6715)
    assert any(b.is_isolated and b.interior_bad == (6708,) for b in found)


def test_blocks_empty_on_all_good_range(riemann):
    assert blocks(riemann, 0, 100) == []


def test_blocks_rejects_bad_range(riemann):
    # the window rule of every scan (RecordSource.range): a reversed window
    with pytest.raises(ValueError, match=r"need n_from <= n_to, got \[10, 9\]"):
        blocks(riemann, 10, 9)


def test_block_partition_is_exact(riemann):
    src = RecordSource(riemann)
    found = blocks(riemann, 0, 600, source=src)
    bad = {n for n in range(0, 601) if src.get(n).kind is GramKind.BAD}
    covered = [n for b in found for n in b.interior_bad]
    assert sorted(covered) == sorted(set(covered))  # no index in two blocks
    assert bad <= set(covered)  # every bad index in range is covered


def test_gbg_scan_isolated_points(riemann):
    rep = gbg_scan(riemann, 730118, 730120)
    (bad,) = rep.bad_points
    assert bad.n == 730119
    assert bad.isolated
    assert not bad.corrupt
    assert bad.viscosity > 4.0

    rep = gbg_scan(riemann, 9807961, 9807962)
    point = {b.n: b for b in rep.bad_points}[9807962]
    assert point.corrupt and not point.isolated
    assert rep.conjecture_holds  # corrupt but non-isolated does not offend


@pytest.mark.parametrize("name,n_from,n_to", [("riemann", 0, 2000), ("dh", 2, 600)])
def test_gbg_isolation_is_a_block_of_length_2(riemann, davenport, tmp_path,
                                              name, n_from, n_to):
    model = riemann if name == "riemann" else davenport
    source = RecordSource(model, RecordStore(tmp_path))
    report = gbg_scan(model, n_from, n_to, source=source)
    block_of = {n: b for b in blocks(model, n_from, n_to, source=source)
                for n in b.interior_bad}
    bad = report.bad_points
    # Riemann [0, 2000] holds isolated points alone; DH 505-506 is a block of length 3
    assert any(r.isolated for r in bad)
    assert all(r.isolated == block_of[r.n].is_isolated for r in bad)
    assert [r.n for r in bad] == [n for n in sorted(block_of) if n_from <= n <= n_to]


def test_gbg_scan_follows_a_bad_run_across_the_window_edge(tmp_path, monkeypatch):
    # the bad run 9807961-9807962 crosses the right edge of the window: the
    # viscosity op classifies it to its good end, 9807963, so the blocks op
    # on the same window and cache has nothing left to classify
    puts = []
    put = RecordStore.put

    def counted(self, model_name, *records):
        puts.append(len(records))
        put(self, model_name, *records)

    monkeypatch.setattr(RecordStore, "put", counted)
    window = ["--from", "9807958", "--to", "9807961", "--cache-dir", str(tmp_path)]
    assert main(["viscosity", *window, "--gbg", "--out", str(tmp_path / "v.csv")]) == 0
    assert puts == [4, 1, 1]
    assert main(["gram", "blocks", *window, "--out", str(tmp_path / "b.csv")]) == 0
    assert puts == [4, 1, 1]
    assert "9807960,3,9807961;9807962" in (tmp_path / "b.csv").read_text()


def test_indeterminate_classification_flagged():
    null_model = CoefficientModel(name="null",
                                  theta_kind=ThetaKind.RIEMANN_SIEGEL,
                                  coeff_period=(0.0,))
    rec = classify(null_model, 50)
    assert rec.kind is GramKind.INDETERMINATE
    with pytest.raises(IndeterminateSignError):
        blocks(null_model, 49, 52)


def test_record_store_roundtrip_is_bit_exact(riemann, tmp_path):
    store = RecordStore(tmp_path)
    src = RecordSource(riemann, store)
    originals = [src.get(n) for n in range(124, 128)]
    fresh = RecordStore(tmp_path)  # force re-read from disk
    for rec in originals:
        back = fresh.get(riemann.name, rec.n)
        assert back == rec  # dataclass equality: every float bit-identical
    assert fresh.get(riemann.name, 999) is None


def _reference_terms(model, g: float, which: str) -> np.ndarray:
    """Classical-AFE terms for k = 1..N(g), rebuilt from scratch on every
    call: the reference makes this pass once for Z and once for Z'."""
    n_cut = model.classical_cutoff(g)
    k = np.arange(1, n_cut + 1, dtype=float)
    ln_k = np.log(k)
    c = model.coefficients(n_cut)
    if which == "z":
        return c * np.cos(ln_k * g) / np.sqrt(k)
    length = 2.0 * (model.theta_main(g) - ln_k)
    return c * length * np.sin(ln_k * g) / np.sqrt(k)


def _reference_classify(model, n: int) -> GramRecord:
    """classify with a separate term pass for Z and for Z' (two trig passes,
    each rebuilding ln k, sqrt k and c_k), then hardy_z or the section."""
    g = gram_point(model, n)
    sign = -1.0 if gram_index_of(model, g) % 2 else 1.0
    z = 2.0 * sign * csum(_reference_terms(model, g, "z"))
    zprime = sign * csum(_reference_terms(model, g, "zprime"))
    if model.is_zeta:
        point, undecided = hardy_z(model, g), hardy_z_error(g)
    else:
        point = section_eval(model, g, 1.0, orders=(0, 1), deriv_mode="full")
        undecided = 1e-4
    sign = -1.0 if n % 2 else 1.0
    if abs(z) < max(1e-4, 3.0 * g ** -0.25):
        if abs(point[0]) < undecided:
            kind = GramKind.INDETERMINATE
        else:
            kind = GramKind.GOOD if sign * point[0] > 0 else GramKind.BAD
    else:
        kind = GramKind.GOOD if sign * z > 0 else GramKind.BAD
    viscosity = math.inf if point[0] == 0.0 else abs(point[1] / point[0])
    return GramRecord(n=n, t=g, z=z, zprime=zprime, kind=kind,
                      viscosity=viscosity)


def _one_look_reference(model, n: int) -> GramRecord:
    """classify's one look: the classical pair from the reference terms for
    the z columns, and the kind from the sign of point_values' Z at g_n alone,
    indeterminate below its allowance."""
    g = gram_point(model, n)
    sign = -1.0 if n % 2 else 1.0
    z = 2.0 * sign * csum(_reference_terms(model, g, "z"))
    zprime = sign * csum(_reference_terms(model, g, "zprime"))
    point, allowance = point_values(model, g)
    if abs(point[0]) < allowance:
        kind = GramKind.INDETERMINATE
    else:
        kind = GramKind.GOOD if sign * point[0] > 0 else GramKind.BAD
    viscosity = math.inf if point[0] == 0.0 else abs(point[1] / point[0])
    return GramRecord(n=n, t=g, z=z, zprime=zprime, kind=kind,
                      viscosity=viscosity)


def _bits(rec: GramRecord) -> tuple:
    return (rec.n, rec.t.hex(), rec.z.hex(), rec.zprime.hex(),
            rec.kind, rec.viscosity.hex())


@pytest.mark.parametrize("name,n_from,n_to", [
    ("riemann", 0, 300), ("riemann", 17000, 17060), ("riemann", 100_000, 100_070),
    ("riemann", 730100, 730130), ("riemann", 5_000_000, 5_000_020),
    ("dh", 2, 200)])  # DH g_1 < 10, theta's floor
def test_classify_is_bit_identical_to_the_reference(riemann, davenport, name,
                                                   n_from, n_to):
    # one index at a time and the window as batches of up to gram._SLICE
    # indices (0..300, 100000..100070 and DH 2..200 take more than one)
    # give the reference's records bit for bit. The zeta records equal the
    # two-look reference's, whose classical first look decided wherever
    # |Z| >= max(1e-4, 3 g^(-1/4)); the DH records follow the one look
    model, reference = ((riemann, _reference_classify) if name == "riemann"
                        else (davenport, _one_look_reference))
    expected = [_bits(reference(model, n)) for n in range(n_from, n_to + 1)]
    assert [_bits(classify(model, n)) for n in range(n_from, n_to + 1)] == expected
    assert [_bits(r) for r in RecordSource(model).range(n_from, n_to)] == expected


@pytest.mark.parametrize("name,n", [("riemann", 126), ("riemann", 17031),
                                    ("riemann", 730119), ("dh", 44), ("dh", 190)])
def test_classical_sums_are_bit_identical_to_the_reference(riemann, davenport, name, n):
    model = riemann if name == "riemann" else davenport
    g = gram_point(model, n)
    sign = -1.0 if n % 2 else 1.0
    n_cut = model.classical_cutoff(g)
    partials = classical_partial_sums(model, g)
    for which, factor, part in zip(("z", "zprime"), (2.0 * sign, sign), partials):
        terms = _reference_terms(model, g, which)
        for lo, hi in ((1, n_cut), (1, 1), (2, n_cut), (n_cut // 2 + 1, n_cut)):
            assert localized_sum(model, g, lo, hi, which).hex() == \
                (factor * csum(terms[lo - 1:hi])).hex()
        # the running sums are Neumaier prefix sums, not exactly rounded ones
        assert np.array_equal(part, factor * running_csum(terms))


@pytest.mark.parametrize("name,n_from,message", [
    ("riemann", -2, "Riemann Gram index must be >= 0, got -2"),
    ("dh", 0, "DH Gram index must be >= 2, got 0"),
    ("dh", 1, "DH Gram index must be >= 2, got 1")])
def test_window_below_the_domain_stores_nothing(riemann, davenport, tmp_path,
                                                name, n_from, message):
    # the first index out of the domain raises its own error, as one index
    # at a time did, and no record of the window is stored
    model = riemann if name == "riemann" else davenport
    src = RecordSource(model, RecordStore(tmp_path))
    with pytest.raises(DomainError, match=re.escape(message)):
        src.range(n_from, n_from + 100)
    assert list(tmp_path.iterdir()) == []


def test_huge_window_is_refused_before_the_store(riemann):
    # a store shard named after n = 10**305 is a path no file system takes
    class NoStore:
        def get(self, model_name, n):
            raise AssertionError(f"store read at n = {n}")

    with pytest.raises(DomainError, match="theta at t = .* overflows"):
        RecordSource(riemann, NoStore()).range(10, 10 ** 305)


def test_huge_dh_window_is_refused_before_the_store(davenport):
    # DH theta takes g_n near 9e302; the head's term count there refuses it
    class NoStore:
        def get(self, model_name, n):
            raise AssertionError(f"store read at n = {n}")

    for n_from in (10, 10 ** 305):
        with pytest.raises(DomainError, match="is out of range: a sum there takes"):
            RecordSource(davenport, NoStore()).range(n_from, 10 ** 305)


@pytest.mark.parametrize("name", ["riemann", "dh"])
def test_wide_window_is_refused_before_the_store(riemann, davenport, monkeypatch, name):
    # [0, 10**9] has two valid ends; a lookup per index ran before any work,
    # and `gdl gram scan` printed nothing for 60 s
    import gramdelta.gram as gram
    model = riemann if name == "riemann" else davenport

    class NoStore:
        def get(self, model_name, n):
            raise AssertionError(f"store read at n = {n}")

    assert gram._MAX_WIDTH >= 1_000_001  # [0, 10**6] is one window
    with pytest.raises(ValueError, match=re.escape(
            f"window [2, 1000000002] holds 1000000001 indices, more than the "
            f"{gram._MAX_WIDTH} a window may hold")):
        RecordSource(model, NoStore()).range(2, 10 ** 9 + 2)
    monkeypatch.setattr(gram, "_MAX_WIDTH", 3)
    assert [rec.n for rec in RecordSource(model).range(20, 22)] == [20, 21, 22]
    with pytest.raises(ValueError, match=re.escape("window [20, 23] holds 4 indices")):
        RecordSource(model, NoStore()).range(20, 23)


@pytest.mark.parametrize("name,n,lowest,message", [
    ("riemann", 0, 1, "Riemann core-zero index must be >= 1, got 0"),
    ("dh", 1, 3, "DH core-zero index must be >= 3, got 1"),
    ("dh", 2, 3, "DH core-zero index must be >= 3, got 2")])
def test_core_zero_below_the_lowest_index_is_refused(riemann, davenport, name, n, lowest,
                                                     message):
    # the DH seeds at n = 1 and 2 (5.32 and 8.96) lie below theta's floor,
    # and the Riemann seed at n = 0 has no Lambert-W argument
    model = riemann if name == "riemann" else davenport
    with pytest.raises(DomainError, match=re.escape(message)):
        core_zero(model, n)
    assert core_zero(model, lowest) > 10.0


def test_block_interior_is_read_from_start_and_length():
    assert GramBlock(start=6707, length=2).interior_bad == (6708,)
    assert GramBlock(start=9, length=4).interior_bad == (10, 11, 12)


def test_long_window_is_classified_in_bounded_slices(riemann, monkeypatch):
    # 5,000 indices near 1e6 are evaluated at most _SLICE at a time, which
    # bounds a batch's arrays: a traced peak of 2.3 MB was measured, against
    # 54 MB for the whole window as one batch
    import gramdelta.gram as gram
    batches = []
    evaluate = gram.gram_values

    def spy(model, indices):
        batches.append(len(indices))
        return evaluate(model, indices)

    monkeypatch.setattr(gram, "gram_values", spy)
    records = RecordSource(riemann).range(995_000, 999_999)
    assert [rec.n for rec in records] == list(range(995_000, 1_000_000))
    assert max(batches) <= gram._SLICE
    assert sum(batches) == 5000
