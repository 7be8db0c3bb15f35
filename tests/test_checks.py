"""Identity-lab tests: involution, ledger, duality, sweeps."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetadim.checks import (
    CHECK_NAMES,
    CheckFailure,
    CheckReport,
    GridBounds,
    InvolutionTriple,
    _compare,
    grid_sweep,
    involution,
)
from thetadim import checks, verlinde
from thetadim.intervals import DEFAULT_MAX_PRECISION_BITS
from thetadim.verlinde import UnsupportedQuery
from mutants import (
    first_profile_is_the_second,
    modulus_plus_one,
    multiplicity_plus_one,
    transfer_by_rank,
)

triples = st.builds(
    InvolutionTriple,
    rank=st.integers(1, 10**6),
    degree=st.integers(-(10**6), 10**6),
    level=st.integers(1, 10**3),
    genus=st.integers(1, 50),
)


class TestInvolution:
    def test_worked_examples(self):
        assert involution(InvolutionTriple(2, 0, 3, 2)) == InvolutionTriple(3, 3, 2, 2)
        assert involution(InvolutionTriple(3, 1, 2, 2)) == InvolutionTriple(6, 4, 1, 2)

    @given(t=triples)
    @settings(max_examples=300, deadline=None)
    def test_self_inverse(self, t):
        assert involution(involution(t)) == t

    @given(t=triples)
    @settings(max_examples=200, deadline=None)
    def test_partner_structure(self, t):
        partner = involution(t)
        assert partner.genus == t.genus
        assert partner.h == t.level
        n_bar, d_bar = t.rank // t.h, t.degree // t.h
        assert partner.rank // partner.h == n_bar
        assert partner.degree // partner.h == n_bar * (t.genus - 1) - d_bar


def _holds(check, g, n, d, k):
    """One instance of a named identity, compared exactly as a sweep does."""
    return _compare(check, (g, n, d, k), DEFAULT_MAX_PRECISION_BITS) is None


class TestTheorem1Ledger:
    def test_degree_zero_level_one(self):
        report = grid_sweep("theorem1", GridBounds(2, 1, 2, 2, 0))
        assert report.status == "pass" and report.instances_run == 2
        assert _holds("theorem1", 2, 2, 0, 1)

    def test_rank_one(self):
        for g in (1, 2, 3):
            assert _holds("theorem1", g, 1, 7, 4)

    def test_level_three(self):
        # s = 20, v = 45: both sides equal 720.
        assert _holds("theorem1", 2, 2, 0, 3)

    def test_unsupported_propagates(self):
        with pytest.raises(UnsupportedQuery):
            _compare("theorem1", (3, 2, 1, 1), DEFAULT_MAX_PRECISION_BITS)


class TestDualityDimCheck:
    def test_worked_example_level_one(self):
        assert _holds("duality", 2, 2, 0, 1)

    def test_rank_one_trivial(self):
        for g in (1, 2, 5):
            assert _holds("duality", g, 1, 0, 1)

    def test_worked_example_level_three(self):
        assert _holds("duality", 2, 2, 0, 3)
        report = grid_sweep("duality", GridBounds(2, 3, 2, 2, 0))
        assert report.status == "pass" and report.instances_run == 6
        assert report.note  # labeled as resting on a conjecture

    def test_genus_one_twisted_degrees(self):
        # both sides computable at genus 1 even for degrees coprime to rank
        assert _holds("duality", 1, 4, 2, 3)

    def test_unsupported_regime(self):
        with pytest.raises(UnsupportedQuery):
            _compare("duality", (4, 3, 2, 2), DEFAULT_MAX_PRECISION_BITS)


class TestBottSzenes:
    def test_worked_examples(self):
        assert _holds("bott-szenes", 2, 2, 0, 1)
        assert _holds("bott-szenes", 2, 2, 0, 3)
        assert _holds("bott-szenes", 3, 3, 0, 3)

    def test_genus_one_rejected(self):
        # the identity starts at genus 2, so a genus-1 sweep runs nothing
        report = grid_sweep("bott-szenes", GridBounds(2, 2, 1, 1, 0))
        assert report.instances_run == 0 and report.status == "empty"


class TestGridSweep:
    def test_involution_grid(self):
        bounds = GridBounds(4, 4, 1, 3, 4)
        report = grid_sweep("involution", bounds)
        assert report.status == "pass"
        assert report.instances_run == 3 * 4 * 9 * 4
        assert report.skipped_unsupported == 0

    def test_bott_szenes_grid(self):
        report = grid_sweep("bott-szenes", GridBounds(3, 3, 2, 2, 0))
        assert report.status == "pass" and report.instances_run == 9

    def test_bott_szenes_clamps_genus(self):
        report = grid_sweep("bott-szenes", GridBounds(2, 2, 1, 2, 0))
        assert report.instances_run == 4  # genus 1 is outside the identity's range

    def test_theorem1_counts_skips(self):
        report = grid_sweep("theorem1", GridBounds(2, 1, 2, 2, 1))
        # n=1: d in {-1,0,1} computable; n=2: only d=0 is, the rest skip.
        assert report.instances_run == 4
        assert report.skipped_unsupported == 2
        assert report.status == "pass"

    def test_duality_grid(self):
        report = grid_sweep("duality", GridBounds(3, 3, 2, 2, 3))
        assert report.status == "pass"
        assert report.skipped_unsupported > 0

    def test_elliptic_grid(self):
        report = grid_sweep("elliptic", GridBounds(5, 5, 1, 1, 0))
        assert report.status == "pass" and report.instances_run == 25

    @pytest.mark.parametrize("name", ["elliptic", "bott-szenes"])
    def test_sums_beyond_term_bound_are_skipped(self, monkeypatch, name):
        # The bound is checked where the cached table is built, and the
        # cached sum reads that table, so start and end with both cold.
        monkeypatch.setattr(verlinde, "MAX_SUM_TERMS", 10)
        verlinde.beauville_sum.cache_clear()
        verlinde.reduced_sum_terms.cache_clear()
        try:
            report = grid_sweep(name, GridBounds(4, 4, 2, 2, 0))
        finally:
            verlinde.beauville_sum.cache_clear()
            verlinde.reduced_sum_terms.cache_clear()
        assert report.status == "pass"
        assert report.instances_run > 0 and report.skipped_unsupported > 0

    def test_empty_bounds(self):
        # a sweep that ran nothing is not evidence for the identity
        report = grid_sweep("involution", GridBounds(0, 0, 1, 0, 0))
        assert report.instances_run == 0 and report.status != "pass"
        assert report.status == "empty"

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            grid_sweep("nonsense", GridBounds(1, 1, 1, 1, 0))

    def test_negative_control_fails(self):
        # every check, so the single perturbation site is guarded for all
        for name in CHECK_NAMES:
            report = grid_sweep(name, GridBounds(2, 2, 1, 2, 1), negative_control=True)
            assert report.instances_run > 0, name
            assert report.status != "pass", name
            assert report.check_name == f"{name} [negative-control]"
            assert len(report.failures) == report.instances_run, name

    def test_negative_control_beyond_int_string_limit(self):
        # k**2000 has up to 6001 digits, past the default int-to-str limit
        # that only cli.main lifts; the library must report them under it
        has_limit = hasattr(sys, "set_int_max_str_digits")
        if has_limit:
            previous = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(4300)
        try:
            report = grid_sweep("theorem1", GridBounds(1, 1000, 2000, 2000, 0),
                                negative_control=True)
            if has_limit:
                assert sys.get_int_max_str_digits() == 4300
        finally:
            if has_limit:
                sys.set_int_max_str_digits(previous)
        assert report.instances_run == 1000 and len(report.failures) == 1000
        last = report.failures[-1]
        assert last.inputs == (2000, 1, 0, 1000)
        assert last.lhs == "1" + "000" * 2000
        assert last.rhs == "1" + "000" * 1999 + "001"

    def test_failures_sorted_by_input(self):
        report = grid_sweep("elliptic", GridBounds(3, 3, 1, 1, 0), negative_control=True)
        assert [f.inputs for f in report.failures] == sorted(f.inputs for f in report.failures)

    def test_sweep_builds_each_table_once(self):
        # 36 (n, k) cells over seven genera: more cells than the 32-table
        # cache holds, yet each table is built once, because a cell's
        # genera are swept together; (k, n) reuses the sums of (n, k)
        verlinde.beauville_sum.cache_clear()
        verlinde.reduced_sum_terms.cache_clear()
        report = grid_sweep("bott-szenes", GridBounds(6, 6, 2, 8, 0))
        assert report.status == "pass" and report.instances_run == 252
        assert verlinde.reduced_sum_terms.cache_info().misses == 36

    def test_failures_in_genus_major_order_over_a_large_grid(self):
        # 36 (n, k) cells, two genera, three degrees: the report lists the
        # failures as a loop over g, then n, d and k would meet them
        report = grid_sweep("involution", GridBounds(6, 6, 2, 3, 1), negative_control=True)
        expected = [
            (g, n, d, k)
            for g in (2, 3)
            for n in range(1, 7)
            for d in (-1, 0, 1)
            for k in range(1, 7)
        ]
        assert [f.inputs for f in report.failures] == expected

    def test_json_dict_schema(self):
        report = grid_sweep("bott-szenes", GridBounds(2, 2, 2, 2, 0))
        payload = report.to_json_dict()
        assert set(payload) == {"check", "instances_run", "skipped_unsupported", "failures"}
        report = grid_sweep("duality", GridBounds(1, 1, 2, 2, 0))
        assert "note" in report.to_json_dict()


class TestReportInvariants:
    def test_status_reflects_failures(self):
        clean = CheckReport("x", 3)
        assert clean.status == "pass"
        dirty = grid_sweep("elliptic", GridBounds(1, 1, 1, 1, 0), negative_control=True)
        assert dirty.status == "fail"


class TestUncertified:
    """An instance past the precision cap is counted, and the sweep goes on."""

    @pytest.mark.parametrize("name", ["theorem1", "bott-szenes"])
    def test_sweep_past_the_cap_finishes(self, name):
        report = grid_sweep(name, GridBounds(3, 3, 2, 40, 3), max_precision_bits=64)
        assert report.uncertified > 0 and report.instances_run > 0
        assert report.failures == ()
        assert report.status == "uncertified"

    def test_status_order(self):
        # a failure outranks an uncertified instance, which outranks empty
        failure = CheckFailure((2, 1, 0, 1), "1", "2")
        assert CheckReport("x", 3, (failure,), uncertified=1).status == "fail"
        assert CheckReport("x", 3, uncertified=1).status == "uncertified"
        assert CheckReport("x", 0, uncertified=1).status == "uncertified"
        assert CheckReport("x", 3).uncertified == 0


class TestMutantMatrix:
    """Every check on the default grid under four broken engines.

    A mutant must end in a reported FAIL, never an exception, and the
    checks that catch each one are pinned, so a check that catches nothing
    says so here: `involution` is theta arithmetic and evaluates no
    dimension, so it never counts as evidence for the engine.
    """

    @pytest.mark.parametrize(
        "module,name,mutant,catchers",
        [
            (verlinde, "reduced_sum_terms", multiplicity_plus_one,
             {"theorem1", "bott-szenes", "duality", "elliptic"}),
            (verlinde, "reduced_sum_terms", first_profile_is_the_second,
             {"theorem1", "bott-szenes", "duality"}),
            (verlinde, "reduced_sum_terms", modulus_plus_one,
             {"theorem1", "bott-szenes", "duality"}),
            (checks, "gl_dim", transfer_by_rank, {"theorem1", "duality"}),
        ],
        ids=["multiplicity+1", "profile-swap", "modulus+1", "transfer-by-n^g"],
    )
    def test_each_mutant_is_reported(self, monkeypatch, module, name, mutant, catchers):
        monkeypatch.setattr(module, name, mutant)
        verlinde.beauville_sum.cache_clear()
        try:
            reports = {check: grid_sweep(check, GridBounds(3, 3, 1, 3, 3)) for check in CHECK_NAMES}
        finally:
            verlinde.beauville_sum.cache_clear()
        assert all(report.instances_run > 0 for report in reports.values())
        assert {check for check, report in reports.items() if report.status == "fail"} == catchers
        assert all(reports[check].status == "pass" for check in set(CHECK_NAMES) - catchers)
        assert reports["involution"].status == "pass"

    def test_broken_proof_is_the_instance_failure(self, monkeypatch):
        monkeypatch.setattr(verlinde, "reduced_sum_terms", first_profile_is_the_second)
        verlinde.beauville_sum.cache_clear()
        try:
            report = grid_sweep("bott-szenes", GridBounds(3, 3, 2, 2, 0))
        finally:
            verlinde.beauville_sum.cache_clear()
        assert report.instances_run == 9 and report.failures
        first = report.failures[0]
        assert first.lhs.startswith("NoIntegerInInterval: no integer in ")
        assert first.rhs == ""
