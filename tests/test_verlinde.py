"""Engine tests: certified sums, dispatch, transfer, closed forms."""

import math
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetadim import verlinde
from thetadim.intervals import CosecantSquaredTerm, certify_integer, evaluate_sum
from thetadim.verlinde import (
    METHOD_ELLIPTIC,
    METHOD_RANK_ONE,
    METHOD_TRANSFER,
    METHOD_TRIG,
    MAX_PAIR_UPDATES,
    DimResult,
    UnsupportedQuery,
    VerlindeQuery,
    beauville_sum,
    gl_dim,
    reduced_sum_terms,
    sl_dim,
    symmetric_power_dim,
    verlinde_sum_terms,
)
from trig_oracle import FROZEN_SUMS, brute_force_sum

README = Path(__file__).resolve().parents[1] / "README.md"


def unreduced_value(g, n, k):
    """s_g from the unreduced reference sum: N_g certified with power g - 1
    at scale (n + k)^n and shift 2 C(n, 2), then s_g = N_g * n^g / (n + k)^g,
    a division that must be exact."""
    terms = verlinde_sum_terms(n, k)
    total = certify_integer(evaluate_sum(terms, g - 1, (n + k) ** n, 2 * math.comb(n, 2), 2))
    value, remainder = divmod(total * n**g, (n + k) ** g)
    assert remainder == 0, (g, n, k, total)
    return value


class TestVerlindeQuery:
    @pytest.mark.parametrize("g,n,k", [(0, 2, 1), (1, 0, 1), (1, 2, 0), (-3, 1, 1)])
    def test_rejects_bad_parameters(self, g, n, k):
        with pytest.raises(ValueError):
            VerlindeQuery(g, n, 0, k)

    def test_gcd_accessors(self):
        q = VerlindeQuery(2, 4, -6, 1)
        assert (q.h, q.rank // q.h, q.degree // q.h) == (2, 2, -3)

    def test_gcd_of_zero_degree_is_rank(self):
        q = VerlindeQuery(2, 5, 0, 1)
        assert (q.h, q.rank // q.h, q.degree // q.h) == (5, 1, 0)


class TestSumTerms:
    def test_subset_count_and_scale(self):
        terms = verlinde_sum_terms(2, 3)
        assert len(terms) == math.comb(5, 2)
        # every term has one factor per pair of its subset, of exponent 1,
        # and coefficient 1; the subsets come in lexicographic order
        assert all(c == 1 and len(t.factors) == math.comb(2, 2) for c, t in terms)
        assert all(e == 1 for _, t in terms for _, e in t.factors)
        assert [t.factors[0][0] for _, t in terms] == [1, 2, 3, 4, 1, 2, 3, 1, 2, 1]
        # at genus 2 (power 1), scale 5^2 and shift 2 the sum is
        # N_2 = s_2 * (5/2)^2, and the scale (2/5)^2 divides it exactly
        total = certify_integer(evaluate_sum(terms, 1, 5**2, 2, 2))
        assert total == 125
        assert divmod(total * 2**2, 5**2) == (20, 0)

    @pytest.mark.parametrize("table", [verlinde_sum_terms, reduced_sum_terms])
    @pytest.mark.parametrize("n,k", [(0, 2), (2, 0), (-1, -1)])
    def test_rejects_rank_or_level_below_one(self, table, n, k):
        with pytest.raises(ValueError, match="rank and level must both be >= 1"):
            table(n, k)

    def test_genus_one_power_zero_counts_subsets(self):
        # at genus 1 the power is 0, so every term is 1 and N_1 counts the
        # C(5, 3) subsets; s_1 = N_1 * 3/5
        terms = verlinde_sum_terms(3, 2)
        total = certify_integer(evaluate_sum(terms, 0, 5**3, 6, 2))
        assert total == math.comb(5, 3)
        assert unreduced_value(1, 3, 2) == 6


class TestBeauvilleSum:
    def test_frozen_examples(self):
        assert beauville_sum(1, 2, 2).value == 3
        assert beauville_sum(2, 2, 1).value == 4
        assert beauville_sum(2, 2, 3).value == 20
        assert beauville_sum(2, 3, 2).value == 45

    def test_result_is_certified_trig(self):
        result = beauville_sum(2, 2, 1)
        assert result == DimResult(4, METHOD_TRIG, True)

    @pytest.mark.parametrize("g", range(1, 6))
    @pytest.mark.parametrize("k", range(1, 11))
    def test_rank_one_row_is_one(self, g, k):
        assert beauville_sum(g, 1, k).value == 1

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("k", range(1, 9))
    def test_genus_one_collapse_to_binomial(self, n, k):
        assert beauville_sum(1, n, k).value == math.comb(n + k - 1, k)

    def test_against_frozen_oracle_table(self):
        for (g, n, k), expected in FROZEN_SUMS.items():
            assert beauville_sum(g, n, k).value == expected, (g, n, k)

    @pytest.mark.parametrize("g,n,k", [(2, 2, 4), (3, 3, 2), (2, 4, 3)])
    def test_against_live_oracle(self, g, n, k):
        assert beauville_sum(g, n, k).value == brute_force_sum(g, n, k)

    @given(
        g=st.integers(1, 6),
        nk=st.integers(2, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, 9 - n))),
    )
    @settings(max_examples=60, deadline=None)
    def test_pair_form_equals_unreduced_reference(self, g, nk):
        # the reference sums all n-subsets of Z/(n + k) as csc^2 products and
        # shares no reduction with the pair form behind beauville_sum
        n, k = nk
        assert beauville_sum(g, n, k).value == unreduced_value(g, n, k)

    def test_genus_one_is_the_closed_form(self, monkeypatch):
        # genus 1 is answered by C(h+k-1, k) at every degree: neither the
        # kernel nor the pair-form table is asked for anything
        called = []

        def recording(name, original):
            def record(*args, **kwargs):
                called.append(name)
                return original(*args, **kwargs)
            return record

        beauville_sum.cache_clear()
        for name in ("evaluate_sum", "reduced_sum_terms"):
            monkeypatch.setattr(verlinde, name, recording(name, getattr(verlinde, name)))
        # d = 0 and d = 6, both 0 mod 3; then h = gcd(4, 2) = 2
        assert sl_dim(VerlindeQuery(1, 3, 0, 2)) == DimResult(6, METHOD_ELLIPTIC, False)
        assert sl_dim(VerlindeQuery(1, 3, 6, 2)) == DimResult(6, METHOD_ELLIPTIC, False)
        assert sl_dim(VerlindeQuery(1, 4, 2, 3)) == DimResult(4, METHOD_ELLIPTIC, False)
        # v = s * (k/h)^g; the transfer carries the closed form's False
        assert gl_dim(VerlindeQuery(1, 3, 0, 2)) == DimResult(4, METHOD_TRANSFER, False)
        assert gl_dim(VerlindeQuery(1, 4, 2, 3)) == DimResult(6, METHOD_TRANSFER, False)
        assert called == []

    def test_work_bounds(self):
        # the subset count is checked first, then the pair work, at every
        # genus; the closed form answers genus 1 without either
        with pytest.raises(UnsupportedQuery, match="terms"):
            beauville_sum(2, 40, 40)
        assert math.comb(500, 2) * 500 > MAX_PAIR_UPDATES
        with pytest.raises(UnsupportedQuery, match="pair updates"):
            beauville_sum(2, 500, 1)
        with pytest.raises(UnsupportedQuery, match="pair updates"):
            beauville_sum(1, 500, 1)
        assert sl_dim(VerlindeQuery(1, 500, 0, 1)).value == 500
        # C(1999999, 999999) has about 600,000 digits; the subset bound
        # stops at the first partial product above it and never prints it
        start = time.perf_counter()
        with pytest.raises(UnsupportedQuery, match="more than 100000 terms") as info:
            beauville_sum(2, 10**6, 10**6)
        assert time.perf_counter() - start < 1.0
        assert len(str(info.value)) < 200


class TestPairFormTable:
    def test_one_table_serves_every_genus(self):
        # the subsets of one (n, k) are walked once for genera 2..30
        beauville_sum.cache_clear()
        reduced_sum_terms.cache_clear()
        values = [beauville_sum(g, 3, 4).value for g in range(2, 31)]
        assert reduced_sum_terms.cache_info().misses == 1
        assert values[:2] == [FROZEN_SUMS.get((2, 3, 4)), FROZEN_SUMS.get((3, 3, 4))]

    def test_table_is_a_tuple_of_genus_free_profiles(self):
        table = reduced_sum_terms(4, 3)
        assert type(table) is tuple
        assert all(type(entry) is tuple for entry in table)
        # the exponents are the pair counts c_d: the C(4, 2) pairs of each
        # subset, whatever the genus
        assert all(sum(c for _, c in t.factors) == math.comb(4, 2) for _, t in table)
        assert sum(m for m, _ in table) == math.comb(6, 3)
        assert reduced_sum_terms(4, 3) is table

    def test_table_bounds_its_own_work(self):
        # a direct call is bounded as a sum is: rank 1200 at level 1 would
        # recurse past Python's limit, and (40, 40) would walk without end
        start = time.perf_counter()
        with pytest.raises(UnsupportedQuery, match="pair updates"):
            reduced_sum_terms(1200, 1)
        with pytest.raises(UnsupportedQuery, match="more than 100000 terms"):
            reduced_sum_terms(40, 40)
        with pytest.raises(UnsupportedQuery, match="more than 100000 terms") as info:
            reduced_sum_terms(10**6, 10**6)
        assert time.perf_counter() - start < 1.0
        assert len(str(info.value)) < 200
        # rank 1 never walks, so no bound refuses it at any level
        start = time.perf_counter()
        assert reduced_sum_terms(1, 10**8) == ((1, CosecantSquaredTerm(10**8 + 1, ())),)
        assert beauville_sum(2, 1, 10**8).value == 1
        assert time.perf_counter() - start < 0.1

    def test_cache_bound_is_finite_and_documented(self):
        maxsize = reduced_sum_terms.cache_parameters()["maxsize"]
        assert maxsize is not None and maxsize > 0
        text = " ".join(README.read_text().split())
        documented = re.search(r"`verlinde\.reduced_sum_terms`, at most (\d+) tables", text)
        assert documented and int(documented.group(1)) == maxsize


class TestSlDim:
    def test_rank_one_is_point(self):
        result = sl_dim(VerlindeQuery(3, 1, 11, 9))
        assert result == DimResult(1, METHOD_RANK_ONE, False)

    def test_degree_zero_mod_rank_uses_trig_sum(self):
        result = sl_dim(VerlindeQuery(2, 2, 0, 1))
        assert result.value == 4 and result.method == METHOD_TRIG

    def test_genus_one_symmetric_power(self):
        result = sl_dim(VerlindeQuery(1, 4, 2, 3))
        assert result == DimResult(4, METHOD_ELLIPTIC, False)

    def test_unsupported_regime(self):
        with pytest.raises(UnsupportedQuery):
            sl_dim(VerlindeQuery(5, 3, 7, 2))

    @pytest.mark.parametrize(
        "g,n,k,value",
        [
            # 92,378 subsets in 2,377 pair-offset profiles
            (2, 10, 10, 32849636921916053280),
            # rank 2 at level 2000 is C(2003, 3), read off without a walk
            (2, 2, 2000, 1337337001),
            # the level-one law at the 128-bit rung
            (90, 3, 1, 3**90),
            # genus 1: the closed form C(12+12-1, 12)
            (1, 12, 12, 1352078),
        ],
    )
    def test_large_cells(self, g, n, k, value):
        assert math.comb(2003, 3) == 1337337001 and math.comb(23, 12) == 1352078
        method = METHOD_ELLIPTIC if g == 1 else METHOD_TRIG
        assert sl_dim(VerlindeQuery(g, n, 0, k)) == DimResult(value, method, g > 1)

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("g", range(2, 5))
    def test_level_one_law(self, n, g):
        assert sl_dim(VerlindeQuery(g, n, 0, 1)).value == n**g

    def test_degree_periodicity(self):
        for g in range(1, 4):
            for n in range(1, 5):
                for k in range(1, 4):
                    for d in range(-6, 7):
                        try:
                            base = sl_dim(VerlindeQuery(g, n, d, k)).value
                        except UnsupportedQuery:
                            with pytest.raises(UnsupportedQuery):
                                sl_dim(VerlindeQuery(g, n, d + n, k))
                            continue
                        assert sl_dim(VerlindeQuery(g, n, d + n, k)).value == base

    def test_level_rank_symmetry(self):
        for g in (2, 3):
            for n in range(1, 6):
                for k in range(1, 6):
                    lhs = sl_dim(VerlindeQuery(g, n, 0, k)).value * k**g
                    rhs = sl_dim(VerlindeQuery(g, k, 0, n)).value * n**g
                    assert lhs == rhs, (g, n, k)


class TestGlDim:
    def test_unique_section_of_canonical_theta(self):
        # M(2, 2(g-1)) at g = 2 carries a one-dimensional space at level 1.
        assert gl_dim(VerlindeQuery(2, 2, 2, 1)).value == 1

    def test_jacobian_level_power(self):
        result = gl_dim(VerlindeQuery(3, 1, 5, 2))
        assert result == DimResult(8, METHOD_TRANSFER, False)

    def test_degree_zero(self):
        result = gl_dim(VerlindeQuery(2, 2, 0, 1))
        assert result.value == 1 and result.certified

    def test_unsupported_propagates(self):
        with pytest.raises(UnsupportedQuery):
            gl_dim(VerlindeQuery(4, 3, 2, 1))

    def test_rank_one_full_moduli_matches_jacobian_count(self):
        # two routes to the same number: the transfer from a point moduli
        # space, and the abelian-variety section count m^g
        for g in range(1, 5):
            for d in (-3, 0, 5):
                for k in range(1, 5):
                    assert gl_dim(VerlindeQuery(g, 1, d, k)).value == k**g

    def test_no_integrality_violation_on_grid(self):
        for g in range(1, 5):
            for n in range(1, 6):
                for d in range(-10, 11):
                    for k in range(1, 6):
                        try:
                            result = gl_dim(VerlindeQuery(g, n, d, k))
                        except UnsupportedQuery:
                            continue
                        assert result.value >= 0


class TestClosedForms:
    def test_symmetric_power_dim(self):
        assert symmetric_power_dim(2, 3) == 4
        assert symmetric_power_dim(1, 5) == 1
        assert symmetric_power_dim(3, 2) == 6
        assert symmetric_power_dim(0, 0) == 1
        assert symmetric_power_dim(5, 0) == 1
        assert symmetric_power_dim(0, 4) == 0
        for m, k in [(-1, 2), (2, -1)]:
            with pytest.raises(ValueError, match="arguments must be nonnegative"):
                symmetric_power_dim(m, k)

    def test_symmetric_power_rows(self):
        for m in range(1, 21):
            assert symmetric_power_dim(m, 1) == m
        for k in range(1, 21):
            assert symmetric_power_dim(1, k) == 1
