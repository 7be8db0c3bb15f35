"""Kernel tests: pi and sine enclosures, sum evaluation, integer certification."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thetadim import intervals
from thetadim.intervals import (
    AmbiguousInterval,
    CertificationError,
    CertifiedInterval,
    CosecantSquaredTerm,
    NoIntegerInInterval,
    _GUARD_BITS,
    _SINE_EXTRA_BITS,
    _SINE_WIDTH_UNITS,
    _arctan_inv_scaled,
    _base_estimate,
    _base_scaled,
    _first_rung,
    _pi_scaled,
    _power_scaled,
    _sin_series_scaled,
    _sum_scaled,
    certify_integer,
    evaluate_sum,
    sin_enclosure,
)
from trig_oracle import pi_fraction, two_sin_fraction

# Allows for the oracle's own ~10**-78 rounding; anything a real defect
# would produce is many orders of magnitude larger.
ORACLE_SLACK = Fraction(1, 10**70)


def _all_offsets(top):
    """Every (m, M) with 0 < m < M <= top."""
    return [(m, modulus) for modulus in range(2, top + 1) for m in range(1, modulus)]


def _sine(m, modulus, bits):
    """The enclosure of 2 sin(pi m / M) as Fractions at the scale 2**-(bits + 32)."""
    return tuple(Fraction(b, 2 ** (bits + _GUARD_BITS)) for b in sin_enclosure(m, modulus, bits))


@st.composite
def _one_kind_terms(draw):
    """A modulus M and one to four (multiplicity, factors) of csc^2 terms over M."""
    modulus = draw(st.integers(2, 12))
    factor = st.tuples(st.integers(1, modulus - 1), st.integers(0, 4))
    term = st.tuples(st.integers(1, 6), st.lists(factor, max_size=3))
    return modulus, draw(st.lists(term, min_size=1, max_size=4))


def _value(iv):
    """The exact endpoints of a certified interval, as Fractions."""
    return Fraction(iv.lo, 1 << iv.scale_bits), Fraction(iv.hi, 1 << iv.scale_bits)


class TestCertifiedInterval:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            CertifiedInterval(2, 1, 0, 64)

    def test_rejects_nonpositive_precision(self):
        with pytest.raises(ValueError):
            CertifiedInterval(0, 1, 0, 0)

    def test_width_and_contains(self):
        # [3/8, 5/8]: the endpoints are integers at the scale 2**-3
        iv = CertifiedInterval(3, 5, 3, 64)
        assert iv.hi - iv.lo == 2 and _value(iv) == (Fraction(3, 8), Fraction(5, 8))
        assert iv.lo <= 1 << (iv.scale_bits - 1) <= iv.hi
        assert not iv.lo <= 1 << iv.scale_bits <= iv.hi
        with pytest.raises(ValueError, match="scale_bits must be nonnegative"):
            CertifiedInterval(0, 1, -1, 64)


class TestPiEnclosure:
    @pytest.mark.parametrize("bits", [1, 8, 64, 128, 256, 1024, 4096, 16384])
    def test_contains_pi_and_meets_width(self, bits):
        # at the kernel's scale and at the finer one the sine series use,
        # up to the default precision cap
        oracle = pi_fraction(dps=400)
        for work in (bits + _GUARD_BITS, bits + _GUARD_BITS + _SINE_EXTRA_BITS):
            lo, hi = _pi_scaled(work)
            assert Fraction(lo, 1 << work) - ORACLE_SLACK <= oracle
            assert oracle <= Fraction(hi, 1 << work) + ORACLE_SLACK
            assert 0 < hi - lo <= 2, work


class TestSinEnclosure:
    def test_half_turn_is_exact(self):
        for bits in (1, 64, 333):
            lo, hi = _sine(1, 2, bits)
            assert lo == hi == 2

    def test_pi_sixth_tight_around_one(self):
        lo, hi = _sine(1, 6, 64)
        assert lo <= 1 <= hi
        assert hi - lo <= Fraction(1, 2**63)

    def test_pi_fifth_matches_oracle(self):
        lo, hi = _sine(1, 5, 64)
        oracle = two_sin_fraction(1, 5)
        assert lo <= oracle <= hi
        # 2*sin(36 degrees) = 1.17557050...
        assert abs(Fraction(117557050, 10**8) - oracle) < Fraction(1, 10**8)

    @pytest.mark.parametrize("m,modulus", [(0, 5), (-1, 5), (5, 5), (6, 5)])
    def test_rejects_out_of_range_offsets(self, m, modulus):
        with pytest.raises(ValueError):
            sin_enclosure(m, modulus, 64)

    @pytest.mark.parametrize(
        "call, message",
        [
            pytest.param(lambda: sin_enclosure(1, 5, 0), "precision_bits must be positive",
                         id="precision-0"),
            # sin(pi / 2**50), about 2**-48.3, floors to 0 at the scale 2**-(1 + _GUARD_BITS)
            pytest.param(lambda: sin_enclosure(1, 2**50, 1),
                         "modulus too large for this working precision", id="modulus-2**50"),
            pytest.param(lambda: _sin_series_scaled(1, 0, 8),
                         r"series argument must lie in \[0, 2\]", id="series-den-0"),
            pytest.param(lambda: _sin_series_scaled(-1, 1, 8),
                         r"series argument must lie in \[0, 2\]", id="series-negative"),
            pytest.param(lambda: _sin_series_scaled(3 << 8, 1, 8),
                         r"series argument must lie in \[0, 2\]", id="series-above-2"),
        ],
    )
    def test_guards_raise_their_messages(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    @given(
        modulus=st.integers(2, 40),
        m=st.integers(1, 39),
        bits=st.sampled_from([64, 128, 256]),
    )
    @settings(max_examples=60, deadline=None)
    def test_soundness_against_oracle(self, modulus, m, bits):
        m = 1 + m % (modulus - 1)
        lo, hi = _sine(m, modulus, bits)
        oracle = two_sin_fraction(m, modulus, dps=120)
        assert lo - ORACLE_SLACK <= oracle <= hi + ORACLE_SLACK
        assert hi - lo <= Fraction(2) ** (1 - bits)

    def test_refinement_monotone(self):
        # every enclosure nests inside the one of the rung below
        for m, modulus in _all_offsets(64):
            coarse = _sine(m, modulus, 64)
            for bits in (128, 256, 512, 1024):
                fine = _sine(m, modulus, bits)
                assert coarse[0] <= fine[0] and fine[1] <= coarse[1], (m, modulus, bits)
                coarse = fine

    def test_upper_bound_covers_the_width_of_pi(self, monkeypatch):
        # With pi 2**20 units wide each way, the series at the lower angle
        # alone falls short of the sine; the 1-Lipschitz term b - a must
        # make up the gap.
        original = intervals._pi_scaled

        def widened(work_bits):
            lo, hi = original(work_bits)
            return lo - 2**20, hi + 2**20

        _pi_scaled.cache_clear()
        sin_enclosure.cache_clear()
        monkeypatch.setattr(intervals, "_pi_scaled", widened)
        try:
            for m, modulus in ((1, 3), (2, 7), (5, 16)):
                lo, hi = _sine(m, modulus, 64)
                oracle = two_sin_fraction(m, modulus, dps=120)
                assert lo - ORACLE_SLACK <= oracle <= hi + ORACLE_SLACK, (m, modulus)
        finally:
            _pi_scaled.cache_clear()
            sin_enclosure.cache_clear()


class TestSinEnclosureWidths:
    # at most _SINE_WIDTH_UNITS (4) units of the working scale
    # 2**-(bits + 32), up to the default precision cap
    @pytest.mark.parametrize(
        "bits,top", [(64, 64), (128, 64), (256, 64), (1024, 64), (4096, 16), (16384, 4)]
    )
    def test_at_most_four_units_wide(self, bits, top):
        assert _SINE_WIDTH_UNITS == 4
        for m, modulus in _all_offsets(top):
            lo, hi = sin_enclosure(m, modulus, bits)
            assert hi - lo <= _SINE_WIDTH_UNITS, (m, modulus)


def _mp_contains(f, num, den, lo, hi, work_bits):
    """Whether [lo, hi] / 2**work_bits contains f(num / den), for an mpmath
    function f whose arguments are at most 2 and whose slope at t, times t,
    is at most twice max(1, |f(t)|).

    f runs at 4 * work_bits bits, where its error, a few units in the last
    place of max(1, |f|), is far below one unit of the scale; only while an
    endpoint lies within that error of the value are the bits doubled, so
    the answer is exact for every irrational value.
    """
    bits = 4 * work_bits
    while bits <= 64 * work_bits:
        with mpmath.workprec(bits):
            value = f(mpmath.mpf(num) / den)
            error = mpmath.ldexp(max(1, abs(value)), 8 - bits)
            below, above = mpmath.ldexp(lo, -work_bits), mpmath.ldexp(hi, -work_bits)
            if below <= value - error and value + error <= above:
                return True
            if below > value + error or value - error > above:
                return False
        bits *= 2
    raise AssertionError(f"undecided at {bits // 2} bits")


# csc^2(pi q) at the turns q in (0, 1/2) where it is rational (Niven's
# theorem), which no precision separates from an endpoint equal to it
_RATIONAL_COSECANTS = {Fraction(1, 6): 4, Fraction(1, 4): 2, Fraction(1, 3): Fraction(4, 3)}


class TestRoundingSpecs:
    """Each primitive against its own specification at its smallest working
    scales, 4 to 24 bits or, for the kernel's bases and sums, the 33 to 56
    bits of precisions 1 to 24, where a rounding turned the wrong way costs
    a whole unit that no guard bit absorbs."""

    @given(
        work_bits=st.integers(4, 24),
        lo=st.integers(1, 2**27),
        extra=st.integers(0, 8),
        e=st.integers(0, 40),
    )
    @example(work_bits=4, lo=3, extra=0, e=2)
    @example(work_bits=4, lo=3, extra=0, e=6)
    @example(work_bits=4, lo=3, extra=0, e=3)
    @settings(max_examples=300, deadline=None)
    def test_power_bounds_the_exact_power(self, work_bits, lo, extra, e):
        # x**e for x in [lo, hi] / 2**w lies in [r_lo, r_hi] / 2**w, that is
        # r_lo * 2**(w e) <= lo**e * 2**w and r_hi * 2**(w e) >= hi**e * 2**w,
        # in exact integers; e = 2 is one squaring, e = 6 squares the
        # base in both of the function's loops, and odd exponents multiply
        lo %= 1 << (work_bits + 3)
        lo += 1
        hi = lo + extra
        r_lo, r_hi = _power_scaled(lo, hi, e, work_bits)
        assert r_lo << (work_bits * e) <= lo**e << work_bits
        assert r_hi << (work_bits * e) >= hi**e << work_bits

    @given(
        work_bits=st.integers(4, 24),
        den=st.integers(1, 1000),
        where=st.fractions(0, 1),
    )
    @example(work_bits=4, den=1, where=Fraction(1, 32))
    @example(work_bits=24, den=7, where=Fraction(1, 2))
    @settings(max_examples=200, deadline=None)
    def test_sine_series_contains_the_sine(self, work_bits, den, where):
        # the angle t = num / (den * 2**w) anywhere in (0, 2]
        top = den << (work_bits + 1)
        num = max(1, int(where * top))
        lo, hi = _sin_series_scaled(num, den, work_bits)
        assert _mp_contains(mpmath.sin, num, den << work_bits, lo, hi, work_bits)

    @given(work_bits=st.integers(4, 24), x=st.integers(2, 300))
    @example(work_bits=4, x=5)
    @example(work_bits=24, x=239)
    @settings(max_examples=200, deadline=None)
    def test_arctan_series_contains_the_arctan(self, work_bits, x):
        lo, hi = _arctan_inv_scaled(x, work_bits)
        assert _mp_contains(mpmath.atan, 1, x, lo, hi, work_bits)

    @given(precision=st.integers(1, 24), modulus=st.integers(2, 64), m=st.integers(1, 63))
    @example(precision=1, modulus=5, m=2)
    @example(precision=24, modulus=8, m=4)
    @settings(max_examples=300, deadline=None)
    def test_cosecant_base_contains_the_cosecant(self, precision, modulus, m):
        # the only base the kernel multiplies, at working scales of 33 to 56
        # bits: 2**w <= lo <= csc^2(pi m / M) * 2**w <= hi, exact at the
        # half turn
        m = 1 + m % (modulus - 1)
        work_bits = precision + _GUARD_BITS
        lo, hi = _base_scaled(m, modulus, precision)
        assert 1 << work_bits <= lo <= hi
        turn = Fraction(m, modulus)
        exact = _RATIONAL_COSECANTS.get(min(turn, 1 - turn))
        if 2 * m == modulus:
            assert lo == hi == 1 << work_bits
        elif exact is not None:
            assert lo <= exact * 2**work_bits <= hi
        else:
            csc_squared = lambda t: mpmath.csc(mpmath.pi * t) ** 2
            assert _mp_contains(csc_squared, m, modulus, lo, hi, work_bits)

    @given(
        precision=st.integers(1, 24),
        factors=st.lists(
            st.tuples(st.integers(1, 63), st.integers(0, 2**27), st.integers(0, 8),
                      st.integers(0, 3)),
            min_size=1, max_size=4, unique_by=lambda factor: factor[0],
        ),
        coeff=st.integers(1, 6),
        power=st.integers(0, 3),
    )
    @example(precision=1, factors=[(1, 5, 1, 1), (2, 7, 0, 1)], coeff=1, power=1)
    @settings(max_examples=200, deadline=None)
    def test_sum_bounds_the_product_of_its_powers(self, precision, factors, coeff, power):
        # with each base stubbed by [lo, lo + extra] / 2**w, lo >= 2**w, a
        # term's bounds enclose coeff times the exact product of its factors'
        # power bounds P: t_lo * 2**(w (F - 1)) <= coeff * prod P_lo and
        # t_hi * 2**(w (F - 1)) >= coeff * prod P_hi, in exact integers
        work_bits = precision + _GUARD_BITS
        bases = {}
        for m, lo, extra, _ in factors:
            lo = (1 << work_bits) + lo % (1 << (work_bits + 3))
            bases[m] = lo, lo + extra
        term = CosecantSquaredTerm(64, tuple((m, e) for m, _, _, e in factors))
        with mock.patch.object(intervals, "_base_scaled", lambda m, modulus, bits: bases[m]):
            lo, hi, work = _sum_scaled([(coeff, term)], power, precision)
        assert work == work_bits
        product_lo = product_hi = coeff
        for m, e in term.factors:
            p_lo, p_hi = _power_scaled(*bases[m], e * power, work_bits)
            product_lo, product_hi = product_lo * p_lo, product_hi * p_hi
        shift = work_bits * (len(term.factors) - 1)
        assert lo << shift <= product_lo and hi << shift >= product_hi


class TestCosecantSquaredTerm:
    def test_reduces_offsets_into_range(self):
        term = CosecantSquaredTerm(5, ((7, 1), (-1, 2)))
        assert term.factors == ((2, 1), (4, 2))

    def test_rejects_zero_offset(self):
        with pytest.raises(ValueError):
            CosecantSquaredTerm(5, ((10, 1),))

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError, match="exponents must be nonnegative"):
            CosecantSquaredTerm(4, ((1, 2), (3, -1)))


class TestEvaluateSum:
    def test_empty_sum_is_exactly_zero(self):
        iv = evaluate_sum([], 1, 5, 0, 2)
        assert iv.lo == iv.hi == 0

    @pytest.mark.parametrize("modulus", range(2, 31))
    def test_full_sine_product_equals_modulus(self, modulus):
        # prod_d |2 sin(pi d / M)| = M over 0 < d < M, so the product of
        # csc^2 = 4 / (2 sin)^2 is 4**(M - 1) / M**2, and M**3 * 2**-(2(M - 1))
        # times it is M
        term = CosecantSquaredTerm(modulus, tuple((j, 1) for j in range(1, modulus)))
        iv = evaluate_sum([(1, term)], 1, modulus**3, 2 * (modulus - 1), 2)
        assert certify_integer(iv) == modulus

    def test_three_subset_sum_certifies_four(self):
        # Rank-2 level-1 genus-2 sum written out by hand: the three
        # 2-element subsets {s, t} of {1, 2, 3}, each term csc^2(pi (t - s)/3)
        # = 4/3 at the scale 3**2 * 2**-2, so contributing 3, raised to the
        # power g - 1 = 1; the sum is N = 9, and the exact division
        # s = N * 2**2 / 3**2 gives 4.
        terms = [
            (1, CosecantSquaredTerm(3, ((2 - 1, 1),))),
            (1, CosecantSquaredTerm(3, ((3 - 1, 1),))),
            (1, CosecantSquaredTerm(3, ((3 - 2, 1),))),
        ]
        total = certify_integer(evaluate_sum(terms, 1, 9, 2, 2))
        assert total == 9
        assert divmod(total * 2**2, 3**2) == (4, 0)
        # at the power 2 each term is 9
        assert certify_integer(evaluate_sum(terms, 2, 9, 2, 2)) == 27

    @pytest.mark.parametrize(
        "terms,scale",
        [
            ([(0, CosecantSquaredTerm(6, ((1, 2),)))], 1),
            ([(-3, CosecantSquaredTerm(6, ((1, 2),)))], 1),
            ([(3, CosecantSquaredTerm(6, ((1, 2),)))], 0),
            ([(3, CosecantSquaredTerm(6, ((1, 2),)))], -2),
            # a plain tuple of a term's fields is another kind of term
            ([(1, CosecantSquaredTerm(6, ((1, 1),))), (1, (6, ((2, 1),)))], 1),
            ([(1, CosecantSquaredTerm(6, ((1, 1),))), (1, CosecantSquaredTerm(7, ((1, 1),)))], 1),
        ],
        ids=["zero", "negative", "scale-0", "scale-negative", "mixed-kinds", "two-moduli"],
    )
    def test_rejects_sums_outside_the_contract(self, monkeypatch, terms, scale):
        # positive multiplicities of csc^2 terms over one modulus at a
        # positive scale, or a ValueError before any sine is enclosed
        def no_sine(*args):
            pytest.fail("a sine was enclosed before the sum was checked")

        monkeypatch.setattr(intervals, "sin_enclosure", no_sine)
        _base_scaled.cache_clear()
        with pytest.raises(ValueError, match=r"positive multiples of csc\^2 terms"):
            evaluate_sum(terms, 1, scale, 0, 2)

    def test_rejects_negative_power_or_shift(self):
        with pytest.raises(ValueError, match="power must be nonnegative"):
            evaluate_sum([], -1, 1, 0, 2)
        with pytest.raises(ValueError, match="shift must be nonnegative"):
            evaluate_sum([], 1, 1, -1, 2)
        with pytest.raises(ValueError, match="max_bits must be positive"):
            evaluate_sum([], 1, 1, 0, 2, max_bits=0)

    def test_precision_cap_raises(self):
        term = CosecantSquaredTerm(5, ((1, 1),))
        target = f"exceeds target 1/{1 << 1000} at the precision cap"
        with pytest.raises(CertificationError, match=target):
            evaluate_sum([(1, term)], 1, 1, 0, 1000, max_bits=256)

    def test_ladder_doubles_when_a_rung_misses(self, monkeypatch):
        # the pair-form table of (n, k) = (3, 1) at genus 90: power 89, scale
        # 3 * 4**2, shift 2 * C(3, 2), value 3**90; its estimate starts at
        # 128 bits, so a first rung of 64 must miss and the ladder climb
        table = [(3, CosecantSquaredTerm(4, ((1, 2), (2, 1))))]
        assert _first_rung(table, 89, 48, 6, 2, 16384) == 128
        tried = []

        def recording(prepared, power, precision):
            tried.append(precision)
            return _sum_scaled(prepared, power, precision)

        monkeypatch.setattr(intervals, "_first_rung", lambda *args: 64)
        monkeypatch.setattr(intervals, "_sum_scaled", recording)
        iv = evaluate_sum(table, 89, 48, 6, 2)
        assert (iv.precision_bits, certify_integer(iv), tried) == (128, 3**90, [64, 128])
        # under a 96-bit cap the doubled rung is clamped to the cap, and fails there
        tried.clear()
        with pytest.raises(CertificationError, match=r"at the precision cap \(96 bits\)"):
            evaluate_sum(table, 89, 48, 6, 2, max_bits=96)
        assert tried == [64, 96]

    def test_hopeless_estimate_forms_no_power_of_the_scale(self):
        # the term is 1, so only the scale is hopeless: (6 / 4)**(10**7) has
        # about 5.8 million bits, far past the 16384-bit cap, and the
        # estimate reads log2 6 and the shift before the scale is powered
        class Scale(int):
            def __pow__(self, power):
                pytest.fail("scale**power formed before a rung was accepted")

        with pytest.raises(CertificationError, match="estimated width"):
            evaluate_sum([(1, CosecantSquaredTerm(3, ()))], 10**7, Scale(6), 2, 2)

    @given(
        case=_one_kind_terms(),
        scale=st.integers(1, 8),
        shift=st.integers(0, 6),
        power=st.integers(0, 3),
    )
    # a scale 3 / 2**2 below 1, at an even power
    @example(case=(7, [(3, [(1, 2)]), (2, [(2, 1)])]), scale=3, shift=2, power=2)
    @settings(max_examples=60, deadline=None)
    def test_one_kind_sums_contain_oracle(self, case, scale, shift, power):
        modulus, drawn = case
        terms = [(coeff, CosecantSquaredTerm(modulus, tuple(factors))) for coeff, factors in drawn]
        oracle = Fraction(0)
        for coeff, factors in drawn:
            value = Fraction(coeff)
            for m, e in factors:
                x = two_sin_fraction(m, modulus, dps=120)
                value *= (4 / x**2) ** (e * power)
            oracle += value
        oracle *= Fraction(scale, 2**shift) ** power
        iv = evaluate_sum(terms, power, scale, shift, 20)
        lo, hi = _value(iv)
        assert lo - ORACLE_SLACK <= oracle <= hi + ORACLE_SLACK
        assert hi - lo <= Fraction(1, 2**20)

    def test_cold_sum_encloses_sines_only_at_its_rung(self, monkeypatch):
        term = CosecantSquaredTerm(7, ((1, 1), (2, 1), (3, 1)))  # 64 / 7
        target = 200
        assert _first_rung([(1, term)], 1, 1, 0, target, 16384) == 256
        original = intervals.sin_enclosure
        requested = []

        def counting(m, modulus, precision_bits):
            requested.append(precision_bits)
            return original(m, modulus, precision_bits)

        # the bases are cached above the sines, so all three start cold
        _base_scaled.cache_clear()
        original.cache_clear()
        _pi_scaled.cache_clear()
        monkeypatch.setattr(intervals, "sin_enclosure", counting)
        try:
            iv = evaluate_sum([(1, term)], 1, 1, 0, target)
        finally:
            _base_scaled.cache_clear()
            original.cache_clear()
            _pi_scaled.cache_clear()
        assert iv.precision_bits == 256
        assert requested == [256, 256, 256]

    def test_cosecant_sum_fetches_each_sine_once_per_rung(self, monkeypatch):
        # offsets 1 and 4 appear with several exponents
        terms = [
            (1, CosecantSquaredTerm(9, ((1, 2), (2, 1)))),
            (3, CosecantSquaredTerm(9, ((1, 5), (4, 1)))),
            (2, CosecantSquaredTerm(9, ((1, 2), (4, 3)))),
        ]
        original = intervals.sin_enclosure
        requested = []

        def counting(m, modulus, precision_bits):
            requested.append((m, precision_bits))
            return original(m, modulus, precision_bits)

        # the bases are cached above the sines, so both start cold
        _base_scaled.cache_clear()
        original.cache_clear()
        monkeypatch.setattr(intervals, "sin_enclosure", counting)
        _sum_scaled(terms, 1, 64)
        _sum_scaled(terms, 1, 128)
        assert sorted(requested) == [(1, 64), (1, 128), (2, 64), (2, 128), (4, 64), (4, 128)]
        # another genus (power) at a rung already seen requests no sine
        _sum_scaled(terms, 2, 64)
        assert len(requested) == 6

    def test_first_rung_estimates_each_base_once(self):
        # two tables over the modulus 11 share the offsets 1 and 3; each
        # distinct (M, m) is estimated once, whatever the power
        first = [
            (2, CosecantSquaredTerm(11, ((1, 2), (3, 1)))),
            (5, CosecantSquaredTerm(11, ((1, 1), (4, 3)))),
        ]
        second = [(1, CosecantSquaredTerm(11, ((3, 4), (5, 1))))]
        third = [(1, CosecantSquaredTerm(13, ((1, 1),)))]
        _base_estimate.cache_clear()
        rungs = [_first_rung(first, power, 1, 0, 2, 16384) for power in (1, 57)]
        assert _base_estimate.cache_info().misses == 3
        assert rungs[0] < rungs[1]
        _first_rung(second, 1, 1, 0, 2, 16384)
        _first_rung(third, 1, 1, 0, 2, 16384)
        # offset 5 is new, and offset 1 over another modulus is a new base
        assert _base_estimate.cache_info().misses == 5

    def test_cosecant_factors_are_at_least_one_at_every_lookup_rung(self):
        # the lookup cells have moduli n + k <= 16 and certify at 64, 128
        # or 256 bits; csc^2 >= 1 keeps every rounding error relative
        for bits in (64, 128, 256):
            work = bits + _GUARD_BITS
            for modulus in range(2, 17):
                for m in range(1, modulus):
                    lo, hi = _base_scaled(m, modulus, bits)
                    assert 1 << work <= lo <= hi, (bits, modulus, m)
                    if 2 * m == modulus:
                        assert lo == hi == 1 << work

    def test_no_fraction_is_built_below_evaluate_sum(self):
        # A fresh interpreter, so every sine and pi bound is computed cold,
        # runs csc^2 sums (offset 4 of 8 is the half turn) to an integer,
        # through every failure message of the kernel, and the certified
        # pair form; `fractions` is never even imported, so no
        # Fraction can have been built.
        code = """
import sys
from thetadim import beauville_sum, intervals as iv
sums = [
    [(1, iv.CosecantSquaredTerm(8, ((1, 2), (4, 3)))), (3, iv.CosecantSquaredTerm(8, ()))],
    [(2, iv.CosecantSquaredTerm(7, ((1, 1), (2, 2), (3, 1))))],
]
for terms in sums:
    for bits in (64, 256):
        lo, hi, work = iv._sum_scaled(terms, 3, bits)
        assert type(lo) is type(hi) is int and lo < hi
    result = iv.evaluate_sum(terms, 2, 5, 3, 2)
    assert all(type(x) is int for x in result)
full = iv.CosecantSquaredTerm(7, tuple((j, 1) for j in range(1, 7)))
assert iv.certify_integer(iv.evaluate_sum([(1, full)], 1, 7**3, 12, 2)) == 7
for interval, error in ((iv.CertifiedInterval(1, 9, 4, 64), iv.AmbiguousInterval),
                        (iv.CertifiedInterval(5, 6, 4, 64), iv.NoIntegerInInterval)):
    try:
        iv.certify_integer(interval)
    except error:
        pass
try:
    iv.evaluate_sum([(1, iv.CosecantSquaredTerm(5, ((1, 1),)))], 1, 1 << 3000, 0, 2, max_bits=64)
except iv.CertificationError:
    pass
try:
    iv.evaluate_sum([(0, iv.CosecantSquaredTerm(5, ((1, 1),)))], 1, 1, 0, 2)
except ValueError:
    pass
assert beauville_sum(12, 5, 5).value > 0
print(sorted(name for name in sys.modules if name in ("fractions", "decimal")))
"""
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_width_shrinks_when_precision_doubles(self):
        term = CosecantSquaredTerm(7, ((1, 1), (2, 1), (3, 1)))
        widths = []
        for bits in (64, 128, 256):
            lo, hi, work = _sum_scaled([(1, term)], 1, bits)
            widths.append(Fraction(hi - lo, 1 << work))
        assert widths[0] > widths[1] > widths[2]


def _dyadic(lo, hi):
    """Dyadic Fractions lo <= hi as one CertifiedInterval at their common scale."""
    bits = max(lo.denominator, hi.denominator).bit_length() - 1
    return CertifiedInterval(int(lo * 2**bits), int(hi * 2**bits), bits, 64)


class TestCertifyInteger:
    def test_unique_integer(self):
        iv = _dyadic(Fraction(31, 8), Fraction(33, 8))
        assert certify_integer(iv) == 4

    def test_no_integer(self):
        iv = _dyadic(Fraction(27, 8), Fraction(29, 8))
        with pytest.raises(NoIntegerInInterval):
            certify_integer(iv)

    def test_wide_interval_is_ambiguous(self):
        iv = _dyadic(Fraction(23, 8), Fraction(33, 8))
        with pytest.raises(AmbiguousInterval):
            certify_integer(iv)

    def test_width_exactly_half_is_ambiguous(self):
        iv = _dyadic(Fraction(1, 16), Fraction(9, 16))
        with pytest.raises(AmbiguousInterval):
            certify_integer(iv)

    def test_degenerate_exact_integer(self):
        assert certify_integer(CertifiedInterval(7, 7, 0, 64)) == 7
        assert certify_integer(CertifiedInterval(7 << 40, 7 << 40, 40, 64)) == 7

    def test_negative_values(self):
        iv = _dyadic(Fraction(-33, 8), Fraction(-31, 8))
        assert certify_integer(iv) == -4

    @given(
        lo=st.one_of(
            st.integers(-6, 6).map(Fraction),
            st.builds(
                Fraction, st.integers(-6 << 40, 6 << 40), st.integers(0, 40).map(lambda e: 1 << e)
            ),
        ),
        width=st.one_of(
            st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)]),
            st.builds(
                Fraction, st.integers(0, 1 << 40), st.integers(0, 40).map(lambda e: 1 << e)
            ).filter(lambda w: w <= 1),
        ),
    )
    @example(lo=Fraction(-1, 4), width=Fraction(1, 2))  # width exactly 1/2 around 0
    @example(lo=Fraction(3), width=Fraction(1, 2))  # width exactly 1/2 from an integer
    @example(lo=Fraction(-9, 4), width=Fraction(1, 4))  # negative, integer upper end
    @example(lo=Fraction(-19, 8), width=Fraction(5, 16))  # negative, no integer
    @example(lo=Fraction(-2), width=Fraction(0))  # negative integer, exact
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_reference(self, lo, width):
        hi = lo + width
        iv = _dyadic(lo, hi)
        assert _value(iv) == (lo, hi)
        # the reference: Fraction arithmetic, math.ceil and math.floor, and
        # the Fractions' own correctly rounded floats for the messages
        if width >= Fraction(1, 2):
            kind = AmbiguousInterval
            message = f"width {float(width):.3g} >= 1/2; refine before certifying"
        elif math.ceil(lo) > math.floor(hi):
            kind = NoIntegerInInterval
            message = f"no integer in [{float(lo):.6f}, {float(hi):.6f}]"
        else:
            assert certify_integer(iv) == math.ceil(lo) == math.floor(hi)
            return
        with pytest.raises(kind) as caught:
            certify_integer(iv)
        assert str(caught.value) == message
