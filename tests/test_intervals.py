"""Kernel tests: pi and sine enclosures, sum evaluation, integer certification."""

import math
from fractions import Fraction

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
    SineProductTerm,
    _GUARD_BITS,
    _SINE_EXTRA_BITS,
    _SINE_WIDTH_UNITS,
    _approx,
    _base_scaled,
    _first_rung,
    _pi_scaled,
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


class TestCertifiedInterval:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            CertifiedInterval(Fraction(2), Fraction(1), 64)

    def test_rejects_nonpositive_precision(self):
        with pytest.raises(ValueError):
            CertifiedInterval(Fraction(0), Fraction(1), 0)

    def test_width_and_contains(self):
        iv = CertifiedInterval(Fraction(1, 3), Fraction(2, 3), 64)
        assert iv.width == Fraction(1, 3)
        assert iv.lo <= Fraction(1, 2) <= iv.hi
        assert not iv.lo <= 1 <= iv.hi


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


class TestSineProductTerm:
    def test_reduces_offsets_into_range(self):
        term = SineProductTerm(5, ((7, 1), (-1, 2)))
        assert term.factors == ((2, 1), (4, 2))

    def test_rejects_zero_offset(self):
        with pytest.raises(ValueError):
            SineProductTerm(5, ((10, 1),))

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError, match="exponents must be nonnegative"):
            SineProductTerm(4, ((1, 2), (3, -1)))


class TestEvaluateSum:
    def test_empty_sum_is_exactly_zero(self):
        iv = evaluate_sum([], Fraction(5), Fraction(1, 4))
        assert iv.lo == iv.hi == 0

    @pytest.mark.parametrize("modulus", range(2, 31))
    def test_full_sine_product_equals_modulus(self, modulus):
        term = SineProductTerm(modulus, tuple((j, 1) for j in range(1, modulus)))
        iv = evaluate_sum([(Fraction(1), term)], Fraction(1), Fraction(1, 4))
        assert certify_integer(iv) == modulus

    def test_three_subset_sum_certifies_four(self):
        # Rank-2 level-1 genus-2 sum written out by hand: the three
        # 2-element subsets of {1, 2, 3}, each term contributing 3.
        terms = [
            (Fraction(1), SineProductTerm(3, ((1 - 3, 1), (2 - 3, 1)))),
            (Fraction(1), SineProductTerm(3, ((1 - 2, 1), (3 - 2, 1)))),
            (Fraction(1), SineProductTerm(3, ((2 - 1, 1), (3 - 1, 1)))),
        ]
        iv = evaluate_sum(terms, Fraction(2, 3) ** 2, Fraction(1, 4))
        assert certify_integer(iv) == 4

    def test_negative_coefficients_and_scale(self):
        term = SineProductTerm(6, ((1, 2),))  # |2 sin(pi/6)|^2 = 1
        iv = evaluate_sum([(Fraction(-3), term)], Fraction(-2), Fraction(1, 4))
        assert certify_integer(iv) == 6

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError):
            evaluate_sum([], Fraction(1), Fraction(0))

    def test_precision_cap_raises(self):
        term = SineProductTerm(5, ((1, 1),))
        with pytest.raises(CertificationError):
            evaluate_sum(
                [(Fraction(1), term)],
                Fraction(1),
                Fraction(1, 2**1000),
                max_bits=256,
            )

    @given(
        data=st.data(),
        modulus=st.integers(2, 12),
        scale=st.fractions(min_value=-8, max_value=8, max_denominator=9).filter(bool),
    )
    @settings(max_examples=60, deadline=None)
    def test_signed_sums_contain_oracle(self, data, modulus, scale):
        factor = st.tuples(st.integers(1, modulus - 1), st.integers(0, 4))
        term = st.tuples(
            st.fractions(min_value=-6, max_value=6, max_denominator=5),
            st.sampled_from([SineProductTerm, CosecantSquaredTerm]),
            st.lists(factor, max_size=3),
        )
        drawn = data.draw(st.lists(term, min_size=1, max_size=4))
        terms = [(coeff, kind(modulus, tuple(factors))) for coeff, kind, factors in drawn]
        oracle = Fraction(0)
        for coeff, kind, factors in drawn:
            value = Fraction(coeff)
            for m, e in factors:
                x = two_sin_fraction(m, modulus, dps=120)
                value *= (x if kind is SineProductTerm else 4 / x**2) ** e
            oracle += value
        oracle *= scale
        iv = evaluate_sum(terms, scale, Fraction(1, 2**20))
        assert iv.lo - ORACLE_SLACK <= oracle <= iv.hi + ORACLE_SLACK
        assert iv.width <= Fraction(1, 2**20)

    def test_cold_sum_encloses_sines_only_at_its_rung(self, monkeypatch):
        term = SineProductTerm(7, ((1, 1), (2, 1), (3, 1)))  # sqrt(7)
        target = Fraction(1, 2**200)
        assert _first_rung([(Fraction(1), term)], Fraction(1), target, 16384) == 256
        original = intervals.sin_enclosure
        requested = []

        def counting(m, modulus, precision_bits):
            requested.append(precision_bits)
            return original(m, modulus, precision_bits)

        original.cache_clear()
        _pi_scaled.cache_clear()
        monkeypatch.setattr(intervals, "sin_enclosure", counting)
        try:
            iv = evaluate_sum([(Fraction(1), term)], Fraction(1), target)
        finally:
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

        monkeypatch.setattr(intervals, "sin_enclosure", counting)
        _sum_scaled(terms, Fraction(1), 64)
        _sum_scaled(terms, Fraction(1), 128)
        assert sorted(requested) == [(1, 64), (1, 128), (2, 64), (2, 128), (4, 64), (4, 128)]

    def test_cosecant_factors_are_at_least_one_at_every_lookup_rung(self):
        # the lookup cells have moduli n + k <= 16 and certify at 64, 128
        # or 256 bits; csc^2 >= 1 keeps every rounding error relative
        for bits in (64, 128, 256):
            work = bits + _GUARD_BITS
            for modulus in range(2, 17):
                for m in range(1, modulus):
                    lo, hi = _base_scaled(True, modulus, m, bits)
                    assert 1 << work <= lo <= hi, (bits, modulus, m)
                    if 2 * m == modulus:
                        assert lo == hi == 1 << work

    def test_no_fraction_is_built_below_evaluate_sum(self, monkeypatch):
        # sines (offset 4 of 8 is the half turn), bases, powers and sums stay
        # integers; cold caches make every sine and pi bound run under the stub
        def no_fraction(*args):
            raise AssertionError("a Fraction was built below evaluate_sum")

        sums = [
            [(1, CosecantSquaredTerm(8, ((1, 2), (4, 3)))), (3, CosecantSquaredTerm(8, ()))],
            [(Fraction(-2, 3), SineProductTerm(7, ((1, 1), (2, 2), (3, 1))))],
        ]
        _pi_scaled.cache_clear()
        sin_enclosure.cache_clear()
        monkeypatch.setattr(intervals, "Fraction", no_fraction)
        try:
            for terms in sums:
                for bits in (64, 256):
                    lo, hi, work = _sum_scaled(terms, Fraction(5, 3), bits)
                    assert type(lo) is type(hi) is int and lo < hi
        finally:
            _pi_scaled.cache_clear()
            sin_enclosure.cache_clear()

    def test_width_shrinks_when_precision_doubles(self):
        term = SineProductTerm(7, ((1, 1), (2, 1), (3, 1)))
        widths = []
        for bits in (64, 128, 256):
            lo, hi, work = _sum_scaled([(Fraction(1), term)], Fraction(1), bits)
            widths.append(Fraction(hi - lo, 1 << work))
        assert widths[0] > widths[1] > widths[2]


class TestCertifyInteger:
    def test_unique_integer(self):
        iv = CertifiedInterval(Fraction(39, 10), Fraction(41, 10), 64)
        assert certify_integer(iv) == 4

    def test_no_integer(self):
        iv = CertifiedInterval(Fraction(34, 10), Fraction(36, 10), 64)
        with pytest.raises(NoIntegerInInterval):
            certify_integer(iv)

    def test_wide_interval_is_ambiguous(self):
        iv = CertifiedInterval(Fraction(29, 10), Fraction(41, 10), 64)
        with pytest.raises(AmbiguousInterval):
            certify_integer(iv)

    def test_width_exactly_half_is_ambiguous(self):
        iv = CertifiedInterval(Fraction(1, 10), Fraction(6, 10), 64)
        with pytest.raises(AmbiguousInterval):
            certify_integer(iv)

    def test_degenerate_exact_integer(self):
        iv = CertifiedInterval(Fraction(7), Fraction(7), 64)
        assert certify_integer(iv) == 7

    def test_negative_values(self):
        iv = CertifiedInterval(Fraction(-41, 10), Fraction(-39, 10), 64)
        assert certify_integer(iv) == -4

    @given(
        lo=st.one_of(
            st.integers(-6, 6).map(Fraction),
            st.fractions(min_value=-6, max_value=6, max_denominator=1000),
            st.builds(
                Fraction, st.integers(-6 << 40, 6 << 40), st.integers(0, 40).map(lambda e: 1 << e)
            ),
        ),
        width=st.one_of(
            st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)]),
            st.fractions(min_value=0, max_value=1, max_denominator=1000),
            st.builds(Fraction, st.integers(0, 1 << 40), st.just(1 << 40)),
        ),
    )
    @example(lo=Fraction(-1, 4), width=Fraction(1, 2))  # width exactly 1/2 around 0
    @example(lo=Fraction(3), width=Fraction(1, 2))  # width exactly 1/2 from an integer
    @example(lo=Fraction(-9, 4), width=Fraction(1, 4))  # negative, integer upper end
    @example(lo=Fraction(-7, 3), width=Fraction(1, 12))  # negative, no integer
    @example(lo=Fraction(-2), width=Fraction(0))  # negative integer, exact
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_reference(self, lo, width):
        hi = lo + width
        iv = CertifiedInterval(lo, hi, 64)
        # the reference: Fraction arithmetic, math.ceil and math.floor
        if width >= Fraction(1, 2):
            kind = AmbiguousInterval
            message = f"width {_approx(width, '.3g')} >= 1/2; refine before certifying"
        elif math.ceil(lo) > math.floor(hi):
            kind = NoIntegerInInterval
            message = f"no integer in [{_approx(lo, '.6f')}, {_approx(hi, '.6f')}]"
        else:
            assert certify_integer(iv) == math.ceil(lo) == math.floor(hi)
            return
        with pytest.raises(kind) as caught:
            certify_integer(iv)
        assert str(caught.value) == message
