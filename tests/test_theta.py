"""Symbolic layer tests: formal classes, descriptors, factorization laws."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetadim.theta import (
    DegreeMismatch,
    FormalLineClass,
    NonIntegralExponent,
    NotAMultiple,
    PullbackFactorization,
    RootEquation,
    ThetaDescriptor,
    complementary_invariants,
    jacobian_pullback,
    pullback_split,
    theta_rescale,
)

# Shared degree assignment keeps hypothesis-generated classes consistent.
_DEGREES = {"A": -2, "B": 0, "C": 1, "D": 3}

line_classes = st.dictionaries(
    st.sampled_from(sorted(_DEGREES)), st.integers(-6, 6), max_size=4
).map(lambda exps: FormalLineClass(exps, _DEGREES))


class TestFormalLineClass:
    def test_canonical_form_drops_zero_exponents(self):
        cls = FormalLineClass({"A": 0, "B": 2}, {"A": 5, "B": 1})
        assert cls == FormalLineClass({"B": 2}, {"B": 1})
        assert cls.format(explicit_exponents=True) == "B^2"

    def test_identity(self):
        one = FormalLineClass()
        assert one == FormalLineClass({"L": 0}, {"L": 3})
        assert one != FormalLineClass.symbol("L")
        assert not one == 3
        assert one.degree == 0
        assert str(one) == "O"

    def test_degree_homomorphism_on_symbols(self):
        cls = FormalLineClass.symbol("L", degree=3) ** 2 * FormalLineClass.symbol(
            "M", degree=-1
        )
        assert cls == FormalLineClass({"L": 2, "M": 1}, {"L": 3, "M": -1})
        assert cls.degree == 2 * 3 - 1

    def test_multiplication_cancels(self):
        a = FormalLineClass.symbol("L", degree=1)
        assert a * a**-1 == FormalLineClass()

    def test_conflicting_degrees_rejected(self):
        a = FormalLineClass.symbol("L", degree=1)
        b = FormalLineClass.symbol("L", degree=2)
        with pytest.raises(ValueError):
            a * b
        # refused even when the exponents of the symbol cancel
        with pytest.raises(ValueError, match="conflicting degrees for symbol 'L'"):
            a * b**-1

    def test_format_modes(self):
        cls = FormalLineClass({"L1": 1, "detF": 2})
        assert str(cls) == "L1.detF^2"
        assert cls.format(explicit_exponents=True) == "L1^1.detF^2"
        assert str(FormalLineClass({"detF0": -2})) == "detF0^-2"

    def test_symbols_sorted_by_name(self):
        cls = FormalLineClass({"detF": 2, "L1": 1})
        assert str(cls) == "L1.detF^2"

    @given(a=line_classes, b=line_classes, c=line_classes)
    @settings(max_examples=100, deadline=None)
    def test_abelian_group_laws(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert hash(a * b) == hash(b * a)
        assert a * FormalLineClass() == a
        assert a * a**-1 == FormalLineClass()
        assert (a * b).degree == a.degree + b.degree

    @given(a=line_classes, e=st.integers(-5, 5))
    @settings(max_examples=60, deadline=None)
    def test_power_matches_repeated_product(self, a, e):
        expected = FormalLineClass()
        base = a if e >= 0 else a**-1
        for _ in range(abs(e)):
            expected = expected * base
        assert a**e == expected


class TestComplementaryInvariants:
    def test_degree_zero_level_one(self):
        assert complementary_invariants(2, 2, 0, 1) == (1, 1)

    def test_coprime_degree(self):
        assert complementary_invariants(2, 3, 1, 2) == (6, 4)

    @pytest.mark.parametrize("g,k", [(2, 1), (3, 2), (5, 4)])
    def test_rank_one_at_critical_degree(self, g, k):
        assert complementary_invariants(g, 1, g - 1, k) == (k, 0)

    def test_euler_pairing_vanishes_on_grid(self):
        for g in range(1, 5):
            for n in range(1, 6):
                for d in range(-6, 7):
                    for k in range(1, 4):
                        n_F, d_F = complementary_invariants(g, n, d, k)
                        assert n * d_F + n_F * (d - n * (g - 1)) == 0


class TestThetaRescale:
    def test_worked_example(self):
        F = ThetaDescriptor(2, FormalLineClass.symbol("detF"))
        F0 = ThetaDescriptor(1, FormalLineClass.symbol("detF0"))
        a, twist = theta_rescale(F, F0)
        assert a == 2
        assert twist == FormalLineClass({"detF": 1, "detF0": -2})

    def test_identity_rescale(self):
        F = ThetaDescriptor(3, FormalLineClass.symbol("detF", degree=4))
        a, twist = theta_rescale(F, F)
        assert a == 1 and twist == FormalLineClass()

    def test_rank_mismatch(self):
        F = ThetaDescriptor(3, FormalLineClass.symbol("detF"))
        F0 = ThetaDescriptor(2, FormalLineClass.symbol("detF0"))
        with pytest.raises(NotAMultiple):
            theta_rescale(F, F0)

    def test_complementary_pairs_have_degree_zero_twist(self):
        rng = random.Random(20260809)
        for _ in range(300):
            g = rng.randint(1, 6)
            n = rng.randint(1, 6)
            d = rng.randint(-8, 8)
            k = rng.randint(1, 5)
            a = rng.randint(1, 4)
            rank0, deg0 = complementary_invariants(g, n, d, k)
            rank1, deg1 = complementary_invariants(g, n, d, a * k)
            F = ThetaDescriptor(rank1, FormalLineClass.symbol("detF", degree=deg1))
            F0 = ThetaDescriptor(rank0, FormalLineClass.symbol("detF0", degree=deg0))
            factor, twist = theta_rescale(F, F0)
            assert factor == a
            assert twist.degree == 0


class TestPullbackSplit:
    def test_worked_example(self):
        F = ThetaDescriptor(1, FormalLineClass.symbol("detF"))
        L1 = FormalLineClass.symbol("L1")
        fact = pullback_split(2, 0, 3, F, L1)
        assert fact.left_exponent == 3
        assert fact.right_descriptor.rank == 2
        assert fact.right_descriptor.det == FormalLineClass({"L1": 1, "detF": 2})

    def test_jacobian_specialization_exponent_one(self):
        # second factor of rank 1 and a minimal complementary twisting bundle
        for n, d in [(2, 0), (3, 1), (4, 2), (6, 4)]:
            minimal = n // math.gcd(n, d)
            F = ThetaDescriptor(minimal, FormalLineClass.symbol("detF"))
            fact = pullback_split(n, d, 1, F, FormalLineClass.symbol("L1", degree=d))
            assert fact.left_exponent == 1

    def test_duality_setting_exponent_is_level(self):
        for h in range(1, 5):
            for k in range(1, 5):
                for n_bar in range(1, 4):
                    for d_bar in range(-4, 5):
                        if math.gcd(n_bar, d_bar) != 1:
                            continue
                        F = ThetaDescriptor(1, FormalLineClass.symbol("detF"))
                        L1 = FormalLineClass.symbol("L1", degree=h * d_bar)
                        fact = pullback_split(h * n_bar, h * d_bar, k * n_bar, F, L1)
                        assert fact.left_exponent == k

    def test_non_integral_exponent(self):
        F = ThetaDescriptor(1, FormalLineClass.symbol("detF"))
        with pytest.raises(NonIntegralExponent):
            pullback_split(4, 1, 3, F, FormalLineClass.symbol("L1", degree=1))


class TestJacobianPullback:
    def _classes(self, g, n, d):
        _, d_F = complementary_invariants(g, n, d, 1)
        L = FormalLineClass.symbol("L", degree=d)
        detF = FormalLineClass.symbol("detF", degree=d_F)
        return L, detF

    def test_exponents(self):
        L, detF = self._classes(2, 2, 0)
        exponent, equation = jacobian_pullback(2, 2, 0, L, detF)
        assert exponent == 2
        assert equation == RootEquation(2, FormalLineClass({"L": 1, "detF": 2},
                                                           {"L": 0, "detF": 1}), 1)
        L, detF = self._classes(2, 2, 1)
        exponent, _ = jacobian_pullback(2, 2, 1, L, detF)
        assert exponent == 4

    def test_root_equation_rendering(self):
        L, detF = self._classes(2, 2, 0)
        _, equation = jacobian_pullback(2, 2, 0, L, detF)
        assert str(equation) == "N^2 = L.detF^2"
        assert equation.root_degree == 1

    def test_degree_consistency_on_grid(self):
        for g in range(1, 6):
            for n in range(1, 7):
                for d in range(-6, 7):
                    L, detF = self._classes(g, n, d)
                    exponent, equation = jacobian_pullback(g, n, d, L, detF)
                    h = math.gcd(n, d)
                    assert exponent == n * n // h
                    assert equation.rhs.degree == n * (g - 1)

    def test_wrong_degree_rejected(self):
        L = FormalLineClass.symbol("L", degree=0)
        detF = FormalLineClass.symbol("detF", degree=5)
        with pytest.raises(DegreeMismatch):
            jacobian_pullback(2, 2, 0, L, detF)


class TestDescriptors:
    def test_rank_validation(self):
        with pytest.raises(ValueError):
            ThetaDescriptor(0, FormalLineClass())
        with pytest.raises(ValueError):
            PullbackFactorization(0, ThetaDescriptor(1, FormalLineClass()))

    def test_equality_is_rank_and_det(self):
        det = FormalLineClass.symbol("detF", degree=1)
        assert ThetaDescriptor(2, det) == ThetaDescriptor(2, FormalLineClass.symbol("detF", degree=1))
        assert ThetaDescriptor(2, det) != ThetaDescriptor(3, det)


_L = FormalLineClass.symbol("L")


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: complementary_invariants(0, 2, 0, 1), ValueError,
                     "genus and rank must be >= 1", id="complementary-genus"),
        pytest.param(lambda: complementary_invariants(2, 0, 0, 1), ValueError,
                     "genus and rank must be >= 1", id="complementary-rank"),
        pytest.param(lambda: complementary_invariants(2, 2, 0, 0), ValueError,
                     "multiplier must be >= 1", id="complementary-multiplier"),
        pytest.param(lambda: jacobian_pullback(0, 2, 0, _L, _L), ValueError,
                     "genus and rank must be >= 1", id="jacobian-genus"),
        pytest.param(lambda: jacobian_pullback(2, 0, 0, _L, _L), ValueError,
                     "genus and rank must be >= 1", id="jacobian-rank"),
        pytest.param(lambda: FormalLineClass() * 3, TypeError,
                     "unsupported operand", id="product-with-int"),
        pytest.param(lambda: _L ** "x", TypeError, "unsupported operand", id="power-str"),
        pytest.param(lambda: _L ** 1.5, TypeError, "unsupported operand", id="power-float"),
        pytest.param(lambda: _L ** True, TypeError, "unsupported operand", id="power-bool"),
        pytest.param(lambda: FormalLineClass({"L": 0.5}), TypeError,
                     "exponents and degrees must be ints", id="exponent-float"),
        pytest.param(lambda: FormalLineClass({"L": True}), TypeError,
                     "exponents and degrees must be ints", id="exponent-bool"),
        pytest.param(lambda: FormalLineClass.symbol("L", degree=0.5), TypeError,
                     "exponents and degrees must be ints", id="degree-float"),
        pytest.param(lambda: FormalLineClass.symbol("L", degree="3"), TypeError,
                     "exponents and degrees must be ints", id="degree-str"),
    ],
)
def test_guards_raise_their_messages(call, error, message):
    with pytest.raises(error, match=message):
        call()
