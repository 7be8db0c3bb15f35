"""Symbolic calculus of theta bundles on moduli of vector bundles.

Line bundles are modeled as elements of the free abelian group on named
symbols ("L1", "detF", ...), each symbol carrying an integer degree on the
curve; the total degree is then a group homomorphism.  A class is one
sorted tuple of (symbol, exponent, degree) triples, so each symbol's degree
travels with its exponent through products and powers.  A theta bundle on a
full moduli space is determined by the rank of its twisting bundle together
with the formal class of its determinant, and the identities implemented
here are pure exponent bookkeeping on these data:

  * complementary invariants: the (rank, degree) a twisting bundle must
    have so that its Euler pairing with the moduli space vanishes;
  * rescaling: theta bundles for twisting bundles of proportional rank
    differ by a power and a determinant-pullback twist;
  * pullback along the tensor-product map, which splits into an outer
    power on the fixed-determinant factor and a theta bundle on the other
    factor; specializing the second factor to the Jacobian gives the
    power n^2/h together with an n-th root constraint.

Torsion relations are deliberately absent (the group is free); n-th roots
are therefore reported as constraint equations instead of being extracted.
All values are immutable and all operations pure.
"""

import math
from collections import namedtuple
from collections.abc import Mapping


class NotAMultiple(Exception):
    """Rescaling requires the first rank to be a multiple of the second."""


class NonIntegralExponent(Exception):
    """The pullback exponent is not an integer: inconsistent inputs."""


class DegreeMismatch(Exception):
    """A degree constraint on formal line classes is violated."""


class FormalLineClass:
    """Element of the free abelian group on named line-bundle symbols.

    The class is one tuple of (symbol, exponent, degree) triples, sorted by
    symbol, with zero exponents dropped; a symbol's degree is kept only
    while its exponent is nonzero, so structural equality decides
    identity.  Missing degrees default to 0.
    """

    __slots__ = ("_terms",)

    def __init__(
        self,
        exponents: Mapping[str, int] | None = None,
        degrees: Mapping[str, int] | None = None,
    ):
        exponents = dict(exponents or {})
        degrees = dict(degrees or {})
        terms = ((name, e, int(degrees.get(name, 0))) for name, e in exponents.items() if e != 0)
        self._terms = tuple(sorted(terms))

    @classmethod
    def symbol(cls, name: str, degree: int = 0) -> "FormalLineClass":
        return cls({name: 1}, {name: degree})

    @property
    def degree(self) -> int:
        """Total degree: the group homomorphism sum(exponent * degree(symbol))."""
        return sum(e * d for _, e, d in self._terms)

    def __mul__(self, other: "FormalLineClass") -> "FormalLineClass":
        if not isinstance(other, FormalLineClass):
            return NotImplemented
        exponents, degrees = {}, {}
        for name, e, d in self._terms + other._terms:
            if degrees.setdefault(name, d) != d:
                raise ValueError(f"conflicting degrees for symbol {name!r}")
            exponents[name] = exponents.get(name, 0) + e
        return FormalLineClass(exponents, degrees)

    def __pow__(self, e: int) -> "FormalLineClass":
        return FormalLineClass({name: x * e for name, x, _ in self._terms},
                               {name: d for name, _, d in self._terms})

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormalLineClass):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def format(self, explicit_exponents: bool = False) -> str:
        """Dotted rendering, symbols sorted by name: ``L1^1.detF^2``.

        The compact form (default) drops exponent 1; the identity prints as
        ``O`` either way.
        """
        if not self._terms:
            return "O"
        return ".".join(name if e == 1 and not explicit_exponents else f"{name}^{e}"
                        for name, e, _ in self._terms)

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"FormalLineClass({self.format(explicit_exponents=True)!r})"


class ThetaDescriptor(namedtuple("ThetaDescriptor", "rank det")):
    """A theta bundle on a full moduli space: rank and determinant class of
    the twisting bundle, which determine it completely."""

    __slots__ = ()

    def __new__(cls, rank: int, det: FormalLineClass):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        return super().__new__(cls, rank, det)


class PullbackFactorization(namedtuple("PullbackFactorization", "left_exponent right_descriptor")):
    """The split  theta^c  [outer product]  theta_descriptor  of a pullback."""

    __slots__ = ()

    def __new__(cls, left_exponent: int, right_descriptor: ThetaDescriptor):
        if left_exponent < 1:
            raise ValueError("left exponent must be >= 1")
        return super().__new__(cls, left_exponent, right_descriptor)


class RootEquation(namedtuple("RootEquation", "power rhs root_degree")):
    """Constraint  N^power = rhs  defining an n-th root of degree root_degree.

    Root extraction is not unique in a free group, so the equation is
    reported instead of a chosen root.
    """

    __slots__ = ()

    def __str__(self) -> str:
        return f"N^{self.power} = {self.rhs}"


def complementary_invariants(g: int, n: int, d: int, k: int) -> tuple[int, int]:
    """Rank and degree of a complementary twisting bundle.

    With h = gcd(n, d), n = h*nbar, d = h*dbar, the k-th complementary
    invariants are (k*nbar, k*(nbar*(g-1) - dbar)); the Euler pairing
    n*d_F + n_F*(d - n*(g-1)) then vanishes identically.
    """
    if g < 1 or n < 1:
        raise ValueError("genus and rank must be >= 1")
    if k < 1:
        raise ValueError("multiplier must be >= 1")
    h = math.gcd(n, d)
    nbar, dbar = n // h, d // h
    rank = k * nbar
    degree = k * (nbar * (g - 1) - dbar)
    assert n * degree + rank * (d - n * (g - 1)) == 0
    return rank, degree


def theta_rescale(F: ThetaDescriptor, F0: ThetaDescriptor) -> tuple[int, FormalLineClass]:
    """Express theta_F through theta_F0 when rk F = a * rk F0.

    Returns (a, twist) with  theta_F = theta_F0^a  tensor  det-pullback of
    twist = det F * (det F0)^(-a).
    """
    if F.rank % F0.rank:
        raise NotAMultiple(f"rank {F.rank} is not a multiple of rank {F0.rank}")
    a = F.rank // F0.rank
    return a, F.det * F0.det**-a


def pullback_split(
    n1: int, d1: int, n2: int, F: ThetaDescriptor, L1: FormalLineClass
) -> PullbackFactorization:
    """Split the pullback of theta_F along the tensor-product map.

    The fixed-determinant factor (rank n1, determinant class L1) receives
    theta^c with c = n2 * rk F / (n1 / gcd(n1, d1)); the other factor
    receives the theta bundle of rank n1 * rk F and determinant
    L1^(rk F) * (det F)^n1.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("ranks must be >= 1")
    minimal_rank = n1 // math.gcd(n1, d1)
    numerator = n2 * F.rank
    if numerator % minimal_rank:
        raise NonIntegralExponent(
            f"{numerator} is not divisible by the minimal complementary rank {minimal_rank}"
        )
    right = ThetaDescriptor(n1 * F.rank, L1**F.rank * F.det**n1)
    return PullbackFactorization(numerator // minimal_rank, right)


def jacobian_pullback(
    g: int, n: int, d: int, L: FormalLineClass, detF: FormalLineClass
) -> tuple[int, RootEquation]:
    """Pullback exponent and root constraint for the Jacobian factor.

    Along tensoring with degree-0 line bundles, the theta bundle pulls back
    to theta (outer) theta_N^(n^2/h), where N is any n-th root of
    L * (det F)^h; such a root has degree g-1.  The degree consistency
    n*(g-1) = deg(L * (det F)^h) is checked and must hold.
    """
    if g < 1 or n < 1:
        raise ValueError("genus and rank must be >= 1")
    h = math.gcd(n, d)
    constraint = L * detF**h
    expected = n * (g - 1)
    if constraint.degree != expected:
        raise DegreeMismatch(
            f"constraint class has degree {constraint.degree}, expected n(g-1) = {expected}"
        )
    return n * n // h, RootEquation(power=n, rhs=constraint, root_degree=g - 1)
