"""Dimensions of spaces of theta functions on moduli of vector bundles.

Two families of dimensions are computed for a smooth curve of genus g:

    s(n, d, k)  on the fixed-determinant (SL) moduli space, level k,
    v(n, d, k)  on the full (GL) moduli space, level k,

related by the transfer identity  v * h^g = s * k^g  with h = gcd(n, d).
The SL values are trivially 1 at rank 1, come from the symmetric-power
closed form at genus 1, whatever the degree, and from a certified
trigonometric subset sum at genus >= 2 when the degree is 0 mod n; the
remaining regime (genus >= 2 with degree not 0 mod n) has no formula here
and raises UnsupportedQuery rather than guessing.  The sum itself,
`beauville_sum`, is defined at every genus: at genus 1 it certifies the
sum of its table's multiplicities, which `checks` compares with the
closed form.  Its table, one per (n, k) from `reduced_sum_terms`, bounds
its own work, so every caller of the table is bounded; `beauville_sum`
only fetches it, forms the genus-free scale and shift, and certifies the
kernel's enclosure.
"""

import math
from collections import namedtuple
from functools import lru_cache
from itertools import combinations
from operator import add

from .intervals import (
    DEFAULT_MAX_PRECISION_BITS,
    CosecantSquaredTerm,
    certify_integer,
    evaluate_sum,
)

METHOD_TRIG = "trig-sum"
METHOD_ELLIPTIC = "elliptic-closed-form"
METHOD_TRANSFER = "theorem1-transfer"
METHOD_RANK_ONE = "trivial-rank-one"

#: Largest number of subsets C(n+k-1, n-1) of a reduced trigonometric sum
#: that `reduced_sum_terms` enumerates; beyond it the table is refused as
#: unsupported before any term is built.
MAX_SUM_TERMS = 100_000

#: Largest enumeration work that `reduced_sum_terms` accepts:
#: C(n+k-1, n-1) subsets times, for each, its C(n, 2) pair updates plus the
#: floor((n+k)/2) + 1 digits of a packed pair-offset profile: every step,
#: pending entry and key of the walk is an integer of up to floor(M/2)
#: digits, each `width` bits wide, so each packed addition, and each
#: integer held, costs that many digits.  The prefix-shared walk of
#: `reduced_sum_terms` adds a prefix's pairs once for all its subsets, and
#: visits only about half the subsets counted here (one of each reflection
#: pair), so the bound is kept as a conservative count of the walk.
#: Beyond it the table is refused as unsupported before any term is built.
#: The pairs grow like n^3 at level 1, where the subset count alone is only
#: n; the digits grow like k^2 at rank 2, where there is one pair.  Rank 2
#: needs no walk, but its table's floor(M/2) terms are evaluated at a rung
#: that climbs with g and k, so there this bound, refusing levels from
#: 9,998 up, is what limits evaluation time.
MAX_PAIR_UPDATES = 50_000_000

# The enclosure width 2**-_CERTIFY_BITS at which a sum is certified: 1/4,
# below 1/2 with room.
_CERTIFY_BITS = 2


class UnsupportedQuery(Exception):
    """The query lies outside the computable range."""


class IntegralityViolation(Exception):
    """The transfer identity produced a non-integer: an implementation bug."""


class VerlindeQuery(namedtuple("VerlindeQuery", "genus rank degree level")):
    """One dimension query: genus, rank, degree, and theta-power level."""

    __slots__ = ()

    def __new__(cls, genus: int, rank: int, degree: int, level: int):
        if genus < 1:
            raise ValueError("genus must be >= 1")
        if rank < 1:
            raise ValueError("rank must be >= 1")
        if level < 1:
            raise ValueError("level must be >= 1")
        return super().__new__(cls, genus, rank, degree, level)

    @property
    def h(self) -> int:
        """gcd(rank, degree), with the conventions gcd(n, 0) = n and gcd(n, d) = gcd(n, |d|)."""
        return math.gcd(self.rank, self.degree)


class DimResult(namedtuple("DimResult", "value method certified")):
    """A nonnegative integer dimension plus the method that produced it.

    `certified` is True exactly when an interval integrality certificate
    backs the value (directly for trig sums, inherited through the
    transfer); the closed forms are exact by construction and carry False.
    """

    __slots__ = ()

    def __new__(cls, value: int, method: str, certified: bool):
        if value < 0:
            raise ValueError("dimension must be nonnegative")
        return super().__new__(cls, value, method, certified)


def verlinde_sum_terms(n: int, k: int) -> list[tuple[int, CosecantSquaredTerm]]:
    """Terms of the unreduced rank-n, level-k trigonometric sum, for every genus.

    The sum runs over the n-element subsets S of {1, .., M}, M = n + k, in
    lexicographic order; each term is prod_{s < t in S} csc^2(pi (t - s)/M),
    every factor with exponent 1, and its coefficient is 1.  With
    x_d = |2 sin(pi d/M)|, the identity prod_{t != s} x_(s-t) = M, for every
    s, turns the Verlinde product prod_{s in S, t not in S} x_(s-t) into
    M^n * prod_{s < t in S} x_(t-s)^(-2) = M^n 2^(-2 C(n, 2)) times this
    term, since x^(-2) = csc^2/4; mpmath's `brute_force_sum` in the tests
    evaluates the sine product itself, so it checks that identity.
    Evaluated with the kernel's `power` g - 1, scale M^n and shift
    2 C(n, 2), the sum is the integer N_g = s_g * (M/n)^g, so
    s_g = N_g * n^g / M^g, a division that must leave no remainder.  This
    enumeration is the reference path: it shares none of the rotation,
    reflection, packing, grouping or rank-2 shortcuts of
    `reduced_sum_terms`, which must certify the same integers.
    """
    if n < 1 or k < 1:
        raise ValueError("rank and level must both be >= 1")
    modulus = n + k
    return [
        (1, CosecantSquaredTerm(modulus, tuple((t - s, 1) for s, t in combinations(subset, 2))))
        for subset in combinations(range(1, modulus + 1), n)
    ]


@lru_cache(maxsize=32)
def reduced_sum_terms(n: int, k: int) -> tuple[tuple[int, CosecantSquaredTerm], ...]:
    """The Verlinde sum of `verlinde_sum_terms`, reduced by two exact
    identities to products of csc^2 factors and grouped by pair-offset
    profile, as a table that serves every genus.

    With M = n + k, x_d = |2 sin(pi d/M)| and z_d = csc^2(pi d/M) = 4/x_d^2,
    this is the SU(n) alcove form S_{0,lambda}^(2-2g) of the Verlinde sum
    (Beauville, "Conformal blocks, fusion rules and the Verlinde formula",
    1996), which `verlinde_sum_terms` sums over all subsets after the
    second identity below:

    * terms are invariant under S -> S + 1 mod M, so the sum over all
      subsets is M/n times the sum over the C(M-1, n-1) subsets that
      contain M;
    * prod_{t != s} x_(s-t) = M for every s, so a term's product over
      s in S, t not in S equals M^(n(g-1)) * prod_{s < s' in S}
      x_(s'-s)^(-2(g-1)), and x^(-2) = z/4.

    Since z_d = z_(M-d), a term is a product over the folded offsets
    d <= M/2 only: prod_d z_d^((g-1) c_d), where c_d counts the pairs
    s < s' of S at folded offset d, and every factor is >= 1.  Together,

        s_g = sum_S (n M^(n-1) * 2^(-2 C(n,2)) * prod_d z_d^(c_d))^(g-1).

    A term depends on its subset only through the pair-offset profile
    (c_d), so the table holds one term per distinct profile, with the
    exponents c_d and its integer multiplicity as coefficient; the
    coefficients sum to C(M-1, n-1).  The genus is only the kernel's
    `power` g - 1; the scale n M^(n-1) and the shift 2 C(n, 2) are
    genus-free like the table.  The profiles come from a walk
    over the subsets, one element at a time, in which each new element
    adds its pairs to its prefix's counts, so the pairs of a prefix are
    counted once for all the subsets that share it.  The reflection
    s -> M - s fixes M and keeps every pair offset, so the walk visits only
    the subsets whose least and largest elements below M, a and b, have
    a + b <= M: each candidate list ends at M - a, and a subset counts 2
    when a + b < M, for itself and its unvisited reflection, and 1 when
    a + b = M, where a reflection that is another subset is visited too.
    A subset with a + b > M has a lexicographically smaller reflection, so
    each profile's first subset is visited.  The walk counts each subset's
    profile where it completes the subset, in one dict from profile to
    multiplicity, so the terms come in the lexicographic order of each
    profile's first subset, and a build holds the distinct profiles plus
    one pending list per level of the current path, never one entry per
    subset.  Where every remaining candidate must join the subset, they
    are a run of consecutive integers and the subset is completed in one
    step, so at level 1 the walk does about n^2 packed additions, not n^3.
    Rank 2 needs no walk: {a, M} is one pair at offset a <= M/2, weight 2,
    or 1 at a = M/2.

    At rank 1 the one subset {M} has no pairs, so the single empty term is
    returned at once, at any level, before either bound below is checked.
    Above rank 1 the work is bounded here, whoever asks for the table: a
    table of more than MAX_SUM_TERMS subsets, or of more than
    MAX_PAIR_UPDATES pair updates and profile entries, raises
    UnsupportedQuery before any term is built, and the walk's recursion
    stays at most 462 deep.  The subset count is bounded by a running
    product that stops above the limit, so a huge one is never formed.
    Tables are cached per (n, k), at most 32 of them, the least recently
    used dropped first; a check sweep asks for every genus of one (n, k)
    in a row, so it builds each table once.

    The symmetry S -> complement of S is deliberately not used: it would
    turn s(n, 0, k) and s(k, 0, n) into one computation and make the
    level-rank check between them vacuous.
    """
    if n < 1 or k < 1:
        raise ValueError("rank and level must both be >= 1")
    modulus = n + k
    if n == 1:
        return ((1, CosecantSquaredTerm(modulus, ())),)
    # C(n+k-1, j) grows with j up to min(n-1, k), so the partial products
    # only increase and the first one above the limit decides
    count = 1
    for j in range(1, min(n - 1, k) + 1):
        count = count * (n + k - j) // j
        if count > MAX_SUM_TERMS:
            raise UnsupportedQuery(
                f"the reduced sum for rank {n}, level {k} has more than "
                f"{MAX_SUM_TERMS} terms"
            )
    work = count * (math.comb(n, 2) + (n + k) // 2 + 1)
    if work > MAX_PAIR_UPDATES:
        raise UnsupportedQuery(
            f"the reduced sum for rank {n}, level {k} needs {work} pair updates "
            f"and profile entries, above the limit of {MAX_PAIR_UPDATES}"
        )
    if n == 2:
        # each {a, M} is one pair at offset a <= M/2, or at M - a
        return tuple(
            (1 if 2 * a == modulus else 2, CosecantSquaredTerm._make((modulus, ((a, 1),))))
            for a in range(1, modulus // 2 + 1)
        )
    # A profile is packed into one integer, c_d in the digit of `width`
    # bits at position d.  A count never exceeds n, since each element of
    # S has at most two partners at offset d.
    width = n.bit_length()
    mask = (1 << width) - 1
    # step[j - 1] packs one pair at offset j, for 0 < j < M
    step = [1 << (width * min(j, modulus - j)) for j in range(1, modulus)]
    counts: dict[int, int] = {}

    def walk(key: int, pending: list[int], left: int) -> None:
        # Depth first, one element at a time in increasing order: `key`
        # packs the pairs among the prefix and M, `left` elements remain to
        # be chosen, and pending[i] packs the pairs that the prefix's i-th
        # candidate for the next element would add.  The candidates after
        # it each get one more pair, with the element just added.  The last
        # candidate is M - a, a the least element, and a subset counts 2
        # unless it ends there.  Each subset's profile is counted where the
        # walk completes it, so profiles enter `counts` in lexicographic
        # order of their first subset.  The bounds above keep the
        # recursion at most 462 deep (rank 464, level 1).
        if left == 1:
            last = pending.pop() + key
            for p in pending:
                p += key
                counts[p] = counts.get(p, 0) + 2
            counts[last] = counts.get(last, 0) + 1
            return
        if left == len(pending):
            # No choice is left: the candidates are the run of consecutive
            # integers up to M - a, and all of them join S.  Among
            # themselves they have left - j pairs at offset j.
            key += sum(pending) + sum((left - j) * step[j - 1] for j in range(1, left))
            counts[key] = counts.get(key, 0) + 1
            return
        for i in range(len(pending) - left + 1):
            walk(key + pending[i], list(map(add, pending[i + 1:], step)), left - 1)

    # the least element a leaves the other n - 2 below M in (a, M - a]
    for a in range(1, (modulus - n) // 2 + 2):
        walk(step[a - 1], list(map(add, step[a:modulus - a], step)), n - 2)
    # `walk` refers to itself through its closure cell; dropping the name
    # empties the cell, so no reference cycle outlives the call
    del walk
    terms = []
    for key, multiplicity in counts.items():
        factors = []
        while key:
            d = ((key & -key).bit_length() - 1) // width
            c = (key >> (width * d)) & mask
            key -= c << (width * d)
            factors.append((d, c))
        # offsets 0 < d <= M/2 and exponents >= 1 need no reduction or check
        terms.append((multiplicity, CosecantSquaredTerm._make((modulus, tuple(factors)))))
    return tuple(terms)


@lru_cache(maxsize=None)
def beauville_sum(
    g: int, n: int, k: int, *, max_precision_bits: int = DEFAULT_MAX_PRECISION_BITS
) -> DimResult:
    """Certified integer value of the trigonometric subset sum.

    This is the level-k dimension on the fixed-determinant moduli space of
    rank n and degree 0 mod n.  It evaluates `reduced_sum_terms` on the
    integer fixed-point kernel, one csc^2 product per pair-offset profile,
    whose first precision is chosen a priori, so the sum is normally
    certified in one precision step.  At genus 1 the power is 0, so every
    term is 1 and the certified value is the sum of the table's
    multiplicities, C(n+k-1, n-1).  The table is fetched first, so a
    query past the work bounds of `reduced_sum_terms` raises its
    UnsupportedQuery before the scale n (n+k)^(n-1) is formed.  Results
    are cached per argument tuple.
    """
    # the table first: its bounds refuse a huge (n, k) before the scale,
    # which can have millions of digits, is formed
    terms = reduced_sum_terms(n, k)
    scale, shift = n * (n + k) ** (n - 1), 2 * math.comb(n, 2)
    enclosure = evaluate_sum(terms, g - 1, scale, shift, _CERTIFY_BITS, max_bits=max_precision_bits)
    return DimResult(certify_integer(enclosure), METHOD_TRIG, True)


def symmetric_power_dim(m: int, k: int) -> int:
    """Dimension C(m+k-1, k) of the k-th symmetric power of an m-dim space."""
    if m < 0 or k < 0:
        raise ValueError("arguments must be nonnegative")
    if k == 0:
        return 1
    return math.comb(m + k - 1, k)


def sl_dim(
    query: VerlindeQuery, *, max_precision_bits: int = DEFAULT_MAX_PRECISION_BITS
) -> DimResult:
    """Dimension of level-k theta functions on the fixed-determinant space.

    Dispatch: rank 1 is a point; genus 1 has the symmetric-power closed
    form C(h+k-1, k) at every degree; at genus >= 2, degree 0 mod rank goes
    through the certified trigonometric sum (twisting by an n-th power of a
    line bundle reduces the degree to 0 without moving the theta bundle);
    anything else raises UnsupportedQuery.
    """
    if query.rank == 1:
        return DimResult(1, METHOD_RANK_ONE, False)
    if query.genus == 1:
        return DimResult(symmetric_power_dim(query.h, query.level), METHOD_ELLIPTIC, False)
    if query.degree % query.rank == 0:
        return beauville_sum(
            query.genus, query.rank, query.level, max_precision_bits=max_precision_bits
        )
    raise UnsupportedQuery("degree not ≡ 0 mod rank at genus ≥ 2")


def gl_dim(
    query: VerlindeQuery, *, max_precision_bits: int = DEFAULT_MAX_PRECISION_BITS
) -> DimResult:
    """Full-moduli dimension via the transfer identity v = s * (k/h)^g.

    The transfer always yields an integer; a remainder would falsify the
    implementation, so it raises IntegralityViolation rather than rounding.
    """
    s = sl_dim(query, max_precision_bits=max_precision_bits)
    numerator = s.value * query.level**query.genus
    denominator = query.h**query.genus
    value, remainder = divmod(numerator, denominator)
    if remainder:
        raise IntegralityViolation(
            f"h^g = {denominator} does not divide s*k^g = {numerator} for {query}"
        )
    return DimResult(value, METHOD_TRANSFER, s.certified)

