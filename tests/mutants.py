"""Deliberately broken engines, for tests that a broken proof is reported.

Each replaces one name by monkeypatching: the three table mutants stand
in for `verlinde.reduced_sum_terms`, the transfer mutant for
`checks.gl_dim`.  `verlinde.beauville_sum` caches its results, so clear it
before and after.  A test that patches a work bound (`MAX_SUM_TERMS`,
`MAX_PAIR_UPDATES`) instead must also clear `verlinde.reduced_sum_terms`,
which checks the bounds when it builds a table: a table it has cached
skips them.
"""

from thetadim import verlinde
from thetadim.intervals import CosecantSquaredTerm
from thetadim.verlinde import METHOD_TRANSFER, DimResult, IntegralityViolation

_real_table = verlinde.reduced_sum_terms


def multiplicity_plus_one(n, k):
    """The pair-form table with one subset too many in its first profile."""
    table = _real_table(n, k)
    return ((table[0][0] + 1, table[0][1]),) + table[1:]


def first_profile_is_the_second(n, k):
    """The pair-form table with its first profile replaced by its second."""
    table = _real_table(n, k)
    return table if len(table) < 2 else ((table[0][0], table[1][1]),) + table[1:]


def modulus_plus_one(n, k):
    """The pair-form table with every term's modulus M raised to M + 1.

    `check elliptic` cannot see it, nor `involution`: elliptic raises
    every base to the power 0, so the modulus never reaches its value.
    """
    return tuple(
        (multiplicity, CosecantSquaredTerm(term.modulus + 1, term.factors))
        for multiplicity, term in _real_table(n, k)
    )


def transfer_by_rank(query, *, max_precision_bits):
    """`gl_dim` dividing by n^g instead of h^g."""
    s = verlinde.sl_dim(query, max_precision_bits=max_precision_bits)
    value, remainder = divmod(s.value * query.level**query.genus, query.rank**query.genus)
    if remainder:
        raise IntegralityViolation(f"n^g does not divide s*k^g for {query}")
    return DimResult(value, METHOD_TRANSFER, s.certified)
