"""Deliberately broken engines, for tests that a broken proof is reported.

Each replaces one name by monkeypatching: the two table mutants stand in
for `verlinde.reduced_sum_terms`, the transfer mutant for `checks.gl_dim`.
`verlinde.beauville_sum` caches its results, so clear it before and after.
"""

from thetadim import verlinde
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


def transfer_by_rank(query, *, max_precision_bits):
    """`gl_dim` dividing by n^g instead of h^g."""
    s = verlinde.sl_dim(query, max_precision_bits=max_precision_bits)
    value, remainder = divmod(s.value * query.level**query.genus, query.rank**query.genus)
    if remainder:
        raise IntegralityViolation(f"n^g does not divide s*k^g for {query}")
    return DimResult(value, METHOD_TRANSFER, s.certified)
