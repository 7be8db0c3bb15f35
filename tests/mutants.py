"""Deliberately broken engines, for tests that a broken proof is reported.

Each engine mutant replaces one name by monkeypatching: the three table
mutants stand in for `verlinde.reduced_sum_terms`, the transfer mutant for
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


# The kernel's flips, each an (old text, new text) replacement in the
# source of `thetadim/intervals.py` that breaks one step of a proof: a
# directed rounding turned the wrong way, a bound term dropped, the
# certification threshold loosened or the ladder step unclamped.  The
# mutation gate in `test_intervals.py` runs each against the test that
# must catch it; an old text must occur exactly once in the source.
INTERVAL_FLIPS = {
    "power-result-upper-floored": (
        "result_hi = -((-result_hi * hi) >> work_bits)",
        "result_hi = (result_hi * hi) >> work_bits",
    ),
    "power-first-loop-upper-floored": (
        "hi = -((-hi * hi) >> work_bits)\n        e >>= 1",
        "hi = (hi * hi) >> work_bits\n        e >>= 1",
    ),
    "power-second-loop-upper-floored": (
        "hi = -((-hi * hi) >> work_bits)\n        if e & 1:",
        "hi = (hi * hi) >> work_bits\n        if e & 1:",
    ),
    "power-result-lower-ceiled": (
        "result_lo = (result_lo * lo) >> work_bits",
        "result_lo = -((-result_lo * lo) >> work_bits)",
    ),
    "power-first-loop-lower-ceiled": (
        "lo = (lo * lo) >> work_bits\n        hi = -((-hi * hi) >> work_bits)\n        e >>= 1",
        "lo = -((-lo * lo) >> work_bits)\n        hi = -((-hi * hi) >> work_bits)\n        e >>= 1",
    ),
    "power-second-loop-lower-ceiled": (
        "lo = (lo * lo) >> work_bits\n        hi = -((-hi * hi) >> work_bits)\n        if e & 1:",
        "lo = -((-lo * lo) >> work_bits)\n        hi = -((-hi * hi) >> work_bits)\n        if e & 1:",
    ),
    "sum-upper-floored": (
        "hi = -((-hi * bound[1]) >> work)",
        "hi = (hi * bound[1]) >> work",
    ),
    "sine-series-without-tail": (
        "return total_lo - next_hi, total_hi + next_hi",
        "return total_lo, total_hi",
    ),
    "sine-without-lipschitz-term": (
        "\n    sin_hi += -(-(pi_hi - pi_lo) * folded // modulus)",
        "",
    ),
    "arctan-positive-upper-floored": ("hi += term + 1", "hi += term"),
    "arctan-negative-lower-ceiled": ("lo -= term + 1", "lo -= term"),
    "base-upper-floored": (
        "-(-numerator // (lo * lo))",
        "numerator // (lo * lo)",
    ),
    "pi-upper-floored": (
        "-((4 * a239_lo - 16 * a5_hi) >> _PI_EXTRA_BITS)",
        "(16 * a5_hi - 4 * a239_lo) >> _PI_EXTRA_BITS",
    ),
    "sine-upper-rounded-down": (
        "hi = -((-sin_hi) >> _SINE_EXTRA_BITS)",
        "hi = sin_hi >> _SINE_EXTRA_BITS",
    ),
    "certify-accepts-widths-below-one": (
        "if (hi - lo) << 1 >= 1 << bits:",
        "if hi - lo >= 1 << bits:",
    ),
    "ladder-unclamped": (
        "precision = min(2 * precision, max_bits)\n\n\ndef certify_integer",
        "precision = 2 * precision\n\n\ndef certify_integer",
    ),
    "ladder-jumps-to-the-cap": (
        "precision = min(2 * precision, max_bits)\n\n\ndef certify_integer",
        "precision = max_bits\n\n\ndef certify_integer",
    ),
}
