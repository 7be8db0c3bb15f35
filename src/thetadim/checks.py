"""Executable verification of the dimension identities.

Every identity relating the SL and GL theta-function dimensions is run as
an exact integer comparison over finite parameter grids:

  * the level-rank involution (n, d, k) -> (k*nbar, k*(nbar*(g-1) - dbar), h)
    squares to the identity;
  * the transfer ledger s*(k*n^2/h)^g = v*n^(2g), the two ways of counting
    sections through the n^(2g)-sheeted Galois covering of the full moduli
    space.  As `gl_dim` defines v = s*(k/h)^g, it holds by algebra; its one
    non-trivial content is the integrality h^g | s*k^g, which `gl_dim`
    enforces by raising IntegralityViolation;
  * the duality dimension consequence s(n1, d1, k) = v(n2, d2, h) on the
    partner triple;
  * the degree-zero special case s(n, 0, k)*k^g = s(k, 0, n)*n^g, which
    pits two independently computed trigonometric sums against each other;
  * the genus-1 collapse of the trigonometric sum to a binomial.  There
    every term is 1, so this certifies the pair-form table at power 0,
    which tests that its multiplicities sum to the subset count, against
    the closed form C(n+k-1, k) that `sl_dim` answers genus 1 with.

Each identity is written once, as the two sides of its comparison at one
instance (g, n, d, k), and one sweep, `grid_sweep`, drives them all.
Queries the engine cannot evaluate are skipped and counted, never treated
as failures, and a sweep that runs no instance is "empty", not passed.  A
broken proof at an instance, a certified interval that holds no integer
or a transfer that leaves a remainder, is reported as that instance's
failure, and the sweep goes on.  An instance whose sum misses the width
target at the precision cap is counted as uncertified, and the sweep
goes on; a sweep with no failure but an uncertified instance has not
passed either: its status is "uncertified".
Sweeps enumerate (n, k) outermost, then the genus, then the degree, so
each pair-form table is built once per sweep and serves every genus of
its cell, and report failures sorted into (g, n, d, k) order, so reports
are reproducible; instances are independent, so they may be evaluated
concurrently without changing the report.
"""

import itertools
import math
from collections import namedtuple

from .intervals import DEFAULT_MAX_PRECISION_BITS, CertificationError, NoIntegerInInterval
from .theta import complementary_invariants
from .verlinde import (
    IntegralityViolation,
    UnsupportedQuery,
    VerlindeQuery,
    beauville_sum,
    gl_dim,
    sl_dim,
    symmetric_power_dim,
)

_DUALITY_NOTE = (
    "dimension consequence of the conjectural strange duality; the equality "
    "itself is provable from the transfer identity in the computable range"
)


class InvolutionTriple(namedtuple("InvolutionTriple", "rank degree level genus")):
    """A (rank, degree, level) triple at a fixed genus."""

    __slots__ = ()

    def __new__(cls, rank: int, degree: int, level: int, genus: int):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        if level < 1:
            raise ValueError("level must be >= 1")
        if genus < 1:
            raise ValueError("genus must be >= 1")
        return super().__new__(cls, rank, degree, level, genus)

    @property
    def h(self) -> int:
        return math.gcd(self.rank, self.degree)


CheckFailure = namedtuple("CheckFailure", "inputs lhs rhs")


class CheckReport(
    namedtuple(
        "CheckReport",
        "check_name instances_run failures skipped_unsupported note uncertified",
        defaults=((), 0, "", ()),
    )
):
    """Outcome of one identity check or of a whole grid sweep.

    `instances_run` counts the instances compared; the skipped
    (unsupported) ones are counted apart, and `uncertified` holds the
    sorted (g, n, d, k) inputs of the instances whose sum missed the width
    target at the precision cap.  A report that ran no instance has not
    passed: its status is "empty".  Nor has one with an uncertified
    instance: with no failure, its status is "uncertified".
    """

    __slots__ = ()

    @property
    def status(self) -> str:
        if self.failures:
            return "fail"
        if self.uncertified:
            return "uncertified"
        return "pass" if self.instances_run else "empty"

    def to_json_dict(self) -> dict:
        payload = {
            "check": self.check_name,
            "instances_run": self.instances_run,
            "skipped_unsupported": self.skipped_unsupported,
        }
        if self.uncertified:
            payload["uncertified"] = [list(inputs) for inputs in self.uncertified]
        payload["failures"] = [
            {"input": list(f.inputs), "lhs": f.lhs, "rhs": f.rhs} for f in self.failures
        ]
        if self.note:
            payload["note"] = self.note
        return payload


class GridBounds(
    namedtuple("GridBounds", "max_rank max_level genus_min genus_max max_abs_degree")
):
    """Finite sweep bounds; an empty range is allowed and sweeps to nothing."""

    __slots__ = ()

    def __new__(cls, max_rank, max_level, genus_min, genus_max, max_abs_degree):
        if max_rank < 0 or max_level < 0 or max_abs_degree < 0:
            raise ValueError("bounds must be nonnegative")
        if genus_min < 1:
            raise ValueError("genus_min must be >= 1")
        return super().__new__(cls, max_rank, max_level, genus_min, genus_max, max_abs_degree)


def involution(t: InvolutionTriple) -> InvolutionTriple:
    """The partner triple (k*nbar, k*(nbar*(g-1) - dbar), h) at the same genus.

    Its rank and degree are the k-th complementary invariants of (g, n, d),
    and its level is h = gcd(n, d).  Self-inverse: applying it twice
    returns the original triple.  The degree-0 convention gcd(n, 0) = n is
    used throughout.
    """
    rank, degree = complementary_invariants(t.genus, t.rank, t.degree, t.level)
    return InvolutionTriple(rank=rank, degree=degree, level=t.h, genus=t.genus)


# The two sides of each identity at one instance (g, n, d, k); each raises
# UnsupportedQuery when the instance is not computable.  The dimension
# functions are looked up in this module at call time, never bound early,
# so replacing them here (to trace them, say) reaches every check.


def _theorem1_sides(g, n, d, k, bits):
    query = VerlindeQuery(g, n, d, k)
    s = sl_dim(query, max_precision_bits=bits).value
    v = gl_dim(query, max_precision_bits=bits).value
    return s * (k * n * n // query.h) ** g, v * n ** (2 * g)


def _involution_sides(g, n, d, k, bits):
    t = InvolutionTriple(n, d, k, g)
    return involution(involution(t)), t


def _bott_szenes_sides(g, n, d, k, bits):
    lhs = beauville_sum(g, n, k, max_precision_bits=bits).value * k**g
    rhs = beauville_sum(g, k, n, max_precision_bits=bits).value * n**g
    return lhs, rhs


def _duality_sides(g, n, d, k, bits):
    p = involution(InvolutionTriple(n, d, k, g))
    s = sl_dim(VerlindeQuery(g, n, d, k), max_precision_bits=bits).value
    v = gl_dim(VerlindeQuery(g, p.rank, p.degree, p.level), max_precision_bits=bits).value
    return s, v


def _elliptic_sides(g, n, d, k, bits):
    # At genus 1 every term of the pair-form table is 1 (power 0), so the
    # left side certifies the sum of its multiplicities, which must be the
    # count C(M-1, n-1) of subsets containing M; the right side is the
    # closed form C(n+k-1, k).
    return beauville_sum(g, n, k, max_precision_bits=bits).value, symmetric_power_dim(n, k)


def _genera(bounds: GridBounds):
    return range(bounds.genus_min, bounds.genus_max + 1)


def _degrees(bounds: GridBounds):
    return range(-bounds.max_abs_degree, bounds.max_abs_degree + 1)


# check name -> (sides, genera swept, degrees swept, report note).
# Bott-Szenes needs genus >= 2; elliptic always runs at genus 1; both are
# degree-0 identities.
_CHECKS = {
    "theorem1": (_theorem1_sides, _genera, _degrees, ""),
    "involution": (_involution_sides, _genera, _degrees, ""),
    "bott-szenes": (
        _bott_szenes_sides,
        lambda b: range(max(b.genus_min, 2), b.genus_max + 1),
        lambda b: (0,),
        "",
    ),
    "duality": (_duality_sides, _genera, _degrees, _DUALITY_NOTE),
    "elliptic": (_elliptic_sides, lambda b: (1,), lambda b: (0,), ""),
}

CHECK_NAMES = tuple(_CHECKS)


def _compare(check: str, inputs: tuple, bits: int, negative_control: bool = False):
    """The CheckFailure of `check` at `inputs`, or None when the sides agree.

    The negative control perturbs the right-hand side here, and only here.
    """
    lhs, rhs = _CHECKS[check][0](*inputs, bits)
    if negative_control:
        rhs = _perturb(rhs)
    return None if lhs == rhs else CheckFailure(inputs, _text(lhs), _text(rhs))


def _text(side) -> str:
    """str(side); an int is written through Decimal, which, unlike str, has
    no digit limit, so a library caller never needs to lift that limit.
    Only a failure is formatted, so a passing sweep never loads `decimal`."""
    from decimal import Decimal

    return str(Decimal(side)) if isinstance(side, int) else str(side)


def grid_sweep(
    check: str,
    bounds: GridBounds,
    *,
    max_precision_bits: int = DEFAULT_MAX_PRECISION_BITS,
    negative_control: bool = False,
) -> CheckReport:
    """Run one named check on every valid tuple inside the bounds.

    Unsupported instances are skipped and counted separately; uncertified
    ones, whose sum raises CertificationError at the precision cap, are set
    apart too, and the report lists their inputs.  An instance whose proof
    breaks, by NoIntegerInInterval or IntegralityViolation, is a failure
    whose left side is "<exception name>: <message>" and whose right side
    is empty.  With `negative_control` the right-hand side of every
    comparison is deliberately perturbed, so failures are expected: this
    exercises the failure-reporting path itself.  Failures and uncertified
    inputs are listed in (g, n, d, k) order, whatever the order of
    evaluation.
    """
    if check not in _CHECKS:
        raise ValueError(f"unknown check {check!r}; expected one of {CHECK_NAMES}")
    _, genera, degrees, note = _CHECKS[check]
    # (n, k) outermost, so a cell's genera follow each other and share its
    # table in `verlinde.reduced_sum_terms`, whatever the size of the grid
    grid = itertools.product(
        range(1, bounds.max_rank + 1),
        range(1, bounds.max_level + 1),
        genera(bounds),
        degrees(bounds),
    )
    instances = skipped = 0
    failures, uncertified = [], []
    for n, k, g, d in grid:
        try:
            failure = _compare(check, (g, n, d, k), max_precision_bits, negative_control)
        except UnsupportedQuery:
            skipped += 1
            continue
        except CertificationError:
            uncertified.append((g, n, d, k))
            continue
        except (NoIntegerInInterval, IntegralityViolation) as exc:
            failure = CheckFailure((g, n, d, k), f"{type(exc).__name__}: {exc}", "")
        instances += 1
        if failure:
            failures.append(failure)

    name = check
    if negative_control:
        name += " [negative-control]"
        note = (note + "; " if note else "") + "right-hand sides deliberately perturbed"
    # the inputs are distinct, so failures sort by them alone
    failures, uncertified = tuple(sorted(failures)), tuple(sorted(uncertified))
    return CheckReport(name, instances, failures, skipped, note, uncertified)


def _perturb(rhs):
    """Off-by-one corruption used by the negative control."""
    if isinstance(rhs, InvolutionTriple):
        return InvolutionTriple(rhs.rank, rhs.degree + 1, rhs.level, rhs.genus)
    return rhs + 1
