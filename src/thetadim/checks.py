"""Executable verification of the dimension identities.

Every identity relating the SL and GL theta-function dimensions is run as
an exact integer comparison over finite parameter grids:

  * the level-rank involution (n, d, k) -> (k*nbar, k*(nbar*(g-1) - dbar), h)
    squares to the identity;
  * the transfer ledger s*(k*n^2/h)^g = v*n^(2g), equating the two ways of
    counting sections through the n^(2g)-sheeted Galois covering of the
    full moduli space;
  * the duality dimension consequence s(n1, d1, k) = v(n2, d2, h) on the
    partner triple;
  * the degree-zero special case s(n, 0, k)*k^g = s(k, 0, n)*n^g, which
    pits two independently computed trigonometric sums against each other;
  * the genus-1 collapse of the trigonometric sum to a binomial.

Queries the engine cannot evaluate are skipped and counted, never treated
as failures.  Sweeps enumerate lexicographically in (g, n, d, k) and report
failures in that order, so reports are reproducible; instances are
independent, so they may be evaluated concurrently without changing the
report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .intervals import DEFAULT_MAX_PRECISION_BITS
from .verlinde import (
    UnsupportedQuery,
    VerlindeQuery,
    beauville_sum,
    gl_dim,
    sl_dim,
    symmetric_power_dim,
)

CHECK_NAMES = ("theorem1", "involution", "bott-szenes", "duality", "elliptic")

_DUALITY_NOTE = (
    "dimension consequence of the conjectural strange duality; the equality "
    "itself is provable from the transfer identity in the computable range"
)


@dataclass(frozen=True)
class InvolutionTriple:
    """A (rank, degree, level) triple at a fixed genus."""

    rank: int
    degree: int
    level: int
    genus: int

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.level < 1:
            raise ValueError("level must be >= 1")
        if self.genus < 1:
            raise ValueError("genus must be >= 1")

    @property
    def h(self) -> int:
        return math.gcd(self.rank, self.degree)

    @property
    def n_bar(self) -> int:
        return self.rank // self.h

    @property
    def d_bar(self) -> int:
        return self.degree // self.h


@dataclass(frozen=True)
class CheckFailure:
    inputs: tuple
    lhs: str
    rhs: str


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one identity check or of a whole grid sweep."""

    check_name: str
    instances_run: int
    failures: tuple[CheckFailure, ...] = ()
    skipped_unsupported: int = 0
    note: str = ""

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json_dict(self) -> dict:
        payload = {
            "check": self.check_name,
            "instances_run": self.instances_run,
            "skipped_unsupported": self.skipped_unsupported,
            "failures": [
                {"input": list(f.inputs), "lhs": f.lhs, "rhs": f.rhs} for f in self.failures
            ],
        }
        if self.note:
            payload["note"] = self.note
        return payload


@dataclass(frozen=True)
class DeckGroupInfo:
    """The deck group of the Galois covering of the full moduli space by the
    fixed-determinant space times the Jacobian: the n-torsion line bundles,
    of order n^(2g), with as many characters."""

    rank: int
    genus: int
    order: int
    character_count: int

    def __post_init__(self):
        if self.order != self.character_count:
            raise ValueError("a finite abelian group has as many characters as elements")
        if self.order != self.rank ** (2 * self.genus):
            raise ValueError("deck group of the covering has order rank^(2*genus)")


@dataclass(frozen=True)
class GridBounds:
    """Finite sweep bounds; an empty range is allowed and sweeps to nothing."""

    max_rank: int
    max_level: int
    genus_min: int
    genus_max: int
    max_abs_degree: int

    def __post_init__(self):
        if self.max_rank < 0 or self.max_level < 0 or self.max_abs_degree < 0:
            raise ValueError("bounds must be nonnegative")
        if self.genus_min < 1:
            raise ValueError("genus_min must be >= 1")


def involution(t: InvolutionTriple) -> InvolutionTriple:
    """The partner triple (k*nbar, k*(nbar*(g-1) - dbar), h) at the same genus.

    Self-inverse: applying it twice returns the original triple.  The
    degree-0 convention gcd(n, 0) = n is used throughout.
    """
    return InvolutionTriple(
        rank=t.level * t.n_bar,
        degree=t.level * (t.n_bar * (t.genus - 1) - t.d_bar),
        level=t.h,
        genus=t.genus,
    )


def deck_group(n: int, g: int) -> DeckGroupInfo:
    """Order and character count n^(2g) of the covering's deck group."""
    if n < 1 or g < 1:
        raise ValueError("rank and genus must be >= 1")
    order = n ** (2 * g)
    return DeckGroupInfo(rank=n, genus=g, order=order, character_count=order)


def theorem1_ledger(
    query: VerlindeQuery, *, max_precision_bits: int = DEFAULT_MAX_PRECISION_BITS
) -> CheckReport:
    """Check s*(k*n^2/h)^g = v*n^(2g): section count upstairs on the covering
    versus character-by-character count downstairs."""
    s = sl_dim(query, max_precision_bits=max_precision_bits).value
    v = gl_dim(query, max_precision_bits=max_precision_bits).value
    g, n, k, h = query.genus, query.rank, query.level, query.h
    lhs = s * (k * n * n // h) ** g
    rhs = v * n ** (2 * g)
    inputs = (query.genus, query.rank, query.degree, query.level)
    failures = () if lhs == rhs else (CheckFailure(inputs, str(lhs), str(rhs)),)
    return CheckReport("theorem1", 1, failures)


def duality_dim_check(
    t: InvolutionTriple, *, max_precision_bits: int = DEFAULT_MAX_PRECISION_BITS
) -> CheckReport:
    """Check the dimension equality s(n1, d1, k) = v(n2, d2, h) across the
    involution; raises UnsupportedQuery when either side is not computable."""
    partner = involution(t)
    s = sl_dim(
        VerlindeQuery(t.genus, t.rank, t.degree, t.level),
        max_precision_bits=max_precision_bits,
    ).value
    v = gl_dim(
        VerlindeQuery(partner.genus, partner.rank, partner.degree, partner.level),
        max_precision_bits=max_precision_bits,
    ).value
    inputs = (t.genus, t.rank, t.degree, t.level)
    failures = () if s == v else (CheckFailure(inputs, str(s), str(v)),)
    return CheckReport("duality", 1, failures, note=_DUALITY_NOTE)


def bott_szenes_check(
    n: int, k: int, g: int, *, max_precision_bits: int = DEFAULT_MAX_PRECISION_BITS
) -> CheckReport:
    """Check s(n, 0, k)*k^g = s(k, 0, n)*n^g with both sides computed as
    independent trigonometric sums."""
    if g < 2:
        raise ValueError("genus must be >= 2")
    lhs = beauville_sum(g, n, k, max_precision_bits=max_precision_bits).value * k**g
    rhs = beauville_sum(g, k, n, max_precision_bits=max_precision_bits).value * n**g
    inputs = (g, n, 0, k)
    failures = () if lhs == rhs else (CheckFailure(inputs, str(lhs), str(rhs)),)
    return CheckReport("bott-szenes", 1, failures)


def _genus_range(bounds: GridBounds, minimum: int = 1):
    return range(max(bounds.genus_min, minimum), bounds.genus_max + 1)


def _degree_range(bounds: GridBounds):
    return range(-bounds.max_abs_degree, bounds.max_abs_degree + 1)


def grid_sweep(
    check: str,
    bounds: GridBounds,
    *,
    max_precision_bits: int = DEFAULT_MAX_PRECISION_BITS,
    negative_control: bool = False,
) -> CheckReport:
    """Run one named check on every valid tuple inside the bounds.

    Unsupported instances are skipped and counted separately.  With
    `negative_control` the right-hand side of every comparison is
    deliberately perturbed, so failures are expected: this exercises the
    failure-reporting path itself.
    """
    if check not in CHECK_NAMES:
        raise ValueError(f"unknown check {check!r}; expected one of {CHECK_NAMES}")

    instances = 0
    skipped = 0
    failures: list[CheckFailure] = []
    note = _DUALITY_NOTE if check == "duality" else ""

    def compare(inputs: tuple, lhs, rhs):
        nonlocal instances
        instances += 1
        if negative_control:
            rhs = _perturb(rhs)
        if lhs != rhs:
            failures.append(CheckFailure(inputs, str(lhs), str(rhs)))

    if check == "involution":
        for g in _genus_range(bounds):
            for n in range(1, bounds.max_rank + 1):
                for d in _degree_range(bounds):
                    for k in range(1, bounds.max_level + 1):
                        t = InvolutionTriple(n, d, k, g)
                        compare((g, n, d, k), involution(involution(t)), t)
    elif check == "theorem1":
        for g in _genus_range(bounds):
            for n in range(1, bounds.max_rank + 1):
                for d in _degree_range(bounds):
                    for k in range(1, bounds.max_level + 1):
                        query = VerlindeQuery(g, n, d, k)
                        try:
                            s = sl_dim(query, max_precision_bits=max_precision_bits).value
                            v = gl_dim(query, max_precision_bits=max_precision_bits).value
                        except UnsupportedQuery:
                            skipped += 1
                            continue
                        lhs = s * (k * n * n // query.h) ** g
                        compare((g, n, d, k), lhs, v * n ** (2 * g))
    elif check == "duality":
        for g in _genus_range(bounds):
            for n in range(1, bounds.max_rank + 1):
                for d in _degree_range(bounds):
                    for k in range(1, bounds.max_level + 1):
                        t = InvolutionTriple(n, d, k, g)
                        partner = involution(t)
                        try:
                            s = sl_dim(
                                VerlindeQuery(g, n, d, k),
                                max_precision_bits=max_precision_bits,
                            ).value
                            v = gl_dim(
                                VerlindeQuery(g, partner.rank, partner.degree, partner.level),
                                max_precision_bits=max_precision_bits,
                            ).value
                        except UnsupportedQuery:
                            skipped += 1
                            continue
                        compare((g, n, d, k), s, v)
    elif check == "bott-szenes":
        # The identity needs genus >= 2; lower genera are outside its range.
        for g in _genus_range(bounds, minimum=2):
            for n in range(1, bounds.max_rank + 1):
                for k in range(1, bounds.max_level + 1):
                    try:
                        lhs = beauville_sum(g, n, k, max_precision_bits=max_precision_bits).value
                        rhs = beauville_sum(g, k, n, max_precision_bits=max_precision_bits).value
                    except UnsupportedQuery:  # a sum beyond the term bound
                        skipped += 1
                        continue
                    compare((g, n, 0, k), lhs * k**g, rhs * n**g)
    else:  # elliptic: trig engine against the genus-1 closed form
        for n in range(1, bounds.max_rank + 1):
            for k in range(1, bounds.max_level + 1):
                try:
                    lhs = beauville_sum(1, n, k, max_precision_bits=max_precision_bits).value
                except UnsupportedQuery:  # a sum beyond the term bound
                    skipped += 1
                    continue
                compare((1, n, 0, k), lhs, symmetric_power_dim(n, k))

    name = check + (" [negative-control]" if negative_control else "")
    if negative_control:
        note = (note + "; " if note else "") + "right-hand sides deliberately perturbed"
    failures.sort(key=lambda f: f.inputs)
    return CheckReport(name, instances, tuple(failures), skipped, note)


def _perturb(rhs):
    """Off-by-one corruption used by the negative control."""
    if isinstance(rhs, InvolutionTriple):
        return InvolutionTriple(rhs.rank, rhs.degree + 1, rhs.level, rhs.genus)
    return rhs + 1
