"""Certified interval arithmetic for trigonometric subset sums.

The kernel encloses sums of the shape

    scale * sum_i  coeff_i * prod_j  f(m_ij / M_i)^(e_ij)

between exact rational bounds, where every factor of a term is of one
kind: f(t) = |2 sin(pi t)| (`SineProductTerm`) or f(t) = csc^2(pi t)
(`CosecantSquaredTerm`).  The enclosures of pi and of the sine values
come from alternating series with explicit tail bounds, evaluated in
fixed-point integer arithmetic with directed rounding, so the bounds are
mathematically rigorous.  An interval of width < 1/2 that contains exactly
one integer is then a proof of that integer value (`certify_integer`).

The sum kernel (`evaluate_sum`) keeps one numeric representation: integer
lower and upper bounds at a single fixed-point scale 2**-w, with w the
precision plus guard bits.  Every multiply, power, reciprocal and signed
rational scalar is floored on the lower bound and ceiled on the upper one,
in the manner of Arb's dyadic arithmetic (Johansson, "Arb: efficient
arbitrary-precision midpoint-radius interval arithmetic", IEEE Trans.
Computers, 2017).  The sine enclosures are dyadic at that scale, so they
enter exactly; a csc^2 factor is 4 / x^2 of the sine enclosure x, rounded
outward at the same scale.  Each sine is fetched once per evaluation and
precision, and each distinct power once.  A csc^2 factor is >= 1, so its
rounding errors stay relative to the term, while a sine below 1 carries
an absolute one.  The precision is a rung of the ladder 64 * 2**j, and the
first rung is chosen a priori from a float estimate of the magnitudes and
rounding count involved, so a sum is normally certified in one precision
step; doubling remains as the fallback, up to a hard cap.  Floats only
choose the rung, never an endpoint.

Everything here is a pure function of its inputs; the per-precision caches
are idempotent write-once tables, so concurrent use is safe.
"""

import math
from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache

_START_BITS = 64
DEFAULT_MAX_PRECISION_BITS = 16384

# Extra working bits beyond the requested precision.  The fixed-point series
# loops accumulate at most a few thousand unit roundings even at the deepest
# precision, so 32 guard bits leave the final width far below 2**(1 - prec).
# The sum kernel works at the same scale, so the sine bounds enter it exactly.
_GUARD_BITS = 32

# Inputs to the a priori precision estimate (`_first_rung`): a sine
# enclosure's width in units of its working scale is a few units (8 is an
# over-estimate), and a few bits of margin absorb the crudeness of the
# rounding count.  They only choose the first precision, never a bound.
_SINE_ERROR_UNITS = 8
_MARGIN_BITS = 4


class CertificationError(Exception):
    """The precision cap was reached without meeting the width target."""


class NoIntegerInInterval(Exception):
    """The interval is narrow enough to certify but contains no integer.

    Signals a wrong formula or an implementation bug, never a precision
    problem.
    """


class AmbiguousInterval(Exception):
    """More than one integer candidate (or width >= 1/2); refine and retry."""


class CertifiedInterval(namedtuple("CertifiedInterval", "lo hi precision_bits")):
    """Rational enclosure [lo, hi] of a real quantity.

    `precision_bits` records the working precision that produced the bounds.
    """

    __slots__ = ()

    def __new__(cls, lo: Fraction, hi: Fraction, precision_bits: int):
        if lo > hi:
            raise ValueError(f"empty interval: lo={lo} > hi={hi}")
        if precision_bits < 1:
            raise ValueError("precision_bits must be positive")
        return super().__new__(cls, lo, hi, precision_bits)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


class _FactorTerm(namedtuple("_FactorTerm", "modulus factors")):
    """A product of powers of one trigonometric factor over one modulus M.

    Offsets are reduced modulo M into (0, M) at construction; every factor
    is a function of |sin(pi m / M)|, which has period M, so this is
    harmless.  Exponents are nonnegative integers.  An empty factor list
    represents the value 1.
    """

    __slots__ = ()

    def __new__(cls, modulus: int, factors: tuple[tuple[int, int], ...]):
        if modulus < 1:
            raise ValueError("modulus must be a positive integer")
        reduced = []
        for m, e in factors:
            r = m % modulus
            if r == 0:
                raise ValueError(f"offset {m} vanishes modulo {modulus}")
            if e < 0:
                raise ValueError("exponents must be nonnegative")
            reduced.append((r, e))
        return super().__new__(cls, modulus, tuple(reduced))


class SineProductTerm(_FactorTerm):
    """The product  prod_j |2 sin(pi m_j / M)|^(e_j)  over one modulus M."""

    __slots__ = ()


class CosecantSquaredTerm(_FactorTerm):
    """The product  prod_j csc^2(pi m_j / M)^(e_j)  over one modulus M.

    Every factor is >= 1, so the kernel's fixed-point rounding errors stay
    relative to the term's value.
    """

    __slots__ = ()


# ---------------------------------------------------------------------------
# pi: Machin's formula  pi = 16 arctan(1/5) - 4 arctan(1/239)
# ---------------------------------------------------------------------------

def _arctan_inv_scaled(x: int, work_bits: int) -> tuple[int, int]:
    """Integer bounds with arctan(1/x) in [lo, hi] / 2**work_bits.

    Each term a_k = 1/((2k+1) x^(2k+1)) is enclosed by its floor at the
    working scale, and the alternating tail is below the first term with
    floor zero, so widening by one unit covers it.
    """
    scale = 1 << work_bits
    lo = hi = 0
    power = x  # x**(2k+1)
    k = 0
    positive = True
    while True:
        term = scale // ((2 * k + 1) * power)
        if positive:
            lo += term
            hi += term + 1
        else:
            lo -= term + 1
            hi -= term
        if term == 0:
            return lo - 1, hi + 1
        power *= x * x
        k += 1
        positive = not positive


@lru_cache(maxsize=None)
def _pi_scaled(work_bits: int) -> tuple[int, int]:
    """Integer bounds with pi in [lo, hi] / 2**work_bits."""
    a5_lo, a5_hi = _arctan_inv_scaled(5, work_bits)
    a239_lo, a239_hi = _arctan_inv_scaled(239, work_bits)
    return 16 * a5_lo - 4 * a239_hi, 16 * a5_hi - 4 * a239_lo


# ---------------------------------------------------------------------------
# sin: alternating Taylor series in fixed point
# ---------------------------------------------------------------------------

def _sin_series_scaled(num: int, den: int, work_bits: int) -> tuple[int, int]:
    """Integer bounds on sin(t) * 2**work_bits for t = num / (den * 2**work_bits).

    num / den is the angle at the working scale, and 0 <= t <= 2 is
    required.  For t <= 2 the Taylor terms t^(2k+1)/(2k+1)! decrease
    strictly (the term ratio is t^2/((2k+2)(2k+3)) <= 4/6), so the series
    alternates with a tail bounded by the first omitted term.  Terms are
    propagated by the recurrence T_{k+1} = T_k * t^2 / ((2k+2)(2k+3)) with
    floor/ceil rounding.
    """
    if den < 1 or not 0 <= num <= den << (work_bits + 1):
        raise ValueError("series argument must lie in [0, 2]")
    x_lo, rest = divmod(num, den)
    x_hi = x_lo if rest == 0 else x_lo + 1
    y_lo = (x_lo * x_lo) >> work_bits          # floor of t^2 at scale
    y_hi = -((-(x_hi * x_hi)) >> work_bits)    # ceil of t^2 at scale
    term_lo, term_hi = x_lo, x_hi
    total_lo = total_hi = 0
    k = 0
    positive = True
    while True:
        if positive:
            total_lo += term_lo
            total_hi += term_hi
        else:
            total_lo -= term_hi
            total_hi -= term_lo
        divisor = ((2 * k + 2) * (2 * k + 3)) << work_bits
        next_lo = (term_lo * y_lo) // divisor
        next_hi = -((-(term_hi * y_hi)) // divisor)
        if next_hi <= 1:
            # The next term, hence the whole tail, is below one scaled unit.
            return total_lo - next_hi, total_hi + next_hi
        term_lo, term_hi = next_lo, next_hi
        k += 1
        positive = not positive


@lru_cache(maxsize=None)
def sin_enclosure(m: int, modulus: int, precision_bits: int) -> CertifiedInterval:
    """Certified enclosure of 2*sin(pi*m/modulus) for 0 < m < modulus.

    The width is at most 2**(1 - precision_bits).
    """
    if precision_bits < 1:
        raise ValueError("precision_bits must be positive")
    if not 0 < m < modulus:
        raise ValueError(f"offset must satisfy 0 < m < modulus, got m={m}, modulus={modulus}")

    folded = min(m, modulus - m)  # sin(pi - x) = sin(x)
    if 2 * folded == modulus:
        # Exact half turn: 2 sin(pi/2) = 2.
        return CertifiedInterval(Fraction(2), Fraction(2), precision_bits)

    work = precision_bits + _GUARD_BITS
    scale = 1 << work
    pi_lo, pi_hi = _pi_scaled(work)
    # The angle interval [pi_lo, pi_hi] * folded / (modulus * scale) must lie
    # inside (0, pi/2) so that sin is increasing on it; since 2*folded <
    # modulus this only fails for moduli beyond ~2**(work - 2).
    if 2 * folded * pi_hi > modulus * pi_lo:
        raise ValueError("modulus too large for this working precision")
    sin_lo, _ = _sin_series_scaled(pi_lo * folded, modulus, work)
    _, sin_hi = _sin_series_scaled(pi_hi * folded, modulus, work)
    return CertifiedInterval(Fraction(2 * sin_lo, scale), Fraction(2 * sin_hi, scale), precision_bits)


# ---------------------------------------------------------------------------
# the sum kernel: integer bounds at one fixed-point scale
# ---------------------------------------------------------------------------

def _to_scaled(iv: CertifiedInterval, work_bits: int) -> tuple[int, int]:
    """Integer bounds [lo, hi] with the interval inside [lo, hi] / 2**work_bits."""
    lo, hi = iv.lo, iv.hi
    return (
        (lo.numerator << work_bits) // lo.denominator,
        -((-hi.numerator << work_bits) // hi.denominator),
    )


def _power_scaled(lo: int, hi: int, e: int, work_bits: int) -> tuple[int, int]:
    """Bounds on x**e at scale 2**work_bits, for x in [lo, hi] / 2**work_bits, x > 0.

    The exponent is nonnegative.  Every product is floored on the lower
    bound and ceiled on the upper one; with both bounds nonnegative that
    keeps the enclosure rigorous.
    """
    result_lo = result_hi = 1 << work_bits
    while e:
        if e & 1:
            result_lo = (result_lo * lo) >> work_bits
            result_hi = -((-result_hi * hi) >> work_bits)
        e >>= 1
        if e:
            lo = (lo * lo) >> work_bits
            hi = -((-hi * hi) >> work_bits)
    return result_lo, result_hi


def _times_rational(c: int | Fraction, lo: int, hi: int) -> tuple[int, int]:
    """Bounds on c * x for x in [lo, hi], at the same scale; c may be negative."""
    p, q = c.numerator, c.denominator
    if p < 0:
        lo, hi = hi, lo
    return (lo * p) // q, -((-hi * p) // q)


def _log2_abs(q: int | Fraction) -> float:
    return math.log2(abs(q.numerator)) - math.log2(q.denominator)


def _approx(q: Fraction, spec: str) -> str:
    """q formatted as a float, or as a signed power of two beyond float range."""
    try:
        return format(float(q), spec)
    except OverflowError:
        return f"{'-' if q < 0 else ''}2**{_log2_abs(q):.1f}"


def _base_estimate(cosecant: bool, modulus: int, m: int) -> tuple[float, float]:
    """Float estimates, for `_first_rung`, of log2 of a factor's base and of
    its enclosure's relative error in units of the working scale: a sine
    x = 2 sin(pi m / M) is about _SINE_ERROR_UNITS units wide, and
    csc^2 = 4/x^2 doubles its relative error and adds one unit of rounding."""
    x = 2 * math.sin(math.pi * m / modulus)
    if cosecant:
        return 2.0 - 2 * math.log2(x), 2 * _SINE_ERROR_UNITS / x + 1
    return math.log2(x), _SINE_ERROR_UNITS / x


def _first_rung(
    prepared: Sequence[tuple[int | Fraction, _FactorTerm]],
    scale: Fraction,
    target: Fraction,
    max_bits: int,
) -> int:
    """The first rung of the ladder 64 * 2**j (capped at max_bits)
    whose working scale is expected to meet the width target.

    At scale 2**-w a term's error is about 2**-w times its rounding count,
    amplified by the product of its factors above 1 and by |coeff| and
    |scale|.  A factor's base enclosure adds its relative error once per
    unit of exponent.  Factors below 1, which only sine products have,
    carry an absolute error and are counted as 1.  Floats only choose the
    rung: the enclosure itself stays rigorous, and the ladder still
    doubles if the estimate falls short.
    """
    costs: dict[tuple[bool, int], dict[tuple[int, int], tuple[float, float]]] = {}
    bounds = []
    for coeff, term in prepared:
        if not coeff:
            continue
        kind = (isinstance(term, CosecantSquaredTerm), term.modulus)
        table = costs.get(kind)
        if table is None:
            table = costs[kind] = {}
        log_size, roundings = max(_log2_abs(coeff), 0.0), 2.0
        for factor in term.factors:
            cost = table.get(factor)
            if cost is None:
                m, e = factor
                log_base, error_units = _base_estimate(*kind, m)
                cost = table[factor] = (
                    max(e * log_base, 0.0),
                    e * error_units + 2 * e.bit_length() + 2,
                )
            log_size += cost[0]
            roundings += cost[1]
        bounds.append(log_size + math.log2(roundings))
    needed = 0.0
    if bounds and scale:
        top = max(bounds)
        error_log2 = top + math.log2(sum(2.0 ** (b - top) for b in bounds))
        needed = error_log2 + _log2_abs(scale) - _log2_abs(target) + _MARGIN_BITS - _GUARD_BITS
    precision = min(_START_BITS, max_bits)
    while precision < needed and precision < max_bits:
        precision = min(2 * precision, max_bits)
    return precision


def _base_scaled(
    cosecant: bool, modulus: int, m: int, precision: int, work: int
) -> tuple[int, int]:
    """Bounds on a factor's base at scale 2**work: x = 2 sin(pi m / M), or
    csc^2(pi m / M) = 4 / x^2, floored from x's upper bound and ceiled from
    its lower one."""
    lo, hi = _to_scaled(sin_enclosure(m, modulus, precision), work)
    if not cosecant:
        return lo, hi
    numerator = 1 << (3 * work + 2)
    return numerator // (hi * hi), -(-numerator // (lo * lo))


def _sum_scaled(
    prepared: Sequence[tuple[int | Fraction, _FactorTerm]], scale: Fraction, precision: int
) -> tuple[int, int, int]:
    """Bounds (lo, hi, w) with scale * sum(coeff * term) in [lo, hi] / 2**w.

    Each distinct base is enclosed once, from one sine enclosure, and each
    distinct power of it once; both are shared by every term that uses them.
    """
    work = precision + _GUARD_BITS
    bases: dict[tuple[bool, int, int], tuple[int, int]] = {}
    # (kind, modulus) -> {(offset, exponent): power}
    powers: dict[tuple[bool, int], dict[tuple[int, int], tuple[int, int]]] = {}
    total_lo = total_hi = 0
    for coeff, term in prepared:
        kind = (isinstance(term, CosecantSquaredTerm), term.modulus)
        table = powers.get(kind)
        if table is None:
            table = powers[kind] = {}
        lo = hi = 1 << work
        for factor in term.factors:
            power = table.get(factor)
            if power is None:
                m, e = factor
                base = bases.get((*kind, m))
                if base is None:
                    base = bases[(*kind, m)] = _base_scaled(*kind, m, precision, work)
                power = table[factor] = _power_scaled(*base, e, work)
            lo = (lo * power[0]) >> work
            hi = -((-hi * power[1]) >> work)
        lo, hi = _times_rational(coeff, lo, hi)
        total_lo += lo
        total_hi += hi
    return (*_times_rational(scale, total_lo, total_hi), work)


def evaluate_sum(
    terms: Iterable[tuple[int | Fraction, _FactorTerm]],
    scale: Fraction,
    target_width: Fraction,
    *,
    max_bits: int = DEFAULT_MAX_PRECISION_BITS,
) -> CertifiedInterval:
    """Enclose  scale * sum(coeff * value(term))  to within target_width.

    The first precision is the rung of the ladder 64 * 2**j that an
    a priori estimate expects to meet the target (see `_first_rung`); the
    precision doubles from there only if it does not, and exceeding
    `max_bits` raises CertificationError.  The result's `precision_bits` is
    the rung that met the target.  Coefficients are ints or Fractions.  An
    empty term list yields the exact interval [0, 0].
    """
    scale = Fraction(scale)
    target = Fraction(target_width)
    if target <= 0:
        raise ValueError("target_width must be positive")
    if max_bits < 1:
        raise ValueError("max_bits must be positive")
    prepared = list(terms)

    precision = _first_rung(prepared, scale, target, max_bits)
    while True:
        lo, hi, work = _sum_scaled(prepared, scale, precision)
        if (hi - lo) * target.denominator <= target.numerator << work:
            return CertifiedInterval(Fraction(lo, 1 << work), Fraction(hi, 1 << work), precision)
        if precision >= max_bits:
            raise CertificationError(
                f"width {_approx(Fraction(hi - lo, 1 << work), '.3g')} exceeds target {target} "
                f"at the precision cap ({max_bits} bits)"
            )
        precision = min(2 * precision, max_bits)


def certify_integer(interval: CertifiedInterval) -> int:
    """The unique integer in the interval, provided the width is below 1/2.

    Raises AmbiguousInterval when the width is >= 1/2 (refine and retry) and
    NoIntegerInInterval when the narrow interval misses every integer (which
    means the quantity enclosed is not the integer it was claimed to be).
    """
    if interval.width >= Fraction(1, 2):
        raise AmbiguousInterval(
            f"width {_approx(interval.width, '.3g')} >= 1/2; refine before certifying"
        )
    lowest = math.ceil(interval.lo)
    highest = math.floor(interval.hi)
    if lowest > highest:
        raise NoIntegerInInterval(
            f"no integer in [{_approx(interval.lo, '.6f')}, {_approx(interval.hi, '.6f')}]"
        )
    return lowest
