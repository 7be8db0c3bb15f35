"""Certified interval arithmetic for trigonometric subset sums.

The kernel encloses sums of the shape

    sum_i  coeff_i * (scale * 2**-shift * prod_j  f(m_ij / M)^e_ij)**power

between dyadic bounds, with positive integer multiplicities coeff_i, a
positive integer scale, a binary shift and one common exponent `power`,
where every factor of every term is of one kind over one modulus M:
f(t) = |2 sin(pi t)| (`SineProductTerm`) or f(t) = csc^2(pi t)
(`CosecantSquaredTerm`).  `evaluate_sum` refuses any other sum, so every
bound the kernel multiplies is nonnegative.  Only `power` varies with the
genus, so one table of terms and one scale serve every power.  The
enclosures of pi and of the sine values come from alternating series with
explicit tail bounds, evaluated in fixed-point integer arithmetic with
directed rounding, so the bounds are mathematically rigorous.  Each series
runs a few bits past its target scale and is rounded outward once, so pi
is at most 2 units of that scale wide.  A sine costs one series, at the
lower end of the angle interval that pi's enclosure gives; the 1-Lipschitz
bound sin(b) <= sin(a) + (b - a) covers the upper end, and the enclosure
of 2 sin is at most 4 units wide.  An interval of width < 1/2 that
contains exactly one integer is then a proof of that integer value
(`certify_integer`).

The sum kernel (`evaluate_sum`) keeps one numeric representation: integer
lower and upper bounds at a single fixed-point scale 2**-w, with w the
precision plus guard bits.  Every multiply, power and reciprocal is of
nonnegative bounds and is floored on the lower bound and ceiled on the
upper one, in the manner of Arb's dyadic arithmetic (Johansson, "Arb:
efficient arbitrary-precision midpoint-radius interval arithmetic", IEEE
Trans. Computers, 2017); with no sign in play, that is the whole rounding
argument.  The sine enclosures are integer bounds at that scale too, so
they enter as they are; a csc^2 factor is 4 / x^2 of the sine enclosure x,
rounded outward at the same scale.  None of these depends on the genus, so
each sine, and each csc^2 base above it, is enclosed once per process and
rung, and each base's float estimate (see below) once per process, in
caches beside the pi bounds; only the powers, which the genus scales, are
computed per evaluation, each distinct one once.  A csc^2 factor is >= 1,
so its rounding errors stay relative to the term, while a sine below 1
carries an absolute one.  The precision is a rung of the ladder 64 * 2**j,
and the first rung is chosen a priori from a float estimate of the
magnitudes and rounding count involved, so a sum is normally certified in
one precision step; doubling remains as the fallback, up to a hard cap,
and an estimate far beyond the cap fails before any enclosure, or any
power of the scale, is computed.  Floats only choose the rung, never an
endpoint.  The multiplicities and scale**power multiply the bounds
exactly, and power * shift only moves the scale, so the result is the
dyadic interval [lo, hi] / 2**(w + power * shift) (`CertifiedInterval`),
the target width is 2**-target_bits, and `certify_integer` decides with
integer shifts.  Nothing here builds a Fraction.

Everything here is a pure function of its inputs; the caches are
idempotent write-once tables, so concurrent use is safe.
"""

import math
from collections import namedtuple
from collections.abc import Iterable, Sequence
from functools import lru_cache

_START_BITS = 64
DEFAULT_MAX_PRECISION_BITS = 16384

# Extra working bits beyond the requested precision: the sum kernel and the
# sine enclosures share the integer scale 2**-(prec + 32), so a sine
# enclosure, at most _SINE_WIDTH_UNITS units of it wide, is far narrower
# than 2**-prec.
_GUARD_BITS = 32

# Bits past their target scale at which pi and a sine series run before
# their single outward rounding; the series' own roundings then stay below
# one unit of the target scale (see `_pi_scaled` and `sin_enclosure`).
_PI_EXTRA_BITS = 16
_SINE_EXTRA_BITS = 12

# The proved width of a sine enclosure in units of the working scale (see
# `sin_enclosure`); the a priori precision estimate (`_first_rung`), a
# first-order count of the kernel's roundings, reads it, and the ladder
# doubles if that count falls short.
_SINE_WIDTH_UNITS = 4


class CertificationError(Exception):
    """The precision cap was reached without meeting the width target."""


class NoIntegerInInterval(Exception):
    """The interval is narrow enough to certify but contains no integer.

    Signals a wrong formula or an implementation bug, never a precision
    problem.
    """


class AmbiguousInterval(Exception):
    """More than one integer candidate (or width >= 1/2); refine and retry."""


class CertifiedInterval(namedtuple("CertifiedInterval", "lo hi scale_bits precision_bits")):
    """Dyadic enclosure [lo, hi] / 2**scale_bits of a real quantity.

    The endpoints are integers at the scale 2**-scale_bits, which for a
    sum is the kernel's working scale plus the sum's binary shift, so
    deciding on them takes integer shifts only.  `precision_bits` records
    the working precision that produced the bounds.
    """

    __slots__ = ()

    def __new__(cls, lo: int, hi: int, scale_bits: int, precision_bits: int):
        if lo > hi:
            raise ValueError(f"empty interval: lo={lo} > hi={hi}")
        if scale_bits < 0:
            raise ValueError("scale_bits must be nonnegative")
        if precision_bits < 1:
            raise ValueError("precision_bits must be positive")
        return super().__new__(cls, lo, hi, scale_bits, precision_bits)


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
    floor zero, so widening by one unit covers it.  The floor is taken as
    floor(q_k / (2k+1)) of the running quotient q_k = floor(2**work_bits /
    x^(2k+1)), q_(k+1) = floor(q_k / x^2): floors of positive integers
    nest, so every division is by a small integer.
    """
    quotient = (1 << work_bits) // x
    x_squared = x * x
    lo = hi = 0
    k = 0
    positive = True
    while True:
        term = quotient // (2 * k + 1)
        if positive:
            lo += term
            hi += term + 1
        else:
            lo -= term + 1
            hi -= term
        if term == 0:
            return lo - 1, hi + 1
        quotient //= x_squared
        k += 1
        positive = not positive


@lru_cache(maxsize=None)
def _pi_scaled(work_bits: int) -> tuple[int, int]:
    """Integer bounds with pi in [lo, hi] / 2**work_bits, at most 2 units apart.

    Both arctan series run _PI_EXTRA_BITS past the scale, and their
    combination is rounded outward once.  The series' roundings add up to
    about 3.7 units per working bit (16 times those of arctan(1/5)), below
    2**_PI_EXTRA_BITS for every scale up to about 17,000 bits, which covers
    the default precision cap; there the final rounding leaves at most 2
    units.  Wider scales stay rigorous with a few more.
    """
    fine = work_bits + _PI_EXTRA_BITS
    a5_lo, a5_hi = _arctan_inv_scaled(5, fine)
    a239_lo, a239_hi = _arctan_inv_scaled(239, fine)
    return (
        (16 * a5_lo - 4 * a239_hi) >> _PI_EXTRA_BITS,
        -((4 * a239_lo - 16 * a5_hi) >> _PI_EXTRA_BITS),
    )


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
    floor/ceil rounding, the shift by the scale first: floors (and ceilings)
    of positive integers nest, so the division is by a small integer.
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
        divisor = (2 * k + 2) * (2 * k + 3)
        next_lo = ((term_lo * y_lo) >> work_bits) // divisor
        next_hi = -((-(term_hi * y_hi) >> work_bits) // divisor)
        if next_hi <= 1:
            # The next term, hence the whole tail, is below one scaled unit.
            return total_lo - next_hi, total_hi + next_hi
        term_lo, term_hi = next_lo, next_hi
        k += 1
        positive = not positive


@lru_cache(maxsize=None)
def sin_enclosure(m: int, modulus: int, precision_bits: int) -> tuple[int, int]:
    """Integer bounds (lo, hi) with 2*sin(pi*m/modulus) in [lo, hi] / 2**w,
    for 0 < m < modulus, at the kernel's working scale w = precision_bits +
    _GUARD_BITS.  They are at most _SINE_WIDTH_UNITS apart at every
    precision up to the default cap (see `_pi_scaled`).

    One Taylor series runs, _SINE_EXTRA_BITS past the working scale, at the
    lower end a = pi_lo * f / modulus of the angle interval [a, b] that
    pi's enclosure [pi_lo, pi_hi] gives, with f = min(m, modulus - m).  The
    angle pi * f / modulus is below pi/2, and sin increases from 0 to it,
    so sin(a) bounds it below; sin is 1-Lipschitz, so sin(a) + (b - a)
    bounds it above, with b - a rounded up.  The series' roundings and
    b - a stay below one unit of the working scale, and rounding the
    bounds outward to it leaves at most 2 units for the sine, 4 for twice
    the sine.
    """
    if precision_bits < 1:
        raise ValueError("precision_bits must be positive")
    if not 0 < m < modulus:
        raise ValueError(f"offset must satisfy 0 < m < modulus, got m={m}, modulus={modulus}")

    folded = min(m, modulus - m)  # sin(pi - x) = sin(x)
    work = precision_bits + _GUARD_BITS
    if 2 * folded == modulus:
        # Exact half turn: 2 sin(pi/2) = 2.
        return 2 << work, 2 << work
    fine = work + _SINE_EXTRA_BITS
    pi_lo, pi_hi = _pi_scaled(fine)
    sin_lo, sin_hi = _sin_series_scaled(pi_lo * folded, modulus, fine)
    sin_hi += -(-(pi_hi - pi_lo) * folded // modulus)
    lo = sin_lo >> _SINE_EXTRA_BITS
    hi = -((-sin_hi) >> _SINE_EXTRA_BITS)
    if lo <= 0:
        # The kernel divides by the lower bound; only moduli beyond about
        # 2**w leave it at zero.
        raise ValueError("modulus too large for this working precision")
    return 2 * lo, 2 * hi


# ---------------------------------------------------------------------------
# the sum kernel: integer bounds at one fixed-point scale
# ---------------------------------------------------------------------------

def _power_scaled(lo: int, hi: int, e: int, work_bits: int) -> tuple[int, int]:
    """Bounds on x**e at scale 2**work_bits, for x in [lo, hi] / 2**work_bits, x > 0.

    The exponent is nonnegative.  Every product is floored on the lower
    bound and ceiled on the upper one; with both bounds nonnegative that
    keeps the enclosure rigorous.  The result starts at the square for the
    exponent's lowest set bit, which is exactly what multiplying 1 by it
    would give.
    """
    if not e:
        return 1 << work_bits, 1 << work_bits
    while not e & 1:
        lo = (lo * lo) >> work_bits
        hi = -((-hi * hi) >> work_bits)
        e >>= 1
    result_lo, result_hi = lo, hi
    while e := e >> 1:
        lo = (lo * lo) >> work_bits
        hi = -((-hi * hi) >> work_bits)
        if e & 1:
            result_lo = (result_lo * lo) >> work_bits
            result_hi = -((-result_hi * hi) >> work_bits)
    return result_lo, result_hi


def _approx(numerator: int, bits: int, spec: str) -> str:
    """numerator / 2**bits formatted as a float (the quotient of two ints is
    correctly rounded), or as a signed power of two beyond float range."""
    try:
        return format(numerator / (1 << bits), spec)
    except OverflowError:
        return f"{'-' if numerator < 0 else ''}2**{math.log2(abs(numerator)) - bits:.1f}"


@lru_cache(maxsize=None)
def _base_estimate(cosecant: bool, modulus: int, m: int) -> tuple[float, float]:
    """Float estimates, for `_first_rung`, of log2 of a factor's base and of
    its enclosure's relative error in units of the working scale: a sine
    x = 2 sin(pi m / M) is _SINE_WIDTH_UNITS units wide, and csc^2 = 4/x^2
    doubles its relative error and adds one unit of rounding.  They depend
    on no genus, so each (kind, M, m) is estimated once per process."""
    x = 2 * math.sin(math.pi * m / modulus)
    if cosecant:
        return 2.0 - 2 * math.log2(x), 2 * _SINE_WIDTH_UNITS / x + 1
    return math.log2(x), _SINE_WIDTH_UNITS / x


def _cap_error(width: str, target_bits: int, cap: int) -> CertificationError:
    """The error for a width, estimated or evaluated, that misses the target at the cap."""
    target = f"1/{1 << target_bits}" if target_bits > 0 else str(1 << -target_bits)
    return CertificationError(f"{width} exceeds target {target} at the precision cap ({cap} bits)")


def _first_rung(
    prepared: Sequence[tuple[int, _FactorTerm]],
    cosecant: bool,
    power: int,
    scale: int,
    shift: int,
    target_bits: int,
    max_bits: int,
) -> int:
    """The first rung of the ladder 64 * 2**j (capped at max_bits)
    whose working scale is expected to meet the width target 2**-target_bits.

    The sum is one that `evaluate_sum` accepts, its terms of the kind
    `cosecant` names.  At scale 2**-w a term's error is about 2**-w times
    its rounding count, amplified by the factors above 1, by its
    multiplicity and by the scale's 2**(power * (log2(scale) - shift)).
    A factor's base enclosure adds its relative error once per unit of
    exponent, its exponent times `power`.  Factors below 1, which only sine
    products have, carry an absolute error and are counted as 1.  The
    estimate is this first-order count of the kernel's roundings and nothing
    more: floats only choose the rung, the enclosure stays rigorous, and the
    ladder doubles if the count falls short.  An estimate beyond twice the
    cap, and beyond 128 bits, misses the cap by far more than a first-order
    count can be off, so it raises CertificationError before any pi, sine,
    product or power of the scale is computed, with the estimated width at
    the cap in its message.
    """
    log2, estimate = math.log2, _base_estimate
    bounds = []
    for coeff, term in prepared:
        log_size, roundings = log2(coeff), 2.0
        for m, e in term.factors:
            e *= power
            log_base, error_units = estimate(cosecant, term.modulus, m)
            if log_base > 0:
                log_size += e * log_base
            roundings += e * error_units + 2 * e.bit_length() + 2
        bounds.append(log_size + log2(roundings))
    needed = 0.0
    if bounds:
        top = max(bounds)
        error_log2 = top + math.log2(sum(2.0 ** (b - top) for b in bounds))
        scale_log2 = power * (math.log2(scale) - shift)
        needed = error_log2 + scale_log2 + target_bits - _GUARD_BITS
    if needed > max(2 * max_bits, 128):
        width_log2 = needed - target_bits - max_bits
        raise _cap_error(f"estimated width 2**{width_log2:.1f}", target_bits, max_bits)
    precision = min(_START_BITS, max_bits)
    while precision < needed and precision < max_bits:
        precision = min(2 * precision, max_bits)
    return precision


@lru_cache(maxsize=None)
def _base_scaled(m: int, modulus: int, precision: int) -> tuple[int, int]:
    """Bounds on csc^2(pi m / M) = 4 / x^2 at the working scale 2**-w of
    `precision`, from the sine enclosure x of 2 sin(pi m / M): floored from
    x's upper bound and ceiled from its lower one, both positive.  Its
    arguments are those of `sin_enclosure`, which is a sine product's base
    as it is; like the sine, each (M, m, rung) is enclosed once per process."""
    lo, hi = sin_enclosure(m, modulus, precision)
    numerator = 1 << (3 * (precision + _GUARD_BITS) + 2)
    return numerator // (hi * hi), -(-numerator // (lo * lo))


def _sum_scaled(
    prepared: Sequence[tuple[int, _FactorTerm]], cosecant: bool, power: int, precision: int
) -> tuple[int, int, int]:
    """Bounds (lo, hi, w) with sum(coeff * term**power) in [lo, hi] / 2**w.

    The sum is one that `evaluate_sum` accepts, its terms of the kind
    `cosecant` names, so each base is the cached `_base_scaled` (csc^2) or
    `sin_enclosure` (sine) of its offset over the one modulus, and every
    bound is nonnegative.  Each distinct power of a base is computed once
    per call and shared by every term that uses it; only the powers depend
    on `power`, hence on the genus.  The positive multiplicities multiply a
    term's bounds exactly.
    """
    work = precision + _GUARD_BITS
    base = _base_scaled if cosecant else sin_enclosure
    powers: dict[tuple[int, int], tuple[int, int]] = {}  # (offset, exponent) -> power
    total_lo = total_hi = 0
    for coeff, term in prepared:
        lo = hi = 1 << work
        for factor in term.factors:
            bound = powers.get(factor)
            if bound is None:
                enclosure = base(factor[0], term.modulus, precision)
                bound = powers[factor] = _power_scaled(*enclosure, factor[1] * power, work)
            lo = (lo * bound[0]) >> work
            hi = -((-hi * bound[1]) >> work)
        total_lo += coeff * lo
        total_hi += coeff * hi
    return total_lo, total_hi, work


def evaluate_sum(
    terms: Iterable[tuple[int, _FactorTerm]],
    power: int,
    scale: int,
    shift: int,
    target_bits: int,
    *,
    max_bits: int = DEFAULT_MAX_PRECISION_BITS,
) -> CertifiedInterval:
    """Enclose  sum(coeff * (scale * 2**-shift * value(term))**power)  to
    within 2**-target_bits.

    The sum must be positive integer multiplicities of terms of one kind,
    all `CosecantSquaredTerm` or all `SineProductTerm`, over one modulus,
    at a positive integer scale; anything else raises ValueError before any
    estimate or enclosure.  Terms, multiplicities and the scale are built
    once for every power; 0 makes the product 1.  The first precision is the
    rung of the ladder 64 * 2**j that an a priori estimate expects to meet
    the target (see `_first_rung`); only once it accepts a rung are
    scale**power, which multiplies the bounds exactly, and power * shift
    formed.  The result is [lo, hi] / 2**(w + power * shift) at the working
    scale w of the rung that met the target, and its `precision_bits` is
    that rung.  The precision doubles only if that rung misses the target;
    exceeding `max_bits` raises CertificationError, as does, before any
    enclosure, an estimate beyond twice `max_bits`.  An empty term list
    yields the exact interval [0, 0].
    """
    if power < 0:
        raise ValueError("power must be nonnegative")
    if shift < 0:
        raise ValueError("shift must be nonnegative")
    if max_bits < 1:
        raise ValueError("max_bits must be positive")
    prepared = tuple(terms)
    kind = type(prepared[0][1]) if prepared else CosecantSquaredTerm
    if scale < 1 or kind not in (CosecantSquaredTerm, SineProductTerm) or any(
        c < 1 or type(t) is not kind or t.modulus != prepared[0][1].modulus for c, t in prepared
    ):
        raise ValueError("expected positive multiples of one term kind over one modulus, scale > 0")
    cosecant = kind is CosecantSquaredTerm

    precision = _first_rung(prepared, cosecant, power, scale, shift, target_bits, max_bits)
    scale, shift = scale**power, shift * power
    while True:
        lo, hi, work = _sum_scaled(prepared, cosecant, power, precision)
        lo, hi = lo * scale, hi * scale
        bits = work + shift
        # the width (hi - lo) / 2**bits meets 2**-target_bits when hi - lo is
        # at most 2**room, which below 2**0 only 0 is
        room = bits - target_bits
        if hi - lo <= (1 << room if room >= 0 else 0):
            return CertifiedInterval._make((lo, hi, bits, precision))
        if precision >= max_bits:
            raise _cap_error(f"width {_approx(hi - lo, bits, '.3g')}", target_bits, max_bits)
        precision = min(2 * precision, max_bits)


def certify_integer(interval: CertifiedInterval) -> int:
    """The unique integer in the interval, provided the width is below 1/2.

    Raises AmbiguousInterval when the width is >= 1/2 (refine and retry) and
    NoIntegerInInterval when the narrow interval misses every integer (which
    means the quantity enclosed is not the integer it was claimed to be).
    Both tests are integer shifts of the dyadic endpoints.
    """
    lo, hi, bits = interval.lo, interval.hi, interval.scale_bits
    if (hi - lo) << 1 >= 1 << bits:
        raise AmbiguousInterval(
            f"width {_approx(hi - lo, bits, '.3g')} >= 1/2; refine before certifying"
        )
    lowest = -(-lo >> bits)
    if lowest > hi >> bits:
        raise NoIntegerInInterval(
            f"no integer in [{_approx(lo, bits, '.6f')}, {_approx(hi, bits, '.6f')}]"
        )
    return lowest
