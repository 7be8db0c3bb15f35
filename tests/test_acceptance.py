"""Acceptance suite.

Each test runs one acceptance criterion at its stated tolerance (all
dimension identities are exact integer equalities; tolerances appear only
as interval-width and wall-clock bounds) and prints one pass/fail line.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import gc
import itertools
import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from thetadim import verlinde
from thetadim.checks import GridBounds, InvolutionTriple, _compare, grid_sweep, involution
from thetadim.cli import main
from thetadim.intervals import (
    DEFAULT_MAX_PRECISION_BITS,
    CosecantSquaredTerm,
    NoIntegerInInterval,
    _base_estimate,
    _base_scaled,
    _first_rung,
    certify_integer,
    evaluate_sum,
    sin_enclosure,
)
from thetadim.theta import FormalLineClass, ThetaDescriptor, complementary_invariants, theta_rescale
from thetadim.verlinde import (
    VerlindeQuery,
    beauville_sum,
    gl_dim,
    reduced_sum_terms,
    sl_dim,
    verlinde_sum_terms,
)
from trig_oracle import FROZEN_SUMS

ROOT = Path(__file__).resolve().parents[1]
# (g, n, k, s, v) of every benchmark lookup cell, from an mpmath brute force
LOOKUPS = ROOT / "perfbench" / "refs" / "lookups.json"


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {label}: FAIL")
        raise
    print(f"\nACCEPTANCE {label}: PASS")


def test_criterion_1_pinned_values():
    with criterion("1 pinned values s(2,0,1)=4 and s(2,0,3)=20 at genus 2"):
        # cold-cache timing
        beauville_sum.cache_clear()
        reduced_sum_terms.cache_clear()
        _base_scaled.cache_clear()
        _base_estimate.cache_clear()
        sin_enclosure.cache_clear()
        for level, expected in ((1, 4), (3, 20)):
            start = time.perf_counter()
            result = sl_dim(VerlindeQuery(2, 2, 0, level))
            elapsed = time.perf_counter() - start
            assert result.value == expected
            assert result.certified
            assert elapsed < 1.0, f"level {level} took {elapsed:.3f}s"


def test_criterion_2_level_one_law():
    with criterion("2 level-one law s(n,0,1) = n^g, n <= 5, g in 2..4"):
        start = time.perf_counter()
        checked = 0
        for g in range(2, 5):
            for n in range(1, 6):
                result = sl_dim(VerlindeQuery(g, n, 0, 1))
                assert result.value == n**g, (g, n)
                if n > 1:
                    assert result.certified
                checked += 1
        assert checked == 15
        assert time.perf_counter() - start < 30.0


def test_criterion_3_genus_one_collapse():
    with criterion("3 genus-1 collapse to binomials, n,k <= 8"):
        start = time.perf_counter()
        for n in range(1, 9):
            for k in range(1, 9):
                assert beauville_sum(1, n, k).value == math.comb(n + k - 1, k), (n, k)
        assert time.perf_counter() - start < 30.0


def test_criterion_4_level_rank_transfer():
    with criterion("4 level-rank identity s(n,0,k)k^g = s(k,0,n)n^g, n,k <= 5, g in {2,3}"):
        start = time.perf_counter()
        for g in (2, 3):
            for n in range(1, 6):
                for k in range(1, 6):
                    lhs = beauville_sum(g, n, k).value * k**g
                    rhs = beauville_sum(g, k, n).value * n**g
                    assert lhs == rhs, (g, n, k)
        assert time.perf_counter() - start < 300.0


def test_criterion_5_transfer_ledger_grid():
    with criterion("5 transfer ledger on n <= 4, |d| <= 8, k <= 4, g <= 3"):
        report = grid_sweep("theorem1", GridBounds(4, 4, 1, 3, 8))
        assert report.status == "pass", report.failures
        # every tuple at genus 1, and d = 0 mod n at genus 2 and 3
        computable = [
            (g, n, d, k)
            for g in range(1, 4)
            for n in range(1, 5)
            for d in range(-8, 9)
            for k in range(1, 5)
            if g == 1 or d % n == 0
        ]
        assert report.instances_run == len(computable) == 560
        assert report.skipped_unsupported == 3 * 4 * 17 * 4 - 560


def test_criterion_6_involution_randomized():
    with criterion("6 involution self-inverse on 10^4 random triples"):
        rng = random.Random(20260809)
        triples = [
            InvolutionTriple(
                rank=rng.randint(1, 10**6),
                degree=rng.randint(-(10**6), 10**6),
                level=rng.randint(1, 10**3),
                genus=rng.randint(1, 50),
            )
            for _ in range(10**4)
        ]
        start = time.perf_counter()
        for t in triples:
            assert involution(involution(t)) == t
        assert time.perf_counter() - start < 1.0


def test_criterion_7_duality_dimension_grid():
    with criterion("7 duality dimension equality on d = 0 mod n, n,k <= 4, g in {2,3}"):
        # the worked instance first: s(2,0,3) = 20 against v(3,3,2) = 20
        assert sl_dim(VerlindeQuery(2, 2, 0, 3)).value == 20
        assert gl_dim(VerlindeQuery(2, 3, 3, 2)).value == 20
        assert _compare("duality", (2, 2, 0, 3), DEFAULT_MAX_PRECISION_BITS) is None

        report = grid_sweep("duality", GridBounds(4, 4, 2, 3, 8))
        assert report.status == "pass", report.failures
        degree_zero_mod_rank = [
            (g, n, d, k)
            for g in (2, 3)
            for n in range(1, 5)
            for d in range(-8, 9)
            if d % n == 0
            for k in range(1, 5)
        ]
        assert report.instances_run == len(degree_zero_mod_rank) == 288


def _trig_queries_from_criteria_1_to_5():
    queries = {(2, 2, 1), (2, 2, 3)}
    queries.update((g, n, 1) for g in range(2, 5) for n in range(2, 6))
    queries.update((1, n, k) for n in range(2, 9) for k in range(1, 9))
    for g in (2, 3):
        for n in range(1, 6):
            for k in range(1, 6):
                queries.add((g, n, k))
                queries.add((g, k, n))
    # grid of criterion 5: trig route is taken whenever rank >= 2, d = 0 mod n
    queries.update(
        (g, n, k) for g in range(1, 4) for n in range(2, 5) for k in range(1, 5)
    )
    return sorted(queries)


def test_criterion_8_certification_discipline():
    with criterion("8 certification widths < 1/4 and corrupted-modulus negative control"):
        # the unreduced sum at scale M^n and shift 2 C(n, 2) is the integer
        # N_g = s_g (M/n)^g
        for g, n, k in _trig_queries_from_criteria_1_to_5():
            enclosure = evaluate_sum(verlinde_sum_terms(n, k), g - 1, *_reference_scale(n, k), 2)
            lo, hi = (Fraction(x, 1 << enclosure.scale_bits) for x in enclosure[:2])
            assert hi - lo < Fraction(1, 4), (g, n, k)
            # exactly one integer inside
            assert math.ceil(lo) == math.floor(hi), (g, n, k)
            total = certify_integer(enclosure)
            # and the exact division by (M/n)^g leaves no remainder
            assert total * n**g % (n + k) ** g == 0, (g, n, k)

        # negative control: same sums with an off-by-one modulus, at the
        # scale of the true one, must be caught by the integrality
        # certificate somewhere on the grid.
        rejected = 0
        for g, n, k in ((2, 2, 1), (2, 2, 2), (2, 3, 1)):
            corrupted = [
                (coeff, CosecantSquaredTerm(term.modulus + 1, term.factors))
                for coeff, term in verlinde_sum_terms(n, k)
            ]
            enclosure = evaluate_sum(corrupted, g - 1, *_reference_scale(n, k), 2)
            try:
                certify_integer(enclosure)
            except NoIntegerInInterval:
                rejected += 1
        assert rejected >= 1
        # the (g=2, n=2, k=1) corruption in particular encloses
        # N = 9/4 * (2 + 1 + 2) = 45/4
        corrupted = [
            (c, CosecantSquaredTerm(t.modulus + 1, t.factors)) for c, t in verlinde_sum_terms(2, 1)
        ]
        with pytest.raises(NoIntegerInInterval):
            certify_integer(evaluate_sum(corrupted, 1, *_reference_scale(2, 1), 2))


def _reference_scale(n, k):
    """The (scale, shift) at which `verlinde_sum_terms(n, k)` sums to
    N_g = s_g ((n + k)/n)^g: (n + k)^n and 2 C(n, 2)."""
    return (n + k) ** n, 2 * math.comb(n, 2)


def _certify_at_first_rung(terms, power, scale, shift):
    """(certified integer, rung) of a sum at the target 1/4, asserting the
    a priori rung needed no doubling."""
    enclosure = evaluate_sum(terms, power, scale, shift, 2)
    first = _first_rung(tuple(terms), power, scale, shift, 2, DEFAULT_MAX_PRECISION_BITS)
    assert enclosure.precision_bits == first
    return certify_integer(enclosure), first


def _pair_form(g, n, k):
    """The (terms, power, scale, shift) that `beauville_sum` hands the
    kernel for s(n, 0, k) at genus g."""
    handed = []
    original = verlinde.evaluate_sum

    def recording(*args, **kwargs):
        handed.append(args[:4])
        return original(*args, **kwargs)

    beauville_sum.cache_clear()
    verlinde.evaluate_sum = recording
    try:
        beauville_sum(g, n, k)
    finally:
        verlinde.evaluate_sum = original
    [args] = handed
    return args


def _unreduced_at_first_rung(g, n, k):
    """s_g from the unreduced sum: N_g certified at its a priori rung with
    power g - 1, scale M^n and shift 2 C(n, 2), then divided exactly by
    (M/n)^g."""
    total, _ = _certify_at_first_rung(verlinde_sum_terms(n, k), g - 1, *_reference_scale(n, k))
    value, remainder = divmod(total * n**g, (n + k) ** g)
    assert remainder == 0, (g, n, k, total)
    return value


def test_reduced_and_reference_paths_certify_the_same_integers():
    with criterion("reduced sum equals reference sum on the acceptance grid and FROZEN_SUMS"):
        cells = set(_trig_queries_from_criteria_1_to_5()) | set(FROZEN_SUMS)
        for n, k in sorted({(n, k) for _, n, k in cells}):
            terms = reduced_sum_terms(n, k)
            # every subset containing n + k counted once, each profile once
            assert sum(c for c, _ in terms) == math.comb(n + k - 1, n - 1)
            assert len({t.factors for _, t in terms}) == len(terms)
        for g, n, k in sorted(cells):
            reduced, _ = _certify_at_first_rung(*_pair_form(g, n, k))
            reference = _unreduced_at_first_rung(g, n, k)
            assert reduced == reference == FROZEN_SUMS.get((g, n, k), reduced), (g, n, k)


def _table_by_definition(n, k):
    """The pair-form table built subset by subset: each subset's pairs
    s < s' counted directly by folded offset, one (multiplicity, term) per
    distinct profile, in the lexicographic order of its first subset."""
    modulus = n + k
    grouped = {}
    for rest in itertools.combinations(range(1, modulus), n - 1):
        pairs = {}
        for s, t in itertools.combinations(rest + (modulus,), 2):
            d = min(t - s, modulus - (t - s))
            pairs[d] = pairs.get(d, 0) + 1
        factors = tuple(sorted(pairs.items()))
        grouped[factors] = grouped.get(factors, 0) + 1
    return tuple((c, CosecantSquaredTerm(modulus, f)) for f, c in grouped.items())


def test_reduced_terms_group_subsets_by_pair_offsets():
    # exact, no trigonometry: the table equals a brute-force grouping of the
    # subsets containing n + k by their pair-offset counts, term for term and
    # in order (the rung estimate sums floats in term order), and the genus
    # enters only as the power g - 1: the dyadic scale is genus-free
    queries = _trig_queries_from_criteria_1_to_5()
    lookup_cells = {
        (n, k) for rows in json.loads(LOOKUPS.read_text()).values() for _, n, k, _, _ in rows
    }
    small_cells = {
        (n, modulus - n)
        for modulus in range(2, 17)
        for n in range(1, modulus)
        if math.comb(modulus - 1, n - 1) <= 2000
    }
    assert lookup_cells <= small_cells
    # cells where a + b = M ties, odd and even moduli, and level 1, for
    # the walk that visits one subset of each reflection pair
    wide_cells = {(2, 2000), (3, 100), (7, 9), (6, 11), (40, 1)}
    for n, k in sorted(small_cells | wide_cells | {(n, k) for _, n, k in queries}):
        modulus = n + k
        terms = reduced_sum_terms(n, k)
        assert terms == _table_by_definition(n, k), (n, k)
        assert sum(c for c, _ in terms) == math.comb(modulus - 1, n - 1)
        assert all(type(t) is CosecantSquaredTerm and t.modulus == modulus for _, t in terms)
    scales = {}
    for g, n, k in queries:
        modulus = n + k
        handed, power, scale, shift = _pair_form(g, n, k)
        if g > 1:
            assert handed is reduced_sum_terms(n, k)
        assert power == g - 1
        assert Fraction(scale, 2**shift) == Fraction(n * modulus ** (n - 1), 4 ** math.comb(n, 2))
        assert scales.setdefault((n, k), (scale, shift)) == (scale, shift), (g, n, k)


def test_table_build_leaves_no_cyclic_garbage():
    # the walk's closure must not outlive the call: with the collector off,
    # a build leaves nothing for gc.collect() to find
    gc.disable()
    try:
        gc.collect()
        reduced_sum_terms.__wrapped__(4, 5)
        assert gc.collect() == 0
    finally:
        gc.enable()


DEEP_FIRST_RUNGS = [
    (12, 5, 5, 256),
    (30, 3, 2, 128),
    (60, 4, 1, 128),
    (72, 4, 1, 128),
    (96, 4, 1, 256),
    (50, 7, 5, 1024),
    (400, 3, 3, 2048),
]


@pytest.mark.parametrize(
    "g,n,k,rung", DEEP_FIRST_RUNGS, ids=[f"{g}-{n}-{k}" for g, n, k, _ in DEEP_FIRST_RUNGS]
)
def test_reduced_path_first_rung_on_deep_values(g, n, k, rung):
    # 100-bit and larger values: the a priori rung is above the 64-bit start,
    # no higher than the sum needs, and still certifies without doubling.
    reduced, bits = _certify_at_first_rung(*_pair_form(g, n, k))
    assert bits == rung
    assert reduced == _unreduced_at_first_rung(g, n, k)


def test_pair_form_grid_certifies_at_its_first_rungs():
    # the rung estimate is a first-order count of the kernel's roundings,
    # which the genus amplifies: every pair-form sum on this grid, up to
    # genus 600, certifies at its a priori rung without doubling
    cells = [
        (g, n, k)
        for g in (2, 19, 150, 600)
        for n in range(2, 7)
        for k in range(1, 7)
        if math.comb(n + k - 1, n - 1) <= 200
    ]
    assert len(cells) == 108
    for g, n, k in cells:
        terms = reduced_sum_terms(n, k)
        scale, shift = n * (n + k) ** (n - 1), 2 * math.comb(n, 2)
        _certify_at_first_rung(terms, g - 1, scale, shift)


# The lookup-deep cells whose a priori rung is 256 bits; the rest start,
# and certify, at 128, (72, 4, 1) among them with 3.3 bits to spare.
DEEP_CELLS_AT_256 = {
    (66, 5, 1), (78, 2, 2), (78, 4, 1), (84, 2, 2),
    (84, 4, 1), (90, 4, 1), (96, 3, 1), (96, 4, 1),
}


def test_benchmark_cells_certify_at_their_pinned_rungs():
    # every lookup cell equals its mpmath reference at the rung its
    # workload is built to exercise, without doubling
    refs = json.loads(LOOKUPS.read_text())
    rungs = {}
    for workload, rows in refs.items():
        for g, n, k, s, _ in rows:
            value, rungs[workload, g, n, k] = _certify_at_first_rung(*_pair_form(g, n, k))
            assert value == int(s), (workload, g, n, k)
    assert len(rungs) == 68
    expected = {
        key: 64 if key[0] == "lookup-wide" else 256 if key[1:] in DEEP_CELLS_AT_256 else 128
        for key in rungs
    }
    assert rungs == expected


def test_reduced_path_negative_control():
    with criterion("reduced sum with an off-by-one modulus misses every integer"):
        rejected = 0
        for g, n, k in ((2, 2, 1), (2, 2, 2), (2, 3, 1)):
            terms, power, scale, shift = _pair_form(g, n, k)
            corrupted = [
                (coeff, type(term)(term.modulus + 1, term.factors))
                for coeff, term in terms
            ]
            try:
                certify_integer(evaluate_sum(corrupted, power, scale, shift, 2))
            except NoIntegerInInterval:
                rejected += 1
        assert rejected >= 1


def test_criterion_9_symbolic_layer(capsys):
    with criterion("9 symbolic factor outputs byte-for-byte and twist degrees"):
        cases = [
            (
                ["factor", "pullback", "--n1", "2", "--d1", "0", "--n2", "3", "--rkF", "1"],
                "theta^3 [x] theta{rank=2, det=L1^1.detF^2}\n",
            ),
            (
                ["factor", "jacobian", "--genus", "2", "--rank", "2", "--degree", "0"],
                "exponent 2, constraint N^2 = L.detF^2, degree check 2 = 2\n",
            ),
            (
                ["factor", "rescale", "--rkF", "2", "--rkF0", "1"],
                "a=2, twist=detF^1.detF0^-2\n",
            ),
        ]
        for argv, expected in cases:
            assert main(argv) == 0
            assert capsys.readouterr().out == expected

        rng = random.Random(97)
        for _ in range(10**3):
            g = rng.randint(1, 8)
            n = rng.randint(1, 8)
            d = rng.randint(-12, 12)
            k = rng.randint(1, 6)
            a = rng.randint(1, 5)
            rank0, deg0 = complementary_invariants(g, n, d, k)
            rank1, deg1 = complementary_invariants(g, n, d, a * k)
            F = ThetaDescriptor(rank1, FormalLineClass.symbol("detF", degree=deg1))
            F0 = ThetaDescriptor(rank0, FormalLineClass.symbol("detF0", degree=deg0))
            _, twist = theta_rescale(F, F0)
            assert twist.degree == 0


def test_json_round_trip_on_acceptance_grid(capsys):
    # CLI records for every computable query on a small grid parse back
    # to the exact record.
    with criterion("json round-trip on the acceptance grid"):
        for g in (1, 2):
            for n in (1, 2, 3):
                for d in (-2, 0, 3):
                    for k in (1, 2):
                        for kind in ("sl", "gl"):
                            argv = ["dim", kind, "--genus", str(g), "--rank", str(n),
                                    "--degree", str(d), "--level", str(k),
                                    "--format", "json"]
                            code = main(argv)
                            out = capsys.readouterr().out
                            if code == 2:
                                continue
                            assert code == 0
                            payload = json.loads(out)
                            assert json.loads(json.dumps(payload)) == payload
                            assert isinstance(payload["value"], str)
                            int(payload["value"])
