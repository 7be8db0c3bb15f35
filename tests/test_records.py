"""The record contract: every immutable result and query record keeps its
repr bytes, rejects assignment, validates the same way for positional and
keyword construction, and hashes by value."""

import re

import pytest

from thetadim.checks import CheckFailure, CheckReport, GridBounds, InvolutionTriple
from thetadim.intervals import CertifiedInterval, CosecantSquaredTerm
from thetadim.theta import FormalLineClass, PullbackFactorization, RootEquation, ThetaDescriptor
from thetadim.verlinde import DimResult, VerlindeQuery

DET_F = FormalLineClass.symbol("detF")
DESCRIPTOR = ThetaDescriptor(2, DET_F)

# (class, keyword arguments in field order, exact repr)
RECORDS = [
    (VerlindeQuery, dict(genus=2, rank=3, degree=0, level=1),
     "VerlindeQuery(genus=2, rank=3, degree=0, level=1)"),
    (DimResult, dict(value=4, method="trig-sum", certified=True),
     "DimResult(value=4, method='trig-sum', certified=True)"),
    (CertifiedInterval, dict(lo=1, hi=3, scale_bits=2, precision_bits=64),
     "CertifiedInterval(lo=1, hi=3, scale_bits=2, precision_bits=64)"),
    (CosecantSquaredTerm, dict(modulus=5, factors=((2, 2), (4, 1))),
     "CosecantSquaredTerm(modulus=5, factors=((2, 2), (4, 1)))"),
    (ThetaDescriptor, dict(rank=2, det=DET_F),
     "ThetaDescriptor(rank=2, det=FormalLineClass('detF^1'))"),
    (PullbackFactorization, dict(left_exponent=3, right_descriptor=DESCRIPTOR),
     "PullbackFactorization(left_exponent=3, "
     "right_descriptor=ThetaDescriptor(rank=2, det=FormalLineClass('detF^1')))"),
    (RootEquation, dict(power=2, rhs=FormalLineClass.symbol("L", 2), root_degree=1),
     "RootEquation(power=2, rhs=FormalLineClass('L^1'), root_degree=1)"),
    (InvolutionTriple, dict(rank=2, degree=-1, level=3, genus=2),
     "InvolutionTriple(rank=2, degree=-1, level=3, genus=2)"),
    (CheckFailure, dict(inputs=(2, 1, 0, 1), lhs="1", rhs="2"),
     "CheckFailure(inputs=(2, 1, 0, 1), lhs='1', rhs='2')"),
    (CheckReport, dict(check_name="duality", instances_run=1,
                       failures=(CheckFailure((2, 1, 0, 1), "1", "2"),),
                       skipped_unsupported=4, note="n", uncertified=((40, 2, 0, 3),)),
     "CheckReport(check_name='duality', instances_run=1, "
     "failures=(CheckFailure(inputs=(2, 1, 0, 1), lhs='1', rhs='2'),), "
     "skipped_unsupported=4, note='n', uncertified=((40, 2, 0, 3),))"),
    (GridBounds, dict(max_rank=2, max_level=3, genus_min=1, genus_max=4, max_abs_degree=0),
     "GridBounds(max_rank=2, max_level=3, genus_min=1, genus_max=4, max_abs_degree=0)"),
]

# (class, keyword arguments in field order, ValueError message)
INVALID = [
    (VerlindeQuery, dict(genus=0, rank=1, degree=0, level=1), "genus must be >= 1"),
    (VerlindeQuery, dict(genus=1, rank=0, degree=0, level=1), "rank must be >= 1"),
    (VerlindeQuery, dict(genus=1, rank=1, degree=0, level=0), "level must be >= 1"),
    (DimResult, dict(value=-1, method="trig-sum", certified=True),
     "dimension must be nonnegative"),
    (CertifiedInterval, dict(lo=3, hi=2, scale_bits=2, precision_bits=8),
     "empty interval: lo=3 > hi=2"),
    (CertifiedInterval, dict(lo=0, hi=1, scale_bits=0, precision_bits=0),
     "precision_bits must be positive"),
    (CertifiedInterval, dict(lo=0, hi=1, scale_bits=-1, precision_bits=8),
     "scale_bits must be nonnegative"),
    (CosecantSquaredTerm, dict(modulus=0, factors=()), "modulus must be a positive integer"),
    (CosecantSquaredTerm, dict(modulus=5, factors=((1, 1), (10, 2))),
     "offset 10 vanishes modulo 5"),
    (CosecantSquaredTerm, dict(modulus=5, factors=((2, 2), (4, -1))),
     "exponents must be nonnegative"),
    (ThetaDescriptor, dict(rank=0, det=DET_F), "rank must be >= 1"),
    (PullbackFactorization, dict(left_exponent=0, right_descriptor=DESCRIPTOR),
     "left exponent must be >= 1"),
    (InvolutionTriple, dict(rank=0, degree=0, level=1, genus=1), "rank must be >= 1"),
    (InvolutionTriple, dict(rank=1, degree=0, level=0, genus=1), "level must be >= 1"),
    (InvolutionTriple, dict(rank=1, degree=0, level=1, genus=0), "genus must be >= 1"),
    (GridBounds, dict(max_rank=-1, max_level=1, genus_min=1, genus_max=1, max_abs_degree=0),
     "bounds must be nonnegative"),
    (GridBounds, dict(max_rank=1, max_level=-1, genus_min=1, genus_max=1, max_abs_degree=0),
     "bounds must be nonnegative"),
    (GridBounds, dict(max_rank=1, max_level=1, genus_min=1, genus_max=1, max_abs_degree=-1),
     "bounds must be nonnegative"),
    (GridBounds, dict(max_rank=1, max_level=1, genus_min=0, genus_max=1, max_abs_degree=0),
     "genus_min must be >= 1"),
]


def _id(case):
    return case[0].__name__


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=[_id(c) for c in RECORDS])
class TestRecord:
    def test_repr_bytes(self, cls, fields, text):
        assert repr(cls(**fields)) == text
        assert repr(cls(*fields.values())) == text

    def test_fields_cannot_be_assigned(self, cls, fields, text):
        record = cls(**fields)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = None
        assert record == cls(**fields)

    def test_equal_records_hash_equal(self, cls, fields, text):
        first, second = cls(**fields), cls(*fields.values())
        assert first == second and first is not second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1

    def test_unpacks_as_a_tuple_of_its_fields(self, cls, fields, text):
        record = cls(**fields)
        assert tuple(record) == tuple(getattr(record, name) for name in fields)
        assert record == tuple(record)


def _invalid_id(case):
    # Shortened so that each numbered case's full test name stays within 100 characters.
    return "CosecantTerm" if case[0] is CosecantSquaredTerm else _id(case)


@pytest.mark.parametrize("cls, fields, message", INVALID, ids=[_invalid_id(c) for c in INVALID])
def test_positional_and_keyword_construction_raise_the_same_error(cls, fields, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls(*fields.values())
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls(**fields)


def test_check_report_defaults():
    report = CheckReport("theorem1", 3)
    assert report.failures == ()
    assert report.skipped_unsupported == 0
    assert report.note == ""
    assert report.uncertified == ()
    assert report == CheckReport(check_name="theorem1", instances_run=3)
    assert report.status == "pass"


@pytest.mark.parametrize("build", [
    lambda: CosecantSquaredTerm(5, ((7, 2), (-1, 1), (14, 0))),
    lambda: CosecantSquaredTerm(modulus=5, factors=[(7, 2), (-1, 1), (14, 0)]),
])
def test_cosecant_squared_term_reduces_offsets_modulo_the_modulus(build):
    term = build()
    assert term.modulus == 5
    assert term.factors == ((2, 2), (4, 1), (4, 0))
    assert type(term.factors) is tuple
    assert term == CosecantSquaredTerm(5, ((2, 2), (4, 1), (4, 0)))

