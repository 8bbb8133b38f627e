"""Record semantics of every frozen value class: construction, defaults,
equality, hash, repr, immutability and validation."""

from fractions import Fraction

import pytest

from permfunc.characters import (
    CyclicRootCharacter,
    IrreducibleCharacter,
    Partition,
    SignCharacter,
    TableCharacter,
    TrivialCharacter,
)
from permfunc.engine import (
    BoundReport,
    DominanceReport,
    GmfResult,
    Method,
    SingularSpectrum,
    SuperadditivityReport,
    TermCounts,
)
from permfunc.gaussian import gauss
from permfunc.groups import (
    AlternatingGroup,
    CyclicGroup,
    GeneratedSubgroup,
    GroupSpec,
    PointwiseStabilizer,
    SymmetricGroup,
)
from permfunc.matrices import BlockSpec, PsdClassification
from permfunc.perm import CycleDecomposition, CycleStructure, Permutation

P21 = Permutation((2, 1))
P231 = Permutation((2, 3, 1))
P21_R = "Permutation(images=(2, 1))"
ONE = gauss(1)
ONE_R = "GaussianRational(Fraction(1, 1), Fraction(0, 1))"

# (class, fields in order, the repr), one row per record class
RECORDS = [
    (Permutation, {"images": (2, 1)}, P21_R),
    (CycleDecomposition, {"degree": 3, "cycles": ((1, 2),), "fixed_points": frozenset({3})},
     "CycleDecomposition(degree=3, cycles=((1, 2),), fixed_points=frozenset({3}))"),
    (CycleStructure, {"lengths": (2,), "fixed_count": 1},
     "CycleStructure(lengths=(2,), fixed_count=1)"),
    (GroupSpec, {}, "GroupSpec()"),
    (SymmetricGroup, {"n": 3}, "SymmetricGroup(n=3)"),
    (AlternatingGroup, {"n": 3}, "AlternatingGroup(n=3)"),
    (CyclicGroup, {"generator": P231}, "CyclicGroup(generator=Permutation(images=(2, 3, 1)))"),
    (PointwiseStabilizer, {"n": 4, "points": frozenset({1})},
     "PointwiseStabilizer(n=4, points=frozenset({1}))"),
    (GeneratedSubgroup, {"n": 2, "generators": (P21,)},
     f"GeneratedSubgroup(n=2, generators=({P21_R},))"),
    (Partition, {"parts": (2, 1)}, "Partition(parts=(2, 1))"),
    (TrivialCharacter, {}, "TrivialCharacter()"),
    (SignCharacter, {}, "SignCharacter()"),
    (IrreducibleCharacter, {"partition": Partition((2, 1))},
     "IrreducibleCharacter(partition=Partition(parts=(2, 1)))"),
    (TableCharacter, {"table": ((Permutation((1, 2)), ONE),)},
     f"TableCharacter(table=((Permutation(images=(1, 2)), {ONE_R}),))"),
    (CyclicRootCharacter, {"generator": P21, "index": 1},
     f"CyclicRootCharacter(generator={P21_R}, index=1)"),
    (BlockSpec, {"m": 2, "n": 1, "theta": Permutation((1,)), "tau": Permutation((1,)),
                 "inner_thetas": (P21,), "inner_taus": (P21,), "a": (ONE,), "b": (ONE,)},
     "BlockSpec(m=2, n=1, theta=Permutation(images=(1,)), tau=Permutation(images=(1,)), "
     f"inner_thetas=({P21_R},), inner_taus=({P21_R},), a=({ONE_R},), b=({ONE_R},))"),
    (PsdClassification, {"psd": True, "k": Fraction(1), "m": None, "pi": None, "condition": 1},
     "PsdClassification(psd=True, k=Fraction(1, 1), m=None, pi=None, condition=1)"),
    (GmfResult, {"value": ONE, "method": Method.NAIVE, "term_count": 2},
     f"GmfResult(value={ONE_R}, method=<Method.NAIVE: 'naive'>, term_count=2)"),
    (SingularSpectrum, {"values": (2.0, 1.0)}, "SingularSpectrum(values=(2.0, 1.0))"),
    (BoundReport, {"lhs": 1.0, "rhs": 2.0, "holds": True},
     "BoundReport(lhs=1.0, rhs=2.0, holds=True)"),
    (DominanceReport, {"lhs": Fraction(1), "rhs": Fraction(2), "holds": True},
     "DominanceReport(lhs=Fraction(1, 1), rhs=Fraction(2, 1), holds=True)"),
    (SuperadditivityReport,
     {"combined": Fraction(3), "left": Fraction(1), "right": Fraction(1), "holds": True},
     "SuperadditivityReport(combined=Fraction(3, 1), left=Fraction(1, 1), "
     "right=Fraction(1, 1), holds=True)"),
    (TermCounts, {"naive": 4, "formula": 2, "cauchy_binet": 3},
     "TermCounts(naive=4, formula=2, cauchy_binet=3)"),
]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=[row[0].__name__ for row in RECORDS])
def test_record_semantics(cls, fields, text):
    values = tuple(fields.values())
    record = cls(*values)
    assert cls(**fields) == record
    assert tuple(getattr(record, name) for name in fields) == values
    assert hash(record) == hash(values)
    assert repr(record) == text
    # neither the tuple of its fields nor another object equals a record
    assert all(record != other for other in (values, object()))
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in fields) == values


def test_equality_needs_the_same_class():
    assert SymmetricGroup(3) != AlternatingGroup(3)
    assert SymmetricGroup(3) == SymmetricGroup(3)
    assert TrivialCharacter() == TrivialCharacter()
    assert TrivialCharacter() != SignCharacter()
    assert len({SymmetricGroup(3), SymmetricGroup(3), AlternatingGroup(3)}) == 2


def test_defaults_and_argument_errors():
    assert CyclicRootCharacter(P21) == CyclicRootCharacter(P21, 1)
    assert CyclicRootCharacter(generator=P21, index=1) == CyclicRootCharacter(P21)
    assert PsdClassification(False) == PsdClassification(False, None, None, None, None)
    assert PsdClassification(True, condition=1).k is None
    for call in (
        lambda: Permutation(),
        lambda: Permutation((1,), (1,)),
        lambda: Permutation((1,), images=(1,)),
        lambda: Permutation(image=(1,)),
        lambda: CyclicRootCharacter(index=1),
    ):
        with pytest.raises(TypeError):
            call()


@pytest.mark.parametrize("call", [
    lambda: Permutation((1, 1)),
    lambda: Permutation(()),
    lambda: Partition((1, 2)),
    lambda: Partition((2, 0)),
    lambda: SymmetricGroup(0),
    lambda: AlternatingGroup(n=0),
    lambda: PointwiseStabilizer(3, frozenset({4})),
    lambda: TableCharacter(()),
])
def test_post_init_validation_runs(call):
    with pytest.raises(ValueError):
        call()
