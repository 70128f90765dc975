"""What callers rely on from the package's record types: equality and
hashing of value records, the validation their constructors run, that the
immutable ones refuse assignment, and the transforms a SmithForm leaves
out."""

from fractions import Fraction

import pytest

from fatcat.comparison import BarycentricPoint, RhoWitness
from fatcat.errors import StructureError, Violation
from fatcat.fincat import NatTransformation, identity_functor, ordinal
from fatcat.fixtures import z2_groupoid
from fatcat.homology import HomologyGroup
from fatcat.intlinalg import IntMatrix, smith

from cocycle_calculus import PartitionPoint

HALF = Fraction(1, 2)


def test_violation_equality_and_hashing():
    a = Violation("law", (1, ("x", 2)))
    b = Violation("law", (1, ("x", 2)), "")
    assert a == b and hash(a) == hash(b)
    assert a.detail == ""
    assert a != Violation("law", (1, ("x", 2)), "why")
    assert a != Violation("other", (1, ("x", 2)))
    assert a != Violation("law", (1, ("x", 3)))
    assert len({a, b, Violation("law", (2,))}) == 2
    assert [a, Violation("law", (2,))] == [b, Violation("law", (2,))]
    assert {a: 1}[b] == 1


def test_value_records_compare_by_fields():
    assert HomologyGroup(1, 0, (2,), True) == HomologyGroup(1, 0, (2,), True)
    assert HomologyGroup(1, 0, (2,), True) != HomologyGroup(1, 0, (2,), False)
    assert z2_groupoid() == z2_groupoid()
    assert identity_functor(ordinal(2)) == identity_functor(ordinal(2))
    point = PartitionPoint((HALF, HALF))
    assert point == PartitionPoint((HALF, HALF)) and hash(point) == hash(PartitionPoint((HALF, HALF)))
    assert BarycentricPoint.barycenter(1) == BarycentricPoint(1, (HALF, HALF))


@pytest.mark.parametrize(
    "torsion, message",
    [((2, 3), "divisor chain"), ((4, 2), "divisor chain"), ((1,), ">= 2"), ((0,), ">= 2")],
)
def test_homology_group_refuses_bad_torsion(torsion, message):
    with pytest.raises(StructureError, match=message):
        HomologyGroup(1, 0, torsion, True)


def test_homology_group_accepts_a_divisor_chain():
    group = HomologyGroup(degree=3, betti=1, torsion=(2, 4, 12), reliable=True)
    assert (group.betti, group.torsion) == (1, (2, 4, 12))
    assert group.to_json() == {"degree": 3, "betti": 1, "torsion": [2, 4, 12], "reliable": True}


@pytest.mark.parametrize(
    "coords, message",
    [
        ((HALF, 0.5), "exact rationals"),
        ((Fraction(3, 2), -HALF), "nonnegative"),
        ((HALF, Fraction(1, 4)), "sum to 1"),
        ((), "sum to 1"),
    ],
)
def test_partition_point_validation(coords, message):
    with pytest.raises(StructureError, match=message):
        PartitionPoint(coords)


@pytest.mark.parametrize(
    "n, coords, message",
    [
        (2, (HALF, HALF), "n \\+ 1 coordinates"),
        (1, (HALF, 0.5), "exact rationals"),
        (1, (Fraction(3, 2), -HALF), "nonnegative"),
        (1, (HALF, Fraction(1, 4)), "sum to 1"),
    ],
)
def test_barycentric_point_validation(n, coords, message):
    with pytest.raises(StructureError, match=message):
        BarycentricPoint(n, coords)


def test_valid_points_keep_their_coordinates():
    assert PartitionPoint((Fraction(1), Fraction(0))).coords == (1, 0)
    assert BarycentricPoint.barycenter(2).coords == (Fraction(1, 3),) * 3


def frozen_records():
    g = z2_groupoid()
    functor = identity_functor(g.base)
    return [
        (Violation("law", (1,)), "detail"),
        (g, "inverse"),
        (functor, "omap"),
        (NatTransformation(functor, functor, dict(g.base.identity)), "component"),
        (HomologyGroup(0, 1, (), True), "betti"),
        (BarycentricPoint.barycenter(1), "coords"),
        (RhoWitness(1, "literal", "kind", 0, (), (), ()), "detail"),
        (PartitionPoint((Fraction(1),)), "coords"),
    ]


FROZEN = frozen_records()


@pytest.mark.parametrize("record, field", FROZEN, ids=[type(r).__name__ for r, _ in FROZEN])
def test_frozen_records_refuse_assignment(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is before


def test_smith_form_transforms_default_to_none():
    a = IntMatrix([[2, 1], [0, 3]], 2)
    plain = smith(a)
    assert (plain.row_ops, plain.col_ops) == (None, None)
    assert (plain.factors, plain.rank, plain.nrows, plain.ncols) == ([1, 6], 2, 2, 2)
    rows = smith(a, rows=True)
    assert rows.row_ops and rows.col_ops is None
    cols = smith(a, cols=True)
    assert cols.row_ops is None and cols.col_ops
