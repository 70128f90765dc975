"""What callers rely on from the package's record types: equality and
hashing of value records, the validation their constructors run, that the
immutable ones refuse assignment, the transforms a SmithForm leaves out,
and that a class whose constructor only stores its arguments is a
record."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from fatcat.cocycle import CocycleIsomorphism
from fatcat.comparison import CommaFiber, RhoWitness
from fatcat.errors import StructureError, Violation
from fatcat.fincat import NatTransformation, identity_functor, ordinal
from fatcat.fixtures import mobius_cocycle, z2_groupoid
from fatcat.homology import DegreeComparison, HomologyGroup, QuasiIsoReport
from fatcat.intlinalg import IntMatrix, SmithForm, smith
from fatcat.simpset import BijectionReport

from cocycle_calculus import PartitionPoint
from oracles import BarycentricPoint

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
    a = IntMatrix([[2, 1], [0, 3]], 2)
    assert smith(a, rows=True) == smith(a, rows=True) != smith(a)
    group = HomologyGroup(1, 0, (2,), True)
    assert DegreeComparison(1, group, group, True) == DegreeComparison(
        degree=1, source=group, target=group, isomorphism=True)
    assert QuasiIsoReport([], []) == QuasiIsoReport(degrees=[], violations=[])
    assert BijectionReport([], (1, 2), (1, 2)) != BijectionReport([], (1, 2), (1, 3))
    u = mobius_cocycle()
    assert CocycleIsomorphism(u, u, {}) == CocycleIsomorphism(source=u, target=u, phi={})
    assert CommaFiber(0, {}, 3) == CommaFiber(degree=0, steps={}, D=3)


def test_report_properties_read_their_fields():
    assert QuasiIsoReport([], []).ok
    assert not QuasiIsoReport([], [Violation("quasi-iso", (1,))]).ok
    assert BijectionReport([], (1, 2), (1, 2)).ok
    assert not BijectionReport([], (1, 2), (1, 3)).ok
    assert not BijectionReport([Violation("bijection-face", (1,))], (1,), (1,)).ok
    assert SmithForm([1, 6], 2, 2, None, None, [0, 1], [0, 1]).rank == 2
    assert SmithForm(factors=[], nrows=1, ncols=1, row_ops=None, col_ops=None,
                     row_order=[0], col_order=[0]).rank == 0


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
    u = mobius_cocycle()
    return [
        (Violation("law", (1,)), "detail"),
        (g, "inverse"),
        (functor, "omap"),
        (NatTransformation(functor, functor, dict(g.base.identity)), "component"),
        (HomologyGroup(0, 1, (), True), "betti"),
        (BarycentricPoint.barycenter(1), "coords"),
        (RhoWitness(1, "literal", "kind", 0, (), (), ()), "detail"),
        (PartitionPoint((Fraction(1),)), "coords"),
        (smith(IntMatrix([[2]], 1)), "factors"),
        (DegreeComparison(0, None, None, True), "isomorphism"),
        (QuasiIsoReport([], []), "violations"),
        (BijectionReport([], (1,), (1,)), "violations"),
        (CommaFiber(0, {}, 3), "steps"),
        (CocycleIsomorphism(u, u, {}), "phi"),
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


PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fatcat"


def _stores_a_parameter(statement, self_name, params):
    """Whether a statement is ``self.<name> = <parameter>``."""
    if not (isinstance(statement, ast.Assign) and len(statement.targets) == 1):
        return False
    target, value = statement.targets[0], statement.value
    return (
        isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
        and target.value.id == self_name
        and isinstance(value, ast.Name) and value.id in params
    )


def storing_classes(package):
    """Module-level classes of the modules in ``package`` whose
    ``__init__`` does nothing but assign its parameters to ``self``."""
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef):
                continue
            for init in node.body:
                if not (isinstance(init, ast.FunctionDef) and init.name == "__init__"):
                    continue
                self_name, *params = [a.arg for a in init.args.args + init.args.kwonlyargs]
                body = init.body
                if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                    body = body[1:]
                if body and all(_stores_a_parameter(st, self_name, params) for st in body):
                    yield f"{path.stem}.{node.name}"


def test_a_class_that_only_stores_its_arguments_is_a_record():
    # a class earns its own constructor by checking, copying or computing
    # something; one that only stores its arguments is a namedtuple
    assert list(storing_classes(PACKAGE)) == [], "make these namedtuple records"


def test_the_record_guard_sees_a_storing_constructor(tmp_path):
    (tmp_path / "m.py").write_text(
        "class Stores:\n"
        "    def __init__(self, a, b):\n"
        "        \"Docstring.\"\n"
        "        self.a = a\n"
        "        self.b = b\n"
        "\n"
        "class Copies:\n"
        "    def __init__(self, a):\n"
        "        self.a = dict(a)\n"
    )
    assert list(storing_classes(tmp_path)) == ["m.Stores"]
