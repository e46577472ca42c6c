"""Value semantics of the plain record classes: field-wise ==, hashing, immutability."""

from fractions import Fraction

import pytest

from truncas.fields import QQ, PrimeField
from truncas.groebner import PolyIdeal
from truncas.modules import ChevalleyResult, PolyModule
from truncas.morphisms import AlgebraMorphism, InjectivityReport, KernelReport
from truncas.nested import NestedProfile, SolutionSet
from truncas.series import Polynomial, Ring
from truncas.textio import Declaration, Token

RX = Ring(QQ, ("x1", "x2"))
X1, X2 = RX.variable(0), RX.variable(1)


def test_equal_rings_compare_equal_and_hash_alike():
    a, b = Ring(QQ, ("x1", "x2"), nx=1), Ring(QQ, ("x1", "x2"), nx=1)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a == a and not a != a


@pytest.mark.parametrize(
    "other",
    [
        Ring(QQ, ("x1", "x3"), nx=1),
        Ring(PrimeField(7), ("x1", "x2"), nx=1),
        Ring(QQ, ("x1", "x2")),
        ("x1", "x2"),
    ],
)
def test_rings_differing_in_a_field_compare_unequal(other):
    ring = Ring(QQ, ("x1", "x2"), nx=1)
    assert ring != other and not ring == other


def test_equal_profiles_compare_equal_and_hash_alike():
    a, b = NestedProfile((1, 2)), NestedProfile((1, 2))
    assert a == b and hash(a) == hash(b)
    assert a != NestedProfile((2, 1))


@pytest.mark.parametrize(
    "obj,name",
    [(Ring(QQ, ("x1",)), "names"), (Ring(QQ, ("x1",)), "nx"), (NestedProfile((1,)), "sigma")],
)
def test_frozen_fields_cannot_be_assigned_or_deleted(obj, name):
    with pytest.raises(AttributeError):
        setattr(obj, name, None)
    with pytest.raises(AttributeError):
        delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1


def test_ideals_and_modules_compare_field_wise():
    assert PolyIdeal(RX, [X1, X2]) == PolyIdeal(RX, [X2, X1])  # canonical generator order
    assert PolyIdeal(RX, [X1]) != PolyIdeal(RX, [X2])
    assert PolyModule(RX, 2, [[X1, X2]]) == PolyModule(RX, 2, [[X1, X2]])
    assert PolyModule(RX, 2, [[X1, X2]]) != PolyModule(RX, 2, [[X2, X1]])
    with pytest.raises(TypeError):
        hash(PolyIdeal(RX, [X1]))


def test_reports_compare_field_wise():
    assert ChevalleyResult(2, 1, "exact") == ChevalleyResult(2, 1, "exact", None)
    assert ChevalleyResult(2, 1, "exact") != ChevalleyResult(2, 1, "truncated")
    ideal = PolyIdeal(RX, [X1])
    assert KernelReport(3, [3, 5], [X1], True, ideal, [2, 1]) == KernelReport(
        3, [3, 5], [X1], True, PolyIdeal(RX, [X1]), [2, 1]
    )
    assert KernelReport(3, [3], [], False) != KernelReport(3, [3], [], True)
    assert InjectivityReport(3, [3], True, True, ideal, []) == InjectivityReport(
        3, [3], True, True, ideal, []
    )
    assert SolutionSet("solvable", None, [], [], 3) != SolutionSet("unsolvable", 2, [], [], 3)
    assert Token("int", "7", 1, 3) == Token("int", "7", 1, 3) != Token("int", "7", 1, 4)


def test_mutable_defaults_are_fresh_per_instance():
    a, b = KernelReport(3, [3], [], True), KernelReport(3, [3], [], True)
    a.dimensions.append(1)
    assert b.dimensions == []
    d, e = Declaration("series", "f", None), Declaration("series", "g", None)
    d.meta["I"] = "I"
    assert e.meta == {}


def test_repr_names_the_fields():
    assert repr(ChevalleyResult(2, 1, "exact")) == (
        "ChevalleyResult(c=2, beta=1, mode='exact', working_order=None)"
    )
    assert repr(NestedProfile((1, 2))) == "NestedProfile(sigma=(1, 2))"
    assert repr(RX) == "Ring(Q, x1, x2)"


def test_morphisms_compare_field_wise():
    ry = Ring(QQ, ("y",))
    y = ry.variable(0)
    phi = AlgebraMorphism(RX, ry, [y, y * y])
    assert phi == AlgebraMorphism(RX, ry, [y, y * y])
    assert phi != AlgebraMorphism(RX, ry, [y * y, y])
    assert phi.is_local()
    one = Polynomial(ry, {(0,): Fraction(1)})
    assert not AlgebraMorphism(RX, ry, [y + one, y]).is_local()
