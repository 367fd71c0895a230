"""The eight small value classes: construction, equality, hash, repr and
the checks their constructors make."""

from fractions import Fraction

import pytest

from scherk.affine import AffineSubspaceE, AffineSubspaceV, Point
from scherk.factor import Factorization
from scherk.isometry import IsometryClass, ProductPrediction, Reflection
from scherk.linalg import LinearSubspace, Vector
from scherk.poset import (
    BoundFamily,
    Elliptic,
    Hyperbolic,
    New,
    PosetContext,
    PosetError,
)


def vec(*coords):
    return Vector([Fraction(c) for c in coords])


LINE = LinearSubspace(2, [vec(1, 1)])
PLANE = LinearSubspace(2, [vec(1, 0), vec(0, 1)])
ORIGIN_V = AffineSubspaceV(PLANE, vec(0, 0))
MOVE = AffineSubspaceV(LINE, vec(1, -1))
FIX = AffineSubspaceE(Point(vec(1, 0)), LINE)
POINT = AffineSubspaceE(Point(vec(0, 0)), LinearSubspace(2, []))
X_AXIS = AffineSubspaceV(LinearSubspace(2, [vec(1, 0)]), vec(0, 0))
MIRROR = AffineSubspaceE(Point(vec(Fraction(1, 2), 0)), LinearSubspace(2, [vec(0, 1)]))
R = Reflection(vec(1, 0), Fraction(1, 2))
S = Reflection(vec(0, 1), Fraction(0))
W = R.to_isometry()

# class: (fields, fields that differ in one value, the repr as a literal)
CASES = {
    Elliptic: (
        {"fix": FIX},
        {"fix": POINT},
        "e^AffineSubspaceE(Point((1/2, -1/2)) + LinearSubspace(R^2, [1, 1]))",
    ),
    Hyperbolic: (
        {"move": MOVE},
        {"move": AffineSubspaceV(LINE, vec(2, -2))},
        "h^AffineSubspaceV(LinearSubspace(R^2, [1, 1]) + Vector((1, -1)))",
    ),
    New: (
        {"subspace": LinearSubspace(3, [vec(0, 0, 1)])},
        {"subspace": LinearSubspace(3, [vec(0, 1, 0)])},
        "n^LinearSubspace(R^3, [0, 0, 1])",
    ),
    PosetContext: (
        {"top": Hyperbolic(MOVE), "augmented": True},
        {"top": Hyperbolic(MOVE), "augmented": False},
        "PosetContext(top=h^AffineSubspaceV(LinearSubspace(R^2, [1, 1]) + "
        "Vector((1, -1))), augmented=True)",
    ),
    BoundFamily: (
        {"kind": "h", "direction": LINE, "within": ORIGIN_V},
        {"kind": "h", "direction": LINE, "within": None},
        "BoundFamily(kind='h', direction=LinearSubspace(R^2, [1, 1]), "
        "within=AffineSubspaceV(LinearSubspace(R^2, [1, 0; 0, 1]) + "
        "Vector((0, 0))))",
    ),
    IsometryClass: (
        {"tag": "elliptic", "move_set": X_AXIS, "min_set": MIRROR, "length": 1},
        {"tag": "elliptic", "move_set": X_AXIS, "min_set": MIRROR, "length": 2},
        "IsometryClass(tag='elliptic', move_set=AffineSubspaceV("
        "LinearSubspace(R^2, [1, 0]) + Vector((0, 0))), min_set="
        "AffineSubspaceE(Point((1/2, 0)) + LinearSubspace(R^2, [0, 1])), "
        "length=1)",
    ),
    ProductPrediction: (
        {"tag": "elliptic", "length": 2, "move_set": ORIGIN_V, "move_set_within": None},
        {"tag": "elliptic", "length": 2, "move_set": None, "move_set_within": MOVE},
        "ProductPrediction(tag='elliptic', length=2, move_set=AffineSubspaceV("
        "LinearSubspace(R^2, [1, 0; 0, 1]) + Vector((0, 0))), "
        "move_set_within=None)",
    ),
    Factorization: (
        {"target": W, "factors": (R,)},
        {"target": W, "factors": (R, S, S)},
        "Factorization(target=Isometry(Matrix([-1, 0; 0, 1], ncols=2), "
        "Vector((1, 0))), factors=(Reflection(root=Vector((1, 0)), "
        "offset=1/2),))",
    ),
}
CLASSES = list(CASES)


def ids(cls):
    return cls.__name__


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_positional_and_keyword_construction_agree(cls):
    fields, _, _ = CASES[cls]
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    assert by_keyword == by_position
    assert not by_keyword != by_position
    assert hash(by_keyword) == hash(by_position) == hash(tuple(fields.values()))
    assert [getattr(by_position, name) for name in fields] == list(fields.values())


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_different_fields_are_unequal(cls):
    fields, other, _ = CASES[cls]
    assert cls(**fields) != cls(**other)
    assert len({cls(**fields), cls(**other), cls(**fields)}) == 2


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_repr_is_pinned(cls):
    fields, _, text = CASES[cls]
    assert repr(cls(**fields)) == text


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_another_class_is_never_equal(cls):
    fields, _, _ = CASES[cls]
    value = cls(**fields)
    assert value.__eq__(object()) is NotImplemented
    assert value != tuple(fields.values())
    for other in CLASSES:
        if other is not cls:
            assert value != other(**CASES[other][0])


@pytest.mark.parametrize("cls", [Elliptic, Hyperbolic, New], ids=ids)
def test_a_checked_element_is_the_same_value(cls):
    """PosetContext.require marks the element it accepts; the mark is no
    part of its value."""
    top = Hyperbolic(MOVE)
    if cls is New:  # a top whose direction holds the 3-space line properly
        yz = LinearSubspace(3, [vec(0, 1, 0), vec(0, 0, 1)])
        top = Hyperbolic(AffineSubspaceV(yz, vec(1, 0, 0)))
    fields, _, text = CASES[cls]
    checked = cls(**fields)
    PosetContext(top, augmented=True).require(checked)
    fresh = cls(**fields)
    assert checked == fresh and fresh == checked
    assert hash(checked) == hash(fresh)
    assert repr(checked) == repr(fresh) == text


def test_elements_of_different_kinds_are_unequal():
    line = LinearSubspace(2, [vec(1, 0)])
    e = Elliptic(AffineSubspaceE(Point(vec(0, 0)), line))
    h = Hyperbolic(AffineSubspaceV(line, vec(0, 1)))
    n = New(line)
    assert e != h and e != n and h != n
    assert len({e, h, n}) == 3


def test_defaults():
    assert PosetContext(Hyperbolic(MOVE)).augmented is False
    assert BoundFamily("e", LINE).within is None


class TestValidation:
    def test_hyperbolic_needs_a_nonlinear_move_set(self):
        with pytest.raises(PosetError):
            Hyperbolic(ORIGIN_V)

    def test_new_needs_a_nontrivial_subspace(self):
        with pytest.raises(PosetError):
            New(LinearSubspace(2, []))

    def test_context_top_is_not_new(self):
        with pytest.raises(PosetError):
            PosetContext(top=New(LINE))
        with pytest.raises(PosetError):
            PosetContext(New(LINE), True)

    def test_only_hyperbolic_contexts_are_augmented(self):
        with pytest.raises(PosetError):
            PosetContext(top=Elliptic(FIX), augmented=True)
        assert PosetContext(top=Elliptic(FIX)).augmented is False
