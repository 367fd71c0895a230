"""The value classes of the library, all of them ``record.Record``s.

The eight small classes whose constructors take their fields: construction,
equality, hash, repr and the checks their constructors make.  The eight
exact classes that build a normal form (``Vector``, ``Matrix``,
``LinearSubspace``, ``Point``, the two affine subspaces, ``Isometry`` and
``Reflection``): values are equal exactly when their value fields are, the
hash is the hash of those fields, a filled memo is no part of the value,
and the repr is pinned."""

import itertools
from fractions import Fraction

import pytest

from scherk.affine import AffineSubspaceE, AffineSubspaceV, Point
from scherk.factor import Factorization
from scherk.isometry import (
    Isometry,
    IsometryClass,
    ProductPrediction,
    Reflection,
    classify,
)
from scherk.linalg import LinearSubspace, Matrix, Vector, orthogonal_complement
from scherk.poset import (
    BoundFamily,
    Elliptic,
    Hyperbolic,
    New,
    PosetContext,
    PosetError,
)
from scherk.record import Record


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


# class: (its value fields, values whose first two spell one value two
# ways and whose others are distinct, the repr of that value as a literal)
EXACT = {
    Vector: (
        ("num", "den"),
        [
            Vector([1, Fraction(1, 2)]),
            Vector([Fraction(2, 2), "1/2"]),
            Vector([1, 1]),
            Vector([2, 1]),
            Vector([1, Fraction(1, 2), 0]),
        ],
        "Vector((1, 1/2))",
    ),
    Matrix: (
        ("num", "den", "ncols"),
        [
            Matrix([[0, 1], [1, 0]]),
            Matrix([[0, Fraction(3, 3)], ["1", 0]], ncols=2),
            Matrix.identity(2),
            Matrix([], ncols=2),
            Matrix([], ncols=3),
        ],
        "Matrix([0, 1; 1, 0], ncols=2)",
    ),
    LinearSubspace: (
        ("ambient", "basis"),
        [
            LinearSubspace(2, [vec(2, 2)]),
            LinearSubspace(2, [vec(1, 1), vec(-3, -3)]),
            LinearSubspace(2, [vec(1, 0)]),
            LinearSubspace(2, []),
            LinearSubspace(3, []),
        ],
        "LinearSubspace(R^2, [1, 1])",
    ),
    Point: (
        ("vector",),
        [Point([1, Fraction(-1, 3)]), Point(vec(1, Fraction(-2, 6))), Point([1, 3])],
        "Point((1, -1/3))",
    ),
    AffineSubspaceE: (
        ("direction", "anchor"),
        [
            AffineSubspaceE(Point(vec(0, -1)), LINE),
            FIX,
            AffineSubspaceE(Point(vec(0, 0)), LINE),
            POINT,
            MIRROR,
        ],
        "AffineSubspaceE(Point((1/2, -1/2)) + LinearSubspace(R^2, [1, 1]))",
    ),
    AffineSubspaceV: (
        ("direction", "anchor"),
        [
            AffineSubspaceV(LINE, vec(2, 0)),
            MOVE,
            AffineSubspaceV(LINE, vec(2, -2)),
            X_AXIS,
            ORIGIN_V,
        ],
        "AffineSubspaceV(LinearSubspace(R^2, [1, 1]) + Vector((1, -1)))",
    ),
    Isometry: (
        ("matrix", "translation"),
        [
            W,
            Isometry(Matrix([[-1, 0], [0, 1]]), vec(1, 0)),
            S.to_isometry(),
            Isometry.identity(2),
        ],
        "Isometry(Matrix([-1, 0; 0, 1], ncols=2), Vector((1, 0)))",
    ),
    Reflection: (
        ("root", "p", "q"),
        [
            R,
            Reflection(vec(-2, 0), -1),
            Reflection(vec(1, 0), 0),
            S,
            Reflection(vec(0, 1), Fraction(1, 2)),
        ],
        "Reflection(root=Vector((1, 0)), offset=1/2)",
    ),
}


def fields(value):
    return tuple(getattr(value, name) for name in EXACT[type(value)][0])


def test_every_value_class_is_a_record():
    for cls in [*CLASSES, *EXACT]:
        assert issubclass(cls, Record)


@pytest.mark.parametrize("cls", EXACT, ids=ids)
def test_equal_exactly_when_the_value_fields_are(cls):
    names, values, _ = EXACT[cls]
    assert cls._names == names
    outcomes = set()
    for a, b in itertools.product(values, repeat=2):
        same = fields(a) == fields(b)
        assert (a == b) is same and (a != b) is not same
        outcomes.add((a is b, same))
    assert outcomes == {(True, True), (False, True), (False, False)}
    assert len(set(values)) == len(values) - 1


@pytest.mark.parametrize("cls", EXACT, ids=ids)
def test_hash_is_the_hash_of_the_value_fields(cls):
    for value in EXACT[cls][1]:
        assert hash(value) == hash(fields(value))


@pytest.mark.parametrize("cls", EXACT, ids=ids)
def test_exact_repr_is_pinned(cls):
    _, values, text = EXACT[cls]
    assert repr(values[0]) == text == repr(values[1])


@pytest.mark.parametrize("cls", EXACT, ids=ids)
def test_an_exact_value_is_unequal_to_any_other_object(cls):
    value = EXACT[cls][1][0]
    assert value.__eq__(object()) is NotImplemented
    assert value != fields(value)
    for other in EXACT:
        if other is not cls:
            assert all(value != x for x in EXACT[other][1])


# class: (a maker of fresh values, the call that fills a memo slot, the
# slot); PosetContext.require fills the elements' slot, tested above
MEMOS = {
    LinearSubspace: (
        lambda: LinearSubspace(2, [vec(1, 1)]),
        orthogonal_complement,
        "_perp",
    ),
    AffineSubspaceV: (
        lambda: AffineSubspaceV(LINE, vec(1, -1)),
        AffineSubspaceV.span_complement,
        "_span_perp",
    ),
    Isometry: (lambda: Reflection(vec(1, 1), 3).to_isometry(), classify, "_class"),
}


@pytest.mark.parametrize("cls", MEMOS, ids=ids)
def test_a_filled_memo_is_no_part_of_the_value(cls):
    fresh, fill, slot = MEMOS[cls]
    filled, twin = fresh(), fresh()
    before = hash(filled)
    fill(filled)
    assert getattr(filled, slot) is not None and getattr(twin, slot) is None
    assert filled == twin and twin == filled
    assert hash(filled) == hash(twin) == before


def test_kinds_with_the_same_fields_are_unequal():
    """E and V subspaces share one standard form, and a Point holds a
    Vector of its coordinates; neither kind equals the other."""
    e = AffineSubspaceE(Point(vec(1, -1)), LINE)
    v = AffineSubspaceV(LINE, vec(1, -1))
    assert (e.direction, e.anchor) == (v.direction, v.anchor)
    assert e != v and v != e
    assert len({e, v}) == 2
    point, vector = Point(vec(1, 2)), vec(1, 2)
    assert point.vector == vector
    assert point != vector and vector != point
    assert len({point, vector}) == 2
