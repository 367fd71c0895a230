"""Minimal reflection factorizations and the rewriting moves.

Every isometry is a product of reflections, and the library builds minimal
products explicitly: through nested fixed subspaces for elliptic
isometries, and through a translation split for hyperbolic ones.
"""

from scherk import (
    Elliptic,
    Isometry,
    Matrix,
    Vector,
    chain_to_factorization,
    factor,
    factorization_to_chain,
    reflection_length,
    rewrite_shift,
    translation,
    verify_minimal,
)
from scherk.affine import AffineSubspaceE, Point
from scherk.linalg import span

def fmt(vector):
    return "(" + ", ".join(str(c) for c in vector) + ")"


print("== translation: two parallel mirrors ==")
shift = translation(Vector([2, 0]))
f = factor(shift)
for i, r in enumerate(f.factors):
    print(f"factor {i}: mirror through {fmt(r.mirror.point.coords)}, "
          f"root {fmt(r.root)}")
print("product equals target:", f.is_exact())
print("minimal:", verify_minimal(f))

print()
print("== half turn through an explicit chain ==")
half_turn = Isometry(Matrix([[-1, 0], [0, -1]]), Vector([0, 0]))
# Chain of fixed sets: the origin, then the x-axis, then the whole plane.
chain = [
    Elliptic(AffineSubspaceE.single_point(Point([0, 0]))),
    Elliptic(AffineSubspaceE(Point([0, 0]), span([Vector([1, 0])]))),
    Elliptic(AffineSubspaceE.full(2)),
]
f = chain_to_factorization(chain, half_turn)
for i, r in enumerate(f.factors):
    print(f"factor {i}: root {fmt(r.root)}")
print("two mirrors, first vertical then horizontal; product is the half turn:",
      f.is_exact())

print()
print("== the suffix chain of a factorization ==")
glide = Isometry(Matrix([[1, 0], [0, -1]]), Vector([1, 0]))
f = factor(glide)
print("glide length:", reflection_length(glide))
for element in factorization_to_chain(f):
    print("  suffix invariant:", element)

print()
print("== rewriting: moving a chosen factor to the front ==")
f = factor(glide)
shifted = rewrite_shift(f, [2], to_front=True)
print("selected factor kept verbatim:", shifted.factors[0] == f.factors[2])
print("same product:", shifted.is_exact())
print("same length:", len(shifted) == len(f))
