"""Exact computation with euclidean isometries under reflection length.

The library computes, with exact rational arithmetic throughout:

* the basic invariants of an isometry (move-set, min-set), its
  elliptic/hyperbolic type, and its reflection length in closed form;
* minimal reflection factorizations, including one for every maximal
  chain of the combinatorial model poset, and the chain of each
  factorization;
* the model posets themselves: order, rank, meets, joins, bowtie
  detection, the lattice decision, and the augmented completion;
* brute-force oracles over finite universes that certify the closed
  forms definitionally.
"""

from .linalg import (
    DimensionError,
    LinearSubspace,
    Matrix,
    Vector,
    intersect,
    null_space,
    orthogonal_complement,
    project,
    solve_affine,
    span,
)
from .affine import (
    AffineSubspaceE,
    AffineSubspaceV,
    Point,
    intersect_affine,
    intersect_affine_v,
)
from .isometry import (
    ELLIPTIC,
    HYPERBOLIC,
    Isometry,
    IsometryClass,
    OrthogonalityError,
    ProductPrediction,
    Reflection,
    classify,
    interval_contains,
    interval_leq,
    min_set,
    move_set,
    predict_product,
    reflection_bisecting,
    reflection_distance,
    reflection_length,
    standard_splitting,
    translation,
)
from .factor import (
    ChainError,
    Factorization,
    chain_to_factorization,
    factor,
    factorization_to_chain,
    hurwitz,
    hurwitz_inverse,
    rewrite_shift,
    verify_minimal,
)
from .poset import (
    BoundFamily,
    Elliptic,
    Hyperbolic,
    New,
    PosetContext,
    PosetElement,
    PosetError,
    dm_join,
    dm_meet,
    find_bowtie,
    hasse_dot,
    inv_map,
    is_bowtie,
    is_lattice,
    join,
    leq,
    meet,
    rank,
)
from .oracle import (
    FiniteUniverse,
    coordinate_universe,
    corpus,
    definitional_join,
    definitional_meet,
    random_isometry,
    random_maximal_chain,
    random_minimal_factorization,
    random_reflection,
    sample_interval,
    search_bowties,
)

__version__ = "0.1.0"
