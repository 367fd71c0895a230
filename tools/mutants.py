"""The mutation catalog: decision lines of the library, each changed the way
a plausible slip would change it, with the tests that must then fail.

Each entry has:

* ``id``: a short name, used on the command line of ``tools/mutate.py``;
* ``module``: the file, from the repository root;
* ``old``: text that occurs exactly once in the module;
* ``new``: the text that replaces it;
* ``tests``: pytest node ids, every one of which must fail on the mutant;
* ``why``: what the change breaks, and why the tests see it.

``tests/test_mutants.py`` checks that each old text occurs exactly once,
so a change that rewrites a guarded line fails tier-1 until its entry is
updated.  ``tools/mutate.py`` applies each entry to a temporary copy and
runs its tests.
"""

CATALOG = [
    {
        "id": "at-distance-gap-zero",
        "module": "src/scherk/isometry.py",
        "old": "return u == v if gap == 0 else",
        "new": "return True if gap == 0 else",
        "tests": [
            "tests/test_isometry.py::TestIntervalOrderDefinition::test_orders_match_the_sums",
            "tests/test_acceptance.py::test_criterion_4_chain_factorization_bijection",
        ],
        "why": "d(u, v) = 0 only when u = v, so a pair of equal length is in the "
        "interval order only when it is one isometry; True puts every such pair in",
    },
    {
        "id": "place-top-at-dim-m",
        "module": "src/scherk/poset.py",
        "old": "if demand.dim > top.move.dim:",
        "new": "if demand.dim >= top.move.dim:",
        "tests": [
            "tests/test_poset.py::TestJoin::test_disjoint_parallel_mirrors_under_line_top",
            "tests/test_poset.py::TestMeet::test_meet_with_comparable_pair_returns_lower",
            "tests/test_oracle.py::TestAgreementWithClosedForms::"
            "test_meet_join_pairs_in_line_universe",
        ],
        "why": "only a demand of dimension dim M + 1 is Span(M); one of dimension "
        "dim M is a hyperplane of it, which the section places below the top",
    },
    {
        "id": "cover-equal-ranks",
        "module": "src/scherk/poset.py",
        "old": "ranks[i] < ranks[j] and",
        "new": "ranks[i] <= ranks[j] and",
        "tests": [
            "tests/test_poset.py::TestHasse::test_equal_elements_cover_neither_way[new]",
            "tests/test_cli.py::TestOtherCommands::"
            "test_hasse_cover_compares_only_pairs_of_increasing_rank",
        ],
        "why": "p < q forces rank p < rank q; comparing equal ranks lets an element "
        "cover its own duplicate and adds leq calls to hasse",
    },
    {
        "id": "empty-meet-is-full",
        "module": "src/scherk/poset.py",
        "old": "if rows else LinearSubspace.zero(n)",
        "new": "if rows else LinearSubspace.full(n)",
        "tests": [
            "tests/test_poset.py::TestCompletion::test_singletons_are_fixed_points",
            "tests/test_oracle.py::TestAgreementWithClosedForms::"
            "test_meet_join_pairs_in_line_universe",
        ],
        "why": "with no complement row the demands cut nothing, W = R^n, and the "
        "bound is the top; a full span of complements makes W = 0, the bottom",
    },
    {
        "id": "leq-elliptic-new",
        "module": "src/scherk/poset.py",
        "old": "        return orthogonal_complement(p.fix.direction).subset_of(q.subspace)\n",
        "new": "        return True\n",
        "tests": [
            "tests/test_poset.py::TestHasse::test_cover_is_the_transitive_reduction"
            "[3-augmented]",
            "tests/test_oracle.py::TestAgreementWithClosedForms::"
            "test_dm_sampled_triples_in_augmented_universe",
            "tests/test_acceptance.py::test_criterion_6_completion_correctness",
        ],
        "why": "e^B <= n^V needs Dir(B)^perp inside V; without it every elliptic "
        "lies below every new element and the augmented bounds move",
    },
    {
        "id": "max-bits-inclusive",
        "module": "src/scherk/jsonio.py",
        "old": "if p.bit_length() > MAX_BITS or",
        "new": "if p.bit_length() >= MAX_BITS or",
        "tests": [
            "tests/test_cli.py::TestBitLimit::test_at_the_limit_is_analyzed",
            "tests/test_cli.py::TestAnswerBound::test_unprintable_bowtie_exits_one[json]",
        ],
        "why": "a numerator of exactly MAX_BITS bits is within the documented "
        "limit, and the CLI must analyze it",
    },
    {
        "id": "max-dim-plus-one",
        "module": "src/scherk/jsonio.py",
        "old": "    if obj > MAX_DIM:\n",
        "new": "    if obj > MAX_DIM + 1:\n",
        "tests": [
            "tests/test_jsonio.py::TestDimensionLimit::"
            "test_over_the_limit_is_a_format_error[isometry_from_json-doc0]",
            "tests/test_jsonio.py::TestDimensionLimit::"
            "test_over_the_limit_is_a_format_error[isometry_from_json-doc1]",
            "tests/test_cli.py::TestDimensionLimit::test_over_the_limit_exits_one"
            "[factorize-doc1]",
        ],
        "why": "a declared dimension of MAX_DIM + 1 is over the limit and must be "
        "a FormatError (exit 1) before anything of that size is built",
    },
    {
        "id": "place-exit-deleted",
        "module": "src/scherk/poset.py",
        "old": "    if demand == top.move.direction:\n        return top\n",
        "new": "",
        "tests": [
            "tests/test_poset.py::TestCompletion::test_join_of_news_sums_directions",
            "tests/test_output_digest.py::"
            "test_interval_and_oblique_outputs_match_their_digest",
        ],
        "why": "W = Dir M is decided by the top h^M, not by the new element n^W; "
        "without the exit a join of news that sums to Dir M returns n^{Dir M}",
    },
    {
        "id": "lattice-up-to-plane",
        "module": "src/scherk/poset.py",
        "old": "ctx.top.move.dim <= 1",
        "new": "ctx.top.move.dim <= 2",
        "tests": [
            "tests/test_poset.py::TestLattice::test_plane_move_set_is_not",
            "tests/test_acceptance.py::test_criterion_5_lattice_dichotomy",
        ],
        "why": "a plain hyperbolic poset with dim M = 2 has bowties, so it is not a "
        "lattice (the paper's dichotomy)",
    },
    {
        "id": "linear-rank-counts-b",
        "module": "src/scherk/isometry.py",
        "old": "sum(1 for p in pivots if p < n)",
        "new": "sum(1 for p in pivots if p <= n)",
        "tests": [
            "tests/test_isometry.py::TestIntervals::test_identity_is_always_inside",
            "tests/test_acceptance.py::test_criterion_4_chain_factorization_bijection",
        ],
        "why": "pivot n is the translation column; counting it in rank D makes the "
        "distance to a hyperbolic isometry two short",
    },
    {
        "id": "verify-minimal-any-length",
        "module": "src/scherk/factor.py",
        "old": "and len(f) == reflection_length(f.target)",
        "new": "and len(f) >= reflection_length(f.target)",
        "tests": [
            "tests/test_factor.py::TestVerifyMinimal::test_doubled_reflection_fails",
            "tests/test_factor.py::TestIndependentRoots::"
            "test_random_products_at_their_scherk_length",
        ],
        "why": "minimal means the length is the Scherk length; an exact product "
        "that is longer, such as r r for the identity, is not minimal",
    },
]
