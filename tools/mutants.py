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
        "old": "        return v._contains_rows(orthogonal_complement(u).rows)\n",
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
            "tests/test_cli.py::TestBitLimit::test_at_the_limit_is_analyzed_entry_by_entry",
            "tests/test_jsonio.py::TestSpelling::test_rows_read_as_their_entries_read"
            "[int-at-the-bits]",
        ],
        "why": "a numerator of exactly MAX_BITS bits is within the documented "
        "limit, and the CLI must analyze it; a JSON int is read entry by entry",
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
    {
        "id": "normalize-sign",
        "module": "src/scherk/isometry.py",
        "old": "        if first < 0:\n",
        "new": "        if first > 0:\n",
        "tests": [
            "tests/test_output_digest.py::test_outputs_match_the_pinned_digest",
            "tests/test_jsonio.py::TestReflectionEncoding::test_oblique_mirror_off_the_origin",
        ],
        "why": "the normal form has a positive first nonzero root entry; the other "
        "sign negates every root and offset, so every printed reflection changes",
    },
    {
        "id": "normalize-offset-gcd",
        "module": "src/scherk/isometry.py",
        "old": "        q *= g\n",
        "new": "        q *= g // abs(g)\n",
        "tests": [
            "tests/test_output_digest.py::test_outputs_match_the_pinned_digest",
            "tests/test_factor.py::TestCanonicalRoots::"
            "test_reflections_built_from_roots_are_canonical",
        ],
        "why": "dividing the row alpha by g divides the mirror's value by g too; "
        "without it the offset belongs to another, parallel mirror",
    },
    {
        "id": "normalize-value-sign",
        "module": "src/scherk/isometry.py",
        "old": "h = math.gcd(p, q) if q > 0 else -math.gcd(p, q)",
        "new": "h = math.gcd(p, q)",
        "tests": [
            "tests/test_values.py::test_equal_exactly_when_the_value_fields_are[Reflection]",
            "tests/test_values.py::test_exact_repr_is_pinned[Reflection]",
            "tests/test_isometry.py::TestReflectionValue::test_value_is_lowest_terms",
        ],
        "why": "the value p / q is stored with q > 0, so that one mirror has one "
        "pair of ints; a root whose sign is flipped leaves q negative, and "
        "Reflection((-2, 0), -1) no longer equals Reflection((1, 0), 1/2)",
    },
    {
        "id": "eager-fractions",
        "module": "src/scherk/isometry.py",
        "old": "import math\nfrom typing import Optional, Sequence\n",
        "new": "import math\nfrom fractions import Fraction\nfrom typing import Optional, Sequence\n",
        "tests": [
            "tests/test_cli.py::TestColdStart::test_cli_imports_no_fractions",
            "tests/test_cli.py::TestColdStart::test_plain_run_loads_no_fractions[analyze]",
            "tests/test_one_fraction_import.py::test_only_the_helper_imports_fractions",
        ],
        "why": "a module-level import of fractions loads it, with decimal and "
        "numbers, in every command line process, though a plain command "
        "builds no Fraction: about 3 ms of start-up for nothing",
    },
    {
        "id": "conjugate-sign",
        "module": "src/scherk/isometry.py",
        "old": "p = norm * self.p * r.q - k * r.p * self.q",
        "new": "p = norm * self.p * r.q + k * r.p * self.q",
        "tests": [
            "tests/test_isometry.py::TestHyperplaneForm::test_conjugate_is_sandwich_product",
            "tests/test_factor.py::TestHurwitz::test_braid_relations",
        ],
        "why": "the image of {beta . x = d} under the reflection across "
        "{alpha . x = c} is (|alpha|^2 beta - k alpha) . y = |alpha|^2 d - k c; "
        "+ k c moves every conjugate whose mirrors miss the origin",
    },
    {
        "id": "motion-offset-without-e",
        "module": "src/scherk/isometry.py",
        "old": "return _reflection_across(alpha, value, 2 * dp * e)",
        "new": "return _reflection_across(alpha, value, 2 * dp)",
        "tests": [
            "tests/test_isometry.py::TestReflectionsBelow::"
            "test_motion_reflection_is_the_bisector_on_corpus",
            "tests/test_factor.py::TestMinimalFactorizationProperties::"
            "test_chain_round_trip_random",
        ],
        "why": "both points share the denominator D = d p e, so the bisector's "
        "value is over 2 D; without e it misses the midpoint of a translated pair",
    },
    {
        "id": "peel-column-plus",
        "module": "src/scherk/factor.py",
        "old": "[0] * i + [-s] + below",
        "new": "[0] * i + [s] + below",
        "tests": [
            "tests/test_coxeter.py::test_every_factorization_is_minimal_and_round_trips[A3]",
            "tests/test_acceptance.py::test_criterion_1_scherk_agreement",
        ],
        "why": "the motion of e_i is col_i - e_i, the root c = col_i - d e_i on "
        "integer rows, whose entry i is N_ii - d = -s; +s reflects the wrong "
        "mirror, so the factors no longer multiply to w",
    },
    {
        "id": "peel-stop-short",
        "module": "src/scherk/factor.py",
        "old": "if len(factors) == length:",
        "new": "if len(factors) == length - 1:",
        "tests": [
            "tests/test_factor.py::TestPeelAgainstOracle::test_factor_equals_definitional_peel",
            "tests/test_acceptance.py::test_criterion_1_scherk_agreement",
        ],
        "why": "by Scherk's formula the peel takes exactly l(u) reflections; "
        "stopping one early leaves a product that is not w",
    },
    {
        "id": "peel-block-alignment",
        "module": "src/scherk/factor.py",
        "old": "for x, y in zip(row[1:], tail)",
        "new": "for x, y in zip(row[:-1], tail)",
        "tests": [
            "tests/test_factor.py::TestPeelAgainstOracle::test_factor_equals_definitional_peel",
            "tests/test_coxeter.py::test_every_factorization_is_minimal_and_round_trips[A3]",
        ],
        "why": "the block past i drops row and column i, the first of the block; "
        "dropping its last column pairs each entry with the wrong column of row i",
    },
    {
        "id": "chain-bottom-certified",
        "module": "src/scherk/factor.py",
        "old": "            if low:\n",
        "new": "            if low >= 0:\n",
        "tests": [
            "tests/test_factor.py::TestOperationBudget::"
            "test_elliptic_chain_step_scans_its_frame_once",
        ],
        "why": "above the bottom the product is a reflection, the one the scan "
        "finds, so the bottom step multiplies nothing in and certifies nothing; "
        "doing both anyway gives the same factors but images the budget forbids",
    },
    {
        "id": "step-value-sign",
        "module": "src/scherk/factor.py",
        "old": "value = d * e * _dot(nu, mu) - m * _dot(turned, b)",
        "new": "value = d * e * _dot(nu, mu) + m * _dot(turned, b)",
        "tests": [
            "tests/test_factor.py::TestMinimalFactorizationProperties::"
            "test_chain_round_trip_random",
            "tests/test_conjugation.py::test_every_answer_moves_with_the_similarity",
        ],
        "why": "the mirror of a move-set step is (nu - A nu) . y = nu . mu' - A nu . b; "
        "+ A nu . b gives a parallel mirror, and the step does not land",
    },
    {
        "id": "read-span-without-root",
        "module": "src/scherk/factor.py",
        "old": "demand = _span([*demand.rows, r.root.num], dim)",
        "new": "demand = _span([*demand.rows], dim)",
        "tests": [
            "tests/test_factor.py::TestMinimalFactorizationProperties::"
            "test_chain_round_trip_past_dimension_six[8]",
            "tests/test_output_digest.py::test_outputs_match_the_pinned_digest",
        ],
        "why": "above a hyperbolic suffix the next factor adds its root to the "
        "span of the move-set; without it the read places the same move-set "
        "twice and the chain does not climb",
    },
    {
        "id": "read-places-fixed-direction",
        "module": "src/scherk/factor.py",
        "old": "demand = orthogonal_complement(fix.direction)",
        "new": "demand = fix.direction",
        "tests": [
            "tests/test_factor.py::TestMinimalFactorizationProperties::"
            "test_chain_round_trip_past_dimension_six[8]",
            "tests/test_output_digest.py::test_outputs_match_the_pinned_digest",
        ],
        "why": "the first hyperbolic suffix moves points only along the normals "
        "of the last fixed set F, so its span is Dir(F)^perp; Dir(F) itself "
        "places another element, or none",
    },
    {
        "id": "json-mirror-point-den",
        "module": "src/scherk/jsonio.py",
        "old": "den = q * _dot(root, root)",
        "new": "den = q",
        "tests": [
            "tests/test_jsonio.py::TestReflectionEncoding::test_point_is_the_mirror_anchor",
            "tests/test_jsonio.py::TestIsometries::test_factorization_round_trip",
        ],
        "why": "the mirror's point nearest the origin is root offset / |root|^2; "
        "without |root|^2 the written point is off the mirror unless |root| = 1",
    },
    {
        "id": "distance-full-rank",
        "module": "src/scherk/isometry.py",
        "old": "return 2 * len(pivots) - linear_rank",
        "new": "return len(pivots)",
        "tests": [
            "tests/test_isometry.py::TestReflectionDistance::test_is_length_of_quotient",
            "tests/test_isometry.py::TestReflectionDistance::"
            "test_interval_orders_match_definitions",
        ],
        "why": "Scherk's formula is dim Mov + 2 for a hyperbolic quotient, "
        "2 rank [D | delta] - rank D; rank [D | delta] alone is one short",
    },
    {
        "id": "leq-new-below-hyperbolic",
        "module": "src/scherk/poset.py",
        "old": "return q.kind != \"e\" and v._contains_rows(u.rows)",
        "new": "return q.kind != \"e\"",
        "tests": [
            "tests/test_poset.py::TestHasse::test_cover_is_the_transitive_reduction"
            "[3-augmented]",
            "tests/test_oracle.py::TestAgreementWithClosedForms::"
            "test_dm_pairs_in_augmented_universe",
        ],
        "why": "n^U <= h^M needs U inside Dir M, and n^U <= n^V needs U inside V; "
        "without the inclusion every new element lies below every hyperbolic and "
        "every new one, and the augmented bounds move",
    },
    {
        "id": "new-member-not-augmented",
        "module": "src/scherk/poset.py",
        "old": "self.augmented and space.dim < top.dim",
        "new": "space.dim < top.dim",
        "tests": [
            "tests/test_poset.py::TestMembership::"
            "test_matches_definition_on_coordinate_elements",
            "tests/test_poset.py::TestMembership::"
            "test_augmented_acceptance_does_not_carry_to_the_plain_context",
        ],
        "why": "new elements belong only to the augmented poset; without the "
        "clause the plain context accepts them",
    },
    {
        "id": "new-member-dim-inclusive",
        "module": "src/scherk/poset.py",
        "old": "self.augmented and space.dim < top.dim",
        "new": "self.augmented and space.dim <= top.dim",
        "tests": [
            "tests/test_poset.py::TestHasse::test_top_direction_is_not_a_node[line]",
            "tests/test_cli.py::TestExitCodes::test_top_direction_as_a_hasse_node_is_three",
        ],
        "why": "n^V is a member only for V proper in Dir M; n^{Dir M} is not an "
        "element of the augmented poset under h^M",
    },
    {
        "id": "mark-before-check",
        "module": "src/scherk/poset.py",
        "old": "        if not leq(p, self.top):\n            return False\n"
        "        p._under = self\n",
        "new": "        p._under = self\n        if not leq(p, self.top):\n"
        "            return False\n",
        "tests": [
            "tests/test_poset.py::TestMembership::test_rejection_is_not_remembered",
            "tests/test_poset.py::TestMembership::test_equal_contexts_give_the_same_answers",
        ],
        "why": "the memo records acceptance only; marking before the check "
        "makes require trust an element that contains rejected",
    },
    {
        "id": "reflect-no-lowest",
        "module": "src/scherk/isometry.py",
        "old": "return (n, d, *_lowest(b, e * scale))",
        "new": "return (n, d, tuple(b), e * scale)",
        "tests": [
            "tests/test_normal_form.py::test_products_of_reflections_are_in_normal_form",
            "tests/test_isometry.py::TestHyperplaneForm::"
            "test_rank_one_product_matches_matrix_product",
        ],
        "why": "equality of isometries compares fields, so a translation left "
        "out of lowest terms is unequal to the same value in normal form",
    },
    {
        "id": "lands-on-mu-clause",
        "module": "src/scherk/factor.py",
        "old": "if not move.contains(_vec(b, e)):",
        "new": "if False:",
        "tests": [
            "tests/test_factor.py::TestChainClosedForms::"
            "test_wrong_element_of_right_rank_does_not_land[w2-wrong2-rest2]",
        ],
        "why": "Mov(current) lies in M only if the translation b does; without the "
        "clause a hyperbolic step lands on a parallel move-set of the same direction",
    },
    {
        "id": "elliptic-certificate",
        "module": "src/scherk/factor.py",
        "old": "landed = all(_image(n, v) == [d * x for x in v] for v in rest)",
        "new": "landed = True",
        "tests": [
            "tests/test_factor.py::TestFactorElliptic::test_rejects_bad_chains",
            "tests/test_cli.py::TestExitCodes::test_non_descending_chain_is_three",
        ],
        "why": "the certificate is the walk's only order check; without it an "
        "elliptic step onto a fixed set the product does not fix is accepted",
    },
    {
        "id": "lowest-no-gcd",
        "module": "src/scherk/linalg.py",
        "old": "    g = math.gcd(den, *num)\n    if den < 0:",
        "new": "    g = 1\n    if den < 0:",
        "tests": [
            "tests/test_linalg.py::TestRepresentation::test_vector_canonical_and_scale_free",
            "tests/test_normal_form.py::test_products_of_reflections_are_in_normal_form",
        ],
        "why": "a Vector or Matrix is in lowest terms, so that equal values have "
        "equal fields; without the gcd 2/4 and 1/2 differ",
    },
    {
        "id": "json-keys-unsorted",
        "module": "src/scherk/cli.py",
        "old": "for key in sorted(value)",
        "new": "for key in value",
        "tests": [
            "tests/test_cli.py::TestGoldenFiles::test_output_is_byte_stable"
            "[argv0-analyze_glide.json]",
            "tests/test_acceptance.py::test_criterion_7_cli_golden_files",
        ],
        "why": "the writer must give the bytes of json.dumps(sort_keys=True); "
        "keys in insertion order change the golden files",
    },
    {
        "id": "combine-lost-sign",
        "module": "src/scherk/linalg.py",
        "old": "s, t = other.den // g, sign * (self.den // g)",
        "new": "s, t = other.den // g, self.den // g",
        "tests": [
            "tests/test_linalg.py::TestRepresentation::test_vector_arithmetic_matches_fractions",
            "tests/test_affine.py::TestPointVectorDiscipline::"
            "test_difference_of_points_is_vector",
        ],
        "why": "Vector subtraction is the sum with sign -1; without the sign every "
        "difference is a sum",
    },
    {
        "id": "upward-no-sign",
        "module": "src/scherk/linalg.py",
        "old": "g = math.gcd(*row) if row[p] > 0 else -math.gcd(*row)",
        "new": "g = math.gcd(*row)",
        "tests": [
            "tests/test_linalg.py::TestAgainstSympy::test_rref",
        ],
        "why": "a reduced row is coprime ints, positive at its pivot; a row negative "
        "there stands for the same row / row[pivot], and _subspace signs each "
        "stored row by its pivot entry again, so only the representation check "
        "sees it",
    },
    {
        "id": "subspace-cut-row-not-lowest",
        "module": "src/scherk/linalg.py",
        "old": "_lowest(row[:ambient], row[p])[0]",
        "new": "tuple(row[:ambient])",
        "tests": [
            "tests/test_linalg.py::TestStoredRows::"
            "test_a_cut_augmented_row_is_divided_by_its_gcd",
            "tests/test_linalg.py::TestStoredRows::"
            "test_move_set_rows_from_the_augmented_pass",
            "tests/test_isometry.py::TestInvariantsOnce::"
            "test_move_set_is_hull_of_unit_point_motions",
        ],
        "why": "a row of a reduced [A | b] cut to A may keep a common factor that "
        "the value column cancelled; stored undivided, the move-set read from "
        "classify's augmented pass is not the canonical row and compares unequal "
        "to the same subspace spanned directly",
    },
    {
        "id": "reduced-rows-other-pivots",
        "module": "src/scherk/linalg.py",
        "old": "        if any(b.num[p] for b in rows[:i]):\n            return None\n",
        "new": "",
        "tests": [
            "tests/test_jsonio.py::TestNormalFormReading::"
            "test_other_spanning_sets_read_as_their_reduced_form[above-pivot]",
        ],
        "why": "rows with leading 1s and increasing pivots but a nonzero entry "
        "above a pivot span the right space in echelon form, not reduced; "
        "stored as given, the basis is not the canonical one",
    },
    {
        "id": "reduced-rows-pivot-not-one",
        "module": "src/scherk/linalg.py",
        "old": "if a != v.den or (pivots and p <= pivots[-1]):",
        "new": "if pivots and p <= pivots[-1]:",
        "tests": [
            "tests/test_jsonio.py::TestNormalFormReading::"
            "test_other_spanning_sets_read_as_their_reduced_form[scaled]",
            "tests/test_jsonio.py::TestNormalFormReading::"
            "test_other_spanning_sets_read_as_their_reduced_form[pivot-not-one]",
        ],
        "why": "a row whose pivot entry is not 1 is a multiple of a reduced row; "
        "stored as given, two spellings of one subspace compare unequal",
    },
    {
        "id": "anchor-always-as-given",
        "module": "src/scherk/affine.py",
        "old": "        if not any(dots):\n",
        "new": "        if True:\n",
        "tests": [
            "tests/test_jsonio.py::TestNormalFormReading::"
            "test_other_anchors_read_as_the_orthogonal_one[direction]",
            "tests/test_jsonio.py::TestNormalFormReading::"
            "test_other_anchors_read_as_the_orthogonal_one[complement]",
        ],
        "why": "only an anchor orthogonal to the direction is the standard one; "
        "any other, stored as given, leaves one subspace with many anchors",
    },
    {
        "id": "anchor-never-as-given",
        "module": "src/scherk/affine.py",
        "old": "        if not any(dots):\n",
        "new": "        if False:\n",
        "tests": [
            "tests/test_poset.py::TestOperationBudget::"
            "test_reading_the_universe_back_eliminates_nothing",
            "tests/test_poset.py::TestOperationBudget::"
            "test_completion_pairs_stay_within_budget",
        ],
        "why": "the answer is the same, but every anchor read back, and every "
        "meet's, is projected again, which the projection budgets count",
    },
    {
        "id": "equations-value-unscaled",
        "module": "src/scherk/affine.py",
        "old": "(*[e * x for x in normal], _dot(normal, a))",
        "new": "(*normal, _dot(normal, a))",
        "tests": [
            "tests/test_affine_coxeter.py::"
            "test_bounds_in_the_prefix_universe_match_the_scans[A3]",
            "tests/test_affine_coxeter.py::"
            "test_bounds_in_the_prefix_universe_match_the_scans[C3]",
        ],
        "why": "N . x = N . A / e is the row [e N | N . A]; without e the value "
        "column is e times too large, which only an anchor with a denominator "
        "shows, so an oblique join finds the wrong common point or none",
    },
    {
        "id": "equations-from-direction",
        "module": "src/scherk/affine.py",
        "old": "for normal in orthogonal_complement(self.direction).rows",
        "new": "for normal in self.direction.rows",
        "tests": [
            "tests/test_poset.py::TestOperationBudget::"
            "test_a_second_join_sweep_builds_no_equation_row",
            "tests/test_affine_coxeter.py::"
            "test_bounds_in_the_prefix_universe_match_the_scans[A3]",
        ],
        "why": "the equations of a subspace are its normals, the rows of the "
        "direction's complement; the direction's own rows cut out another "
        "subspace, so elliptics join at the wrong place",
    },
    {
        "id": "full-space-equations-unset",
        "module": "src/scherk/affine.py",
        "old": "    full._equations = ()\n",
        "new": "    full._equations = None\n",
        "tests": [
            "tests/test_poset.py::TestOperationBudget::"
            "test_the_shared_full_space_has_no_equation",
        ],
        "why": "the answers are the same, but the first join that reads the "
        "equations of the shared E^n writes its slot, which no reader of the "
        "shared value may do",
    },
    {
        "id": "equations-in-value",
        "module": "src/scherk/affine.py",
        "old": '_names = ("direction", "anchor")',
        "new": '_names = ("direction", "anchor", "_equations")',
        "tests": [
            "tests/test_values.py::test_a_filled_memo_is_no_part_of_the_value"
            "[AffineSubspaceE]",
        ],
        "why": "the equations are a memo: a subspace that a join has read would "
        "differ from its unread twin",
    },
    {
        "id": "hasse-key-unscaled",
        "module": "src/scherk/poset.py",
        "old": "x * (den // d) for num, d in pairs",
        "new": "x for num, d in pairs",
        "tests": [
            "tests/test_poset.py::TestHasseOrder::"
            "test_integer_keys_order_as_the_rationals",
        ],
        "why": "numerators over different denominators do not order as the "
        "rationals; only coordinates with mixed denominators show it, and the "
        "goldens have den 1 everywhere",
    },
    {
        "id": "row-bits-inclusive",
        "module": "src/scherk/jsonio.py",
        "old": "if max(map(int.bit_length, parts)) > MAX_BITS:",
        "new": "if max(map(int.bit_length, parts)) >= MAX_BITS:",
        "tests": [
            "tests/test_jsonio.py::TestRowBudget::test_a_printed_row_at_the_bit_limit_is_one_pass",
        ],
        "why": "the answer is the same, but a printed row with a part of exactly "
        "MAX_BITS bits, which is within the limit, is read again entry by entry",
    },
    {
        "id": "row-count-dropped",
        "module": "src/scherk/jsonio.py",
        "old": ' or text.count(",") != len(row) - 1',
        "new": "",
        "tests": [
            "tests/test_jsonio.py::TestSpelling::test_rows_read_as_their_entries_read"
            "[comma-in-entry]",
            "tests/test_jsonio.py::TestRowBudget::test_any_other_row_is_read_entry_by_entry",
        ],
        "why": "the joined row of [\"1,2\", \"3\"] is \"1,2,3\", which the row "
        "pattern accepts; only the entry count refuses it, and without the count "
        "a malformed entry is read as two",
    },
    {
        "id": "json-literals-swapped",
        "module": "src/scherk/cli.py",
        "old": '        return "true"\n    elif value is False:\n        return "false"\n',
        "new": '        return "false"\n    elif value is False:\n        return "true"\n',
        "tests": [
            "tests/test_cli.py::TestJsonWriter::test_writes_what_json_dumps_writes",
            "tests/test_cli.py::TestOtherCommands::test_lattice_command",
        ],
        "why": "the writer spells True and False itself rather than through "
        "json.dumps; swapped, every boolean answer prints its negation",
    },
    {
        "id": "record-any-class-equal",
        "module": "src/scherk/record.py",
        "old": "if other.__class__ is self.__class__:",
        "new": "if isinstance(other, Record):",
        "tests": [
            "tests/test_values.py::test_kinds_with_the_same_fields_are_unequal",
        ],
        "why": "an AffineSubspaceE and an AffineSubspaceV share one standard form; "
        "compared as any two Records, a subspace of E equals the subspace of V "
        "with its direction and anchor",
    },
    {
        "id": "record-key-first-field",
        "module": "src/scherk/record.py",
        "old": "cls._key = attrgetter(*names)",
        "new": "cls._key = attrgetter(*names[:1])",
        "tests": [
            "tests/test_values.py::test_different_fields_are_unequal[PosetContext]",
            "tests/test_values.py::test_equal_exactly_when_the_value_fields_are"
            "[AffineSubspaceE]",
        ],
        "why": "the key must read every value field; one that reads only the first "
        "makes two records equal that differ in a later field",
    },
    {
        "id": "perp-in-subspace-value",
        "module": "src/scherk/linalg.py",
        "old": '_names = ("ambient", "rows")',
        "new": '_names = ("ambient", "rows", "_perp")',
        "tests": [
            "tests/test_values.py::test_a_filled_memo_is_no_part_of_the_value"
            "[LinearSubspace]",
            "tests/test_linalg.py::TestKernelOnce::"
            "test_filled_slot_changes_neither_equality_nor_hash",
        ],
        "why": "the complement is a memo: a subspace asked for it would differ "
        "from its unasked twin, and hashing it follows the link back from the "
        "complement without end",
    },
    {
        "id": "class-in-isometry-value",
        "module": "src/scherk/isometry.py",
        "old": '_names = ("matrix", "translation")',
        "new": '_names = ("matrix", "translation", "_class")',
        "tests": [
            "tests/test_values.py::test_a_filled_memo_is_no_part_of_the_value[Isometry]",
        ],
        "why": "a classified isometry would differ from its unclassified twin, so "
        "equality would depend on which invariants were asked for",
    },
    {
        "id": "under-in-element-value",
        "module": "src/scherk/poset.py",
        "old": '_names = ("_space",)',
        "new": '_names = ("_space", "_under")',
        "tests": [
            "tests/test_values.py::test_a_checked_element_is_the_same_value[Hyperbolic]",
        ],
        "why": "the membership mark is a memo of require; an element checked by a "
        "context would differ from a fresh one",
    },
    {
        "id": "plain-second-input",
        "module": "src/scherk/cli.py",
        "old": 'if args["input"] is not None or token.startswith("-")',
        "new": 'if token.startswith("-")',
        "tests": [
            "tests/test_cli.py::TestParser::test_exit_and_output_are_pinned[argv8-2--"
            "usage: scherk [-h]\\n              {analyze,factorize,chain,order,meet,"
            "join,bowtie,lattice,complete,hasse}\\n              ...\\nscherk: error: "
            "unrecognized arguments: b\\n]",
            "tests/test_cli.py::TestParser::test_plain_reads_what_the_full_parser_reads",
        ],
        "why": "the command takes one input; without the guard `analyze a b` reads "
        "b instead of the usage error argparse gives for the second one",
    },
    {
        "id": "plain-unicode-digits",
        "module": "src/scherk/cli.py",
        "old": "value.isascii() and value.isdigit()",
        "new": "value.isdigit()",
        "tests": [
            "tests/test_cli.py::TestParser::test_plain_reads_what_the_full_parser_reads",
        ],
        "why": "str.isdigit accepts a superscript two, which int() refuses; the "
        "reader would crash where argparse prints an invalid int value",
    },
    {
        "id": "plain-long-digits",
        "module": "src/scherk/cli.py",
        "old": " and len(value) <= 640",
        "new": "",
        "tests": [
            "tests/test_cli.py::TestParser::test_plain_reads_what_the_full_parser_reads",
        ],
        "why": "int() refuses more than 4300 digits by default; the reader would "
        "crash where argparse prints an invalid int value",
    },
    {
        "id": "entry-no-flush",
        "module": "src/scherk/cli.py",
        "old": "            stream.flush()\n",
        "new": "            pass\n",
        "tests": [
            "tests/test_cli.py::TestEntry::test_atexit_callbacks_still_run[module]",
            "tests/test_cli.py::TestEntry::test_atexit_callbacks_still_run[script]",
        ],
        "why": "os._exit drops what the stream buffers still hold; an atexit "
        "callback's output, written after main's flush, is lost",
    },
    {
        "id": "entry-exit-zero",
        "module": "src/scherk/cli.py",
        "old": "    os._exit(code)\n",
        "new": "    os._exit(0)\n",
        "tests": [
            "tests/test_cli.py::TestEntry::test_error_documents_exit_with_their_code"
            "[1-module]",
            "tests/test_cli.py::TestEntry::test_error_documents_exit_with_their_code"
            "[3-script]",
        ],
        "why": "the process must exit with main's code; exiting 0 reports every "
        "error document as a success",
    },
    {
        "id": "entry-no-atexit",
        "module": "src/scherk/cli.py",
        "old": "    atexit._run_exitfuncs()\n",
        "new": "",
        "tests": [
            "tests/test_cli.py::TestEntry::test_atexit_callbacks_still_run[module]",
            "tests/test_cli.py::TestEntry::test_atexit_callbacks_still_run[script]",
        ],
        "why": "os._exit skips the atexit callbacks that finalization would run, "
        "so a coverage or profiling hook registered at start-up loses its data",
    },
    {
        "id": "entry-flush-error-raised",
        "module": "src/scherk/cli.py",
        "old": "        except (AttributeError, OSError):\n            pass\n",
        "new": "        finally:\n            pass\n",
        "tests": [
            "tests/test_cli.py::TestUnwritableAnswer::test_full_device_exits_one"
            "[buffered]",
        ],
        "why": "a buffered answer that failed to flush in main is still buffered, "
        "so the flush at exit fails again; raised, it prints a traceback after "
        "the error line",
    },
    {
        "id": "entry-flush-none",
        "module": "src/scherk/cli.py",
        "old": "except (AttributeError, OSError):",
        "new": "except OSError:",
        "tests": ["tests/test_cli.py::TestEntry::test_closed_stderr_exits_zero"],
        "why": "a stream whose descriptor was closed at start-up is None; flushing "
        "it raises, and a command that succeeded exits 1",
    },
    {
        "id": "write-error-uncaught",
        "module": "src/scherk/cli.py",
        "old": '        raise jsonio.FormatError(f"cannot write output: {exc}")\n',
        "new": "        raise\n",
        "tests": [
            "tests/test_cli.py::TestUnwritableAnswer::test_full_device_exits_one"
            "[unbuffered]",
            "tests/test_cli.py::TestUnwritableAnswer::"
            "test_failed_write_in_process_exits_one[write]",
        ],
        "why": "an answer that cannot be written is an exit-1 error line; uncaught, "
        "the OSError ends the process with a traceback",
    },
    {
        "id": "main-no-flush",
        "module": "src/scherk/cli.py",
        "old": "        sys.stdout.flush()\n",
        "new": "",
        "tests": [
            "tests/test_cli.py::TestUnwritableAnswer::test_full_device_exits_one"
            "[buffered]",
            "tests/test_cli.py::TestUnwritableAnswer::"
            "test_failed_write_in_process_exits_one[flush]",
        ],
        "why": "a buffered answer fails only when flushed; outside main's try the "
        "failure is swallowed at exit, and the process exits 0 with no answer",
    },
    {
        "id": "texts-integral-over-one",
        "module": "src/scherk/linalg.py",
        "old": "str(x // g) if g == den else ",
        "new": "",
        "tests": [
            "tests/test_linalg.py::TestRepresentation::"
            "test_reprs_spell_each_rational_as_its_fraction",
            "tests/test_cli.py::TestGoldenFiles::"
            "test_output_is_byte_stable[argv3-factorize_glide.json]",
        ],
        "why": "an entry whose denominator divides out is written p, as str(Fraction) "
        "writes it; the mutant writes p/1 in every repr and answer",
    },
    {
        "id": "particular-no-rescale",
        "module": "src/scherk/linalg.py",
        "old": "                for j in solved:\n                    num[j] *= lead\n",
        "new": "",
        "tests": [
            "tests/test_linalg.py::TestAgainstSympy::"
            "test_particular_by_back_substitution",
            "tests/test_isometry.py::TestInvariantsOnce::"
            "test_min_set_points_move_by_mu",
        ],
        "why": "x_p = s / (den lead) puts the unknowns over den lead; left over den, "
        "every unknown solved before is divided by the lead once too often, so "
        "the min-set point and mu of an isometry of two or more pivots are wrong",
    },
    {
        "id": "particular-den-unsigned",
        "module": "src/scherk/linalg.py",
        "old": "                den *= lead\n",
        "new": "                den *= abs(lead)\n",
        "tests": [
            "tests/test_linalg.py::TestAgainstSympy::"
            "test_particular_by_back_substitution",
            "tests/test_linalg.py::TestSolveAffine::"
            "test_back_substitution_over_negative_leads",
        ],
        "why": "a forward row's lead may be negative; the unknowns rescaled by it "
        "keep their values only if den takes its sign too.  The classification's "
        "rows are a positive semidefinite system, whose leads are positive, so "
        "only a general system sees it",
    },
    {
        "id": "class-tag-from-rank",
        "module": "src/scherk/isometry.py",
        "old": "    if any(mu):\n",
        "new": "    if len(pivots) < n:\n",
        "tests": [
            "tests/test_isometry.py::TestClassify::test_identity",
            "tests/test_isometry.py::TestStandardSplitting::"
            "test_splitting_invariants_on_corpus",
        ],
        "why": "w is elliptic exactly when mu = 0; a rank below n only says that "
        "A fixes a direction, which a rotation about a fixed axis does too",
    },
    {
        "id": "reader-bom-unchecked",
        "module": "src/scherk/cli.py",
        "old": 'if text.startswith("\\ufeff"):',
        "new": "if False:",
        "tests": [
            "tests/test_cli.py::TestReader::"
            "test_edge_text_reads_as_json_loads_reads_it[bom]",
            "tests/test_cli.py::TestReader::test_file_reads_as_text_mode_reads_it[bom]",
            "tests/test_cli.py::TestColdStart::"
            "test_malformed_document_keeps_its_message[bom]",
        ],
        "why": "json.loads refuses a leading BOM by name; left to the scanner it "
        "is a value that is not there, and the error line changes",
    },
    {
        "id": "reader-extra-data-unchecked",
        "module": "src/scherk/cli.py",
        "old": "            if not rest:\n",
        "new": "            if True:\n",
        "tests": [
            "tests/test_cli.py::TestReader::"
            "test_edge_text_reads_as_json_loads_reads_it[two-objects]",
            "tests/test_cli.py::TestReader::"
            "test_edge_text_reads_as_json_loads_reads_it[extra-value]",
            "tests/test_cli.py::TestColdStart::"
            "test_malformed_document_keeps_its_message[extra-data]",
        ],
        "why": "the scanner stops at the end of the first value; without the "
        "check a document followed by anything but whitespace is read as that "
        "first value",
    },
    {
        "id": "reader-newlines-untranslated",
        "module": "src/scherk/cli.py",
        "old": 'text = text.replace("\\r\\n", "\\n").replace("\\r", "\\n")',
        "new": "text = text",
        "tests": [
            "tests/test_cli.py::TestReader::"
            "test_file_reads_as_text_mode_reads_it[crlf-error-line-3]",
            "tests/test_cli.py::TestReader::"
            "test_file_reads_as_text_mode_reads_it[lone-cr-error-line-3]",
            "tests/test_cli.py::TestColdStart::"
            "test_malformed_document_keeps_its_message[crlf-line-3]",
        ],
        "why": "a text-mode read turns CRLF and a lone CR into LF; untranslated, "
        "an error's char counts every CR and its line counts no lone CR",
    },
    {
        "id": "reader-space-widened",
        "module": "src/scherk/cli.py",
        "old": 'space = " \\t\\n\\r"',
        "new": "space = None",
        "tests": [
            "tests/test_cli.py::TestReader::"
            "test_edge_text_reads_as_json_loads_reads_it[form-feed-before]",
            "tests/test_cli.py::TestReader::"
            "test_edge_text_reads_as_json_loads_reads_it[nbsp-after]",
        ],
        "why": "JSON whitespace is space, tab, LF and CR; str.lstrip() with no "
        "argument also skips a form feed or a no-break space, which json.loads "
        "refuses",
    },
]
