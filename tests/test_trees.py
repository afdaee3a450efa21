"""Seed construction, uniform-attachment growth, scrambling, serialization."""

import dataclasses
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from strategies import parent_vectors, seed_specs

from seed_archeology import trees
from seed_archeology.centrality import anti_centrality
from seed_archeology.rng import RngHandle
from seed_archeology.trees import (
    ArrivalTree,
    SeedKind,
    SeedSpec,
    ShapeView,
    build_seed,
    grow,
    identity_view,
    scramble,
    _view_from_edges,
)


def make_tree(spec: SeedSpec, n: int, master: int = 7, stream: int = 0) -> ArrivalTree:
    rng = RngHandle(master, stream)
    return grow(build_seed(spec, rng), n, rng)


# ---------------------------------------------------------------------------
# SeedSpec


class TestSeedSpec:
    def test_constructors(self):
        assert SeedSpec.path(5) == SeedSpec(SeedKind.PATH, 5)
        assert SeedSpec.star(5) == SeedSpec(SeedKind.STAR, 5)
        assert SeedSpec.urrt(1) == SeedSpec(SeedKind.URRT, 1)

    def test_custom_infers_size(self):
        spec = SeedSpec.custom([1, 1, 2])
        assert spec.l == 4
        assert spec.parents == (1, 1, 2)

    def test_plain_string_kind_coerces(self):
        spec = SeedSpec("star", 4)
        assert spec.kind is SeedKind.STAR
        assert spec == SeedSpec.star(4)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SeedSpec("wheel", 4)

    def test_size_below_one_rejected(self):
        with pytest.raises(ValueError, match="seed size"):
            SeedSpec.path(0)

    def test_custom_needs_parents(self):
        with pytest.raises(ValueError, match="parent array"):
            SeedSpec(SeedKind.CUSTOM, 3)

    def test_custom_length_mismatch(self):
        with pytest.raises(ValueError, match="needs 3 parent entries"):
            SeedSpec(SeedKind.CUSTOM, 4, (1, 1))

    def test_custom_parent_out_of_range_names_the_vertex(self):
        with pytest.raises(ValueError, match=r"parents\[1\] = 3 .* vertex 3"):
            SeedSpec.custom([1, 3])

    def test_non_custom_rejects_parents(self):
        with pytest.raises(ValueError, match="does not take parents"):
            SeedSpec(SeedKind.PATH, 3, (1, 2))

    @pytest.mark.parametrize(
        ("make", "bad_index"),
        [
            (lambda: SeedSpec.custom([1.7, 1]), 0),
            (lambda: SeedSpec(SeedKind.CUSTOM, 3, (1, 1.5)), 1),
            (lambda: SeedSpec.custom([True, 1]), 0),
            (lambda: SeedSpec.custom(np.array([1, 1, 2])), None),
        ],
        ids=["float", "direct-float", "bool", "numpy-ints"],
    )
    def test_custom_parents_must_be_integers(self, make, bad_index):
        if bad_index is None:
            spec = make()
            assert spec.parents == (1, 1, 2)
            assert all(type(p) is int for p in spec.parents)
        else:
            with pytest.raises(
                ValueError, match=rf"parents\[{bad_index}\] = .* not an integer"
            ):
                make()


# ---------------------------------------------------------------------------
# build_seed


class TestBuildSeed:
    def test_path_of_three_has_parents_1_2(self):
        tree = build_seed(SeedSpec.path(3), RngHandle(0))
        assert list(tree.parent_of[2:]) == [1, 2]
        assert (tree.n, tree.l) == (3, 3)

    def test_star_of_four_has_parents_1_1_1(self):
        tree = build_seed(SeedSpec.star(4), RngHandle(0))
        assert list(tree.parent_of[2:]) == [1, 1, 1]

    def test_custom_copies_parents(self):
        tree = build_seed(SeedSpec.custom([1, 2, 2, 4]), RngHandle(0))
        assert list(tree.parent_of[2:]) == [1, 2, 2, 4]

    def test_single_vertex_seed(self):
        tree = build_seed(SeedSpec.urrt(1), RngHandle(0))
        assert tree.n == 1
        assert oracles.arrival_degrees(tree)[1] == 0

    def test_path_and_star_ignore_rng_state(self):
        rng = RngHandle(3)
        rng.generator.integers(0, 10, size=100)  # advance the stream
        assert build_seed(SeedSpec.path(4), rng) == build_seed(
            SeedSpec.path(4), RngHandle(99)
        )

    def test_urrt_deterministic_in_handle(self):
        a = build_seed(SeedSpec.urrt(30), RngHandle(11, 2))
        b = build_seed(SeedSpec.urrt(30), RngHandle(11, 2))
        assert a == b

    def test_urrt_third_vertex_picks_each_parent_half_the_time(self):
        # Vertex 3 of a random recursive seed attaches to 1 or 2 uniformly;
        # over 10^5 builds the frequency of parent 1 must sit within 3
        # binomial SEs of 1/2.
        draws = 10**5
        rng = RngHandle(2024)
        hits = sum(
            int(build_seed(SeedSpec.urrt(3), rng).parent_of[3]) == 1
            for _ in range(draws)
        )
        se = (0.25 / draws) ** 0.5
        assert abs(hits / draws - 0.5) <= 3 * se

    @given(spec=seed_specs())
    def test_seed_is_recursive(self, spec):
        tree = build_seed(spec, RngHandle(5))
        for i in range(2, tree.n + 1):
            assert 1 <= tree.parent_of[i] < i


# ---------------------------------------------------------------------------
# grow


class TestGrow:
    def test_grow_to_same_size_is_identity(self):
        seed = build_seed(SeedSpec.path(4), RngHandle(0))
        grown = grow(seed, 4, RngHandle(0))
        assert grown == seed
        assert grown is not seed

    def test_shrinking_rejected(self):
        seed = build_seed(SeedSpec.path(4), RngHandle(0))
        with pytest.raises(ValueError, match="cannot shrink"):
            grow(seed, 3, RngHandle(0))

    def test_growth_deterministic_in_handle(self):
        seed = build_seed(SeedSpec.star(5), RngHandle(0))
        a = grow(seed, 200, RngHandle(8, 1))
        b = grow(seed, 200, RngHandle(8, 1))
        assert a == b

    def test_keeps_seed_prefix_and_size_field(self):
        seed = build_seed(SeedSpec.custom([1, 1, 3]), RngHandle(0))
        tree = grow(seed, 50, RngHandle(1))
        assert tree.n == 50
        assert tree.l == 4
        assert np.array_equal(tree.parent_of[:5], seed.parent_of)

    def test_third_vertex_attachment_is_uniform(self):
        # Growing a 2-vertex seed by one vertex: the arrival picks parent
        # 1 or 2 with equal probability.
        draws = 30_000
        seed = build_seed(SeedSpec.path(2), RngHandle(0))
        rng = RngHandle(55)
        hits = sum(
            int(grow(seed, 3, rng).parent_of[3]) == 1 for _ in range(draws)
        )
        se = (0.25 / draws) ** 0.5
        assert abs(hits / draws - 0.5) <= 3 * se

    @given(spec=seed_specs(max_l=8), extra=st.integers(0, 30))
    def test_grown_tree_is_recursive_with_seed_prefix(self, spec, extra):
        rng = RngHandle(13)
        seed = build_seed(spec, rng)
        tree = grow(seed, spec.l + extra, rng)
        assert tree.n == spec.l + extra
        assert np.array_equal(tree.parent_of[: spec.l + 1], seed.parent_of)
        for i in range(2, tree.n + 1):
            assert 1 <= tree.parent_of[i] < i


# ---------------------------------------------------------------------------
# ArrivalTree basics


class TestArrivalTree:
    def test_parent_array_is_read_only(self):
        tree = make_tree(SeedSpec.path(3), 10)
        with pytest.raises(ValueError):
            tree.parent_of[3] = 1

    def test_bad_parent_is_named(self):
        with pytest.raises(ValueError, match=r"parent_of\[3\] = 4"):
            ArrivalTree(3, 1, np.array([0, 0, 1, 4]))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="length n \\+ 1"):
            ArrivalTree(3, 1, np.array([0, 0, 1]))

    def test_seed_larger_than_tree_rejected(self):
        with pytest.raises(ValueError, match="1 <= l <= n"):
            ArrivalTree(3, 5, np.array([0, 0, 1, 1]))

    def test_equality_ignores_object_identity_only(self):
        a = make_tree(SeedSpec.path(3), 10, master=1)
        b = make_tree(SeedSpec.path(3), 10, master=1)
        c = make_tree(SeedSpec.path(3), 10, master=2)
        assert a == b
        assert a != c
        assert a != "not a tree"

    def test_degrees_on_a_path(self):
        tree = build_seed(SeedSpec.path(4), RngHandle(0))
        assert list(oracles.arrival_degrees(tree)[1:]) == [1, 2, 2, 1]

    def test_degrees_on_a_star(self):
        tree = build_seed(SeedSpec.star(5), RngHandle(0))
        assert list(oracles.arrival_degrees(tree)[1:]) == [4, 1, 1, 1, 1]

    @given(parents=parent_vectors(min_n=2, max_n=20))
    def test_degrees_sum_to_twice_the_edges(self, parents):
        tree = build_seed(SeedSpec.custom(parents), RngHandle(0))
        assert int(oracles.arrival_degrees(tree).sum()) == 2 * (tree.n - 1)


# ---------------------------------------------------------------------------
# scramble and ShapeView


class TestScramble:
    def test_single_vertex(self):
        view = scramble(build_seed(SeedSpec.urrt(1), RngHandle(0)), RngHandle(1))
        assert view.n == 1
        assert oracles.edge_list(view) == []
        assert view.arrival_labels_of({1}) == {1}

    def test_deterministic_in_handle(self):
        tree = make_tree(SeedSpec.path(4), 30)
        a = scramble(tree, RngHandle(9, 3))
        b = scramble(tree, RngHandle(9, 3))
        assert oracles.edge_list(a) == oracles.edge_list(b)
        assert a.arrival_labels_of(range(1, 31)) == b.arrival_labels_of(
            range(1, 31)
        )

    @given(parents=parent_vectors(min_n=2, max_n=24))
    def test_degree_multiset_preserved(self, parents):
        tree = build_seed(SeedSpec.custom(parents), RngHandle(0))
        view = scramble(tree, RngHandle(3))
        tree_degrees = sorted(int(d) for d in oracles.arrival_degrees(tree)[1:])
        view_degrees = sorted(
            len(oracles.csr_neighbors(view, v)) for v in range(1, view.n + 1)
        )
        assert tree_degrees == view_degrees

    @given(parents=parent_vectors(min_n=2, max_n=14))
    @settings(max_examples=40)
    def test_isomorphism_class_preserved(self, parents):
        tree = build_seed(SeedSpec.custom(parents), RngHandle(0))
        view = scramble(tree, RngHandle(3))
        before = oracles.canonical_shape_code(
            tree.n, oracles.edge_list(identity_view(tree))
        )
        after = oracles.canonical_shape_code(view.n, oracles.edge_list(view))
        assert before == after

    @given(parents=parent_vectors(min_n=2, max_n=24))
    def test_hidden_relabeling_maps_edges_onto_edges(self, parents):
        tree = build_seed(SeedSpec.custom(parents), RngHandle(0))
        view = scramble(tree, RngHandle(4))
        assert view.arrival_labels_of(range(1, view.n + 1)) == set(
            range(1, view.n + 1)
        )
        tree_edges = {
            (min(i, int(tree.parent_of[i])), max(i, int(tree.parent_of[i])))
            for i in range(2, tree.n + 1)
        }
        for u, v in oracles.edge_list(view):
            (a,) = view.arrival_labels_of({u})
            (b,) = view.arrival_labels_of({v})
            assert (min(a, b), max(a, b)) in tree_edges

    def test_relabeling_is_uniform_over_path4_labelings(self):
        # A labeled 4-path has 12 distinguishable edge sets; 10^4 scrambles
        # should spread over them uniformly.  The chi-square statistic on
        # 11 degrees of freedom has mean 11 and variance 22; we accept up
        # to 11 + 3 sqrt(22), about the 99.1th percentile.
        classes = oracles.path_labelings(4)
        assert len(classes) == 12
        tree = build_seed(SeedSpec.path(4), RngHandle(0))
        rng = RngHandle(606)
        counts: dict[tuple, int] = {key: 0 for key in classes}
        trials = 10_000
        for _ in range(trials):
            key = tuple(sorted(oracles.edge_list(scramble(tree, rng))))
            counts[key] += 1
        expected = trials / len(classes)
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert all(c > 0 for c in counts.values())
        assert chi2 <= 11 + 3 * (22**0.5)

    def test_neighbors_sorted_and_degree_consistent(self):
        tree = make_tree(SeedSpec.star(5), 40)
        view = scramble(tree, RngHandle(2))
        degrees = oracles.arrival_degrees(tree)
        for v in range(1, view.n + 1):
            neigh = oracles.csr_neighbors(view, v)
            assert neigh == sorted(neigh)
            (arrival,) = view.arrival_labels_of({v})
            assert len(neigh) == degrees[arrival]

    def test_identity_view_keeps_labels(self):
        tree = make_tree(SeedSpec.path(4), 12)
        view = identity_view(tree)
        assert view.arrival_labels_of({3, 7}) == {3, 7}
        tree_edges = {
            (min(i, int(tree.parent_of[i])), max(i, int(tree.parent_of[i])))
            for i in range(2, tree.n + 1)
        }
        assert set(oracles.edge_list(view)) == tree_edges


# ---------------------------------------------------------------------------
# CSR build


def assert_csr_equal(view: ShapeView, expected) -> None:
    indptr, indices = expected
    assert view.indptr.dtype == view.indices.dtype == np.int64
    # Built once, on first read, and read-only.
    assert view.indptr is view.indptr and view.indices is view.indices
    assert not (view.indptr.flags.writeable or view.indices.flags.writeable)
    assert view.indptr.tobytes() == indptr.tobytes()
    assert view.indices.tobytes() == indices.tobytes()


class TestCsrBuild:
    @given(parents=parent_vectors(min_n=1, max_n=30))
    @example(parents=())
    @example(parents=(1,))
    def test_every_build_matches_the_lexsort_oracle(self, parents):
        tree = build_seed(SeedSpec.custom(parents), RngHandle(0))
        n = tree.n
        children = np.arange(2, n + 1)
        assert_csr_equal(
            identity_view(tree),
            oracles.csr_reference(n, children, tree.parent_of[children]),
        )
        view = scramble(tree, RngHandle(6))
        shape_of = np.zeros(n + 1, dtype=np.int64)
        shape_of[view._arrival_of[1:]] = np.arange(1, n + 1)
        expected = oracles.csr_reference(
            n, shape_of[children], shape_of[tree.parent_of[children]]
        )
        assert_csr_equal(view, expected)
        assert_csr_equal(ShapeView.from_text(view.to_text()), expected)

    def test_repeated_edge_keeps_both_ends(self):
        # Both ends of the repeated edge count, so the view is refused at
        # construction for one edge too many.
        us, vs = np.array([2, 3, 2]), np.array([1, 1, 1])
        with pytest.raises(ValueError, match="3 edges for 3 vertices"):
            _view_from_edges(3, us, vs, None)

    @given(
        parents=parent_vectors(min_n=1, max_n=30),
        order=st.randoms(use_true_random=False),
    )
    @example(parents=(), order=random.Random(0))
    def test_edge_order_leaves_no_trace(self, parents, order):
        tree = build_seed(SeedSpec.custom(parents), RngHandle(0))
        n = tree.n
        edges = [(i, int(tree.parent_of[i])) for i in range(2, n + 1)]
        mixed = [(v, u) if order.random() < 0.5 else (u, v) for u, v in edges]
        order.shuffle(mixed)

        def view_of(pairs):
            us, vs = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
            return _view_from_edges(n, us, vs, None)

        a, b = view_of(edges), view_of(mixed)
        for name in ("indptr", "indices"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        for arr, again in zip(a.rooting, b.rooting):
            assert arr.tobytes() == again.tobytes()
        assert a.to_text() == b.to_text()

    def test_view_keeps_no_edge_list(self):
        # The edges come in arrival order; only the rooting is stored.
        names = [f.name for f in dataclasses.fields(ShapeView)]
        assert names == ["n", "rooting", "_arrival_of"]

    def test_packed_key_range_guarded(self):
        # (n + 1)**2 overflows int64 here; the check comes before any
        # array of length n is allocated.
        with pytest.raises(ValueError, match="too large for an int64"):
            _view_from_edges(2**32, np.array([2]), np.array([1]), None)


# ---------------------------------------------------------------------------
# serialization


class TestSerialization:
    def test_arrival_tree_text_format(self):
        tree = ArrivalTree(3, 2, np.array([0, 0, 1, 1]))
        assert tree.to_text() == "n=3 l=2\n2 1\n3 1\n"

    def test_single_vertex_text(self):
        tree = ArrivalTree(1, 1, np.array([0, 0]))
        assert tree.to_text() == "n=1 l=1\n"
        assert ArrivalTree.from_text("n=1 l=1\n") == tree

    @given(spec=seed_specs(max_l=8), extra=st.integers(0, 20))
    def test_arrival_tree_round_trip(self, spec, extra):
        tree = make_tree(spec, spec.l + extra)
        assert ArrivalTree.from_text(tree.to_text()) == tree

    @given(parents=parent_vectors(min_n=1, max_n=20))
    # 2^16 + 2 rows cross the seam of _format_rows' 65 536-row slices.
    @example(
        parents=tuple(make_tree(SeedSpec.path(2), 2**16 + 3).parent_of[2:])
    )
    def test_text_matches_line_by_line_reference(self, parents):
        tree = build_seed(SeedSpec.custom(parents), RngHandle(0))
        view = scramble(tree, RngHandle(1))
        arrival_of = view._arrival_of.tolist()
        shape_of = {a: v for v, a in enumerate(arrival_of)}
        edges = [(shape_of[i + 2], shape_of[p]) for i, p in enumerate(parents)]
        assert tree.to_text() == oracles.arrival_text(parents, tree.l)
        assert view.to_text() == oracles.shape_text(tree.n, edges)
        assert oracles.edge_list(view) == sorted(
            (min(e), max(e)) for e in edges
        )
        assert view.permutation_to_text() == "".join(
            f"{v} {arrival_of[v]}\n" for v in range(1, tree.n + 1)
        )

    @given(parents=parent_vectors(min_n=2, max_n=20))
    def test_shape_view_round_trip_preserves_edges(self, parents):
        view = scramble(build_seed(SeedSpec.custom(parents), RngHandle(0)), RngHandle(1))
        back = ShapeView.from_text(view.to_text())
        assert back.n == view.n
        assert oracles.edge_list(back) == oracles.edge_list(view)

    def test_shape_text_is_sorted_small_label_first(self):
        view = scramble(make_tree(SeedSpec.path(3), 30), RngHandle(5))
        lines = view.to_text().strip().splitlines()[1:]
        pairs = [tuple(int(t) for t in ln.split()) for ln in lines]
        assert pairs == sorted(pairs)
        assert all(u < v for u, v in pairs)

    def test_deserialized_view_cannot_be_scored(self):
        view = scramble(make_tree(SeedSpec.path(3), 10), RngHandle(5))
        back = ShapeView.from_text(view.to_text())
        with pytest.raises(ValueError, match="no recorded relabeling"):
            back.arrival_labels_of({1})
        with pytest.raises(ValueError, match="no recorded relabeling"):
            back.permutation_to_text()

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ArrivalTree.from_text("  \n ")

    def test_missing_header_field_rejected(self):
        with pytest.raises(ValueError, match="lacks required field l="):
            ArrivalTree.from_text("n=3\n2 1\n3 1\n")

    def test_arrival_order_enforced(self):
        with pytest.raises(ValueError, match="arrival order"):
            ArrivalTree.from_text("n=3 l=1\n3 1\n2 1\n")

    def test_parent_range_enforced(self):
        with pytest.raises(ValueError, match=r"parent_of\[3\] = 4"):
            ArrivalTree.from_text("n=3 l=1\n2 1\n3 4\n")

    def test_edge_count_enforced(self):
        with pytest.raises(ValueError, match="expected 2 edge lines"):
            ArrivalTree.from_text("n=3 l=1\n2 1\n")

    def test_malformed_edge_line_rejected(self):
        with pytest.raises(ValueError, match="two fields"):
            ArrivalTree.from_text("n=3 l=1\n2 1\n3 1 9\n")
        with pytest.raises(ValueError, match="non-integer"):
            ArrivalTree.from_text("n=3 l=1\n2 1\nx 1\n")

    @pytest.mark.parametrize("field", ["1.0", "1.9", "1e0"])
    def test_decimal_field_rejected(self, field):
        with pytest.raises(ValueError, match="line 3: non-integer"):
            ArrivalTree.from_text(f"n=3 l=1\n2 1\n3 {field}\n")

    def test_float_fallback_warning_is_an_error(self, monkeypatch):
        # Some NumPy versions parse "1.9" as the integer 1 and only issue a
        # DeprecationWarning; the reader must still reject the row.
        def lenient_loadtxt(fname, dtype, **kwargs):
            warnings.warn("Parsing an integer via a float", DeprecationWarning)
            return np.array([[2, 1], [3, 1]], dtype=dtype)

        monkeypatch.setattr(trees.np, "loadtxt", lenient_loadtxt)
        with pytest.raises(ValueError, match="line 3: non-integer"):
            ArrivalTree.from_text("n=3 l=1\n2 1\n3 1.9\n")

    def test_shape_view_rejects_arrival_header(self):
        with pytest.raises(ValueError, match="arrival tree, not a shape"):
            ShapeView.from_text("n=3 l=2\n2 1\n3 1\n")

    def test_shape_view_rejects_cycle(self):
        with pytest.raises(ValueError, match="not a connected tree"):
            ShapeView.from_text("n=4\n1 2\n2 3\n3 1\n")

    def test_shape_view_rejects_out_of_range_endpoint(self):
        with pytest.raises(ValueError, match="out of range"):
            ShapeView.from_text("n=3\n1 2\n3 4\n")

    def test_header_value_must_be_positive_integer(self):
        with pytest.raises(ValueError, match="bad header field"):
            ArrivalTree.from_text("n=x l=1\n")
        with pytest.raises(ValueError, match="must be >= 1"):
            ShapeView.from_text("n=0\n")

    @pytest.mark.parametrize(
        "cls, text",
        [
            (ShapeView, "n=3\n1 2\n2 99999999999999999999\n"),
            (ArrivalTree, "n=3 l=1\n2 1\n3 99999999999999999999\n"),
        ],
        ids=["shape", "arrival"],
    )
    def test_field_beyond_int64_names_the_line(self, cls, text):
        with pytest.raises(ValueError, match="line 3: .* out-of-range"):
            cls.from_text(text)

    @pytest.mark.parametrize(
        "cls, text",
        [
            (ShapeView, "n=2\n1 " + "1" * 5000 + "\n"),
            (ArrivalTree, "n=2 l=1\n2 " + "1" * 5000 + "\n"),
        ],
        ids=["shape", "arrival"],
    )
    def test_field_too_long_for_int_names_the_line(self, cls, text):
        # int() refuses more than 4300 digits with a message of its own.
        with pytest.raises(
            ValueError, match="line 2: non-integer or out-of-range field"
        ):
            cls.from_text(text)

    def test_row_count_checked_before_allocating(self):
        # The header asks for 10^12 vertices; nothing that size may be
        # allocated before the missing rows are noticed.
        with pytest.raises(ValueError, match="expected 999999999999 edge"):
            ArrivalTree.from_text("n=1000000000000 l=1\n")

    def test_comment_marker_is_a_field(self):
        with pytest.raises(ValueError, match="line 2: expected two fields"):
            ArrivalTree.from_text("n=3 l=1\n2 1 # note\n3 1\n")

    def test_shape_view_rejects_cycle_beside_isolated_vertex(self):
        # Four edges for five vertices, but they close a 4-cycle and leave
        # vertex 5 alone.
        with pytest.raises(ValueError, match="keeps 4 of 5 vertices"):
            ShapeView.from_text("n=5\n1 2\n2 3\n3 4\n1 4\n")

    def test_header_only_text_parses_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ArrivalTree.from_text("n=1 l=1\n").n == 1
            assert ShapeView.from_text("n=1\n").n == 1

    def test_blank_lines_and_crlf_are_tolerated(self):
        tree = ArrivalTree.from_text("n=3 l=1\r\n\r\n2 1\r\n  \n3 2\r\n")
        assert tree == ArrivalTree(3, 1, np.array([0, 0, 1, 2]))

    def test_lone_carriage_return_ends_a_line(self):
        tree = ArrivalTree.from_text("n=3 l=1\r2 1\r3 2\r")
        assert tree == ArrivalTree(3, 1, np.array([0, 0, 1, 2]))
        view = ShapeView.from_text("n=3\r1 2\r2 3\r")
        assert oracles.edge_list(view) == [(1, 2), (2, 3)]

    def test_header_digits_must_be_ascii(self):
        # int() reads Arabic-Indic digits; the rows' grammar does not.
        with pytest.raises(ValueError, match="bad header field 'n=٣'"):
            ArrivalTree.from_text("n=٣ l=١\n2 1\n3 1\n")

    def test_header_digit_separator_rejected(self):
        # int() reads "0_3" as 3.
        with pytest.raises(ValueError, match="bad header field 'n=0_3'"):
            ShapeView.from_text("n=0_3\n1 2\n2 3\n")

    @pytest.mark.parametrize(
        "cls, text, key",
        [
            (ArrivalTree, "n=3 n=4 l=1\n2 1\n3 1\n", "n"),
            (ArrivalTree, "n=3 l=1 l=1\n2 1\n3 1\n", "l"),
            (ShapeView, "n=3 n=3\n1 2\n2 3\n", "n"),
        ],
        ids=["arrival-n", "arrival-l", "shape-n"],
    )
    def test_header_key_given_twice_rejected(self, cls, text, key):
        with pytest.raises(ValueError, match=f"{key}= is given 2 times"):
            cls.from_text(text)

    @pytest.mark.parametrize("char", ["\u01fe", "\U00020000", "\u0663"])
    def test_non_ascii_field_rejected(self, char):
        # NumPy 2.4's loadtxt reads the first two as 462 and 131024.
        with pytest.raises(ValueError, match="line 3: non-integer"):
            trees._read_rows(f"n=3\n1 2\n2 1{char}\n")

    def test_non_ascii_whitespace_still_separates(self):
        rows = trees._read_rows("n=3\n1\xa02\u2003\n2\x853\n")[2]
        assert rows.tolist() == [[1, 2], [2, 3]]

    def test_split_header_copies_only_the_header(self):
        text = "\n \x0c\u2003n=3 l=1 \n2 1\n3 1\n"
        header, start = trees._split_header(text)
        assert header == "n=3 l=1"
        assert text[start:] == "2 1\n3 1\n"
        assert trees._split_header(" n=1 ") == ("n=1", 6)

    def test_permutation_text_round_trips_by_hand(self):
        tree = make_tree(SeedSpec.path(3), 8)
        view = scramble(tree, RngHandle(44))
        mapping = {}
        for line in view.permutation_to_text().strip().splitlines():
            shape, arrival = (int(t) for t in line.split())
            mapping[shape] = arrival
        assert sorted(mapping) == list(range(1, 9))
        assert sorted(mapping.values()) == list(range(1, 9))
        for v in range(1, 9):
            assert view.arrival_labels_of({v}) == {mapping[v]}


# ---------------------------------------------------------------------------
# the table writer

#: Chunk and sign edges of the writer, and the ends of int64.
_EDGE_INTS = [0, 1, -1, 9999, -9999, 10_000, -10_000, 2**63 - 1, -(2**63)]
_int64s = st.one_of(
    st.sampled_from(_EDGE_INTS),
    st.integers(-20_000, 20_000),
    st.integers(-(2**63), 2**63 - 1),
)
#: Separators and prefixes: no NUL, and often a %, a comma, a quote or a
#: character outside ASCII.
_row_text = st.one_of(
    st.sampled_from(["", " ", ",", "%", '"', "%d", "é,", '"a,b"%,', "\u2003"]),
    st.text(st.characters(blacklist_characters="\0"), max_size=7),
)


@st.composite
def _columns(draw) -> list[np.ndarray]:
    """1-4 equal-length int64 or bool columns of 0-30 rows."""
    rows = draw(st.integers(0, 30))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.integers(0, 3)) == 0:
            values = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
            columns.append(np.array(values, dtype=bool))
        else:
            values = draw(st.lists(_int64s, min_size=rows, max_size=rows))
            columns.append(np.array(values, dtype=np.int64))
    return columns


def format_by_reference(columns, sep: str, prefix: str) -> str:
    fields = sep.replace("%", "%%").join(["%d"] * len(columns))
    row = prefix.replace("%", "%%") + fields + "\n"
    return oracles.format_rows_reference(row, *columns)


class TestFormatRows:
    @given(columns=_columns(), sep=_row_text, prefix=_row_text)
    @example(columns=[np.array(_EDGE_INTS)], sep=" ", prefix="")
    @example(columns=[np.array([], dtype=np.int64)] * 2, sep=" ", prefix="")
    @example(columns=[np.array([True, False])], sep=",", prefix="%d")
    def test_matches_percent_reference(self, columns, sep, prefix):
        out = trees._format_rows(*columns, sep=sep, prefix=prefix)
        assert out == format_by_reference(columns, sep, prefix)

    @pytest.mark.parametrize("rows", [2**16 - 1, 2**16, 2**16 + 1])
    def test_slice_seam(self, rows):
        # Past row 2^16 the second column turns negative and wide, so a
        # slice's layout (sign word, chunk count) differs from the last.
        i = np.arange(rows)
        wide = np.where(i < 2**16, i % 7, -(2**62) + i)
        flags = np.random.default_rng(rows).random(rows) < 0.5
        columns = [i, wide, flags]
        out = trees._format_rows(*columns, sep=",", prefix='"%",')
        expected = format_by_reference(columns, ",", '"%",')
        # Lists, so that a failure reports the first differing row.
        assert out.splitlines(True) == expected.splitlines(True)

    @pytest.mark.parametrize(
        "kwargs", [{"sep": "\0"}, {"sep": ",\0"}, {"prefix": "a\0b"}]
    )
    def test_nul_in_sep_or_prefix_rejected(self, kwargs):
        with pytest.raises(ValueError, match="must not contain NUL"):
            trees._format_rows(np.arange(3), **kwargs)

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError):
            trees._format_rows(np.arange(3), np.arange(4))


# ---------------------------------------------------------------------------
# rooting


def four_cycle_chain_edges() -> tuple[int, np.ndarray, np.ndarray]:
    """Twelve 4-cycles joined end to end: 48 edges on 49 labels, 37 of
    them on the cycles and the last 12 isolated."""
    us, vs = [], []
    for d in range(12):
        a, b, c, e = 3 * d + 1, 3 * d + 2, 3 * d + 3, 3 * d + 4
        us += [a, a, b, c]
        vs += [b, c, e, e]
    return len(us) + 1, np.array(us), np.array(vs)


def chain_of_four_cycles() -> ShapeView:
    """The view of :func:`four_cycle_chain_edges`, which its
    construction refuses."""
    return _view_from_edges(*four_cycle_chain_edges(), None)


def check_rooting(view: ShapeView) -> None:
    """The view's rooting against definitions: psi by deletion, each
    subtree as the component away from the parent, the root a centre."""
    n, edges = view.n, oracles.edge_list(view)
    parent, size = view.rooting
    adj = oracles.adjacency_from_edges(n, edges)
    assert anti_centrality(view).psi[1:].tolist() == oracles.brute_force_psi(
        n, edges
    )
    for v in range(1, n + 1):
        if parent[v]:
            assert parent[v] in adj[v]
        assert size[v] == oracles.component_size(adj, v, int(parent[v]))
    ecc = oracles.eccentricities(adj)
    centres = [v for v in range(1, n + 1) if ecc[v] == min(ecc[1:])]
    roots = [v for v in range(1, n + 1) if parent[v] == 0]
    assert roots == [max(centres)]


class TestRooting:
    def test_every_small_tree_rooted_at_its_centre(self):
        for n in range(1, 8):
            for parents in oracles.all_recursive_parent_vectors(n):
                tree = build_seed(SeedSpec.custom(parents), RngHandle(0))
                check_rooting(identity_view(tree))
                check_rooting(scramble(tree, RngHandle(n)))

    def test_rejects_chain_of_four_cycles(self):
        with pytest.raises(ValueError, match="keeps 37 of 49 vertices"):
            chain_of_four_cycles()
        n, us, vs = four_cycle_chain_edges()
        text = f"n={n}\n" + "".join(f"{u} {v}\n" for u, v in zip(us, vs))
        with pytest.raises(ValueError, match="keeps 37 of 49 vertices"):
            ShapeView.from_text(text)

    def test_anti_centrality_rejects_a_non_tree(self):
        with pytest.raises(ValueError, match="keeps 37 of 49 vertices"):
            anti_centrality(chain_of_four_cycles())

    def test_rejects_edge_to_label_zero(self):
        # An edge to the unused slot 0 must not stand in for vertex 3.
        with pytest.raises(ValueError, match="1 of them at label 0"):
            _view_from_edges(3, np.array([1, 2]), np.array([2, 0]), None)

    def test_rejects_repeated_edge(self):
        with pytest.raises(ValueError, match="keeps 2 of 3 vertices"):
            ShapeView.from_text("n=3\n1 2\n1 2\n")

    def test_rejects_self_loop_beside_tree_edge(self):
        # Peeling both ends of the edge 1-2 would leave only vertex 3,
        # as if the edges formed a tree.
        with pytest.raises(ValueError, match="keeps 1 of 3 vertices"):
            ShapeView.from_text("n=3\n1 2\n3 3\n")

    def test_rejects_isolated_edges_beside_double_loop(self):
        # Both isolated edges end in the first round, among four leaves.
        with pytest.raises(ValueError, match="keeps 1 of 5 vertices"):
            ShapeView.from_text("n=5\n1 2\n3 4\n5 5\n5 5\n")

    def test_rejects_edge_count_other_than_n_minus_one(self):
        # A 4-cycle connects all four vertices, with one edge too many.
        with pytest.raises(ValueError, match="4 edges for 4 vertices"):
            _view_from_edges(4, np.arange(1, 5), np.array([2, 3, 4, 1]), None)

    def test_rooting_is_cached_and_read_only(self):
        view = scramble(make_tree(SeedSpec.urrt(5), 60), RngHandle(3))
        rooting = view.rooting
        assert view.rooting is rooting
        us, vs = np.array(oracles.edge_list(view)).T
        fresh = trees._peel(view.n, us, vs)
        for arr, again in zip(rooting, fresh):
            assert np.array_equal(arr, again)
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]
        with pytest.raises(AttributeError):
            view.rooting = rooting
