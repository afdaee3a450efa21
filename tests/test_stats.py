"""Exact counters, urn dynamics, collision formulas, and tail checks."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from strategies import parent_vectors

from seed_archeology import experiment, stats
from seed_archeology.rng import RngHandle
from seed_archeology.stats import (
    TailCheckResult,
    camouflage_counts,
    count_camouflaging,
    deep_tail_check,
    descendant_histogram,
    mcdiarmid_tail_check,
    path_collision_frequency,
    path_collision_probability,
    polya_fraction_samples,
    rooted_subtree_sizes,
    sample_camouflage_counts,
    singleton_parent_counts,
    singleton_parents,
    star_collision_frequency,
    star_collision_probability,
    subtree_size_matrix,
    urrt_parent_matrix,
)
from seed_archeology.trees import ArrivalTree


def tree_of(parents, l: int = 1) -> ArrivalTree:
    arr = np.zeros(len(parents) + 2, dtype=np.int64)
    arr[2:] = parents
    return ArrivalTree(len(parents) + 1, l, arr)


# ---------------------------------------------------------------------------
# descendant histograms and deep vertices


class TestDescendantHistogram:
    def test_three_path(self):
        hist = descendant_histogram(tree_of((1, 2)))
        assert list(hist.exactly) == [1, 1, 1]
        assert list(hist.at_least) == [3, 2, 1]

    def test_four_star(self):
        hist = descendant_histogram(tree_of((1, 1, 1)))
        assert list(hist.exactly) == [3, 0, 0, 1]
        assert list(hist.at_least) == [4, 1, 1, 1]

    def test_single_vertex(self):
        hist = descendant_histogram(tree_of(()))
        assert list(hist.exactly) == [1]
        assert list(hist.at_least) == [1]

    @given(parents=parent_vectors(min_n=1, max_n=30))
    def test_matches_recursive_oracle(self, parents):
        tree = tree_of(parents) if parents else tree_of(())
        hist = descendant_histogram(tree)
        counts = oracles.descendant_counts(parents)
        expected = np.bincount(counts, minlength=tree.n)
        assert np.array_equal(hist.exactly, expected)

    @given(parents=parent_vectors(min_n=1, max_n=40))
    def test_internal_consistency(self, parents):
        tree = tree_of(parents)
        hist = descendant_histogram(tree)
        n = tree.n
        assert int(hist.exactly.sum()) == n
        assert int(hist.at_least[0]) == n
        assert int(hist.exactly[n - 1]) == 1  # the root owns everyone
        counts = oracles.descendant_counts(parents)
        for k in range(n):
            assert int(hist.at_least[k]) == int(hist.exactly[k:].sum())
            assert int(hist.at_least[k]) == sum(c >= k for c in counts)

    def test_exhaustive_small_sizes_match_closed_forms(self):
        # Enumerate every recursive tree on n vertices and average: the
        # number of vertices with exactly k descendants must average
        # n / ((k+1)(k+2)) for k <= n - 2, and the at-least-k count must
        # average n / (k+1).  Exact rational arithmetic, no sampling.
        for n in (3, 4, 5, 6):
            vectors = list(oracles.all_recursive_parent_vectors(n))
            for k in range(n - 1):
                total_exact = sum(
                    int(descendant_histogram(tree_of(v)).exactly[k])
                    for v in vectors
                )
                total_atleast = sum(
                    int(descendant_histogram(tree_of(v)).at_least[k])
                    for v in vectors
                )
                if k <= n - 2:
                    assert Fraction(total_exact, len(vectors)) == Fraction(
                        n, (k + 1) * (k + 2)
                    )
                assert Fraction(total_atleast, len(vectors)) == Fraction(
                    n, k + 1
                )


class TestDeepVertices:
    def test_three_path(self):
        # Vertices with at least k descendants, as deep_tail_check counts
        # them: rooted subtree size minus one.
        descendants = rooted_subtree_sizes(tree_of((1, 2)))[1:] - 1

        def deep(k):
            return {v for v, d in enumerate(descendants, start=1) if d >= k}

        assert deep(0) == {1, 2, 3}
        assert deep(1) == {1, 2}
        assert deep(2) == {1}

    def test_rooted_subtree_sizes_on_path(self):
        assert list(rooted_subtree_sizes(tree_of((1, 2, 3)))[1:]) == [
            4,
            3,
            2,
            1,
        ]


# ---------------------------------------------------------------------------
# singleton parents


class TestSingletonParents:
    def test_three_path(self):
        report = singleton_parents(tree_of((1, 2)))
        assert report.singleton_parents == {2}
        assert report.S == 1
        assert report.camouflaging == frozenset()

    def test_four_star(self):
        assert singleton_parents(tree_of((1, 1, 1))).S == 0

    def test_two_vertices(self):
        # The root's lone child is a leaf, so S is identically 1 here.
        assert singleton_parents(tree_of((1,))).singleton_parents == {1}

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError, match="one vertex"):
            singleton_parents(tree_of(()))

    @given(parents=parent_vectors(min_n=2, max_n=40))
    def test_matches_definition_oracle(self, parents):
        report = singleton_parents(tree_of(parents))
        assert report.singleton_parents == oracles.singleton_parent_labels(
            parents
        )

    def test_exhaustive_mean_is_sixth_of_size(self):
        # Averaged over every recursive tree on l vertices, the singleton
        # parent count is exactly l/6 for l >= 3 (and 1 at l = 2).
        assert singleton_parents(tree_of((1,))).S == 1
        for l in (3, 4, 5, 6):
            vectors = list(oracles.all_recursive_parent_vectors(l))
            total = sum(singleton_parents(tree_of(v)).S for v in vectors)
            assert Fraction(total, len(vectors)) == Fraction(l, 6)


# ---------------------------------------------------------------------------
# camouflage


@st.composite
def window_trees(draw, min_l=2, max_l=5, slack=3):
    l = draw(st.integers(min_l, max_l))
    n = 2 * l + draw(st.integers(0, slack))
    parents = tuple(
        draw(st.integers(1, i - 1)) for i in range(2, n + 1)
    )
    return l, parents


class TestCamouflage:
    def test_hand_example_hit(self):
        # Edge 1-2 as the seed; arrivals 3 and 4 both join vertex 1 and
        # stay leaves, so the root's singleton child 2 is covered.
        report = count_camouflaging(tree_of((1, 1, 1)), 2)
        assert report.singleton_parents == {1}
        assert report.camouflaging == {1}
        assert (report.S, report.G) == (1, 1)

    def test_hand_example_window_vertex_not_leaf(self):
        # Arrival 3 joins vertex 1 but then 4 hangs off 3, so no window
        # arrival is a leaf attached to 1.
        report = count_camouflaging(tree_of((1, 1, 3)), 2)
        assert report.singleton_parents == {1}
        assert report.camouflaging == frozenset()

    def test_hand_example_singleton_gains_child(self):
        # Arrival 3 lands on the singleton d = 2 itself, so d is no
        # longer a leaf at time 4.
        report = count_camouflaging(tree_of((1, 2, 1)), 2)
        assert report.camouflaging == frozenset()

    def test_prefix_size_validation(self):
        with pytest.raises(ValueError, match="prefix size"):
            count_camouflaging(tree_of((1, 1, 1)), 1)
        with pytest.raises(ValueError, match="at least 2l"):
            count_camouflaging(tree_of((1, 1, 1)), 3)

    def test_vertices_beyond_2l_are_ignored(self):
        rng = RngHandle(88)
        parents = tuple(
            int(rng.generator.integers(1, i)) for i in range(2, 25)
        )
        full = tree_of(parents)
        clipped = tree_of(parents[:11])
        for l in (2, 3, 6):
            a = count_camouflaging(full, l)
            b = count_camouflaging(clipped, l)
            assert a.camouflaging == b.camouflaging
            assert a.singleton_parents == b.singleton_parents

    @given(case=window_trees())
    @settings(max_examples=80)
    def test_matches_definition_oracle(self, case):
        l, parents = case
        report = count_camouflaging(tree_of(parents), l)
        assert report.camouflaging == oracles.camouflaging_labels(parents, l)
        assert report.singleton_parents == oracles.singleton_parent_labels(
            parents[: l - 1]
        )
        assert report.camouflaging <= report.singleton_parents

    @given(case=window_trees(min_l=2, max_l=4, slack=0))
    @settings(max_examples=30)
    def test_single_arrival_changes_count_by_at_most_two(self, case):
        # Bounded differences: rerouting any one arrival in the window
        # l+1..2l moves G by at most 2.  Checked exhaustively over every
        # alternative parent of every window coordinate.
        l, parents = case
        base = count_camouflaging(tree_of(parents), l).G
        for idx in range(l - 1, 2 * l - 1):
            vertex = idx + 2
            for alt in range(1, vertex):
                if alt == parents[idx]:
                    continue
                mutated = parents[:idx] + (alt,) + parents[idx + 1 :]
                flipped = count_camouflaging(tree_of(mutated), l).G
                assert abs(flipped - base) <= 2

    def test_expected_count_clears_the_lower_bound(self):
        # E G_60 >= 60/384; a 2000-trial run sits far above it.
        counts = sample_camouflage_counts(60, 2000, RngHandle(41))
        mean = counts.mean()
        se = counts.std(ddof=1) / math.sqrt(counts.size)
        assert mean - 3 * se >= 60 / 384


# ---------------------------------------------------------------------------
# batched samplers against the per-tree versions


class TestBatchedSamplers:
    def test_parent_matrix_shape_and_ranges(self):
        parents = urrt_parent_matrix(10, 50, RngHandle(3))
        assert parents.shape == (50, 9)
        for j in range(9):
            assert parents[:, j].min() >= 1
            assert parents[:, j].max() <= j + 1

    def test_parent_matrix_validation(self):
        with pytest.raises(ValueError, match="n >= 2"):
            urrt_parent_matrix(1, 5, RngHandle(0))
        with pytest.raises(ValueError, match="trials"):
            urrt_parent_matrix(5, 0, RngHandle(0))

    def test_parent_matrix_deterministic(self):
        a = urrt_parent_matrix(20, 30, RngHandle(9, 4))
        b = urrt_parent_matrix(20, 30, RngHandle(9, 4))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [2, 3, 8, 17])
    def test_subtree_sizes_match_per_tree(self, n):
        parents = urrt_parent_matrix(n, 25, RngHandle(5))
        # A path has height n - 1, so its row needs the most passes.
        parents[0] = np.arange(1, n)
        sizes = subtree_size_matrix(parents)
        for row in range(25):
            expected = oracles.descendant_counts(tuple(parents[row]))
            assert sizes[row, 0] == 0
            assert list(sizes[row, 1:]) == [d + 1 for d in expected]

    @pytest.mark.parametrize("n", [1, 2, 300])
    def test_subtree_sizes_of_one_row(self, n):
        parents = urrt_parent_matrix(max(n, 2), 1, RngHandle(5))[:, : n - 1]
        sizes = subtree_size_matrix(parents)
        expected = oracles.descendant_counts(tuple(parents[0]))
        assert sizes.shape == (1, n + 1)
        assert list(sizes[0]) == [0] + [d + 1 for d in expected]

    @pytest.mark.parametrize("n", [2, 3, 8, 17])
    def test_singleton_counts_match_per_tree(self, n):
        parents = urrt_parent_matrix(n, 25, RngHandle(6))
        counts = singleton_parent_counts(parents)
        for row in range(25):
            expected = oracles.singleton_parent_labels(tuple(parents[row]))
            assert counts[row] == len(expected)

    # One l=2000 tree checks the window-leaf scatter on hundreds of
    # singleton parents, past what the small cases reach.
    @pytest.mark.parametrize(
        ("l", "trials"),
        [(2, 40), (3, 40), (5, 40), (2000, 1)],
        ids=["2", "3", "5", "2000"],
    )
    def test_camouflage_counts_match_per_tree(self, l, trials):
        parents = urrt_parent_matrix(2 * l, trials, RngHandle(7))
        counts = camouflage_counts(parents, l)
        for row in range(trials):
            expected = oracles.camouflaging_labels(tuple(parents[row]), l)
            assert counts[row] == len(expected)

    def test_camouflage_counts_column_check(self):
        parents = urrt_parent_matrix(10, 5, RngHandle(0))
        with pytest.raises(ValueError, match="expected 2l - 1"):
            camouflage_counts(parents, 4)

    def test_sample_camouflage_validation(self):
        with pytest.raises(ValueError, match="l >= 2"):
            sample_camouflage_counts(1, 10, RngHandle(0))


# ---------------------------------------------------------------------------
# row blocks: the Monte Carlo drivers against one whole matrix


@pytest.fixture
def block_rows(monkeypatch):
    """Shrink the row blocks to `entries` entries; record each block's rows."""
    rows: list[int] = []
    draw = stats._grown_parent_matrix

    def recording(l, n, trials, rng):
        rows.append(trials)
        return draw(l, n, trials, rng)

    monkeypatch.setattr(stats, "_grown_parent_matrix", recording)

    def shrink(entries: int) -> list[int]:
        monkeypatch.setattr(stats, "_BLOCK_ENTRIES", entries)
        return rows

    return shrink


def assert_seam_crossed(rows: list[int]) -> None:
    # At least three blocks, the last one short.
    assert len(rows) >= 3
    assert rows[-1] < rows[0]


class TestRowBlocks:
    # 10 columns: blocks of 4, 4 and 3 rows; then rows wider than a block.
    @pytest.mark.parametrize(
        ("entries", "trials", "expected_rows"),
        [(40, 11, [4, 4, 3]), (4, 3, [1, 1, 1])],
    )
    def test_blocks_are_the_one_shot_matrix(
        self, block_rows, entries, trials, expected_rows
    ):
        rows = block_rows(entries)
        blocked = stats._per_block(1, 11, trials, RngHandle(9, 2), lambda p: p)
        assert rows == expected_rows
        whole = stats._grown_parent_matrix(1, 11, trials, RngHandle(9, 2))
        assert blocked.dtype == whole.dtype
        assert blocked.tobytes() == whole.tobytes()

    def test_trials_checked_before_any_draw(self, block_rows):
        rows = block_rows(40)
        with pytest.raises(ValueError, match="trials must be >= 1, got 0"):
            stats._per_block(1, 11, 0, RngHandle(0), lambda p: p)
        assert rows == []

    def test_camouflage_counts(self, block_rows):
        rows = block_rows(100)  # l=5: 9 columns, 11 rows a block
        counts = sample_camouflage_counts(5, 50, RngHandle(7))
        assert_seam_crossed(rows)
        whole = urrt_parent_matrix(10, 50, RngHandle(7))
        assert np.array_equal(counts, camouflage_counts(whole, 5))

    def test_deep_tail(self, block_rows):
        rows = block_rows(200)  # n=20: 20 columns, 10 rows a block
        result = deep_tail_check(20, 3, 95, RngHandle(8))
        assert_seam_crossed(rows)
        sizes = subtree_size_matrix(urrt_parent_matrix(21, 95, RngHandle(8)))
        deep = (sizes[:, 2:] - 1 >= 3).sum(axis=1)
        assert result.empirical == float(np.mean(deep <= 20 / 9))
        assert 0 < result.empirical < 1

    @pytest.mark.parametrize(
        "frequency", [path_collision_frequency, star_collision_frequency]
    )
    def test_collision_frequencies(self, monkeypatch, block_rows, frequency):
        # The one-matrix value is the same driver with one block.
        monkeypatch.setattr(stats, "_BLOCK_ENTRIES", 10**9)
        whole = frequency(3, 510, RngHandle(6))
        rows = block_rows(60)  # 3 columns, 20 rows a block
        assert frequency(3, 510, RngHandle(6)) == whole
        assert rows[0] == 510
        assert_seam_crossed(rows[1:])
        assert 0 < whole < 1

    def test_descendants_suite(self, block_rows):
        rows = block_rows(500)  # 50 columns, 10 rows a block
        report = experiment._descendants_suite(25, RngHandle(3))
        assert_seam_crossed(rows)
        sizes = subtree_size_matrix(urrt_parent_matrix(51, 25, RngHandle(3)))
        descendants = sizes[:, 1:] - 1
        check = experiment._three_se_check
        expected = [
            check(f"L[{k}] n=50", (descendants == k).sum(1), 51 / ((k + 1) * (k + 2)))
            for k in (0, 1, 2, 3)
        ] + [
            check(f"M[{k}] n=50", (descendants[:, 1:] >= k).sum(1), 51 / (k + 1) - 1)
            for k in (1, 2, 4, 8)
        ]
        assert report == expected

    def test_singletons_suite(self, block_rows):
        rows = block_rows(20)  # l=3: 2 columns, 10 rows a block
        report = experiment._singletons_suite(25, RngHandle(4))
        assert_seam_crossed(rows[:3])
        rng = RngHandle(4)
        expected = [
            experiment._three_se_check(
                f"S l={l}",
                singleton_parent_counts(urrt_parent_matrix(l, 25, rng)),
                l / 6.0,
            )
            for l in (3, 6, 12, 60)
        ]
        assert report == expected


def traced_peak_mb(fn) -> float:
    """Peak traced allocation of one call, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    # A whole 40000-row matrix and its temporaries peak near 145 MB for
    # the camouflage counts and 71 MB for the deep tail.

    def test_camouflage_counts(self):
        peak = traced_peak_mb(
            lambda: sample_camouflage_counts(60, 40_000, RngHandle(1))
        )
        assert peak < 16

    def test_deep_tail(self):
        peak = traced_peak_mb(lambda: deep_tail_check(64, 1, 40_000, RngHandle(2)))
        assert peak < 16


# ---------------------------------------------------------------------------
# Polya urn


class TestPolyaUrn:
    def test_state_validation(self):
        with pytest.raises(ValueError, match="at least one color"):
            oracles.UrnState(())
        with pytest.raises(ValueError, match="negative"):
            oracles.UrnState((3, -1))
        with pytest.raises(ValueError, match="at least one ball"):
            oracles.UrnState((0, 0))

    def test_zero_draws_is_identity(self):
        state = oracles.UrnState((2, 5))
        assert oracles.polya_draw(state, 0, RngHandle(0)) == state

    def test_negative_draws_rejected(self):
        with pytest.raises(ValueError, match="draws"):
            oracles.polya_draw(oracles.UrnState((1, 1)), -1, RngHandle(0))

    def test_draws_add_one_ball_each(self):
        state = oracles.UrnState((2, 3, 4))
        out = oracles.polya_draw(state, 25, RngHandle(8))
        assert out.total == state.total + 25
        assert all(b >= a for a, b in zip(state.counts, out.counts))

    def test_deterministic_in_handle(self):
        a = oracles.polya_draw(oracles.UrnState((1, 2)), 100, RngHandle(3, 1))
        b = oracles.polya_draw(oracles.UrnState((1, 2)), 100, RngHandle(3, 1))
        assert a == b

    def test_fraction_helpers(self):
        state = oracles.UrnState((3, 9))
        assert state.fraction() == 0.25
        assert state.fraction(1) == 0.75

    def test_symmetric_urn_mean_half(self):
        # Starting from one ball each, the red fraction after 10^3 draws
        # averages 1/2; 10^5 runs pin it within 3 SEs.
        fractions = polya_fraction_samples(1, 1, 1000, 100_000, RngHandle(17))
        se = fractions.std(ddof=1) / math.sqrt(fractions.size)
        assert abs(float(fractions.mean()) - 0.5) <= 3 * se

    def test_sequential_and_batched_agree_in_law(self):
        # oracles.polya_draw and polya_fraction_samples implement the same
        # process; their mean final fractions must agree statistically.
        runs, draws = 3000, 50
        rng = RngHandle(23)
        start = oracles.UrnState((2, 1))
        seq = np.array(
            [
                oracles.polya_draw(start, draws, rng).fraction()
                for _ in range(runs)
            ]
        )
        batch = polya_fraction_samples(2, 1, draws, runs, RngHandle(24))
        se = math.hypot(
            seq.std(ddof=1) / math.sqrt(runs),
            batch.std(ddof=1) / math.sqrt(runs),
        )
        assert abs(float(seq.mean() - batch.mean())) <= 3 * se
        assert abs(float(seq.mean()) - 2 / 3) <= 4 * seq.std(ddof=1) / math.sqrt(runs)

    def test_batched_validates_counts(self):
        with pytest.raises(ValueError, match="negative"):
            polya_fraction_samples(-1, 2, 10, 10, RngHandle(0))
        with pytest.raises(ValueError, match="at least one ball"):
            polya_fraction_samples(0, 0, 10, 10, RngHandle(0))

    @pytest.mark.parametrize("draws", [-1, -10])
    def test_batched_rejects_negative_draws(self, draws):
        with pytest.raises(ValueError, match="draws must be >= 0"):
            polya_fraction_samples(3, 7, draws, 10, RngHandle(0))

    def test_batched_rejects_counts_past_int32(self):
        with pytest.raises(ValueError, match="red \\+ blue \\+ draws"):
            polya_fraction_samples(2**31 - 10, 5, 5, 10, RngHandle(0))

    def test_int32_urn_matches_int64_draws(self):
        # Bounds below 2^31 take the same 32-bit draw at either width.
        red, blue, draws, runs = 3, 7, 200, 500
        gen = RngHandle(31).generator
        reds = np.full(runs, red, dtype=np.int64)
        for step in range(draws):
            reds += gen.integers(0, red + blue + step, size=runs) < reds
        batch = polya_fraction_samples(red, blue, draws, runs, RngHandle(31))
        assert batch.tobytes() == (reds / (red + blue + draws)).tobytes()


# ---------------------------------------------------------------------------
# collision probabilities


class TestCollisionProbabilities:
    def test_path_exact_small_values(self):
        assert path_collision_probability(2).value == pytest.approx(
            1 / 3, rel=1e-12
        )
        assert path_collision_probability(3).value == pytest.approx(
            1 / 30, rel=1e-12
        )

    def test_star_exact_small_values(self):
        assert star_collision_probability(2).value == pytest.approx(
            1 / 6, rel=1e-12
        )
        assert star_collision_probability(3).value == pytest.approx(
            1 / 60, rel=1e-12
        )

    @pytest.mark.parametrize("l", [2, 3, 5, 10, 20, 21, 35])
    def test_matches_rational_oracle(self, l):
        path = path_collision_probability(l)
        star = star_collision_probability(l)
        assert path.value == pytest.approx(
            float(oracles.collision_probability_exact(l)), rel=1e-9
        )
        assert star.value == pytest.approx(
            float(oracles.collision_probability_exact(l, star=True)),
            rel=1e-9,
        )
        assert math.exp(path.log_value) == pytest.approx(
            path.value, rel=1e-9
        )

    def test_log_value_strictly_decreasing(self):
        logs = [path_collision_probability(l).log_value for l in range(2, 30)]
        assert all(a > b for a, b in zip(logs, logs[1:]))

    def test_small_seed_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            path_collision_probability(1)
        with pytest.raises(ValueError, match=">= 2"):
            star_collision_probability(1)

    def test_path_frequency_matches_exact_l2(self):
        trials = 200_000
        freq = path_collision_frequency(2, trials, RngHandle(71))
        p = 1 / 3
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(freq - p) <= 3 * se

    def test_path_frequency_matches_exact_l3(self):
        trials = 100_000
        freq = path_collision_frequency(3, trials, RngHandle(72))
        p = 1 / 30
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(freq - p) <= 3 * se

    def test_star_frequency_matches_exact(self):
        trials = 200_000
        freq = star_collision_frequency(3, trials, RngHandle(73))
        p = 1 / 60
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(freq - p) <= 3 * se

    def test_frequency_validation(self):
        with pytest.raises(ValueError, match=">= 2"):
            path_collision_frequency(1, 10, RngHandle(0))
        with pytest.raises(ValueError, match="trials"):
            star_collision_frequency(3, 0, RngHandle(0))


# ---------------------------------------------------------------------------
# tail checks


class TestTailChecks:
    def test_result_arithmetic(self):
        ok = TailCheckResult(empirical=0.5, theoretical=0.4, trials=100)
        assert ok.se == pytest.approx(0.05)
        assert ok.passed
        bad = TailCheckResult(empirical=0.6, theoretical=0.4, trials=100)
        assert not bad.passed

    def test_mcdiarmid_t_zero_bound_is_one(self):
        result = mcdiarmid_tail_check(10, 0.0, 1500, RngHandle(1))
        assert result.theoretical == 1.0
        assert result.passed

    def test_mcdiarmid_huge_offset_makes_event_impossible(self):
        # l/384 - 30 is negative and G is a count, so the frequency is
        # exactly zero while the bound stays positive.
        result = mcdiarmid_tail_check(60, 30.0, 1500, RngHandle(2))
        assert result.empirical == 0.0
        assert result.theoretical == pytest.approx(math.exp(-7.5))
        assert result.passed

    def test_mcdiarmid_non_vacuous_offset(self):
        # t = l/384 turns the event into {G = 0}, which has sizable
        # probability, and the bound is just below 1: a check that could
        # actually fail if the simulation or the bound were wrong.
        l = 60
        t = l / 384
        result = mcdiarmid_tail_check(l, t, 3000, RngHandle(3))
        assert 0.0 < result.empirical < 1.0
        assert result.theoretical == pytest.approx(
            math.exp(-(t * t) / (2 * l))
        )
        assert result.passed

    def test_mcdiarmid_validation(self):
        with pytest.raises(ValueError, match="t must be"):
            mcdiarmid_tail_check(10, -1.0, 1500, RngHandle(0))
        with pytest.raises(ValueError, match="^trials must be >= 1, got 0$"):
            mcdiarmid_tail_check(60, 5.0, 0, RngHandle(0))

    def test_deep_tail_validation(self):
        with pytest.raises(ValueError, match="k must be"):
            deep_tail_check(10, 0, 100, RngHandle(0))
        with pytest.raises(ValueError, match="n > k"):
            deep_tail_check(5, 5, 100, RngHandle(0))
        with pytest.raises(ValueError, match="^trials must be >= 1, got 0$"):
            deep_tail_check(64, 1, 0, RngHandle(0))

    def test_deep_tail_passes_at_desk_scale(self):
        result = deep_tail_check(64, 1, 5000, RngHandle(4))
        assert result.passed
        assert result.theoretical == pytest.approx(math.exp(-2.0))

    def test_deep_tail_k2_bound_is_vacuous(self):
        # k exp(-n/(32 k^2)) exceeds 1 at n=64, k=2: the check cannot
        # fail there, and saying so in a test documents it.
        result = deep_tail_check(64, 2, 1500, RngHandle(5))
        assert result.theoretical > 1.0
        assert result.passed
