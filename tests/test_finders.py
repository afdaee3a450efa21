"""Seed finders on bare seeds, hand-built trees, and scrambled views."""

import dataclasses
import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from strategies import parent_vectors

from seed_archeology import trees
from seed_archeology.centrality import anti_centrality
from seed_archeology.finders import (
    EstimateKind,
    FinderKind,
    FinderParams,
    _depth_scale,
    find_path_seed,
    find_star_seed,
    find_urrt_seed,
    guarantee_threshold,
)
from seed_archeology.rng import RngHandle
from seed_archeology.trees import (
    SeedSpec,
    ShapeView,
    build_seed,
    grow,
    identity_view,
    scramble,
)

FINDERS = {
    FinderKind.PATH: find_path_seed,
    FinderKind.STAR: find_star_seed,
    FinderKind.URRT: find_urrt_seed,
}


def params(l, gamma=0.3, epsilon=0.1, c=1.0) -> FinderParams:
    return FinderParams(l=l, gamma=gamma, epsilon=epsilon, jog_loh_c=c)


def bare(spec: SeedSpec) -> ShapeView:
    return identity_view(build_seed(spec, RngHandle(0)))


# ---------------------------------------------------------------------------
# FinderParams


class TestFinderParams:
    def test_valid(self):
        p = params(10, gamma=0.5, epsilon=0.01, c=2.0)
        assert (p.l, p.gamma, p.epsilon, p.jog_loh_c) == (10, 0.5, 0.01, 2.0)

    @pytest.mark.parametrize("gamma", [0.0, 1.0, -0.1, 1.5])
    def test_gamma_open_interval(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            params(5, gamma=gamma)

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, 2.0])
    def test_epsilon_open_interval(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            params(5, epsilon=epsilon)

    def test_l_positive(self):
        with pytest.raises(ValueError, match="l must be"):
            params(0)

    def test_constant_positive(self):
        with pytest.raises(ValueError, match="jog_loh_c"):
            params(5, c=0.0)

    def test_constant_not_nan(self):
        with pytest.raises(ValueError, match="jog_loh_c"):
            params(5, c=float("nan"))


# ---------------------------------------------------------------------------
# path finder


class TestPathFinder:
    def test_bare_path_five_returns_middle_three(self):
        # (1 - 0.4) * 5 = 3 most central vertices of the 5-path.
        est = find_path_seed(
            bare(SeedSpec.path(5)), params(5, gamma=0.4), RngHandle(0)
        )
        assert est.vertices == {2, 3, 4}
        assert est.kind is EstimateKind.FIRST
        assert est.target_size == 3
        assert not est.deficit

    def test_tiny_gamma_keeps_whole_seed(self):
        # (1 - 1e-17) * 5 rounds to 5.0 in floats; the floor must not
        # drop to 4 over that dust.
        est = find_path_seed(
            bare(SeedSpec.path(5)), params(5, gamma=1e-17), RngHandle(0)
        )
        assert est.target_size == 5
        assert est.vertices == {1, 2, 3, 4, 5}

    def test_gamma_hundredth_drops_one_vertex(self):
        # 0.99 * 5 = 4.95 is genuinely below 5, so the target is 4.
        est = find_path_seed(
            bare(SeedSpec.path(5)), params(5, gamma=0.01), RngHandle(0)
        )
        assert est.target_size == 4

    def test_target_never_below_one(self):
        est = find_path_seed(
            bare(SeedSpec.path(2)), params(2, gamma=0.9), RngHandle(0)
        )
        assert est.target_size == 1
        assert len(est.vertices) == 1

    def test_seed_size_below_two_rejected(self):
        with pytest.raises(ValueError, match="seed size must be >= 2"):
            find_path_seed(bare(SeedSpec.path(2)), params(1), RngHandle(0))

    def test_tree_smaller_than_claimed_seed_rejected(self):
        with pytest.raises(ValueError, match="tree has 3 vertices"):
            find_path_seed(bare(SeedSpec.path(3)), params(5), RngHandle(0))

    @given(
        l=st.integers(2, 30),
        gamma=st.floats(0.01, 0.99),
        extra=st.integers(0, 20),
    )
    @settings(max_examples=50)
    def test_output_size_equals_target(self, l, gamma, extra):
        rng = RngHandle(5)
        tree = grow(build_seed(SeedSpec.path(l), rng), l + extra, rng)
        view = scramble(tree, rng)
        est = find_path_seed(view, params(l, gamma=gamma), RngHandle(1))
        assert len(est.vertices) == est.target_size
        assert est.target_size == max(1, math.floor((1.0 - gamma) * l + 1e-9))

    def test_on_bare_path_output_is_contiguous_middle(self):
        # With no growth the most central vertices of a path are an
        # interval around the middle, whatever the tie-break does.
        for l, gamma in [(8, 0.25), (9, 0.5), (12, 0.3)]:
            est = find_path_seed(
                bare(SeedSpec.path(l)), params(l, gamma=gamma), RngHandle(4)
            )
            chosen = sorted(est.vertices)
            assert chosen == list(range(chosen[0], chosen[0] + len(chosen)))
            mid = (l + 1) / 2
            assert chosen[0] <= mid <= chosen[-1]


# ---------------------------------------------------------------------------
# star finder


class TestStarFinder:
    def test_bare_star_five_with_inflation_reports_deficit(self):
        # Target ceil(1.2 * 5) = 6 exceeds the whole tree; the finder
        # returns the center and every neighbor and flags the shortfall.
        est = find_star_seed(
            bare(SeedSpec.star(5)), params(5, gamma=0.2), RngHandle(0)
        )
        assert est.vertices == {1, 2, 3, 4, 5}
        assert est.kind is EstimateKind.SECOND
        assert est.target_size == 6
        assert est.deficit
        assert est.center == 1

    def test_star_grown_by_one_grandchild(self):
        # Star on {1..4} plus vertex 5 attached to leaf 2.  The center
        # stays the unique centroid; the branch through 2 has size 2.
        tree = build_seed(SeedSpec.custom([1, 1, 1, 2]), RngHandle(0))
        view = identity_view(tree)
        est = find_star_seed(view, params(4, gamma=0.2), RngHandle(0))
        assert est.center == 1
        assert est.target_size == 5
        assert est.deficit  # center degree 3 < target - 1
        assert est.vertices == {1, 2, 3, 4}

    def test_largest_branches_win(self):
        # Same tree, but asking for a smaller star: the neighbor with the
        # grandchild (branch size 2) must always be chosen over the
        # single-leaf branches.
        tree = build_seed(SeedSpec.custom([1, 1, 1, 2]), RngHandle(0))
        view = identity_view(tree)
        est = find_star_seed(view, params(2, gamma=0.2), RngHandle(3))
        assert est.target_size == 3
        assert not est.deficit
        assert {1, 2} <= est.vertices
        assert len(est.vertices) == 3

    def test_tied_branches_chosen_uniformly(self):
        # Between the two size-1 branches (vertices 3 and 4) the pick
        # must be a fair coin across streams.
        tree = build_seed(SeedSpec.custom([1, 1, 1, 2]), RngHandle(0))
        view = identity_view(tree)
        draws = 4000
        hits = 0
        for i in range(draws):
            est = find_star_seed(view, params(2, gamma=0.2), RngHandle(9, i))
            hits += 3 in est.vertices
        se = (0.25 / draws) ** 0.5
        assert abs(hits / draws - 0.5) <= 3 * se

    def test_ceil_target_stable_against_float_dust(self):
        # 1.3 * 100 lands a hair above 130 in floats; the ceiling must
        # read 130, not 131.
        rng = RngHandle(2)
        tree = grow(build_seed(SeedSpec.star(100), rng), 400, rng)
        est = find_star_seed(
            identity_view(tree), params(100, gamma=0.3), RngHandle(0)
        )
        assert est.target_size == 130

    def test_seed_size_below_two_rejected(self):
        with pytest.raises(ValueError, match="seed size must be >= 2"):
            find_star_seed(bare(SeedSpec.star(3)), params(1), RngHandle(0))

    def test_star_finder_roots_once(self, monkeypatch):
        # The view roots itself once, while being read, and every later
        # anti_centrality and branch_sizes_at reads that rooting.
        peel = trees._peel
        calls = []

        def counting(n, us, vs):
            calls.append(n)
            return peel(n, us, vs)

        rng = RngHandle(4)
        tree = grow(build_seed(SeedSpec.star(5), rng), 200, rng)
        text = scramble(tree, rng).to_text()
        monkeypatch.setattr(trees, "_peel", counting)
        view = ShapeView.from_text(text)
        for stream in range(3):
            find_star_seed(view, params(5, gamma=0.2), RngHandle(0, stream))
        assert calls == [view.n]

    @given(parents=parent_vectors(min_n=4, max_n=40))
    @settings(max_examples=50)
    def test_center_in_output_and_size_capped(self, parents):
        view = identity_view(build_seed(SeedSpec.custom(parents), RngHandle(0)))
        est = find_star_seed(view, params(3, gamma=0.5), RngHandle(7))
        assert est.center in est.vertices
        if est.deficit:
            assert len(est.vertices) < est.target_size
        else:
            assert len(est.vertices) == est.target_size
        neighborhood = {est.center, *oracles.csr_neighbors(view, est.center)}
        assert est.vertices <= neighborhood


# ---------------------------------------------------------------------------
# urrt finder


class TestUrrtFinder:
    def test_depth_scale_value(self):
        # a = 2 ln(4 * 300^2 / 0.1) + 1
        assert _depth_scale(300, 0.1) == pytest.approx(31.1929, abs=1e-3)

    def test_bare_urrt_300_targets_three(self):
        view = identity_view(build_seed(SeedSpec.urrt(300), RngHandle(12)))
        est = find_urrt_seed(view, params(300, epsilon=0.1), RngHandle(0))
        assert est.target_size == 3
        assert len(est.vertices) == 3
        assert est.kind is EstimateKind.FIRST

    def test_single_vertex_seed_returns_centroid(self):
        view = identity_view(build_seed(SeedSpec.urrt(1), RngHandle(0)))
        est = find_urrt_seed(view, params(1, epsilon=0.5), RngHandle(0))
        assert est.vertices == {1}
        assert est.target_size == 1

    def test_target_shrinks_as_epsilon_shrinks(self):
        targets = []
        view = identity_view(build_seed(SeedSpec.urrt(300), RngHandle(12)))
        for epsilon in (0.9, 0.1, 1e-4, 1e-8):
            est = find_urrt_seed(
                view, params(300, epsilon=epsilon), RngHandle(0)
            )
            targets.append(est.target_size)
        assert targets == sorted(targets, reverse=True)
        assert targets[0] >= 1 and targets[-1] >= 1

    def test_output_is_most_central_subset(self):
        rng = RngHandle(6)
        tree = grow(build_seed(SeedSpec.urrt(40), rng), 400, rng)
        view = scramble(tree, rng)
        est = find_urrt_seed(view, params(40, epsilon=0.1), RngHandle(2))
        profile = anti_centrality(view)
        worst_in = max(int(profile.psi[v]) for v in est.vertices)
        outside = [
            int(profile.psi[v])
            for v in range(1, 401)
            if v not in est.vertices
        ]
        assert worst_in <= min(outside)


# ---------------------------------------------------------------------------
# views without usable arrival data


class TestFindersSeeOnlyShape:
    @pytest.mark.parametrize("kind", list(FinderKind))
    def test_poisoned_relabeling_changes_nothing(self, kind):
        rng = RngHandle(14)
        tree = grow(build_seed(SeedSpec.urrt(10), rng), 120, rng)
        view = scramble(tree, rng)
        poisoned = dataclasses.replace(
            view, _arrival_of=np.zeros(view.n + 1, dtype=np.int64)
        )
        p = params(10, gamma=0.4, epsilon=0.2)
        a = FINDERS[kind](view, p, RngHandle(3))
        b = FINDERS[kind](poisoned, p, RngHandle(3))
        assert a.vertices == b.vertices
        assert a.target_size == b.target_size

    @pytest.mark.parametrize("kind", list(FinderKind))
    def test_serialization_round_trip_changes_nothing(self, kind):
        rng = RngHandle(15)
        tree = grow(build_seed(SeedSpec.urrt(10), rng), 120, rng)
        view = scramble(tree, rng)
        revived = ShapeView.from_text(view.to_text())
        p = params(10, gamma=0.4, epsilon=0.2)
        a = FINDERS[kind](view, p, RngHandle(3))
        b = FINDERS[kind](revived, p, RngHandle(3))
        assert a.vertices == b.vertices


# ---------------------------------------------------------------------------
# guarantee thresholds


class TestGuaranteeThreshold:
    def test_path_frozen_values(self):
        assert guarantee_threshold(
            FinderKind.PATH, params(5, gamma=0.5, epsilon=0.1)
        ) == 101
        assert guarantee_threshold(
            FinderKind.PATH, params(5, gamma=0.5, epsilon=1e-3)
        ) == 205

    def test_path_epsilon_floor_from_constant_term(self):
        # For modest epsilon the ln(4 e^2) term dominates, so the
        # threshold stops depending on epsilon.
        a = guarantee_threshold(FinderKind.PATH, params(5, gamma=0.5, epsilon=0.5))
        b = guarantee_threshold(FinderKind.PATH, params(5, gamma=0.5, epsilon=0.9))
        assert a == b == 101

    def test_star_frozen_values(self):
        assert guarantee_threshold(
            FinderKind.STAR, params(5, gamma=0.5, epsilon=0.1)
        ) == 37
        assert guarantee_threshold(
            FinderKind.STAR, params(5, gamma=0.5, epsilon=0.1, c=20.0)
        ) == 47

    def test_star_degenerate_corner_is_one(self):
        assert guarantee_threshold(
            FinderKind.STAR, params(5, gamma=0.999, epsilon=0.999)
        ) == 1

    def test_urrt_small_seed_not_guaranteed(self):
        assert guarantee_threshold(
            FinderKind.URRT, params(10, epsilon=0.1)
        ) is False

    def test_urrt_astronomical_seed_guaranteed(self):
        assert guarantee_threshold(
            FinderKind.URRT, params(10**8, epsilon=0.1)
        ) is True

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown finder kind"):
            guarantee_threshold("not-a-kind", params(5))

    @given(
        gamma=st.floats(0.05, 0.95), epsilon=st.floats(1e-6, 0.9)
    )
    @settings(max_examples=60)
    def test_path_threshold_monotone(self, gamma, epsilon):
        # Larger slack or larger failure budget never demands a larger
        # seed.
        base = guarantee_threshold(
            FinderKind.PATH, params(5, gamma=gamma, epsilon=epsilon)
        )
        easier = guarantee_threshold(
            FinderKind.PATH,
            params(5, gamma=min(0.99, gamma * 1.5), epsilon=epsilon),
        )
        assert easier <= base


# ---------------------------------------------------------------------------
# runtime dependencies


def test_finds_a_seed_without_scipy():
    # scipy serves only the test oracles: with it unimportable, the package
    # still grows, scrambles and finds, and finds what it finds here.
    script = textwrap.dedent(
        """
        import sys
        sys.modules["scipy"] = None
        import seed_archeology as sa
        rng = sa.RngHandle(4)
        tree = sa.grow(sa.build_seed(sa.SeedSpec.star(5), rng), 200, rng)
        view = sa.scramble(tree, rng)
        params = sa.FinderParams(l=5, gamma=0.2, epsilon=0.1)
        print(sa.find_star_seed(view, params, sa.RngHandle(0)).to_text(), end="")
        """
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    rng = RngHandle(4)
    view = scramble(grow(build_seed(SeedSpec.star(5), rng), 200, rng), rng)
    expected = find_star_seed(view, params(5, gamma=0.2), RngHandle(0))
    assert result.stdout == expected.to_text()
