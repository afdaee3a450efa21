"""Anti-centrality profiles against brute-force deletion oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from strategies import parent_vectors

from seed_archeology.centrality import (
    anti_centrality,
    branch_sizes_at,
    select_most_central,
)
from seed_archeology.rng import RngHandle
from seed_archeology.trees import (
    Rooting,
    SeedSpec,
    ShapeView,
    build_seed,
    grow,
    identity_view,
    scramble,
)


def view_of(parents, scramble_seed=None) -> ShapeView:
    tree = build_seed(SeedSpec.custom(parents), RngHandle(0))
    if scramble_seed is None:
        return identity_view(tree)
    return scramble(tree, RngHandle(scramble_seed))


# ---------------------------------------------------------------------------
# psi values


class TestAntiCentrality:
    def test_three_path(self):
        profile = anti_centrality(view_of((1, 2)))
        assert list(profile.psi[1:]) == [2, 1, 2]
        assert profile.centroids == {2}

    def test_five_star(self):
        profile = anti_centrality(view_of((1, 1, 1, 1)))
        assert list(profile.psi[1:]) == [1, 4, 4, 4, 4]
        assert profile.centroids == {1}

    def test_single_vertex(self):
        tree = build_seed(SeedSpec.urrt(1), RngHandle(0))
        profile = anti_centrality(identity_view(tree))
        assert profile.n == 1
        assert list(profile.psi[1:]) == [0]
        assert profile.centroids == {1}

    def test_two_vertices(self):
        profile = anti_centrality(view_of((1,)))
        assert list(profile.psi[1:]) == [1, 1]
        assert profile.centroids == {1, 2}

    def test_six_path_has_two_adjacent_centroids(self):
        view = view_of((1, 2, 3, 4, 5))
        profile = anti_centrality(view)
        assert profile.centroids == {3, 4}
        assert 4 in oracles.csr_neighbors(view, 3)

    def test_caterpillar_by_hand(self):
        # Path 1-2-3 with two extra leaves on vertex 3: deleting 3 leaves
        # {1,2} and two singletons, deleting 2 leaves {1} and {3,4,5}.
        profile = anti_centrality(view_of((1, 2, 3, 3)))
        assert list(profile.psi[1:]) == [4, 3, 2, 4, 4]
        assert profile.centroids == {3}

    @given(parents=parent_vectors(min_n=1, max_n=40))
    def test_matches_deletion_oracle(self, parents):
        n = len(parents) + 1
        view = view_of(parents, scramble_seed=17)
        profile = anti_centrality(view)
        assert list(profile.psi[1:]) == oracles.brute_force_psi(
            n, oracles.edge_list(view)
        )

    def test_matches_scipy_component_oracle(self):
        # Second independent route: connected components from scipy on
        # each vertex-deleted graph, over seeded random trees.
        for i in range(40):
            rng = RngHandle(300 + i)
            n = int(rng.generator.integers(2, 120))
            tree = grow(build_seed(SeedSpec.urrt(2), rng), n, rng)
            view = scramble(tree, rng)
            profile = anti_centrality(view)
            assert list(profile.psi[1:]) == oracles.scipy_psi(
                n, oracles.edge_list(view)
            )

    @given(parents=parent_vectors(min_n=2, max_n=40))
    def test_leaves_have_maximal_psi(self, parents):
        view = view_of(parents)
        profile = anti_centrality(view)
        n = view.n
        for v in range(1, n + 1):
            if len(oracles.csr_neighbors(view, v)) == 1:
                assert profile.psi[v] == n - 1

    @given(parents=parent_vectors(min_n=1, max_n=60))
    def test_centroid_psi_at_most_half(self, parents):
        # The classical centroid bound: some vertex has every branch of
        # size at most floor(n/2).
        view = view_of(parents, scramble_seed=3)
        profile = anti_centrality(view)
        assert int(profile.psi[1:].min()) <= view.n // 2

    @given(parents=parent_vectors(min_n=2, max_n=60))
    def test_at_most_two_adjacent_centroids(self, parents):
        view = view_of(parents, scramble_seed=5)
        profile = anti_centrality(view)
        assert len(profile.centroids) in (1, 2)
        if len(profile.centroids) == 2:
            a, b = sorted(profile.centroids)
            assert b in oracles.csr_neighbors(view, a)

    @given(parents=parent_vectors(min_n=2, max_n=40))
    def test_invariant_under_relabeling(self, parents):
        # psi is a function of the shape, so the multiset of values and
        # the centroid images must survive a scramble.
        tree = build_seed(SeedSpec.custom(parents), RngHandle(0))
        plain = anti_centrality(identity_view(tree))
        view = scramble(tree, RngHandle(21))
        mixed = anti_centrality(view)
        assert sorted(plain.psi[1:]) == sorted(mixed.psi[1:])
        assert view.arrival_labels_of(mixed.centroids) == set(plain.centroids)

    def test_rooted_sizes_match_subtree_definition(self):
        view = view_of((1, 1, 2, 2, 3))
        profile = anti_centrality(view)
        # Rooted at the centre, label 1: subtree sizes by hand.
        assert list(profile.rooting.size[1:]) == [6, 3, 2, 1, 1, 1]

    def test_profile_shares_the_view_rooting(self):
        view = view_of((1, 1, 2, 2, 3), scramble_seed=5)
        first, second = anti_centrality(view), anti_centrality(view)
        assert first.rooting is view.rooting
        assert second.rooting is view.rooting

    def test_root_away_from_the_centre_changes_nothing(self):
        # The path 1 - 2 - 3 rooted at its end 1 rather than its centre.
        view = ShapeView(3, Rooting([0, 0, 1, 2], [0, 3, 2, 1]))
        profile = anti_centrality(view)
        assert list(profile.psi[1:]) == [2, 1, 2]
        assert profile.centroids == {2}
        assert branch_sizes_at(profile, 2) == {1: 1, 3: 1}

    def test_profile_arrays_read_only(self):
        profile = anti_centrality(view_of((1, 2)))
        with pytest.raises(ValueError):
            profile.psi[1] = 0


# ---------------------------------------------------------------------------
# selection


class TestSelectMostCentral:
    def test_star_center_first(self):
        profile = anti_centrality(view_of((1, 1, 1, 1)))
        assert select_most_central(profile, 1, RngHandle(0)) == {1}

    def test_k_equal_n_returns_everything(self):
        profile = anti_centrality(view_of((1, 2, 2)))
        assert select_most_central(profile, 4, RngHandle(0)) == {1, 2, 3, 4}

    def test_k_out_of_range(self):
        profile = anti_centrality(view_of((1, 2)))
        with pytest.raises(ValueError, match="k must be in 1..3"):
            select_most_central(profile, 0, RngHandle(0))
        with pytest.raises(ValueError, match="k must be in 1..3"):
            select_most_central(profile, 4, RngHandle(0))

    def test_selection_is_psi_downward_closed(self):
        rng = RngHandle(77)
        tree = grow(build_seed(SeedSpec.urrt(2), rng), 80, rng)
        view = scramble(tree, rng)
        profile = anti_centrality(view)
        for k in (1, 3, 10, 40, 80):
            chosen = select_most_central(profile, k, RngHandle(1))
            assert len(chosen) == k
            worst_in = max(int(profile.psi[v]) for v in chosen)
            best_out = min(
                (
                    int(profile.psi[v])
                    for v in range(1, 81)
                    if v not in chosen
                ),
                default=worst_in,
            )
            assert worst_in <= best_out

    def test_four_path_tie_broken_uniformly(self):
        # On 1-2-3-4 both middle vertices have psi 2; k=1 must pick each
        # half the time over 10^4 draws (3 binomial SEs).
        profile = anti_centrality(view_of((1, 2, 3)))
        rng = RngHandle(31)
        draws = 10_000
        hits = sum(
            select_most_central(profile, 1, rng) == {2} for _ in range(draws)
        )
        se = (0.25 / draws) ** 0.5
        assert abs(hits / draws - 0.5) <= 3 * se

    def test_unambiguous_selection_needs_no_rng(self):
        # When the boundary is not tied the same set comes back for any
        # stream, so the draw order cannot leak into later choices.
        profile = anti_centrality(view_of((1, 1, 1, 1)))
        assert select_most_central(
            profile, 1, RngHandle(0, 0)
        ) == select_most_central(profile, 1, RngHandle(0, 999))


# ---------------------------------------------------------------------------
# branch sizes


class TestBranchSizes:
    def test_three_path_middle(self):
        profile = anti_centrality(view_of((1, 2)))
        assert branch_sizes_at(profile, 2) == {1: 1, 3: 1}

    def test_three_path_end(self):
        profile = anti_centrality(view_of((1, 2)))
        assert branch_sizes_at(profile, 1) == {2: 2}

    def test_star_center(self):
        profile = anti_centrality(view_of((1, 1, 1, 1)))
        assert branch_sizes_at(profile, 1) == {2: 1, 3: 1, 4: 1, 5: 1}

    def test_vertex_range_checked(self):
        with pytest.raises(ValueError, match="not in 1..3"):
            branch_sizes_at(anti_centrality(view_of((1, 2))), 4)

    @given(parents=parent_vectors(min_n=2, max_n=40), salt=st.integers(0, 5))
    def test_sizes_sum_to_n_minus_one(self, parents, salt):
        view = view_of(parents, scramble_seed=salt)
        v = 1 + salt % view.n
        sizes = branch_sizes_at(anti_centrality(view), v)
        assert set(sizes) == set(oracles.csr_neighbors(view, v))
        assert sum(sizes.values()) == view.n - 1

    @given(parents=parent_vectors(min_n=2, max_n=30))
    @settings(max_examples=40)
    def test_largest_branch_equals_psi(self, parents):
        view = view_of(parents, scramble_seed=9)
        profile = anti_centrality(view)
        for v in range(1, view.n + 1):
            assert max(branch_sizes_at(profile, v).values()) == int(
                profile.psi[v]
            )
