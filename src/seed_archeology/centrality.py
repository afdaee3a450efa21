"""Anti-centrality: rank vertices by the largest branch hanging off them.

For a tree T and vertex v, ``psi(v)`` is the size of the largest component
of T with v removed.  Small values are central: the minimizers are the
(at most two, adjacent) centroids.  All routines here run in O(n) from the
view's checked rooting (:attr:`~seed_archeology.trees.ShapeView.rooting`),
which carries every subtree size:
``psi(v) = max(largest child subtree, n - subtree(v))``.  The result does
not depend on the root (the n - subtree term is 0 at the root itself), so
a view rooted anywhere gives the same psi, centroids and branch sizes.

Everything operates on :class:`~seed_archeology.trees.ShapeView` and is
pure; no floating point is involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import RngHandle
from .trees import Rooting, ShapeView

__all__ = [
    "CentralityProfile",
    "anti_centrality",
    "select_most_central",
    "branch_sizes_at",
]


@dataclass(frozen=True)
class CentralityProfile:
    """Per-vertex anti-centrality, with the rooting that produced it.

    Attributes
    ----------
    n : int
        Vertex count.
    psi : numpy.ndarray
        Length ``n + 1``; ``psi[v]`` is the largest component size of the
        tree with v deleted.  Index 0 unused.  Read-only.
    rooting : Rooting
        The view's own rooting, shared rather than copied; its arrays are
        read-only.
    centroids : frozenset of int
        Vertices attaining the minimum psi; one or two, and if two they
        are adjacent.
    """

    n: int
    psi: np.ndarray
    rooting: Rooting
    centroids: frozenset[int]

    def __post_init__(self) -> None:
        psi = np.ascontiguousarray(self.psi, dtype=np.int64)
        psi.setflags(write=False)
        object.__setattr__(self, "psi", psi)


def anti_centrality(view: ShapeView) -> CentralityProfile:
    """Compute psi for every vertex of `view` in O(n)."""
    n = view.n
    parent, size = view.rooting
    # The root's own size lands in the unused slot 0.
    max_child = np.zeros(n + 1, dtype=np.int64)
    np.maximum.at(max_child, parent[1:], size[1:])
    psi = np.maximum(max_child, n - size)
    psi[0] = 0
    best = psi[1:].min()
    centroids = frozenset(int(v) for v in np.flatnonzero(psi[1:] == best) + 1)
    return CentralityProfile(n, psi, view.rooting, centroids)


def select_most_central(
    profile: CentralityProfile, k: int, rng: RngHandle
) -> frozenset[int]:
    """The k vertices of smallest psi, boundary ties broken uniformly.

    Every returned vertex has psi no larger than every excluded vertex;
    within the tied boundary value the choice is uniform from `rng`, so
    repeated calls realize each admissible set with equal probability.

    Raises
    ------
    ValueError
        If k is not in ``1..n``.
    """
    if not 1 <= k <= profile.n:
        raise ValueError(f"k must be in 1..{profile.n}, got {k}")
    labels = np.arange(1, profile.n + 1)
    return _take_extreme(labels, profile.psi[1:], k, rng, smallest=True)


def branch_sizes_at(profile: CentralityProfile, v: int) -> dict[int, int]:
    """Component sizes of the tree with `v` deleted, keyed by neighbor.

    For each neighbor u of v, the value is the size of the component of
    T minus v that contains u.  Values sum to ``n - 1``.  Read off
    ``profile.rooting``, the view's rooting, whatever its root: each child
    keeps its subtree, and v's parent, if v has one, keeps everything
    outside v's subtree.
    """
    if not 1 <= v <= profile.n:
        raise ValueError(f"vertex {v} not in 1..{profile.n}")
    parent, size = profile.rooting
    children = np.flatnonzero(parent == v)
    branches = dict(zip(children.tolist(), size[children].tolist()))
    if parent[v]:
        branches[int(parent[v])] = profile.n - int(size[v])
    return branches


def _take_extreme(
    labels: np.ndarray,
    scores: np.ndarray,
    k: int,
    rng: RngHandle,
    smallest: bool,
) -> frozenset[int]:
    """k labels of extremal score; ties at the boundary drawn uniformly."""
    keyed = scores if smallest else -scores
    boundary = np.partition(keyed, k - 1)[k - 1]
    sure = labels[keyed < boundary]
    tied = labels[keyed == boundary]
    need = k - sure.size
    if need < tied.size:
        tied = rng.generator.choice(np.sort(tied), size=need, replace=False)
    return frozenset(int(v) for v in sure) | frozenset(int(v) for v in tied)
