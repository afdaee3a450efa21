"""Exact counters and estimators for grown-tree statistics.

Each counted quantity (subtree sizes, child counts, singleton parents,
camouflaging vertices) has one implementation: a loop-free function of a
``(trials, cols)`` parent matrix, as drawn by ``urrt_parent_matrix``,
whose row t holds the parents of vertices 2, 3, ... of tree t.  The
per-tree functions (``rooted_subtree_sizes``, ``singleton_parents``,
``count_camouflaging``) call it on a one-row matrix cut from
``ArrivalTree.parent_of``.  The ground truth both are tested against is
``tests/oracles.py``, written from the definitions.  Closed forms
(collision probabilities, tail bounds) live next to the estimators they
calibrate.

The Monte Carlo drivers (the collision frequencies, the tail checks,
``sample_camouflage_counts`` and the validation suites) never hold the
whole ``(trials, cols)`` matrix: ``_per_block`` draws it in row blocks
of about ``_BLOCK_ENTRIES`` entries, reduces each block to one value per
trial, and writes those into one result array.  Drawn in order, the
blocks are the rows of the one-shot matrix, so results do not depend on
the block size, and ``trials`` adds to memory only through the reduced
values.

Rooted conventions: the root is vertex 1, the descendants of v are the
vertices of v's subtree other than v itself, and a leaf is a vertex with
no children.  A vertex is a *singleton* when it is its parent's only
descendant, i.e. the parent has exactly one child and that child is a
leaf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .rng import RngHandle
from .trees import ArrivalTree

__all__ = [
    "DescendantHistogram",
    "CamouflageReport",
    "TailCheckResult",
    "CollisionProbability",
    "rooted_subtree_sizes",
    "descendant_histogram",
    "singleton_parents",
    "count_camouflaging",
    "polya_fraction_samples",
    "path_collision_probability",
    "star_collision_probability",
    "path_collision_frequency",
    "star_collision_frequency",
    "mcdiarmid_tail_check",
    "deep_tail_check",
    "urrt_parent_matrix",
    "subtree_size_matrix",
    "singleton_parent_counts",
    "camouflage_counts",
    "sample_camouflage_counts",
]


# ---------------------------------------------------------------------------
# per-tree exact counters


@dataclass(frozen=True)
class DescendantHistogram:
    """Counts of vertices by descendant number, for one tree.

    ``exactly[k]`` is the number of vertices with exactly k descendants
    (k = 0..n-1) and ``at_least[k]`` the number with at least k.  Since
    the root owns everyone else, ``exactly[n - 1] == 1`` and
    ``at_least[0] == n``.
    """

    n: int
    exactly: np.ndarray
    at_least: np.ndarray

    def __post_init__(self) -> None:
        for name in ("exactly", "at_least"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class CamouflageReport:
    """Singleton-parents of a tree prefix and the camouflaged subset.

    `l` is the prefix size the conditions were evaluated against.
    `singleton_parents` contains every v whose only descendant in the
    prefix is a single leaf child; `camouflaging` is the subset that stays
    hidden at time 2l (empty when only the prefix itself was examined).
    """

    l: int
    singleton_parents: frozenset[int]
    camouflaging: frozenset[int]

    @property
    def S(self) -> int:
        return len(self.singleton_parents)

    @property
    def G(self) -> int:
        return len(self.camouflaging)


def rooted_subtree_sizes(tree: ArrivalTree) -> np.ndarray:
    """Subtree size of each vertex with the tree rooted at 1; index 0 unused."""
    return subtree_size_matrix(tree.parent_of[2:][None])[0]


def descendant_histogram(tree: ArrivalTree) -> DescendantHistogram:
    """Exact histogram of descendant counts, read off the subtree sizes."""
    descendants = rooted_subtree_sizes(tree)[1:] - 1
    exactly = np.bincount(descendants, minlength=tree.n)
    at_least = exactly[::-1].cumsum()[::-1]
    return DescendantHistogram(tree.n, exactly, at_least)


def singleton_parents(tree: ArrivalTree) -> CamouflageReport:
    """Vertices whose only descendant is a single leaf child.

    The returned report has an empty `camouflaging` set; use
    :func:`count_camouflaging` to evaluate the time-2l conditions.
    """
    if tree.n < 2:
        raise ValueError("a tree with one vertex has no parent/child pairs")
    hits, _ = _singleton_hits(tree.parent_of[2:][None], tree.n)
    return CamouflageReport(tree.n, _labels(hits[0]), frozenset())


def count_camouflaging(tree: ArrivalTree, l: int) -> CamouflageReport:
    """Seed vertices whose singleton child stays covered up to time 2l.

    A vertex v of the size-l prefix qualifies when all three hold on the
    prefix of size 2l:

    1. in T_l, v has exactly one child d and d is a leaf of T_l;
    2. some vertex w arriving at time l+1..2l attached to v and is still
       a leaf at time 2l;
    3. d is still a leaf at time 2l.

    Raises
    ------
    ValueError
        If the tree has fewer than 2l vertices.
    """
    if l < 2:
        raise ValueError(f"prefix size must be >= 2, got {l}")
    if tree.n < 2 * l:
        raise ValueError(
            f"need at least 2l = {2 * l} vertices to evaluate the "
            f"camouflage conditions, got {tree.n}"
        )
    window_rows = tree.parent_of[2 : 2 * l + 1][None]
    singles, camouflaged = _camouflage_hits(window_rows, l)
    return CamouflageReport(l, _labels(singles[0]), _labels(camouflaged[0]))


def _labels(hit_row: np.ndarray) -> frozenset[int]:
    return frozenset(np.flatnonzero(hit_row).tolist())


# ---------------------------------------------------------------------------
# Polya urn

_INT32_MAX = int(np.iinfo(np.int32).max)


def polya_fraction_samples(
    red: int, blue: int, draws: int, runs: int, rng: RngHandle
) -> np.ndarray:
    """Final red fraction of `runs` independent two-color urns.

    Vectorized across runs: the total count is deterministic (it grows by
    one per draw), so one uniform integer per (run, draw) decides the
    color by comparison with the current red count.  Exact integer
    arithmetic throughout, in int32: numpy draws a bound below 2^31 with
    the same 32-bit bounded draw at either width, so int32 gives the
    int64 values and moves half the bytes.
    """
    if red < 0 or blue < 0:
        raise ValueError(f"negative ball count in {(red, blue)}")
    if red + blue < 1:
        raise ValueError("urn must start with at least one ball")
    if draws < 0:
        raise ValueError(f"draws must be >= 0, got {draws}")
    if red + blue + draws > _INT32_MAX:
        raise ValueError(
            f"red + blue + draws must be <= {_INT32_MAX}, "
            f"got {red + blue + draws}"
        )
    reds = np.full(runs, red, dtype=np.int32)
    gen = rng.generator
    for step in range(draws):
        total = red + blue + step
        u = gen.integers(0, total, size=runs, dtype=np.int32)
        reds += u < reds
    return reds / (red + blue + draws)


# ---------------------------------------------------------------------------
# closed forms and tail checks


class CollisionProbability(NamedTuple):
    """An exact event probability, carried in log space as well."""

    log_value: float
    value: float


def path_collision_probability(l: int) -> CollisionProbability:
    """P{the tree at time 2l is a path with the seed path at an end}.

    For a path seed of size l this is ``2 (l-1)! / (2l-1)!``: the l
    arrivals must each extend the path at the non-seed end, on one of the
    two sides.  Exact rational arithmetic for small l; log space (via
    lgamma) past l = 20 to dodge factorial overflow.
    """
    if l < 2:
        raise ValueError(f"need a path seed of size >= 2, got {l}")
    log_value = math.log(2.0) + math.lgamma(l) - math.lgamma(2 * l)
    if l <= 20:
        denominator = math.prod(range(l, 2 * l))
        value = float(Fraction(2, denominator))
    else:
        value = math.exp(log_value)
    return CollisionProbability(log_value, value)


def star_collision_probability(l: int) -> CollisionProbability:
    """P{every arrival up to time 2l attaches to the seed star's center}.

    The star analogue of :func:`path_collision_probability`, provided for
    exploration only (no matching published bound): the product of
    1/(i - 1) over arrivals i = l+1..2l is ``(l-1)! / (2l-1)!``.
    """
    if l < 2:
        raise ValueError(f"need a star seed of size >= 2, got {l}")
    log_value = math.lgamma(l) - math.lgamma(2 * l)
    if l <= 20:
        value = float(Fraction(1, math.prod(range(l, 2 * l))))
    else:
        value = math.exp(log_value)
    return CollisionProbability(log_value, value)


def path_collision_frequency(l: int, trials: int, rng: RngHandle) -> float:
    """Monte Carlo frequency of the path-collision event at time 2l.

    Grows a path seed of size l to 2l vertices `trials` times and tests
    the event structurally: every degree is at most 2 (the tree is a
    path) and one of the seed endpoints kept degree 1 (the seed segment
    sits at an end).  Independent of the closed form, which multiplies
    attachment probabilities instead.
    """
    if l < 2:
        raise ValueError(f"need a path seed of size >= 2, got {l}")
    n = 2 * l
    base = np.ones(n + 1, dtype=np.int64)
    base[0] = 0
    base[2:l] = 2  # path interior

    def collided(parents: np.ndarray) -> np.ndarray:
        deg = base + _child_counts(parents, n)
        is_path = deg[:, 1:].max(axis=1) <= 2
        return is_path & ((deg[:, 1] == 1) | (deg[:, l] == 1))

    return float(np.mean(_per_block(l, n, trials, rng, collided)))


def star_collision_frequency(l: int, trials: int, rng: RngHandle) -> float:
    """Monte Carlo frequency of the all-arrivals-hit-the-center event.

    Structural test: the seed center ends with degree 2l - 1, which for a
    tree on 2l vertices means it is adjacent to everything.
    """
    if l < 2:
        raise ValueError(f"need a star seed of size >= 2, got {l}")

    def collided(parents: np.ndarray) -> np.ndarray:
        return (parents == 1).sum(axis=1) == l

    return float(np.mean(_per_block(l, 2 * l, trials, rng, collided)))


@dataclass(frozen=True)
class TailCheckResult:
    """An empirical tail frequency next to its theoretical bound."""

    empirical: float
    theoretical: float
    trials: int

    @property
    def se(self) -> float:
        p = self.empirical
        return math.sqrt(p * (1.0 - p) / self.trials)

    @property
    def passed(self) -> bool:
        return self.empirical <= self.theoretical + 3.0 * self.se


def mcdiarmid_tail_check(
    l: int, t: float, trials: int, rng: RngHandle
) -> TailCheckResult:
    """Lower-tail frequency of the camouflage count against exp(-t^2 / 2l).

    Simulates `trials` copies of G_l (camouflaging vertices of a tree
    grown to 2l from a urrt seed, which is itself a urrt at size 2l) and
    returns the frequency of ``G_l <= l/384 - t`` with the concentration
    bound.  The caller asserts ``frequency <= bound + 3 SE``.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    counts = sample_camouflage_counts(l, trials, rng)
    threshold = l / 384.0 - t
    empirical = float(np.mean(counts <= threshold))
    bound = math.exp(-(t * t) / (2.0 * l))
    return TailCheckResult(empirical, bound, trials)


def deep_tail_check(
    n: int, k: int, trials: int, rng: RngHandle
) -> TailCheckResult:
    """Frequency of {M <= n/(3k)} against the bound k exp(-n / (32 k^2)).

    M counts the non-root vertices with at least k descendants in a
    recursive tree holding a root plus n arrivals (n + 1 vertices); that
    is the convention under which the exact mean is (n+1)/(k+1) - 1.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n <= k + 1:
        raise ValueError(f"need n > k + 1, got n={n}, k={k}")

    def deep_count(parents: np.ndarray) -> np.ndarray:
        return (subtree_size_matrix(parents)[:, 2:] - 1 >= k).sum(axis=1)

    deep = _per_block(1, n + 1, trials, rng, deep_count)
    empirical = float(np.mean(deep <= n / (3.0 * k)))
    bound = k * math.exp(-n / (32.0 * k * k))
    return TailCheckResult(empirical, bound, trials)


# ---------------------------------------------------------------------------
# batched samplers


def urrt_parent_matrix(n: int, trials: int, rng: RngHandle) -> np.ndarray:
    """Parent choices of `trials` independent size-`n` recursive trees.

    Row t holds the parents of vertices 2..n of tree t; column j draws
    uniformly from {1..j+1}.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    return _grown_parent_matrix(1, n, trials, rng)


def _grown_parent_matrix(
    l: int, n: int, trials: int, rng: RngHandle
) -> np.ndarray:
    """Uniform-attachment parents for arrivals l+1..n, one row per trial."""
    return rng.generator.integers(
        1, np.arange(l + 1, n + 1), size=(trials, n - l), dtype=np.int64
    )


#: Entries per row block of ``_per_block``: 2 MB of int64 parents, so a
#: block and the kernel temporaries built from it stay in the low MBs.
_BLOCK_ENTRIES = 2**18


def _per_block(
    l: int,
    n: int,
    trials: int,
    rng: RngHandle,
    reduce: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """``reduce`` applied to the ``(trials, n - l)`` parent matrix, by rows.

    The matrix of :func:`_grown_parent_matrix` is drawn in consecutive
    blocks of whole rows and ``reduce`` maps each block to an array with
    one leading entry per row; each result is written into one array of
    the first result's dtype, allocated after the first block.  A
    row-major draw with broadcast bounds takes the stream one entry at a
    time, so the blocks are exactly the rows of the one-shot draw.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rows = max(1, _BLOCK_ENTRIES // (n - l))
    out = None
    for start in range(0, trials, rows):
        parents = _grown_parent_matrix(l, n, min(rows, trials - start), rng)
        block = reduce(parents)
        if out is None:
            out = np.empty((trials, *block.shape[1:]), dtype=block.dtype)
        out[start : start + len(block)] = block
    return out


def subtree_size_matrix(parents: np.ndarray) -> np.ndarray:
    """Rooted subtree sizes for every tree of a parent matrix.

    Input is ``(trials, n - 1)`` as from :func:`urrt_parent_matrix`;
    output is ``(trials, n + 1)`` with column v the subtree size of vertex
    v (column 0 unused).  The rows are laid end to end as one forest, row
    t shifted by t (n + 1), and every vertex counts itself into each of
    its ancestors: one pass per tree level, so the pass count is the
    height of the tallest tree.
    """
    trials, cols = parents.shape
    width = cols + 2
    # The narrowest type that holds every flat index: the gathers and
    # add.at below move fewer bytes.  A root's parent is 0, an unused slot.
    up = np.zeros((trials, width), dtype=np.min_scalar_type(trials * width))
    up[:, 2:] = parents + width * np.arange(trials)[:, None]
    ancestors = up[:, 2:].ravel()
    up = up.ravel()
    sizes = np.ones(trials * width, dtype=np.int64)
    sizes[::width] = 0
    while ancestors.size:
        np.add.at(sizes, ancestors, 1)
        ancestors = up[ancestors]
        ancestors = ancestors[ancestors > 0]
    return sizes.reshape(trials, width)


def singleton_parent_counts(parents: np.ndarray) -> np.ndarray:
    """S (number of singleton parents) for every tree of a parent matrix."""
    hits, _ = _singleton_hits(parents, parents.shape[1] + 1)
    return hits.sum(axis=1)


def camouflage_counts(parents: np.ndarray, l: int) -> np.ndarray:
    """G for every tree of a ``(trials, 2l - 1)`` parent matrix.

    Same three conditions as :func:`count_camouflaging`, evaluated for
    all trials at once.
    """
    cols = parents.shape[1]
    if cols != 2 * l - 1:
        raise ValueError(
            f"parent matrix has {cols} columns, expected 2l - 1 = {2 * l - 1}"
        )
    _, camouflaged = _camouflage_hits(parents, l)
    return camouflaged.sum(axis=1)


def sample_camouflage_counts(
    l: int, trials: int, rng: RngHandle
) -> np.ndarray:
    """G over `trials` trees grown to 2l from urrt seeds of size l."""
    if l < 2:
        raise ValueError(f"need l >= 2, got {l}")
    return _per_block(
        1, 2 * l, trials, rng, lambda parents: camouflage_counts(parents, l)
    )


def _child_counts(parents: np.ndarray, n: int) -> np.ndarray:
    """Number of children of each vertex 0..n, as a ``(trials, n + 1)`` matrix.

    One flat bincount: row t's parents are shifted by t (n + 1), so every
    tree counts into its own stretch of the output.
    """
    trials = parents.shape[0]
    shifted = parents + (n + 1) * np.arange(trials)[:, None]
    counts = np.bincount(shifted.ravel(), minlength=trials * (n + 1))
    return counts.reshape(trials, n + 1)


def _singleton_hits(
    parents: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The singleton rule on every tree of a ``(trials, n - 1)`` parent matrix.

    Returns the ``(trials, n + 1)`` hit matrix (v has exactly one child
    and that child is a leaf) and the only-child matrix it was read from:
    wherever v has exactly one child, ``only_child[t, v]`` is its label.
    Elsewhere it holds one of v's children, or 0 if v has none.
    """
    child_count = _child_counts(parents, n)
    only_child = np.zeros_like(child_count)
    # Duplicate targets keep an arbitrary writer, which matters only
    # where v has two or more children and the rule fails anyway.
    np.put_along_axis(
        only_child, parents, np.arange(2, parents.shape[1] + 2)[None], axis=1
    )
    d_count = np.take_along_axis(child_count, only_child, axis=1)
    return (child_count == 1) & (d_count == 0), only_child


def _camouflage_hits(
    parents: np.ndarray, l: int
) -> tuple[np.ndarray, np.ndarray]:
    """Singleton parents of T_l and camouflaging vertices, per tree.

    `parents` is ``(trials, 2l - 1)``; both hit matrices are
    ``(trials, l + 1)``, indexed by vertex.
    """
    trials = parents.shape[0]
    singles, only_child = _singleton_hits(parents[:, : l - 1], l)
    count_2l = _child_counts(parents, 2 * l)
    d_leaf_2l = np.take_along_axis(count_2l, only_child, axis=1) == 0
    # Window arrivals w = l+1..2l that are still leaves at time 2l,
    # scattered onto their parents in one assignment.
    window_leaf = count_2l[:, l + 1 :] == 0
    leafy_parent = np.zeros((trials, 2 * l + 1), dtype=bool)
    rows = np.nonzero(window_leaf)[0]
    leafy_parent[rows, parents[:, l - 1 :][window_leaf]] = True
    return singles, singles & d_leaf_2l & leafy_parent[:, : l + 1]
