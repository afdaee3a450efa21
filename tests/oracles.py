"""Slow reference implementations the tests compare the library against.

Everything in here is deliberately written from the definitions, using
none of the library's internals: anti-centrality by actually deleting
each vertex and measuring components, descendant counts by walking
children lists, camouflage by transcribing its three conditions
verbatim, the Polya urn one draw and one ball at a time.  Speed does not
matter; independence does.
"""

from __future__ import annotations

import io
import itertools
import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components


def adjacency_from_edges(n: int, edges) -> list[list[int]]:
    """1-indexed adjacency lists; index 0 is padding."""
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for u, w in edges:
        adj[u].append(w)
        adj[w].append(u)
    return adj


def csr_reference(n: int, us, vs) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)`` of undirected edges by a two-key lexsort:
    each end ``(a, b)`` ordered by owner `a`, then neighbor `b`."""
    ends_a = np.concatenate([us, vs]).astype(np.int64)
    ends_b = np.concatenate([vs, us]).astype(np.int64)
    order = np.lexsort((ends_b, ends_a))
    indptr = np.zeros(n + 2, dtype=np.int64)
    np.cumsum(np.bincount(ends_a, minlength=n + 2)[:-1], out=indptr[1:])
    return indptr, ends_b[order]


def csr_neighbors(view, v: int) -> list[int]:
    """The neighbor run of vertex `v`, read straight off a view's CSR
    arrays (``indices[indptr[v]:indptr[v + 1]]``)."""
    return view.indices[view.indptr[v] : view.indptr[v + 1]].tolist()


def edge_list(view) -> list[tuple[int, int]]:
    """A view's undirected edges, smaller label first, sorted, read off
    the neighbor runs of :func:`csr_neighbors`."""
    return [
        (u, v)
        for u in range(1, view.n + 1)
        for v in csr_neighbors(view, u)
        if u < v
    ]


def arrival_degrees(tree) -> np.ndarray:
    """Degree of each vertex of an arrival tree; index 0 unused."""
    deg = np.bincount(tree.parent_of[2:], minlength=tree.n + 1)
    deg[2:] += 1
    return deg


def brute_force_psi(n: int, edges) -> list[int]:
    """Anti-centrality by deletion: for every vertex, remove it and take
    the largest remaining component, via one BFS per neighbor.  O(n^2)."""
    adj = adjacency_from_edges(n, edges)
    psi = [0] * (n + 1)
    # mark[u] == v means u was already reached while processing vertex v
    mark = [0] * (n + 1)
    for v in range(1, n + 1):
        best = 0
        for s in adj[v]:
            if mark[s] == v:
                continue
            stack = [s]
            mark[s] = v
            size = 0
            while stack:
                u = stack.pop()
                size += 1
                for w in adj[u]:
                    if w != v and mark[w] != v:
                        mark[w] = v
                        stack.append(w)
            best = max(best, size)
        psi[v] = best
    return psi[1:]


def component_size(adj: list[list[int]], v: int, away: int) -> int:
    """The number of vertices reachable from `v` without stepping onto
    `away` (0 for none: label 0 is no vertex)."""
    seen = {v, away}
    stack = [v]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) - 1


def eccentricities(adj: list[list[int]]) -> list[int]:
    """Each vertex's greatest distance to another, by one BFS per vertex;
    index 0 is padding."""
    ecc = [0] * len(adj)
    for s in range(1, len(adj)):
        dist = {s: 0}
        queue = [s]
        for u in queue:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        ecc[s] = max(dist.values())
    return ecc


def scipy_psi(n: int, edges) -> list[int]:
    """Same quantity through a second door: scipy connected components
    on the graph with the vertex's incident edges removed."""
    if n == 1:
        return [0]
    edge_list = list(edges)
    row = np.array([u - 1 for u, _ in edge_list])
    col = np.array([w - 1 for _, w in edge_list])
    psi = []
    for v in range(n):
        keep = (row != v) & (col != v)
        graph = csr_matrix(
            (np.ones(int(keep.sum())), (row[keep], col[keep])), shape=(n, n)
        )
        _, labels = connected_components(graph, directed=False)
        sizes = np.bincount(labels)
        sizes[labels[v]] -= 1  # v itself sits alone; drop it
        psi.append(int(sizes.max()))
    return psi


def _ahu_code(adj: list[list[int]], root: int) -> str:
    """Rooted canonical string (sorted-children encoding)."""
    parent = {root: 0}
    order = [root]
    for u in order:
        for w in adj[u]:
            if w not in parent:
                parent[w] = u
                order.append(w)
    code: dict[int, str] = {}
    for u in reversed(order):
        kids = sorted(code[w] for w in adj[u] if w != parent[u])
        code[u] = "(" + "".join(kids) + ")"
    return code[root]


def canonical_shape_code(n: int, edges) -> str:
    """Label-free canonical form of a free tree: AHU code rooted at the
    (brute-force) centroid, minimizing over the centroid pair if there
    are two.  Equal codes iff the trees are isomorphic."""
    edge_list = list(edges)
    psi = brute_force_psi(n, edge_list)
    low = min(psi)
    adj = adjacency_from_edges(n, edge_list)
    return min(_ahu_code(adj, v + 1) for v in range(n) if psi[v] == low)


def path_labelings(m: int) -> set[tuple]:
    """Every distinct edge set a labeled m-vertex path can have."""
    out = set()
    for seq in itertools.permutations(range(1, m + 1)):
        key = tuple(
            sorted(
                tuple(sorted((seq[i], seq[i + 1]))) for i in range(m - 1)
            )
        )
        out.add(key)
    return out


def all_recursive_parent_vectors(n: int):
    """Every possible arrival-order parent vector for an n-vertex tree."""
    return itertools.product(*(range(1, i) for i in range(2, n + 1)))


def arrival_text(parents, l: int) -> str:
    """Arrival-tree text written one f-string line per vertex."""
    lines = [f"n={len(parents) + 1} l={l}"]
    lines += [f"{i + 2} {p}" for i, p in enumerate(parents)]
    return "\n".join(lines) + "\n"


def shape_text(n: int, edges) -> str:
    """Shape text written one line per edge, smaller label first, sorted."""
    pairs = sorted((min(u, w), max(u, w)) for u, w in edges)
    return "\n".join([f"n={n}", *(f"{u} {w}" for u, w in pairs)]) + "\n"


def format_rows_reference(row_format: str, *columns) -> str:
    """One `row_format` line (one ``%d`` per column) per row of the
    equal-length integer columns, by Python's ``%`` operator: 65 536 rows
    per ``%`` call.  This is the writer that the numpy one replaced."""
    table = np.column_stack(columns)
    parts = []
    for start in range(0, len(table), 65_536):
        rows = table[start : start + 65_536]
        parts.append((row_format * len(rows)) % tuple(rows.ravel().tolist()))
    return "".join(parts)


def read_rows_reference(text: str) -> tuple[str, int, np.ndarray]:
    """Tree text as ``(header, n, rows)`` by the reader that worked on a
    stripped copy of the whole text and a ``StringIO`` of its body; any
    ValueError stands for every error the library reports by name.

    Header fields follow the row grammar: ``key=`` then ASCII digits with
    an optional sign, each key at most once.  A body character that is
    neither ASCII nor whitespace is an error.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    header, _, body = text.strip().partition("\n")
    if not header:
        raise ValueError("empty tree text")
    values = [tok[2:] for tok in header.split() if tok.startswith("n=")]
    if len(values) != 1 or not re.fullmatch(r"[+-]?[0-9]+", values[0]):
        raise ValueError(f"bad header {header!r}")
    n = int(values[0])
    if n < 1:
        raise ValueError(f"n={n} must be >= 1")
    rows = np.empty((0, 2), dtype=np.int64)
    if body:
        # Both readers refuse these before loadtxt, which misreads some as
        # digits and crashes on others.
        if re.search(r"[^\x00-\x7f\s]", body):
            raise ValueError("a character outside ASCII")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                rows = np.loadtxt(
                    io.StringIO(body), dtype=np.int64, ndmin=2, comments=None
                )
        except (ValueError, OverflowError, DeprecationWarning) as exc:
            raise ValueError(f"bad rows ({exc})") from exc
        if rows.shape[1] != 2:
            raise ValueError(f"{rows.shape[1]} fields per line")
    if len(rows) != n - 1:
        raise ValueError(f"expected {n - 1} rows, got {len(rows)}")
    return header.strip(), n, rows


def children_lists(parents) -> list[list[int]]:
    """children[v] for v = 1..n given parents[i] = parent of vertex i+2."""
    n = len(parents) + 1
    kids: list[list[int]] = [[] for _ in range(n + 1)]
    for i, p in enumerate(parents):
        kids[p].append(i + 2)
    return kids


def descendant_counts(parents) -> list[int]:
    """Proper descendants of each vertex, by explicit subtree recursion."""
    n = len(parents) + 1
    kids = children_lists(parents)

    def count(v: int) -> int:
        return sum(1 + count(c) for c in kids[v])

    return [count(v) for v in range(1, n + 1)]


def singleton_parent_labels(parents) -> set[int]:
    """Vertices whose only descendant is a leaf child."""
    kids = children_lists(parents)
    out = set()
    for v in range(1, len(parents) + 2):
        if len(kids[v]) == 1 and not kids[kids[v][0]]:
            out.add(v)
    return out


def camouflaging_labels(parents, l: int) -> set[int]:
    """Direct transcription of the three camouflaging conditions for a
    tree of at least 2l vertices (extra vertices are ignored).

    A vertex v <= l qualifies when (1) in the l-vertex prefix v is the
    parent of a singleton d, (2) some arrival w in l+1..2l attached to v
    is a leaf of the 2l-vertex prefix, and (3) d is still a leaf there.
    """
    prefix_l = parents[: l - 1]
    prefix_2l = parents[: 2 * l - 1]
    kids_l = children_lists(prefix_l)
    kids_2l = children_lists(prefix_2l)
    out = set()
    for v in range(1, l + 1):
        if len(kids_l[v]) != 1:
            continue
        d = kids_l[v][0]
        if kids_l[d]:
            continue
        if kids_2l[d]:
            continue
        window_leaf = any(
            w > l and not kids_2l[w] for w in kids_2l[v]
        )
        if window_leaf:
            out.add(v)
    return out


@dataclass(frozen=True)
class UrnState:
    """Ball counts per color of a reinforcement urn."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.counts:
            raise ValueError("urn needs at least one color")
        if any(c < 0 for c in self.counts):
            raise ValueError(f"negative ball count in {self.counts}")
        if sum(self.counts) < 1:
            raise ValueError("urn must start with at least one ball")

    @property
    def total(self) -> int:
        return sum(self.counts)

    def fraction(self, color: int = 0) -> float:
        return self.counts[color] / self.total


def polya_draw(state: UrnState, draws: int, rng) -> UrnState:
    """Draw `draws` times from `rng` (an ``RngHandle``), each time
    duplicating the ball drawn.

    A ball is picked with probability proportional to its color's count
    and one more of the same color is added.  Returns the final state;
    the input is unchanged.
    """
    if draws < 0:
        raise ValueError(f"draws must be >= 0, got {draws}")
    counts = list(state.counts)
    gen = rng.generator
    for _ in range(draws):
        total = sum(counts)
        u = int(gen.integers(0, total))
        for color, c in enumerate(counts):
            if u < c:
                counts[color] += 1
                break
            u -= c
    return UrnState(tuple(counts))


def collision_probability_exact(l: int, star: bool = False) -> Fraction:
    """Exact chance that growing the other seed to 2l-1 vertices lands on
    the target shape: falling-factorial counting, kept rational."""
    numerator = (1 if star else 2) * factorial(l - 1)
    return Fraction(numerator, factorial(2 * l - 1))
