"""Recursive trees grown by uniform attachment from a seed.

A tree on labels ``{1..n}`` is *recursive* when every vertex ``i >= 2``
attaches to a parent with a smaller label.  Growth by uniform attachment
starts from a seed tree on ``{1..l}`` and repeatedly joins the next vertex
``i`` to a uniformly random vertex of the current tree.  Three seed
families are built in (path, star, uniform random recursive tree) plus
arbitrary recursive seeds supplied as a parent array.

Two views of a grown tree exist.  :class:`ArrivalTree` carries arrival
order and is the ground truth used for scoring.  :class:`ShapeView` is the
same graph under a uniformly random relabeling; seed finders receive only
this view, with the relabeling retained in a field that scoring code alone
may read.  A view stores its tree rooted at the centre, as per-vertex
parent and subtree-size arrays over shape labels, which depend on the
shape alone; the edge list it was built from, whose order would give the
arrival order away, is not kept.  Its CSR adjacency is built from the
rooting on first read, and no finder reads it.

Both types are immutable after construction and safe to share between
worker processes.
"""

from __future__ import annotations

import io
import re
import warnings
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import NamedTuple, NoReturn

import numpy as np

from .rng import RngHandle

__all__ = [
    "SeedKind",
    "SeedSpec",
    "ArrivalTree",
    "ShapeView",
    "build_seed",
    "grow",
    "scramble",
    "identity_view",
]


class SeedKind(str, Enum):
    PATH = "path"
    STAR = "star"
    URRT = "urrt"
    CUSTOM = "custom"


@dataclass(frozen=True)
class SeedSpec:
    """Declarative description of a seed tree on ``{1..l}``.

    Parameters
    ----------
    kind : SeedKind
        One of path, star, urrt, custom.
    l : int
        Seed size (vertex count), at least 1.
    parents : sequence of int, optional
        For custom seeds only: ``parents[j]`` is the parent of vertex
        ``j + 2`` and must lie in ``1..j+1`` (recursive labeling).  Python
        or NumPy integers, stored as a tuple of Python ints; bools and
        floats are rejected.

    Notes
    -----
    Canonical labelings: a path seed has parent ``i - 1`` for vertex ``i``;
    a star seed has center 1 and parent 1 for every other vertex.  A urrt
    seed defers its parent draws to :func:`build_seed`.
    """

    kind: SeedKind
    l: int
    parents: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        # Accept plain strings for kind; build_seed dispatches on the
        # enum members by identity.
        object.__setattr__(self, "kind", SeedKind(self.kind))
        if self.l < 1:
            raise ValueError(f"seed size must be >= 1, got {self.l}")
        if self.kind is SeedKind.CUSTOM:
            if self.parents is None:
                raise ValueError("custom seed requires a parent array")
            if len(self.parents) != self.l - 1:
                raise ValueError(
                    f"custom seed of size {self.l} needs {self.l - 1} parent "
                    f"entries, got {len(self.parents)}"
                )
            for j, p in enumerate(self.parents):
                # bool is an int subclass; NumPy's bool is not an integer.
                integral = isinstance(p, (int, np.integer))
                if isinstance(p, bool) or not integral:
                    raise ValueError(f"parents[{j}] = {p!r} is not an integer")
                if not 1 <= p <= j + 1:
                    raise ValueError(
                        f"parents[{j}] = {p} is out of range for vertex "
                        f"{j + 2}; must be in 1..{j + 1}"
                    )
            object.__setattr__(self, "parents", tuple(map(int, self.parents)))
        elif self.parents is not None:
            raise ValueError(f"{self.kind.value} seed does not take parents")

    @classmethod
    def path(cls, l: int) -> "SeedSpec":
        return cls(SeedKind.PATH, l)

    @classmethod
    def star(cls, l: int) -> "SeedSpec":
        return cls(SeedKind.STAR, l)

    @classmethod
    def urrt(cls, l: int) -> "SeedSpec":
        return cls(SeedKind.URRT, l)

    @classmethod
    def custom(cls, parents) -> "SeedSpec":
        parents = tuple(parents)
        return cls(SeedKind.CUSTOM, len(parents) + 1, parents)


@dataclass(frozen=True, eq=False)
class ArrivalTree:
    """A recursive tree with arrival order, grown from a seed of size `l`.

    Attributes
    ----------
    n : int
        Vertex count; labels are ``1..n`` in arrival order.
    l : int
        Seed size; vertices ``1..l`` with their induced edges are the seed.
    parent_of : numpy.ndarray
        Length ``n + 1``; ``parent_of[i]`` is the parent of vertex ``i``
        for ``2 <= i <= n``.  Slots 0 and 1 are 0 (the root has no parent).
        Read-only.
    """

    n: int
    l: int
    parent_of: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.l <= self.n:
            raise ValueError(f"need 1 <= l <= n, got l={self.l}, n={self.n}")
        p = np.ascontiguousarray(self.parent_of, dtype=np.int64)
        if p.shape != (self.n + 1,):
            raise ValueError(
                f"parent_of must have length n + 1 = {self.n + 1}, "
                f"got {p.shape}"
            )
        idx = np.arange(self.n + 1)
        bad = np.flatnonzero((idx >= 2) & ((p < 1) | (p >= idx)))
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"parent_of[{i}] = {int(p[i])} is not in 1..{i - 1}"
            )
        p.setflags(write=False)
        object.__setattr__(self, "parent_of", p)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArrivalTree):
            return NotImplemented
        return (
            self.n == other.n
            and self.l == other.l
            and bool(np.array_equal(self.parent_of, other.parent_of))
        )

    def to_text(self) -> str:
        """Serialize as a header line ``n=<n> l=<l>`` plus one
        ``<child> <parent>`` line per vertex 2..n in arrival order."""
        children = np.arange(2, self.n + 1)
        return f"n={self.n} l={self.l}\n" + _format_rows(
            children, self.parent_of[2:]
        )

    @classmethod
    def from_text(cls, text: str) -> "ArrivalTree":
        header, n, rows = _read_rows(text)
        l = _header_int(header, "l")
        off = np.flatnonzero(rows[:, 0] != np.arange(2, n + 1))
        if off.size:
            k = int(off[0])
            raise ValueError(
                f"line {k + 2}: expected child {k + 2} (arrival order), "
                f"got {int(rows[k, 0])}"
            )
        return cls(n, l, np.concatenate(([0, 0], rows[:, 1])))


@dataclass(frozen=True, eq=False)
class ShapeView:
    """A tree with its labels scrambled, as handed to seed finders.

    The view stores the tree rooted at a vertex: per-vertex parent and
    subtree-size arrays over shape labels.  Rooted at the centre, they are
    a function of the shape alone, so nothing about arrival order survives
    in the data a finder can touch.
    The edge list the view was built from is not kept, since its order
    would give the arrival order away.  The relabeling needed for scoring
    lives in ``_arrival_of`` and is read through :meth:`arrival_labels_of`
    by the experiment harness only; finder code must not touch it (a test
    runs every finder against a view with this field poisoned to enforce
    that).

    Attributes
    ----------
    n : int
        Vertex count; shape labels are ``1..n``.
    rooting : Rooting
        The tree rooted at one of its vertices.  Every finder ranks
        vertices through this one orientation.  Views the package builds
        are rooted at the centre, the vertex of least eccentricity (of a
        bicentral pair, the larger label); a view built by hand may be
        rooted anywhere.  Checked in O(n) on construction, which raises
        ``ValueError`` naming the broken rule, and stored read-only.
    indptr, indices : numpy.ndarray
        CSR adjacency over 1-based labels: the neighbors of ``v`` are
        ``indices[indptr[v]:indptr[v + 1]]``, ascending.  Built from the
        rooting on first read; no finder reads it.
    """

    n: int
    rooting: Rooting
    _arrival_of: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        parent, size = (
            np.ascontiguousarray(arr, dtype=np.int64) for arr in self.rooting
        )
        _check_rooting(self.n, parent, size)
        for arr in (parent, size):
            arr.setflags(write=False)
        object.__setattr__(self, "rooting", Rooting(parent, size))
        if self._arrival_of is not None:
            perm = np.ascontiguousarray(self._arrival_of, dtype=np.int64)
            perm.setflags(write=False)
            object.__setattr__(self, "_arrival_of", perm)

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray]:
        return _csr_from_parent(self.n, self.rooting.parent)

    @property
    def indptr(self) -> np.ndarray:
        return self._csr[0]

    @property
    def indices(self) -> np.ndarray:
        return self._csr[1]

    # -- scoring-harness surface; not for finders ------------------------

    def arrival_labels_of(self, vertices) -> set[int]:
        """Map shape labels back to arrival labels.  Scoring harness only."""
        if self._arrival_of is None:
            raise ValueError(
                "this view has no recorded relabeling (deserialized views "
                "cannot be scored)"
            )
        return {int(self._arrival_of[v]) for v in vertices}

    def permutation_to_text(self) -> str:
        """Serialize the hidden relabeling as ``<shape> <arrival>`` lines."""
        if self._arrival_of is None:
            raise ValueError("this view has no recorded relabeling")
        return _format_rows(np.arange(1, self.n + 1), self._arrival_of[1:])

    # -- serialization ---------------------------------------------------

    def to_text(self) -> str:
        """Header ``n=<n>`` plus sorted undirected edge lines.

        Edges are written smaller label first and sorted, never in arrival
        order, so the file carries no trace of the hidden relabeling.
        """
        child, up = _tree_edges(self.rooting.parent)
        keys = np.minimum(child, up) * (self.n + 1)
        keys += np.maximum(child, up)
        keys.sort()
        rows = _format_rows(*np.divmod(keys, self.n + 1))
        return f"n={self.n}\n" + rows

    @classmethod
    def from_text(cls, text: str) -> "ShapeView":
        header, n, rows = _read_rows(text)
        if "l=" in header:
            raise ValueError(
                "found an l= field: this is an arrival tree, not a shape view"
            )
        if rows.size and (rows.min() < 1 or rows.max() > n):
            raise ValueError(f"edge endpoint out of range 1..{n}")
        return _view_from_edges(n, rows[:, 0], rows[:, 1], arrival_of=None)


class Rooting(NamedTuple):
    """A tree oriented away from a root (see :attr:`ShapeView.rooting`).

    Attributes
    ----------
    parent : numpy.ndarray
        Length ``n + 1``; each vertex's parent, 0 for the root.
    size : numpy.ndarray
        Length ``n + 1``; the vertex count of each vertex's subtree, that
        is, of its component away from its parent.  Slot 0 holds 0.

    A view checks, and then makes read-only, that slot 0 holds 0 in both
    arrays, every parent lies in ``0..n``, exactly one vertex of ``1..n``
    has parent 0, every size lies in ``1..n``, and each size is 1 plus the
    sum of its children's sizes.  Together these hold exactly when the
    parents form one tree on ``1..n`` and the sizes are its subtree sizes.
    """

    parent: np.ndarray
    size: np.ndarray


def build_seed(spec: SeedSpec, rng: RngHandle) -> ArrivalTree:
    """Construct the seed tree described by `spec`.

    Path, star, and custom seeds are deterministic and do not draw from
    `rng`; a urrt seed draws each parent uniformly from the earlier labels.
    """
    l = spec.l
    parent_of = np.zeros(l + 1, dtype=np.int64)
    if l >= 2:
        if spec.kind is SeedKind.PATH:
            parent_of[2:] = np.arange(1, l)
        elif spec.kind is SeedKind.STAR:
            parent_of[2:] = 1
        elif spec.kind is SeedKind.URRT:
            parent_of[2:] = rng.generator.integers(1, np.arange(2, l + 1))
        else:
            parent_of[2:] = spec.parents
    return ArrivalTree(l, l, parent_of)


def grow(tree: ArrivalTree, n: int, rng: RngHandle) -> ArrivalTree:
    """Extend `tree` to `n` vertices by uniform attachment.

    Each new vertex ``i`` attaches to a parent drawn uniformly from
    ``{1..i-1}``, independently.  The input tree is not modified.

    Raises
    ------
    ValueError
        If ``n < tree.n``.
    """
    if n < tree.n:
        raise ValueError(f"cannot shrink a tree: n={n} < {tree.n}")
    parent_of = np.zeros(n + 1, dtype=np.int64)
    parent_of[: tree.n + 1] = tree.parent_of
    if n > tree.n:
        # integers() takes an array-valued exclusive upper bound, so one
        # call draws every arrival's parent from its own range {1..i-1}.
        parent_of[tree.n + 1 :] = rng.generator.integers(
            1, np.arange(tree.n + 1, n + 1)
        )
    return ArrivalTree(n, tree.l, parent_of)


def scramble(tree: ArrivalTree, rng: RngHandle) -> ShapeView:
    """Hide arrival order behind a uniformly random relabeling.

    Returns the :class:`ShapeView` of the input tree under a fresh uniform
    permutation of ``{1..n}``, rooted at its centre, with the permutation
    recorded for the scoring harness.
    """
    n = tree.n
    shape_of = np.zeros(n + 1, dtype=np.int64)
    shape_of[1:] = rng.generator.permutation(n) + 1
    arrival_of = np.zeros(n + 1, dtype=np.int64)
    arrival_of[shape_of[1:]] = np.arange(1, n + 1)
    us = shape_of[2:]
    vs = shape_of[tree.parent_of[2:]]
    return _view_from_edges(n, us, vs, arrival_of)


def identity_view(tree: ArrivalTree) -> ShapeView:
    """A :class:`ShapeView` whose labels coincide with arrival labels.

    Used where adjacency algorithms should run on the ground truth itself,
    e.g. computing centrality of a deserialized arrival tree.
    """
    n = tree.n
    children = np.arange(2, n + 1)
    return _view_from_edges(
        n, children, tree.parent_of[2:], np.arange(n + 1, dtype=np.int64)
    )


def _view_from_edges(
    n: int,
    us: np.ndarray,
    vs: np.ndarray,
    arrival_of: np.ndarray | None,
) -> ShapeView:
    """The view of the tree with edges ``us[i] -- vs[i]`` on labels ``1..n``.

    The edges are rooted by :func:`_peel` and then dropped: the view keeps
    only the rooting, so the order the edges came in leaves no trace.  The
    CSR adjacency and :meth:`ShapeView.to_text` pack an edge ``(a, b)``
    into the int64 key ``a * (n + 1) + b``, whose largest value is
    ``(n + 1)**2 - 1``, so `n` must satisfy ``(n + 1)**2 <= 2**63 - 1``.

    Raises
    ------
    ValueError
        If `n` is too large for the packed key, or the edges do not form a
        tree on ``1..n``.
    """
    if (int(n) + 1) ** 2 > 2**63 - 1:
        raise ValueError(f"n={n} is too large for an int64 edge key")
    return ShapeView(n, _peel(n, us, vs), arrival_of)


def _peel(n: int, us: np.ndarray, vs: np.ndarray) -> Rooting:
    """Root the tree at its centre by peeling leaves, all of a round at once.

    Each vertex keeps its degree and the sum of its remaining neighbours'
    labels, both read straight off the edge ends.  A leaf's one neighbour,
    its parent, is that sum.  Peeling a leaf adds its size into its parent
    and takes its degree and label off the parent's; a parent left at
    degree 1 is a leaf of the next round.  The vertex left over is the
    centre.  When the last edge joins two leaves, only the smaller label is
    peeled and the larger is the root.  Labels must lie in ``0..n``.

    ``n - 1`` edges, none at label 0, form a tree exactly when they hold
    no cycle.  A cycle, a repeated edge or a self-loop keeps its vertices
    at degree 2 or more, however many leaves are peeled.

    Raises
    ------
    ValueError
        If the edges do not form a tree on ``1..n``.
    """
    degree = np.bincount(np.concatenate([us, vs]), minlength=n + 1)
    if degree[0] or len(us) != n - 1:
        raise ValueError(
            f"edge list is not a connected tree: {len(us)} edges "
            f"for {n} vertices, {degree[0]} of them at label 0"
        )
    link = np.zeros(n + 1, dtype=np.int64)
    np.add.at(link, us, vs)
    np.add.at(link, vs, us)
    parent = np.zeros(n + 1, dtype=np.int64)
    size = np.ones(n + 1, dtype=np.int64)
    size[0] = 0
    leaves = np.flatnonzero(degree == 1)
    while leaves.size:
        up = link[leaves]
        if leaves.size == 2 and up[0] == leaves[1]:
            # The last edge joins two leaves; the larger label stays.
            leaves, up = leaves[:1], up[:1]
        parent[leaves] = up
        np.add.at(size, up, size[leaves])
        np.subtract.at(degree, up, 1)
        np.subtract.at(link, up, leaves)
        # A parent of several leaves is listed once per leaf.
        up = up[degree[up] == 1]
        up.sort()
        first = np.ones(up.size, dtype=bool)
        first[1:] = up[1:] != up[:-1]
        leaves = up[first]
    cyclic = np.count_nonzero(degree > 1)
    if cyclic:
        raise ValueError(
            f"edge list is not a connected tree: a cycle keeps {cyclic} of "
            f"{n} vertices from being peeled"
        )
    return Rooting(parent, size)


def _check_rooting(n: int, parent: np.ndarray, size: np.ndarray) -> None:
    """Refuse a rooting that is not a tree on ``1..n`` with its subtree
    sizes, naming the first rule it breaks (see :class:`Rooting`).

    With a single root and every size positive, the size rule rules out a
    cycle: each vertex on it would be larger than the one before.  The
    child sums are int64 and at most ``n * n``, so they are exact; one
    scratch array of n + 1 is the check's only allocation.
    """
    if parent.shape != (n + 1,) or size.shape != (n + 1,):
        raise ValueError(f"rooting arrays must have length n + 1 = {n + 1}")
    roots = n - np.count_nonzero(parent[1:])
    if roots != 1:
        raise ValueError(f"rooting has {roots} roots among 1..{n}, not one")
    if parent[0] or size[0]:
        raise ValueError("rooting slot 0 must hold 0 in both arrays")
    if parent.min() < 0 or parent.max() > n:
        raise ValueError(f"rooting has a parent outside 0..{n}")
    if size[1:].min() < 1 or size.max() > n:
        raise ValueError(f"rooting has a subtree size outside 1..{n}")
    child_sum = np.ones(n + 1, dtype=np.int64)
    np.add.at(child_sum, parent, size)
    child_sum -= size
    if child_sum[1:].any():
        raise ValueError("rooting breaks size = 1 + its children's sizes")


def _tree_edges(parent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each edge of a rooted tree once, as ``(child, parent)`` columns."""
    child = np.flatnonzero(parent)
    return child, parent[child]


def _csr_from_parent(
    n: int, parent: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Read-only CSR ``(indptr, indices)`` of a rooted tree's edges, with
    each neighbor run sorted.

    Each directed end ``(a, b)`` is packed into one int64 key
    ``a * (n + 1) + b``; one in-place sort of the keys orders the ends by
    owner, then neighbor, and ``key % (n + 1)`` reads the neighbor back.
    """
    child, up = _tree_edges(parent)
    keys = np.concatenate([child, up], dtype=np.int64)
    indptr = np.zeros(n + 2, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n + 2)[:-1], out=indptr[1:])
    keys *= n + 1
    keys += np.concatenate([up, child])
    keys.sort()
    keys %= n + 1
    for arr in (indptr, keys):
        arr.setflags(write=False)
    return indptr, keys


#: Rows per buffer in :func:`_format_rows`.
_FORMAT_SLICE_ROWS = 65_536


def _digit_words() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The four ASCII digits of each k in 0..9999 as one uint32 word.

    A word's bytes are its digits left to right in memory order, on any
    byte order.  Three tables: every digit; leading zeros as NUL (0 is
    ``"\\0\\0\\00"``), for the leading chunk of a number; and the same but
    0 all NUL, for a leading chunk with more chunks after it.
    """
    k = np.arange(10_000)
    digits = np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10], axis=1)
    full = (digits + ord("0")).astype(np.uint8)
    blank = np.where(digits.cumsum(axis=1) == 0, 0, full).astype(np.uint8)
    leading = blank.copy()
    leading[0, 3] = ord("0")
    tables = tuple(t.view(np.uint32).ravel() for t in (full, leading, blank))
    for table in tables:
        table.setflags(write=False)
    return tables


_FULL_WORDS, _LEADING_WORDS, _BLANK_WORDS = _digit_words()


def _words(raw: bytes, count: int) -> np.ndarray:
    """`raw` padded with NUL to `count` uint32 words."""
    return np.frombuffer(raw.ljust(4 * count, b"\0"), np.uint32)


def _format_rows(
    *columns: np.ndarray, sep: str = " ", prefix: str = ""
) -> str:
    """One line ``prefix + sep.join(fields) + "\\n"`` per row of the
    equal-length integer or bool columns, each field in decimal.

    Each slice of `_FORMAT_SLICE_ROWS` rows is laid out in one uint32
    buffer, a row per line: the prefix, then per column a sign word (only
    if the slice holds a negative value), the magnitude's base-10 000
    chunks as four-digit words (as many as the slice's largest magnitude
    needs), and a separator slot, which after the last column holds the
    newline.  Leading zeros and the padding of text to whole words are
    NUL bytes, and one ``translate`` pass deletes them.

    Raises
    ------
    ValueError
        If `sep` or `prefix` holds a NUL, or the columns differ in length.
    """
    if "\0" in sep or "\0" in prefix:
        raise ValueError("sep and prefix must not contain NUL")
    # surrogatepass keeps any str, a lone surrogate too, as the % operator
    # did; a path argument that is not UTF-8 decodes to such surrogates.
    raw_prefix = prefix.encode("utf-8", "surrogatepass")
    raw_sep = sep.encode("utf-8", "surrogatepass")
    head = _words(raw_prefix, -(-len(raw_prefix) // 4))
    slot = max(1, -(-len(raw_sep) // 4))
    seps, end = _words(raw_sep, slot), _words(b"\n", slot)
    table = np.column_stack(columns).astype(np.int64, copy=False)
    cols = table.shape[1]
    parts = []
    for start in range(0, len(table), _FORMAT_SLICE_ROWS):
        part = table[start : start + _FORMAT_SLICE_ROWS]
        rows = len(part)
        # |v| as uint64 is right for every int64, -2**63 included.
        mag = np.abs(part).view(np.uint64)
        chunks = max(1, -(-len(str(int(mag.max()))) // 4))
        signed = int(int(part.min()) < 0)
        width = signed + chunks + slot
        buf = np.empty((rows, head.size + cols * width), np.uint32)
        buf[:, : head.size] = head
        fields = buf[:, head.size :].reshape(rows, cols, width)
        if signed:
            fields[:, :, 0] = (part < 0) * _words(b"-", 1)
        # Chunk i (0 the least significant) leads when no higher chunk is
        # nonzero, i.e. when the magnitude is below 10 000**(i + 1).
        rest = mag
        for i in range(chunks - 1):
            rest, chunk = np.divmod(rest, np.uint64(10_000))
            chunk = chunk.view(np.int64)
            leading = _BLANK_WORDS if i else _LEADING_WORDS
            fields[:, :, signed + chunks - 1 - i] = np.where(
                mag < 10_000 ** (i + 1), leading[chunk], _FULL_WORDS[chunk]
            )
        top = _BLANK_WORDS if chunks > 1 else _LEADING_WORDS
        fields[:, :, signed] = top[rest.view(np.int64)]
        fields[:, :, -slot:] = seps
        fields[:, -1, -slot:] = end
        text = buf.tobytes().translate(None, b"\0")
        parts.append(text.decode("utf-8", "surrogatepass"))
    return "".join(parts)


#: Leading whitespace, by the rule of ``str.strip``.
_SPACE = re.compile(r"\s*")
#: A character that is neither ASCII nor whitespace.  NumPy's loadtxt
#: (2.4) reads thousands of them as digits ("\u01fe" as 462) and crashes
#: the interpreter on some others, so none may reach it.
_FOREIGN = re.compile(r"[^\x00-\x7f\s]")


def _split_header(text: str) -> tuple[str, int]:
    """The first non-blank line of `text`, stripped, and the offset just
    past its newline (past the end of `text` if it has none).  Only the
    header line is copied."""
    start = _SPACE.match(text).end()
    end = text.find("\n", start)
    if end < 0:
        end = len(text)
    return text[start:end].strip(), end + 1


def _read_rows(text: str) -> tuple[str, int, np.ndarray]:
    """Split tree text into its header line, the header's ``n`` and the
    ``n - 1`` rows below it as an int64 array of shape ``(n - 1, 2)``.

    Lines end in ``\n``, ``\r\n`` or ``\r``; blank lines are skipped.
    Errors number the non-blank lines from 1, the header being line 1.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    header, body_start = _split_header(text)
    if not header:
        raise ValueError("empty tree text")
    n = _header_int(header, "n")
    body = text[body_start:]
    rows = np.empty((0, 2), dtype=np.int64)
    # loadtxt warns on a body without rows (header only, n = 1); it skips
    # lines of str.isspace whitespace, so trailing ones need no strip.
    if body and not body.isspace():
        if not body.isascii() and _FOREIGN.search(body):
            _raise_bad_row(body, "a character outside ASCII")
        try:
            with warnings.catch_warnings():
                # Some NumPy versions read "1.7" as the int 1 and only warn;
                # make that warning a parse failure.
                warnings.simplefilter("error", DeprecationWarning)
                # Bytes, not a StringIO: that would hold a 4-byte-per-char
                # copy of the body.
                rows = np.loadtxt(
                    io.BytesIO(body.encode("utf-8")),
                    dtype=np.int64,
                    ndmin=2,
                    comments=None,
                    encoding="utf-8",
                )
        except (ValueError, OverflowError, DeprecationWarning) as exc:
            _raise_bad_row(body, str(exc))
        if rows.shape[1] != 2:
            _raise_bad_row(body, f"{rows.shape[1]} fields per line")
    if len(rows) != n - 1:
        raise ValueError(
            f"expected {n - 1} edge lines for n={n}, got {len(rows)}"
        )
    return header, n, rows


#: An integer field of a row or the header: ASCII digits, an optional sign.
_INT_FIELD = re.compile(r"[+-]?[0-9]+")


def _raise_bad_row(body: str, why: str) -> NoReturn:
    """Name the first row that is not two int64 fields, splitting rows and
    fields as loadtxt does (error path only); `why` is loadtxt's complaint,
    kept should the scan find no such row.  A field of more than 19
    significant digits is out of range before ``int()`` sees it, which
    refuses strings of more than 4300 digits."""
    rows = filter(None, (row.strip() for row in body.split("\n")))
    for lineno, row in enumerate(rows, start=2):
        fields = row.split()
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected two fields, got {row!r}")
        if not all(
            _INT_FIELD.fullmatch(f)
            and len(f.lstrip("+-0")) <= 19
            and -(2**63) <= int(f) < 2**63
            for f in fields
        ):
            raise ValueError(
                f"line {lineno}: non-integer or out-of-range field in {row!r}"
            )
    raise ValueError(f"edge lines are not two int64 fields each ({why})")


def _header_int(header: str, key: str) -> int:
    """The value of the one ``key=<int>`` field of `header`, at least 1."""
    tokens = [tok for tok in header.split() if tok.startswith(f"{key}=")]
    if not tokens:
        raise ValueError(f"header {header!r} lacks required field {key}=")
    if len(tokens) > 1:
        raise ValueError(f"header field {key}= is given {len(tokens)} times")
    tok = tokens[0]
    field = tok[len(key) + 1 :]
    if not _INT_FIELD.fullmatch(field):
        raise ValueError(f"bad header field {tok!r}")
    try:
        value = int(field)
    except ValueError as exc:  # more digits than int() converts
        raise ValueError(f"bad header field {tok!r}") from exc
    if value < 1:
        raise ValueError(f"header field {key}={value} must be >= 1")
    return value
