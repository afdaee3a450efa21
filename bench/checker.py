"""Independent checker for the benchmark's outputs.

Everything here is derived from two pieces of ground truth: the arrival
parent array (``parent[i] < i`` for every vertex ``i >= 2``) and the
hidden permutation (``arrival_of[shape label] = arrival label``).  Subtree
sizes, psi, centroids and branch sizes come from one descending pass over
the parent array in plain Python; nothing here imports ``seed_archeology``,
so a fault in the package's centrality code, its statistics or its CSR
views cannot hide itself by agreeing with a copy of itself.

Each ``check_*`` function raises :class:`CheckFailed` with a reason.
``python3 bench/checker.py`` runs the self-test, which shows the checks
accept a genuine grown tree and reject planted faults.
"""

from __future__ import annotations

import json
import math
from array import array
from fractions import Fraction

import numpy as np


class CheckFailed(Exception):
    """An output disagrees with the checker."""


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


# ---------------------------------------------------------------------------
# ground truth from the arrival parent array


class Truth:
    """Subtree sizes, psi and centroids of one tree, in both label systems.

    `parent` has length n + 1 with ``parent[i] < i`` for i >= 2 (arrival
    labels); `arrival_of` has length n + 1 and maps shape labels to
    arrival labels (slot 0 unused).
    """

    def __init__(self, parent: np.ndarray, arrival_of: np.ndarray):
        parent = np.asarray(parent, dtype=np.int64)
        arrival_of = np.asarray(arrival_of, dtype=np.int64)
        n = parent.size - 1
        require(n >= 1, "empty tree")
        require(
            bool(np.all((parent[2:] >= 1) & (parent[2:] < np.arange(2, n + 1)))),
            "parent array is not recursive",
        )
        require(arrival_of.size == n + 1, "permutation has the wrong length")
        require(
            bool(np.array_equal(np.sort(arrival_of[1:]), np.arange(1, n + 1))),
            "hidden relabeling is not a permutation of 1..n",
        )
        # Flat int64 arrays keep a 10^6-vertex sweep near 8 MB apiece.
        par = array("q", parent.tobytes())
        size = array("q", [1]) * (n + 1)
        size[0] = 0
        biggest_child = array("q", [0]) * (n + 1)
        # parent[i] < i, so one descending sweep settles every subtree.
        for i in range(n, 1, -1):
            p = par[i]
            s = size[i]
            size[p] += s
            if s > biggest_child[p]:
                biggest_child[p] = s
        self.n = n
        self.parent = parent
        self.size = np.frombuffer(size, dtype=np.int64).copy()
        psi_arrival = np.maximum(np.frombuffer(biggest_child, dtype=np.int64), n - self.size)
        psi_arrival[0] = 0
        self.arrival_of = arrival_of
        self.shape_of = np.zeros(n + 1, dtype=np.int64)
        self.shape_of[arrival_of[1:]] = np.arange(1, n + 1)
        #: psi by shape label; slot 0 unused.
        self.psi = psi_arrival[arrival_of]
        self.psi[0] = 0
        best = int(self.psi[1:].min())
        self.centroids = frozenset(int(v) for v in np.flatnonzero(self.psi[1:] == best) + 1)

    def branch_sizes(self, v: int) -> dict[int, int]:
        """Component sizes of the tree minus shape vertex v, by shape neighbor."""
        a = int(self.arrival_of[v])
        out = {
            int(self.shape_of[c]): int(self.size[c])
            for c in np.flatnonzero(self.parent == a)
            if c >= 2
        }
        if a >= 2:
            out[int(self.shape_of[self.parent[a]])] = int(self.n - self.size[a])
        return out


# ---------------------------------------------------------------------------
# finder formulas


def target_path(l: int, gamma: float) -> int:
    return max(1, math.floor((1 - Fraction(str(gamma))) * l))


def target_star(l: int, gamma: float) -> int:
    return math.ceil((1 + Fraction(str(gamma))) * l)


def target_urrt(l: int, epsilon: float) -> int:
    a = 2.0 * math.log(4.0 * l * l / epsilon) + 1.0
    return max(1, math.floor(l / (3.0 * a)))


# ---------------------------------------------------------------------------
# checks


def check_edges(truth: Truth, us: np.ndarray, vs: np.ndarray) -> None:
    """The shape's edges are the arrival edges mapped through the permutation."""
    n = truth.n
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    require(us.size == n - 1 and vs.size == n - 1, f"shape has {us.size} edges, expected {n - 1}")
    children = np.arange(2, n + 1)
    a = truth.shape_of[children]
    b = truth.shape_of[truth.parent[children]]
    want = np.sort(np.minimum(a, b) * (n + 1) + np.maximum(a, b))
    got = np.sort(np.minimum(us, vs) * (n + 1) + np.maximum(us, vs))
    require(bool(np.array_equal(want, got)), "shape edges differ from the permuted arrival edges")


def csr_edges(indptr: np.ndarray, indices: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each undirected edge once, read from CSR arrays over labels 1..n."""
    hosts = np.repeat(np.arange(n + 1), np.diff(indptr[: n + 2]))
    keep = hosts < indices
    return hosts[keep], indices[keep]


def check_most_central(truth: Truth, vertices, target: int) -> None:
    """`vertices` is a set of `target` vertices of smallest psi."""
    chosen = np.fromiter(sorted(vertices), dtype=np.int64)
    require(chosen.size == target, f"output has {chosen.size} vertices, target is {target}")
    require(
        chosen.size == 0 or (chosen[0] >= 1 and chosen[-1] <= truth.n),
        "output vertex out of range",
    )
    excluded = np.ones(truth.n + 1, dtype=bool)
    excluded[0] = False
    excluded[chosen] = False
    if excluded.any() and chosen.size:
        require(
            int(truth.psi[chosen].max()) <= int(truth.psi[excluded].min()),
            "an excluded vertex is more central than a returned one",
        )


def check_star(truth: Truth, vertices, center: int, target: int, deficit: bool) -> bool:
    """Center is a centroid and the rest are its largest branches.

    Returns whether the ranking branch (no deficit) was taken.
    """
    require(center in truth.centroids, f"star center {center} is not a centroid")
    branches = truth.branch_sizes(center)
    rest = set(vertices) - {center}
    require(center in vertices, "star output lacks its center")
    require(rest <= set(branches), "star output holds a non-neighbor of the center")
    want = target - 1
    if len(branches) < want:
        require(deficit, "center degree is short of the target but deficit is not set")
        require(rest == set(branches), "deficit output is not the center's whole neighborhood")
        return False
    require(not deficit, "deficit set although the center has enough neighbors")
    require(len(rest) == want, f"star output has {len(rest) + 1} vertices, target is {target}")
    excluded = [s for u, s in branches.items() if u not in rest]
    if excluded:
        require(
            min(branches[u] for u in rest) >= max(excluded),
            "a larger branch was left out of the star output",
        )
    return True


def trial_row(truth: Truth, vertices, l: int, deficit: bool) -> dict[str, int]:
    """The scoring fields of a trial's CSV row, recomputed."""
    arrivals = truth.arrival_of[np.fromiter(vertices, dtype=np.int64)]
    overlap = int(np.count_nonzero(arrivals <= l))
    size = int(arrivals.size)
    return {
        "success_first": int(overlap == size),
        "success_second": int(overlap == l),
        "overlap": overlap,
        "output_size": size,
        "deficit": int(deficit),
    }


def check_csv_row(csv_text: str, trial: int, expected: dict[str, int]) -> None:
    """The CSV has one row for `trial` whose named fields equal `expected`."""
    lines = csv_text.strip().splitlines()
    require(len(lines) == 2, f"expected a header and one row, got {len(lines)} lines")
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    require(row.get("trial") == str(trial), f"CSV row is for trial {row.get('trial')}")
    for key, value in expected.items():
        require(row.get(key) == str(value), f"CSV {key}={row.get(key)}, checker says {value}")


def check_centrality_rows(truth: Truth, table: np.ndarray) -> None:
    """`table` rows are (vertex, psi, is_centroid) for every vertex in order."""
    n = truth.n
    require(table.shape == (n, 3), f"centrality table has shape {table.shape}")
    require(bool(np.array_equal(table[:, 0], np.arange(1, n + 1))), "vertex column is not 1..n")
    require(bool(np.array_equal(table[:, 1], truth.psi[1:])), "psi column differs from the checker")
    flags = np.zeros(n, dtype=np.int64)
    flags[np.fromiter(truth.centroids, dtype=np.int64) - 1] = 1
    require(bool(np.array_equal(table[:, 2], flags)), "centroid column differs from the checker")


def check_descendant_rows(truth: Truth, table: np.ndarray) -> None:
    """`table` rows are (k, exactly, at_least), k = 0, 1, ... while at_least > 0.

    `exactly` counts vertices with k descendants, `at_least` those with k or more.
    """
    exactly = np.bincount(truth.size[1:] - 1, minlength=truth.n)
    at_least = np.cumsum(exactly[::-1])[::-1]
    rows = int(np.count_nonzero(at_least))
    require(table.shape == (rows, 3), f"descendant report has shape {table.shape}, expected {rows} rows")
    require(bool(np.array_equal(table[:, 0], np.arange(rows))), "k column is not 0, 1, ...")
    require(bool(np.array_equal(table[:, 1], exactly[:rows])), "exactly column differs from the checker")
    require(bool(np.array_equal(table[:, 2], at_least[:rows])), "at_least column differs from the checker")


def singleton_parent_count(truth: Truth) -> int:
    """Vertices with exactly one child, that child being a leaf."""
    n = truth.n
    kids = np.bincount(truth.parent[2:], minlength=n + 1)
    only = np.zeros(n + 1, dtype=np.int64)
    only[truth.parent[2:]] = np.arange(2, n + 1)  # one child: that child
    single = np.flatnonzero(kids == 1)
    return int(np.count_nonzero(kids[only[single]] == 0))


# ---------------------------------------------------------------------------
# formula suites: exact values the suites must compare against

SUITE_EXACT = {
    "descendants": [51 / ((k + 1) * (k + 2)) for k in (0, 1, 2, 3)]
    + [51 / (k + 1) - 1 for k in (1, 2, 4, 8)],
    "singletons": [l / 6 for l in (3, 6, 12, 60)],
    "camouflage": [60 / 384],
    # The variance entry is left unchecked: the suite compares against the
    # limiting Beta variance instead of the exact one (see CHANGES.md).
    "polya": [3 / 10, None],
    "tails": [math.exp(-64 / 32)] + [math.exp(-t * t / 120) for t in (5.0, 30.0)],
}


def check_suite_report(report: dict, suite: str, trials: int) -> bool:
    """Validate a validate_formulas report; return its own verdict."""
    require(report.get("suite") == suite and report.get("trials") == trials, "report is for another run")
    checks = report["checks"]
    exact = SUITE_EXACT[suite]
    require(len(checks) == len(exact), f"{suite}: {len(checks)} checks, expected {len(exact)}")
    for check, value in zip(checks, exact):
        for key in ("empirical", "theoretical", "se"):
            require(math.isfinite(check[key]), f"{suite}: {check['name']} {key} is not finite")
        if value is not None:
            require(
                math.isclose(check["theoretical"], value, rel_tol=1e-12),
                f"{suite}: {check['name']} compares against {check['theoretical']}, exact is {value}",
            )
    verdict = report["passed"]
    require(verdict == all(c["passed"] for c in checks), f"{suite}: verdict is not the conjunction")
    return bool(verdict)


# ---------------------------------------------------------------------------
# text parsing (numpy only; no package code)


def parse_table(data: bytes, columns: int, skip_lines: int = 1, drop: bytes = b"") -> np.ndarray:
    """Integer rows of `columns` fields after `skip_lines` header lines.

    Commas count as spaces and `drop` (such as a repeated path column) is
    removed first.  Every line must hold exactly `columns` integers.
    """
    for _ in range(skip_lines):
        data = data[data.index(b"\n") + 1 :]
    if drop:
        data = data.replace(drop, b"")
    data = data.replace(b",", b" ")
    lines = data.count(b"\n") + (not data.endswith(b"\n"))
    values = np.fromstring(data, dtype=np.int64, sep=" ")
    require(values.size == lines * columns, "text output is not a table of integers")
    return values.reshape(lines, columns)


def header_fields(data: bytes) -> dict[str, int]:
    line = data[: data.index(b"\n")].decode()
    return {k: int(v) for k, v in (tok.split("=") for tok in line.split())}


def parse_find_output(text: str) -> tuple[list[int], dict]:
    lines = text.strip().splitlines()
    return [int(v) for v in lines[:-1]], json.loads(lines[-1])


# ---------------------------------------------------------------------------
# self-test: genuine outputs pass, planted faults are rejected


def _rejects(check, *args) -> bool:
    try:
        check(*args)
    except CheckFailed:
        return True
    return False


def selftest() -> list[str]:
    """Run the planted-fault self-test; return the failures (empty if sound)."""
    rng = np.random.default_rng(20180105)
    n, l = 400, 20
    parent = np.zeros(n + 1, dtype=np.int64)
    parent[2:] = rng.integers(1, np.arange(2, n + 1))
    arrival_of = np.zeros(n + 1, dtype=np.int64)
    arrival_of[1:] = rng.permutation(n) + 1
    truth = Truth(parent, arrival_of)
    shape_of = truth.shape_of
    us, vs = shape_of[np.arange(2, n + 1)], shape_of[parent[2:]]

    # A brute-force psi over an edge list, to confirm the truth itself.
    adjacency = [[] for _ in range(n + 1)]
    for u, v in zip(us.tolist(), vs.tolist()):
        adjacency[u].append(v)
        adjacency[v].append(u)
    brute = [0] * (n + 1)
    for v in range(1, n + 1):
        seen = {v}
        for start in adjacency[v]:
            stack, comp = [start], 0
            seen.add(start)
            while stack:
                x = stack.pop()
                comp += 1
                for y in adjacency[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            brute[v] = max(brute[v], comp)

    failures = []
    if truth.psi.tolist() != brute:
        failures.append("checker psi differs from brute force")
    order = np.argsort(truth.psi[1:], kind="stable") + 1
    top = frozenset(int(v) for v in order[:5])
    labels = np.arange(1, n + 1)
    table = np.column_stack([labels, truth.psi[1:], np.isin(labels, list(truth.centroids))]).astype(np.int64)
    row = trial_row(truth, top, l, False)
    csv = "trial,success_first,success_second,overlap,output_size,deficit,elapsed_ns\n" + (
        f"0,{row['success_first']},{row['success_second']},{row['overlap']},{row['output_size']},0,0\n"
    )
    genuine = [
        ("edges", check_edges, (truth, us, vs)),
        ("most central", check_most_central, (truth, top, 5)),
        ("centrality table", check_centrality_rows, (truth, table)),
        ("csv row", check_csv_row, (csv, 0, row)),
    ]
    for name, check, args in genuine:
        if _rejects(check, *args):
            failures.append(f"genuine {name} was rejected")

    rewired = vs.copy()
    rewired[0] = next(v for v in range(1, n + 1) if v not in (us[0], vs[0]))
    bad_psi = table.copy()
    bad_psi[n // 2, 1] += 1
    fields = csv.splitlines()[1].split(",")
    fields[3] = str(row["overlap"] + 1)
    bad_csv = csv.splitlines()[0] + "\n" + ",".join(fields) + "\n"
    worse = frozenset(set(top) - {int(order[0])} | {int(order[-1])})
    planted = [
        ("one rewired edge", check_edges, (truth, us, rewired)),
        ("one changed psi value", check_centrality_rows, (truth, bad_psi)),
        ("one CSV row with a wrong overlap", check_csv_row, (bad_csv, 0, row)),
        ("a less central vertex swapped in", check_most_central, (truth, worse, 5)),
    ]
    for name, check, args in planted:
        if not _rejects(check, *args):
            failures.append(f"planted fault not caught: {name}")
    return failures


if __name__ == "__main__":
    problems = selftest()
    for line in problems:
        print(line)
    print("checker self-test:", "FAIL" if problems else "ok")
    raise SystemExit(1 if problems else 0)
