"""Span tracing from outside the package, and the per-layer metrics.

:func:`install` replaces each traced public function at the name its
caller looks it up under (``finders.anti_centrality``, ``experiment.grow``,
``ShapeView.from_text``, the entries of ``experiment._FINDERS``, ...)
with a wrapper that records a span: name, start, end, the enclosing span
and the operation it belongs to.  Spans stay in memory; :meth:`Tracer.dump`
writes them out once the run ends.  Outside an operation the wrappers only
forward the call, so the benchmark's own checks leave no spans.

A span's self time is its duration minus the durations of the spans
directly under it.  The package is single-threaded, so child spans never
overlap and their durations simply add.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        # Each span: [name, start_ns, end_ns, parent index or -1, op, note].
        self.spans: list[list] = []
        self.op = -1
        self.recording = False
        self._stack: list[int] = []

    def wrap(self, fn, name, note=None):
        """A wrapper around `fn` that records spans while an op runs.

        `name` is a string or a function of the call's arguments; `note`,
        if given, maps (args, result) to a number kept on the span.
        """
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            label = name if isinstance(name, str) else name(args)
            stack = tracer._stack
            span = [label, 0, 0, stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if note is not None:
                span[5] = note(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name, note=None) -> None:
        """Wrap `owner.attr` (a module or class attribute, or a dict entry)."""
        if isinstance(owner, dict):
            owner[attr] = self.wrap(owner[attr], name, note)
        elif isinstance(owner, type) and isinstance(owner.__dict__[attr], classmethod):
            # Wrap the bound classmethod; callers write ShapeView.from_text(text).
            setattr(owner, attr, staticmethod(self.wrap(getattr(owner, attr), name, note)))
        else:
            setattr(owner, attr, self.wrap(getattr(owner, attr), name, note))

    def dump(self, path: Path, summary: dict) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "op", "note")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"summary": summary, "spans": [dict(zip(keys, s)) for s in self.spans]}, f)


def _text_in(args, result):
    return len(args[-1])


def _text_out(args, result):
    return len(result)


def _matrix_bytes(args, result):
    return int(result.nbytes)


def _cli_name(args):
    command = args[0][0]
    return "cli.stats_report" if command == "stats" else f"cli.{command}"


def install(tracer: Tracer, trial_label) -> None:
    """Wrap every traced function; `trial_label(config)` names trial spans."""
    from seed_archeology import cli, experiment, finders, stats
    from seed_archeology.trees import ArrivalTree, ShapeView

    tracer.patch(experiment, "run_experiment", "experiment.run_experiment")
    tracer.patch(experiment, "run_trial_artifacts", lambda a: f"experiment.trial_{trial_label(a[0])}")
    tracer.patch(experiment, "validate_formulas", lambda a: f"experiment.suite_{a[0]}")
    for module in (experiment, cli):
        for fn in ("build_seed", "grow", "scramble"):
            tracer.patch(module, fn, f"trees.{fn}")
    for kind in list(experiment._FINDERS):
        tracer.patch(
            experiment._FINDERS,
            kind,
            f"finders.find_{kind.value}_seed",
            (lambda a, r: int(not r.deficit)) if kind.value == "star" else None,
        )
    for fn in ("find_path_seed", "find_star_seed", "find_urrt_seed"):
        note = (lambda a, r: int(not r.deficit)) if fn == "find_star_seed" else None
        tracer.patch(cli, fn, f"finders.{fn}", note)
    for fn in ("anti_centrality", "select_most_central", "branch_sizes_at"):
        tracer.patch(finders, fn, f"centrality.{fn}")
    tracer.patch(cli, "anti_centrality", "centrality.anti_centrality")
    tracer.patch(cli, "identity_view", "trees.identity_view")
    tracer.patch(cli, "main", _cli_name)
    tracer.patch(ShapeView, "to_text", "trees.ShapeView.to_text", _text_out)
    tracer.patch(ShapeView, "permutation_to_text", "trees.ShapeView.permutation_to_text", _text_out)
    tracer.patch(ShapeView, "from_text", "trees.ShapeView.from_text", _text_in)
    tracer.patch(ArrivalTree, "to_text", "trees.ArrivalTree.to_text", _text_out)
    tracer.patch(ArrivalTree, "from_text", "trees.ArrivalTree.from_text", _text_in)
    for fn in ("urrt_parent_matrix", "subtree_size_matrix", "singleton_parent_counts",
               "camouflage_counts", "sample_camouflage_counts", "polya_fraction_samples"):
        tracer.patch(stats, fn, f"stats.{fn}", _matrix_bytes)
    for fn in ("deep_tail_check", "mcdiarmid_tail_check", "rooted_subtree_sizes"):
        tracer.patch(stats, fn, f"stats.{fn}")
    for fn in ("descendant_histogram", "singleton_parents"):
        tracer.patch(cli, fn, f"stats.{fn}")


# ---------------------------------------------------------------------------
# per-layer metrics

MS, S = 1e-6, 1e-9

#: name -> (span names, "dur" or "self", scale, unit, "call" or "op").
#: "call" takes the median over spans; "op" sums the spans of each operation
#: and takes the median over the operations that have any.
TIMINGS = {
    "trees.grow_ms": (["trees.grow"], "dur", MS, "ms", "call"),
    "trees.scramble_ms": (["trees.scramble"], "dur", MS, "ms", "call"),
    "trees.shape_to_text_ms": (["trees.ShapeView.to_text"], "dur", MS, "ms", "call"),
    "trees.shape_from_text_ms": (["trees.ShapeView.from_text"], "dur", MS, "ms", "call"),
    "trees.arrival_to_text_ms": (["trees.ArrivalTree.to_text"], "dur", MS, "ms", "call"),
    "trees.arrival_from_text_ms": (["trees.ArrivalTree.from_text"], "dur", MS, "ms", "call"),
    "trees.permutation_to_text_ms": (["trees.ShapeView.permutation_to_text"], "dur", MS, "ms", "call"),
    "centrality.anti_centrality_ms": (["centrality.anti_centrality"], "dur", MS, "ms", "call"),
    "centrality.select_most_central_ms": (["centrality.select_most_central"], "dur", MS, "ms", "call"),
    "centrality.branch_sizes_at_ms": (["centrality.branch_sizes_at"], "dur", MS, "ms", "call"),
    "finders.find_path_ms": (["finders.find_path_seed"], "self", MS, "ms", "call"),
    "finders.find_star_ms": (["finders.find_star_seed"], "self", MS, "ms", "call"),
    "finders.find_urrt_ms": (["finders.find_urrt_seed"], "self", MS, "ms", "call"),
    "experiment.trial_path_ms": (["experiment.trial_path"], "dur", MS, "ms", "call"),
    "experiment.trial_star_ms": (["experiment.trial_star"], "dur", MS, "ms", "call"),
    "experiment.trial_urrt_ms": (["experiment.trial_urrt"], "dur", MS, "ms", "call"),
    "experiment.trial_ranked_star_ms": (["experiment.trial_ranked_star"], "dur", MS, "ms", "call"),
    "experiment.trial_self_ms": (
        ["experiment.trial_path", "experiment.trial_star", "experiment.trial_urrt",
         "experiment.trial_ranked_star"], "self", MS, "ms", "call"),
    "experiment.run_self_ms": (["experiment.run_experiment"], "self", MS, "ms", "call"),
    **{
        f"experiment.suite_{suite}_s": ([f"experiment.suite_{suite}"], "dur", S, "s", "call")
        for suite in ("descendants", "singletons", "camouflage", "polya", "tails")
    },
    "stats.urrt_parent_matrix_ms": (["stats.urrt_parent_matrix"], "dur", MS, "ms", "call"),
    "stats.subtree_size_matrix_ms": (["stats.subtree_size_matrix"], "dur", MS, "ms", "call"),
    "stats.singleton_parent_counts_ms": (["stats.singleton_parent_counts"], "dur", MS, "ms", "call"),
    "stats.camouflage_counts_ms": (["stats.camouflage_counts"], "dur", MS, "ms", "call"),
    "stats.polya_fraction_samples_ms": (["stats.polya_fraction_samples"], "dur", MS, "ms", "call"),
    "stats.descendant_histogram_ms": (["stats.descendant_histogram"], "dur", MS, "ms", "call"),
    "stats.singleton_parents_ms": (["stats.singleton_parents"], "dur", MS, "ms", "call"),
    "cli.generate_self_s": (["cli.generate"], "self", S, "s", "op"),
    "cli.find_self_s": (["cli.find"], "self", S, "s", "op"),
    "cli.centrality_self_s": (["cli.centrality"], "self", S, "s", "op"),
    "cli.stats_report_self_s": (["cli.stats_report"], "self", S, "s", "op"),
}

TEXT_SPANS = {
    "trees.ShapeView.to_text", "trees.ShapeView.permutation_to_text", "trees.ShapeView.from_text",
    "trees.ArrivalTree.to_text", "trees.ArrivalTree.from_text",
}
MATRIX_SPANS = {
    "stats.urrt_parent_matrix", "stats.subtree_size_matrix", "stats.singleton_parent_counts",
    "stats.camouflage_counts", "stats.sample_camouflage_counts", "stats.polya_fraction_samples",
}

#: Every per-layer metric the traced run reports, with its unit.
UNITS = {name: spec[3] for name, spec in TIMINGS.items()}
UNITS.update({
    "trees.text_bytes": "bytes",
    "finders.star_trials": "count",
    "finders.star_ranked_trials": "count",
    "stats.matrix_mb_computed": "MB",
    "trace.ops_per_s": "1/s",
    "trace.unattributed_ms": "ms",
})


def tail(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it.

    None below forty samples, where such a percentile would be no tail.
    """
    count = len(values)
    if count < 40:
        return None
    pct = math.floor(100 * (count - 10) / count)
    rank = math.ceil(pct * count / 100)
    return pct, sorted(values)[rank - 1]


def layer_metrics(tracer: Tracer, op_seconds: list[float]) -> tuple[dict, dict]:
    """Per-layer metric values, plus tails and sample counts for the trace file."""
    spans = tracer.spans
    dur = [s[2] - s[1] for s in spans]
    child = [0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    own = [d - c for d, c in zip(dur, child)]
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)

    values, extra = {}, {}
    for metric, (names, field, scale, _unit, mode) in TIMINGS.items():
        picked = [i for name in names for i in by_name.get(name, [])]
        source = dur if field == "dur" else own
        if mode == "call":
            samples = [source[i] * scale for i in picked]
        else:
            per_op = defaultdict(int)
            for i in picked:
                per_op[spans[i][4]] += source[i]
            samples = [v * scale for v in per_op.values()]
        values[metric] = statistics.median(samples) if samples else 0.0
        extra[metric] = {"samples": len(samples)}
        t = tail(samples)
        if t is not None:
            extra[metric].update({"tail_percentile": t[0], "tail_value": t[1]})

    text_per_op = defaultdict(int)
    matrix_bytes = [0]
    star_notes = []
    for s in spans:
        if s[0] in TEXT_SPANS:
            text_per_op[s[4]] += s[5]
        elif s[0] in MATRIX_SPANS:
            matrix_bytes.append(s[5])
        elif s[0] == "finders.find_star_seed":
            star_notes.append(s[5])
    values["trees.text_bytes"] = statistics.median(text_per_op.values()) if text_per_op else 0
    values["finders.star_trials"] = len(star_notes)
    values["finders.star_ranked_trials"] = sum(star_notes)
    values["stats.matrix_mb_computed"] = max(matrix_bytes) / 2**20

    # Time inside each op that no span covers: the benchmark loop plus the
    # wrappers' own cost.  Self times add up to op time minus this.
    covered = defaultdict(int)
    for i, s in enumerate(spans):
        covered[s[4]] += own[i]
    gaps = [secs * 1e3 - covered[op] * MS for op, secs in enumerate(op_seconds)]
    values["trace.unattributed_ms"] = statistics.median(gaps)
    values["trace.ops_per_s"] = len(op_seconds) / sum(op_seconds)
    extra["self_time_sum_s"] = sum(own) * S
    extra["op_time_sum_s"] = sum(op_seconds)
    return values, extra
