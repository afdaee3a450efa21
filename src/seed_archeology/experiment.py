"""Reproducible Monte Carlo harness: grow, scramble, find, score.

An :class:`ExperimentConfig` describes one experiment declaratively (seed,
final size, finder, parameters, trial count, master seed, parallelism,
output path); :func:`run_experiment` executes it and writes one CSV row
per trial plus an aggregate :class:`Summary`.

Determinism contract: trial t draws every random choice from stream t of
the master seed, so (config, master_seed) fixes every CSV byte at any
parallelism level.  Wall-clock time is never byte-stable, so it stays
out of the CSV; the summary's wall time is diagnostic output, not part of
the deterministic artifact.

:func:`validate_formulas` runs the batched statistical checks (descendant
histograms, singleton parents, camouflage counts, urn moments, tail
bounds) against their exact counterparts and reports each as
``{empirical, theoretical, se, passed}``.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import stats
from .finders import (
    FinderKind,
    FinderParams,
    SeedEstimate,
    find_path_seed,
    find_star_seed,
    find_urrt_seed,
)
from .rng import DEFAULT_MASTER_SEED, RngHandle, master_seed_from_env
from .trees import (
    ArrivalTree,
    SeedKind,
    SeedSpec,
    ShapeView,
    _format_rows,
    build_seed,
    grow,
    scramble,
)

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "MetricSummary",
    "Summary",
    "CSV_HEADER",
    "SCHEMA_VERSION",
    "VALIDATION_SUITES",
    "load_config",
    "config_from_dict",
    "run_trial_artifacts",
    "TrialArtifacts",
    "run_experiment",
    "validate_formulas",
]

SCHEMA_VERSION = 1

#: 95% normal quantile used by the Wilson interval.
_Z95 = 1.959963984540054

_FINDERS = {
    FinderKind.PATH: find_path_seed,
    FinderKind.STAR: find_star_seed,
    FinderKind.URRT: find_urrt_seed,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment."""

    seed_spec: SeedSpec
    n: int
    finder: FinderKind
    params: FinderParams
    trials: int
    master_seed: int = DEFAULT_MASTER_SEED
    parallelism: int = 1
    output_path: str = "trials.csv"

    def __post_init__(self) -> None:
        object.__setattr__(self, "finder", FinderKind(self.finder))
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.n < self.seed_spec.l:
            raise ValueError(
                f"final size n={self.n} is smaller than the seed "
                f"({self.seed_spec.l} vertices)"
            )
        if self.master_seed < 0:
            raise ValueError(
                f"master_seed must be >= 0, got {self.master_seed}"
            )
        if self.parallelism < 1:
            raise ValueError(
                f"parallelism must be >= 1, got {self.parallelism}"
            )
        if self.params.l != self.seed_spec.l:
            raise ValueError(
                f"finder params say l={self.params.l} but the seed has "
                f"{self.seed_spec.l} vertices"
            )

    def to_dict(self) -> dict:
        seed: dict = {"kind": self.seed_spec.kind.value, "l": self.seed_spec.l}
        if self.seed_spec.parents is not None:
            seed["parents"] = list(self.seed_spec.parents)
        return {
            "schema_version": SCHEMA_VERSION,
            "seed_spec": seed,
            "n": self.n,
            "finder": self.finder.value,
            "params": {
                "gamma": self.params.gamma,
                "epsilon": self.params.epsilon,
                "jog_loh_c": self.params.jog_loh_c,
            },
            "trials": self.trials,
            "master_seed": self.master_seed,
            "parallelism": self.parallelism,
            "output_path": self.output_path,
        }


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Parse and validate a config dict; unknown fields are an error."""
    if not isinstance(raw, dict):
        raise ValueError(
            f"config must be a JSON object, got {type(raw).__name__}"
        )
    top = dict(raw)
    version = _take(top, "schema_version", int)
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema_version {version}; this build reads "
            f"{SCHEMA_VERSION}"
        )
    seed_raw = _take(top, "seed_spec", dict)
    n = _take(top, "n", int)
    finder = FinderKind(_take(top, "finder", str))
    params_raw = _take(top, "params", dict)
    trials = _take(top, "trials", int)
    master_seed = _take(top, "master_seed", int, default=DEFAULT_MASTER_SEED)
    parallelism = _take(top, "parallelism", int, default=1)
    output_path = _take(top, "output_path", str, default="trials.csv")
    _reject_unknown(top, "config")

    kind = SeedKind(_take(seed_raw, "kind", str))
    if kind is SeedKind.CUSTOM:
        parents = _take(seed_raw, "parents", list)
        if any(type(p) is not int for p in parents):  # bool is not int
            raise ValueError(f"seed_spec.parents must be ints, got {parents}")
        stated_l = _take(seed_raw, "l", int, default=len(parents) + 1)
        if stated_l != len(parents) + 1:
            raise ValueError(
                f"seed_spec says l={stated_l} but parents describe "
                f"{len(parents) + 1} vertices"
            )
        spec = SeedSpec.custom(parents)
    else:
        spec = SeedSpec(kind, _take(seed_raw, "l", int))
    _reject_unknown(seed_raw, "seed_spec")

    params = FinderParams(
        l=spec.l,
        gamma=_take(params_raw, "gamma", float),
        epsilon=_take(params_raw, "epsilon", float),
        jog_loh_c=_take(params_raw, "jog_loh_c", float, default=1.0),
    )
    _reject_unknown(params_raw, "params")

    return ExperimentConfig(
        spec, n, finder, params, trials, master_seed, parallelism, output_path
    )


def load_config(path: str | Path, honor_env: bool = False) -> ExperimentConfig:
    """Read a JSON config file.

    With `honor_env` (the CLI sets it), a SEED_ARCHEOLOGY_SEED environment
    variable overrides the file's master seed.
    """
    with open(path, "r", encoding="utf-8") as f:
        raw = json.load(f)
    config = config_from_dict(raw)
    if honor_env:
        config = replace(
            config, master_seed=master_seed_from_env(config.master_seed)
        )
    return config


def _take(d: dict, key: str, kind: type, default=None):
    if key not in d:
        if default is not None:
            return default
        raise ValueError(f"config is missing required field {key!r}")
    value = d.pop(key)
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if kind is int and isinstance(value, bool):
        raise ValueError(f"field {key!r} must be {kind.__name__}, got bool")
    if not isinstance(value, kind):
        raise ValueError(
            f"field {key!r} must be {kind.__name__}, got "
            f"{type(value).__name__}"
        )
    return value


def _reject_unknown(d: dict, where: str) -> None:
    if d:
        raise ValueError(f"unknown field(s) in {where}: {sorted(d)}")


class TrialRecord(NamedTuple):
    """Outcome of one grow-scramble-find-score trial; one CSV row.

    `overlap` is the size of the intersection between the finder output
    (mapped back to arrival labels) and the true seed {1..l}.  The success
    flags follow from it: first kind means output inside the seed
    (overlap == output_size), second kind means seed inside the output
    (overlap == l).
    """

    trial: int
    success_first: bool
    success_second: bool
    overlap: int
    output_size: int
    deficit: bool


#: The trial CSV's columns are the record's fields, in order.
CSV_HEADER = ",".join(TrialRecord._fields)


class TrialArtifacts(NamedTuple):
    """Everything one trial produced, for scoring audits and diagnostics."""

    record: TrialRecord
    tree: ArrivalTree
    view: ShapeView
    estimate: SeedEstimate


def run_trial_artifacts(
    config: ExperimentConfig, trial_index: int
) -> TrialArtifacts:
    """Run one trial end to end; deterministic in (master_seed, trial_index).

    Returns the scored record together with the tree, view, and raw
    estimate, for callers that need more than the CSV row, such as
    checking which arrival label the star finder picked as its center.
    """
    rng = RngHandle(config.master_seed, trial_index)
    tree = grow(build_seed(config.seed_spec, rng), config.n, rng)
    view = scramble(tree, rng)
    try:
        estimate = _FINDERS[config.finder](view, config.params, rng)
    except ValueError as exc:
        raise ValueError(f"trial {trial_index}: {exc}") from exc
    arrivals = view.arrival_labels_of(estimate.vertices)
    l = config.seed_spec.l
    overlap = sum(1 for v in arrivals if v <= l)
    record = TrialRecord(
        trial=trial_index,
        success_first=overlap == len(arrivals),
        success_second=overlap == l,
        overlap=overlap,
        output_size=len(arrivals),
        deficit=estimate.deficit,
    )
    return TrialArtifacts(record, tree, view, estimate)


@dataclass(frozen=True)
class MetricSummary:
    mean: float
    se: float
    wilson_low: float | None = None
    wilson_high: float | None = None

    def to_dict(self) -> dict:
        out = {"mean": self.mean, "se": self.se}
        if self.wilson_low is not None:
            out["wilson_low"] = self.wilson_low
            out["wilson_high"] = self.wilson_high
        return out


@dataclass(frozen=True)
class Summary:
    """Aggregates over one experiment's trials."""

    config: ExperimentConfig
    trials: int
    metrics: dict[str, MetricSummary]
    wall_time_s: float

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "trials": self.trials,
            "metrics": {k: v.to_dict() for k, v in self.metrics.items()},
            "wall_time_s": self.wall_time_s,
        }


def _wilson_interval(p_hat: float, n: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n < 1:
        raise ValueError("need at least one observation")
    denom = 1.0 + z * z / n
    center = (p_hat + z * z / (2 * n)) / denom
    half = (
        z
        * math.sqrt(p_hat * (1.0 - p_hat) / n + z * z / (4 * n * n))
        / denom
    )
    return center - half, center + half


def _proportion_metric(values: np.ndarray) -> MetricSummary:
    n = values.size
    p = float(values.mean())
    se = math.sqrt(p * (1.0 - p) / n)
    low, high = _wilson_interval(p, n)
    return MetricSummary(p, se, low, high)


def _mean_metric(values: np.ndarray) -> MetricSummary:
    n = values.size
    mean = float(values.mean())
    se = 0.0 if n < 2 else float(values.std(ddof=1) / math.sqrt(n))
    return MetricSummary(mean, se)


def run_experiment(
    config: ExperimentConfig, debug_dump: str | Path | None = None
) -> Summary:
    """Execute every trial, write the CSV, and return the Summary.

    The output path is opened before any trial runs so an unwritable
    destination fails fast.  Trials are distributed over at most
    ``config.parallelism`` worker processes, and never more than there are
    trials or CPUs; results are folded in trial order, so the CSV is
    byte-identical at any parallelism level.

    With `debug_dump`, the serialized arrival tree, hidden permutation,
    and finder output of every trial are written into that directory so
    scores can be re-derived from artifacts alone.
    """
    out_path = Path(config.output_path)
    with open(out_path, "w", encoding="utf-8") as f:
        f.write(CSV_HEADER + "\n")
    dump_dir: Path | None = None
    if debug_dump is not None:
        dump_dir = Path(debug_dump)
        dump_dir.mkdir(parents=True, exist_ok=True)

    workers = min(config.parallelism, config.trials, os.cpu_count() or 1)
    started = time.perf_counter()
    if workers == 1:
        records = [
            _run_and_maybe_dump(config, t, dump_dir)
            for t in range(config.trials)
        ]
    else:
        worker = partial(_run_and_maybe_dump, config, dump_dir=dump_dir)
        chunk = max(1, config.trials // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(
                pool.map(worker, range(config.trials), chunksize=chunk)
            )
    wall = time.perf_counter() - started

    # One row per trial, one column per TrialRecord field.
    table = np.array(records, dtype=np.int64)
    with open(out_path, "a", encoding="utf-8") as f:
        f.write(_format_rows(*table.T, sep=","))

    _, first, second, overlap, output_size, deficit = table.T
    metrics = {
        "success_first": _proportion_metric(first),
        "success_second": _proportion_metric(second),
        "deficit": _proportion_metric(deficit),
        "overlap": _mean_metric(overlap),
        "output_size": _mean_metric(output_size),
    }
    return Summary(config, config.trials, metrics, wall)


def _run_and_maybe_dump(
    config: ExperimentConfig, trial_index: int, dump_dir: Path | None = None
) -> TrialRecord:
    record, tree, view, estimate = run_trial_artifacts(config, trial_index)
    if dump_dir is not None:
        stem = f"trial_{trial_index:05d}"
        (dump_dir / f"{stem}.tree").write_text(tree.to_text())
        (dump_dir / f"{stem}.perm").write_text(view.permutation_to_text())
        (dump_dir / f"{stem}.estimate").write_text(estimate.to_text())
    return record


# ---------------------------------------------------------------------------
# formula validation suites


def validate_formulas(suite: str, trials: int | None, rng: RngHandle) -> dict:
    """Monte Carlo checks of the exact formulas; see VALIDATION_SUITES.

    Each sub-check reports ``{name, empirical, theoretical, se, passed}``
    and the overall verdict is their conjunction.  `trials` None runs the
    suite's default count.  At least 10^3 trials are required for the
    3-SE assertions to mean anything.
    """
    if suite not in _SUITES:
        raise ValueError(
            f"unknown suite {suite!r}; expected one of {VALIDATION_SUITES}"
        )
    runner, default_trials = _SUITES[suite]
    if trials is None:
        trials = default_trials
    if trials < 1000:
        raise ValueError(f"need trials >= 1000 for 3 SE checks, got {trials}")
    checks = runner(trials, rng)
    return {
        "suite": suite,
        "trials": trials,
        "master_seed": rng.master_seed,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


def _check(
    name: str, empirical: float, theoretical: float, se: float, passed: bool
) -> dict:
    """One sub-check of a suite report, in the report's key order."""
    return {
        "name": name,
        "empirical": empirical,
        "theoretical": theoretical,
        "se": se,
        "passed": bool(passed),
    }


def _three_se_check(name: str, values: np.ndarray, exact: float) -> dict:
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(values.size))
    return _check(name, mean, exact, se, abs(mean - exact) <= 3.0 * se)


def _descendants_suite(trials: int, rng: RngHandle) -> list[dict]:
    # Convention: the exact means (n+1)/((k+1)(k+2)) and (n+1)/(k+1) - 1
    # count vertices of a tree with a root plus n = 50 arrivals (51
    # vertices); the M-type mean excludes the root, which always
    # qualifies.  Sampling at any other size misses by dozens of SEs.
    n_arrivals = 50
    size = n_arrivals + 1
    exactly, at_least = (0, 1, 2, 3), (1, 2, 4, 8)

    def counts(parents: np.ndarray) -> np.ndarray:
        # One row per tree: its L[k] counts, then its M[k] counts.
        descendants = stats.subtree_size_matrix(parents)[:, 1:] - 1
        return np.stack(
            [(descendants == k).sum(axis=1) for k in exactly]
            + [(descendants[:, 1:] >= k).sum(axis=1) for k in at_least],
            axis=1,
        )

    table = stats._per_block(1, size, trials, rng, counts)
    exact = [size / ((k + 1) * (k + 2)) for k in exactly]
    exact += [size / (k + 1) - 1.0 for k in at_least]
    names = [f"L[{k}]" for k in exactly] + [f"M[{k}]" for k in at_least]
    return [
        _three_se_check(f"{name} n={n_arrivals}", column, value)
        for name, column, value in zip(names, table.T, exact)
    ]


def _singletons_suite(trials: int, rng: RngHandle) -> list[dict]:
    checks = []
    for l in (3, 6, 12, 60):
        counts = stats._per_block(
            1, l, trials, rng, stats.singleton_parent_counts
        )
        checks.append(_three_se_check(f"S l={l}", counts, l / 6.0))
    return checks


def _camouflage_suite(trials: int, rng: RngHandle) -> list[dict]:
    l = 60
    counts = stats.sample_camouflage_counts(l, trials, rng)
    mean = float(counts.mean())
    se = float(counts.std(ddof=1) / math.sqrt(trials))
    bound = l / 384.0
    passed = mean - 3.0 * se >= bound
    return [_check(f"mean G l={l} >= l/384", mean, bound, se, passed)]


def _polya_suite(trials: int, rng: RngHandle) -> list[dict]:
    # After `draws` draws from an urn of red + blue = N balls, the red
    # fraction has mean red/N and variance
    # red blue / (N^2 (N + 1)) * draws / (N + draws); the Beta limit drops
    # the last factor.
    red, blue, draws = 3, 7, 1000
    fractions = stats.polya_fraction_samples(red, blue, draws, trials, rng)
    total = red + blue
    var_exact = (
        red * blue / (total * total * (total + 1)) * draws / (total + draws)
    )
    mean_check = _three_se_check(
        f"urn ({red},{blue}) mean fraction", fractions, red / total
    )
    centered = fractions - fractions.mean()
    s2 = float(np.mean(centered**2) * trials / (trials - 1))
    # Delta-method SE of the sample variance: sqrt((m4 - s2^2) / trials).
    m4 = float(np.mean(centered**4))
    se = math.sqrt(max(m4 - s2 * s2, 0.0) / trials)
    name = f"urn ({red},{blue}) fraction variance"
    passed = abs(s2 - var_exact) <= 3.0 * se
    return [mean_check, _check(name, s2, var_exact, se, passed)]


def _tails_suite(trials: int, rng: RngHandle) -> list[dict]:
    deep = stats.deep_tail_check(64, 1, trials, rng)
    tails = [("deep-vertex tail n=64 k=1", deep)]
    for t in (5.0, 30.0):
        mc = stats.mcdiarmid_tail_check(60, t, trials, rng)
        tails.append((f"camouflage lower tail l=60 t={t:g}", mc))
    return [
        _check(name, r.empirical, r.theoretical, r.se, r.passed)
        for name, r in tails
    ]


#: Each suite's runner and its default trial count.
_SUITES = {
    "descendants": (_descendants_suite, 100_000),
    "singletons": (_singletons_suite, 100_000),
    "camouflage": (_camouflage_suite, 10_000),
    "polya": (_polya_suite, 100_000),
    "tails": (_tails_suite, 100_000),
}
VALIDATION_SUITES = tuple(_SUITES)
