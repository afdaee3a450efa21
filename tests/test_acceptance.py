"""End-to-end acceptance checks, one test per numbered criterion.

Each test wraps its body in ``acceptance_report.criterion(...)``, so the
pytest run ends with one printed PASS/FAIL line per criterion.  Checks
against exact values are exact; Monte Carlo checks use a three standard
error band; stated runtime budgets are asserted inside the blocks.

Every random quantity draws from a pinned master seed, so the whole file
is deterministic.  Monte Carlo criteria use streams 1001+ of the package
default master seed; the confirmation runs of criterion 10 consume
streams 0..199 (one per trial) by construction, and the committed pilot
fixture they are compared against was generated under a different master
seed entirely (see scripts/generate_pilot_fixtures.py).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles
from seed_archeology import (
    DEFAULT_MASTER_SEED,
    ExperimentConfig,
    FinderKind,
    FinderParams,
    RngHandle,
    SeedSpec,
    anti_centrality,
    build_seed,
    config_from_dict,
    grow,
    run_experiment,
    run_trial_artifacts,
    scramble,
    stats,
)

MASTER = DEFAULT_MASTER_SEED

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "pilot_fixtures.json"


def _mc_band(counts: np.ndarray) -> tuple[float, float]:
    """Sample mean and three standard errors of a per-trial count array."""
    mean = float(counts.mean())
    se = float(counts.std(ddof=1)) / math.sqrt(counts.size)
    return mean, 3.0 * se


def test_criterion_01_centrality_matches_brute_force(acceptance_report):
    """1000 mixed random trees, 2 <= n <= 200: psi agrees exactly."""
    with acceptance_report.criterion(1, "linear psi equals brute force"):
        rng = RngHandle(MASTER, 1001)
        started = time.perf_counter()
        for i in range(1000):
            n = 2 + (i % 199)
            style = i % 3
            if style == 0:
                tree = build_seed(SeedSpec.urrt(n), rng)
            else:
                kind = SeedSpec.path if style == 1 else SeedSpec.star
                tree = grow(build_seed(kind(max(2, n // 2)), rng), n, rng)
            view = scramble(tree, rng)
            profile = anti_centrality(view)
            edges = oracles.edge_list(view)
            expected = oracles.brute_force_psi(view.n, edges)
            assert profile.psi[1:].tolist() == expected
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0


@pytest.fixture(scope="module")
def descendant_sizes():
    """One shared sampling run for criteria 2 and 3.

    10^5 recursive trees holding a root plus 50 arrivals (51 vertices),
    reduced to their subtree-size matrix.  Returns the matrix and the
    sampling wall time so criterion 2 can charge it against its budget.
    """
    rng = RngHandle(MASTER, 1002)
    started = time.perf_counter()
    parents = stats.urrt_parent_matrix(51, 100_000, rng)
    sizes = stats.subtree_size_matrix(parents)
    return sizes, time.perf_counter() - started


def test_criterion_02_exact_descendant_counts(acceptance_report, descendant_sizes):
    """E[#vertices with exactly k descendants] = (n+1)/((k+1)(k+2)), n=50."""
    sizes, sampling_elapsed = descendant_sizes
    with acceptance_report.criterion(2, "mean count of exact-k-descendant vertices"):
        started = time.perf_counter()
        for k in (0, 1, 2, 3):
            counts = (sizes[:, 1:] == k + 1).sum(axis=1)
            mean, band = _mc_band(counts)
            exact = 51.0 / ((k + 1) * (k + 2))
            assert abs(mean - exact) <= band, (k, mean, exact, band)
        elapsed = sampling_elapsed + time.perf_counter() - started
        assert elapsed < 60.0


def test_criterion_03_at_least_descendant_counts(acceptance_report, descendant_sizes):
    """E[#non-root vertices with >= k descendants] = (n+1)/(k+1) - 1, n=50."""
    sizes, _ = descendant_sizes
    with acceptance_report.criterion(3, "mean count of at-least-k-descendant vertices"):
        for k in (1, 2, 4, 8):
            counts = (sizes[:, 2:] - 1 >= k).sum(axis=1)
            mean, band = _mc_band(counts)
            exact = 51.0 / (k + 1) - 1.0
            assert abs(mean - exact) <= band, (k, mean, exact, band)


def test_criterion_04_singleton_parent_mean(acceptance_report):
    """E[S_l] = l/6 at l in {3, 6, 12, 60}, 10^5 trees each."""
    with acceptance_report.criterion(4, "mean singleton-parent count"):
        rng = RngHandle(MASTER, 1003)
        started = time.perf_counter()
        for l in (3, 6, 12, 60):
            parents = stats.urrt_parent_matrix(l, 100_000, rng)
            counts = stats.singleton_parent_counts(parents)
            mean, band = _mc_band(counts)
            assert abs(mean - l / 6.0) <= band, (l, mean, band)
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0


def test_criterion_05_camouflage_mean_lower_bound(acceptance_report):
    """Mean G_60 over 10^4 trials clears 60/384 even three SE down."""
    with acceptance_report.criterion(5, "camouflage mean lower bound"):
        started = time.perf_counter()
        counts = stats.sample_camouflage_counts(60, 10_000, RngHandle(MASTER, 1005))
        mean, band = _mc_band(counts)
        assert mean - band >= 60.0 / 384.0, (mean, band)
        assert time.perf_counter() - started < 30.0


def test_criterion_06_camouflage_lower_tail(acceptance_report):
    """Freq{G_60 <= 60/384 - t} <= exp(-t^2/120) + 3 SE at t=30 and t=5."""
    with acceptance_report.criterion(6, "camouflage lower-tail bound"):
        at_30 = stats.mcdiarmid_tail_check(60, 30.0, 10_000, RngHandle(MASTER, 1006))
        # The t=30 event asks G to be negative, so the frequency is
        # identically zero; the check still exercises the full path.
        assert at_30.empirical == 0.0
        assert at_30.passed
        at_5 = stats.mcdiarmid_tail_check(60, 5.0, 10_000, RngHandle(MASTER, 1007))
        assert at_5.theoretical == pytest.approx(math.exp(-25.0 / 120.0))
        assert at_5.passed


def test_criterion_07_path_collision_probability(acceptance_report):
    """Exact 1/30 for l=3, and 10^6 structural trials agree within 3 SE."""
    with acceptance_report.criterion(7, "path collision probability"):
        exact = stats.path_collision_probability(3)
        assert oracles.collision_probability_exact(3) == Fraction(1, 30)
        assert exact.value == 1.0 / 30.0
        started = time.perf_counter()
        freq = stats.path_collision_frequency(3, 1_000_000, RngHandle(MASTER, 1008))
        p = 1.0 / 30.0
        se = math.sqrt(p * (1.0 - p) / 1_000_000)
        assert abs(freq - p) <= 3.0 * se, (freq, p, se)
        assert time.perf_counter() - started < 60.0


def test_criterion_08_deep_vertex_tail(acceptance_report):
    """Freq{M_{1,64} <= 64/3} <= e^-2 + 3 SE over 10^5 samples."""
    with acceptance_report.criterion(8, "deep-vertex tail bound"):
        result = stats.deep_tail_check(64, 1, 100_000, RngHandle(MASTER, 1009))
        assert result.theoretical == pytest.approx(math.exp(-2.0))
        assert result.passed, (result.empirical, result.theoretical, result.se)


def test_criterion_09_urn_fraction_moments(acceptance_report):
    """Urn (3 red, 7 blue), 10^3 draws, 10^5 runs: exact fraction moments.

    After 10^3 draws the red fraction has mean 0.3 and variance
    (0.21/11) * 1000/1010; the Beta limit 0.21/11 is the draws -> infinity
    value and sits about 2.3 SE above the exact one at this run count.
    """
    with acceptance_report.criterion(9, "urn fraction moments"):
        fractions = stats.polya_fraction_samples(3, 7, 1000, 100_000, RngHandle(13))
        runs = fractions.size
        mean = float(fractions.mean())
        se_mean = float(fractions.std(ddof=1)) / math.sqrt(runs)
        assert abs(mean - 0.3) <= 3.0 * se_mean, (mean, se_mean)

        centered = fractions - mean
        sample_var = float(np.mean(centered**2)) * runs / (runs - 1)
        fourth = float(np.mean(centered**4))
        # Delta-method standard error of the sample variance.
        se_var = math.sqrt(max(fourth - sample_var**2, 0.0) / runs)
        exact_var = 0.3 * 0.7 / 11.0 * 1000.0 / 1010.0
        assert abs(sample_var - exact_var) <= 3.0 * se_var, (
            sample_var,
            exact_var,
            se_var,
        )


def test_criterion_10_pilot_confirmation(acceptance_report):
    """200-trial confirmation runs match the committed 10^4-trial pilots.

    The primary success metric per experiment is the one its finder
    guarantees: output inside the seed for the path and urrt finders,
    seed inside the output for the star finder.  Counts are compared on
    the difference scale with a pooled, Laplace-smoothed standard error,
    which stays positive when both runs go perfect.
    """
    with open(FIXTURE_PATH, "r", encoding="utf-8") as f:
        pilot = json.load(f)
    pilot_trials = pilot["pilot_trials"]
    ci_trials = 200
    reports = []
    with acceptance_report.criterion(10, "pilot-confirmation recovery runs"):
        started = time.perf_counter()
        for name in ("path", "star", "urrt"):
            entry = pilot["experiments"][name]
            config = replace(
                config_from_dict(entry["config"]),
                trials=ci_trials,
                master_seed=DEFAULT_MASTER_SEED,
            )
            successes = {"success_first": 0, "success_second": 0}
            center_hits = 0
            for t in range(ci_trials):
                artifacts = run_trial_artifacts(config, t)
                successes["success_first"] += artifacts.record.success_first
                successes["success_second"] += artifacts.record.success_second
                if config.finder is FinderKind.STAR:
                    center = artifacts.estimate.center
                    if artifacts.view.arrival_labels_of([center]) == {1}:
                        center_hits += 1
            metric = "success_second" if name == "star" else "success_first"
            ci_count = successes[metric]
            pilot_count = entry[metric]
            pooled = (ci_count + pilot_count + 1) / (ci_trials + pilot_trials + 2)
            se = math.sqrt(
                pooled * (1.0 - pooled) * (1.0 / ci_trials + 1.0 / pilot_trials)
            )
            gap = abs(ci_count / ci_trials - pilot_count / pilot_trials)
            assert gap <= 3.0 * se, (name, ci_count, pilot_count, se)
            reports.append(
                f"{name}: {metric} {ci_count}/{ci_trials} vs pilot "
                f"{pilot_count}/{pilot_trials}"
            )
            if name == "star":
                reports.append(
                    f"star center equals the true hub in {center_hits}/"
                    f"{ci_trials} confirmation trials vs pilot "
                    f"{entry['center_hits']}/{pilot_trials}"
                )
        assert time.perf_counter() - started < 300.0
    for line in reports:
        acceptance_report.note(line)


def test_criterion_11_byte_identical_reruns(acceptance_report, tmp_path):
    """Identical config and master seed give byte-identical CSV at
    parallelism 1 and 8, including across a rerun."""
    with acceptance_report.criterion(11, "byte-identical reruns"):
        base = ExperimentConfig(
            seed_spec=SeedSpec.path(8),
            n=300,
            finder=FinderKind.PATH,
            params=FinderParams(l=8, gamma=0.5, epsilon=0.1),
            trials=48,
            master_seed=MASTER,
            parallelism=1,
            output_path=str(tmp_path / "serial.csv"),
        )
        run_experiment(base)
        wide = replace(
            base, parallelism=8, output_path=str(tmp_path / "parallel.csv")
        )
        run_experiment(wide)
        again = replace(wide, output_path=str(tmp_path / "again.csv"))
        run_experiment(again)
        serial = (tmp_path / "serial.csv").read_bytes()
        assert serial == (tmp_path / "parallel.csv").read_bytes()
        assert serial == (tmp_path / "again.csv").read_bytes()
        assert len(serial.splitlines()) == 49  # header plus one row per trial


def test_criterion_12_bounded_perturbation_sensitivity(acceptance_report):
    """Any single post-seed arrival rewired: camouflage count moves <= 2.

    100 random size-16 trees (l=8); every arrival coordinate in 9..16 is
    exhaustively replaced by every alternative parent, 84 variants per
    tree, and G is recomputed for all of them in one batched call.
    """
    with acceptance_report.criterion(12, "bounded perturbation sensitivity"):
        l, n = 8, 16
        rng = RngHandle(MASTER, 1012)
        instances = stats.urrt_parent_matrix(n, 100, rng)
        variants_per_tree = sum(i - 2 for i in range(l + 1, n + 1))  # 84
        rows = []
        for base_row in instances:
            rows.append(base_row)
            for coord in range(l + 1, n + 1):
                j = coord - 2
                for alt in range(1, coord):
                    if alt == base_row[j]:
                        continue
                    variant = base_row.copy()
                    variant[j] = alt
                    rows.append(variant)
        counts = stats.camouflage_counts(np.stack(rows), l)
        block = variants_per_tree + 1
        assert counts.size == 100 * block
        for b in range(100):
            segment = counts[b * block : (b + 1) * block]
            assert np.abs(segment[1:] - segment[0]).max() <= 2
