"""Config parsing, trial scoring, CSV determinism, validation suites."""

import json
import math
from concurrent.futures import Executor
from dataclasses import replace

import numpy as np
import pytest

from seed_archeology import experiment, trees
from seed_archeology.experiment import (
    CSV_HEADER,
    SCHEMA_VERSION,
    VALIDATION_SUITES,
    ExperimentConfig,
    config_from_dict,
    load_config,
    run_experiment,
    run_trial_artifacts,
    validate_formulas,
    _wilson_interval,
)
from seed_archeology.finders import FinderKind, FinderParams
from seed_archeology.rng import SEED_ENV_VAR, RngHandle
from seed_archeology.trees import ArrivalTree, SeedSpec


def make_config(tmp_path, **overrides) -> ExperimentConfig:
    base = dict(
        seed_spec=SeedSpec.path(8),
        n=60,
        finder=FinderKind.PATH,
        params=FinderParams(l=8, gamma=0.5, epsilon=0.1),
        trials=10,
        master_seed=777,
        parallelism=1,
        output_path=str(tmp_path / "trials.csv"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def config_dict(**overrides) -> dict:
    base = {
        "schema_version": SCHEMA_VERSION,
        "seed_spec": {"kind": "path", "l": 8},
        "n": 60,
        "finder": "path",
        "params": {"gamma": 0.5, "epsilon": 0.1},
        "trials": 10,
        "master_seed": 777,
    }
    base.update(overrides)
    return base


# ---------------------------------------------------------------------------
# config parsing


class TestConfig:
    def test_round_trip_through_dict(self, tmp_path):
        config = make_config(tmp_path)
        assert config_from_dict(config.to_dict()) == config

    def test_custom_seed_round_trip(self, tmp_path):
        config = make_config(
            tmp_path,
            seed_spec=SeedSpec.custom([1, 1, 2]),
            params=FinderParams(l=4, gamma=0.5, epsilon=0.1),
            finder=FinderKind.STAR,
        )
        assert config_from_dict(config.to_dict()) == config

    def test_defaults(self):
        config = config_from_dict(config_dict())
        assert config.parallelism == 1
        assert config.output_path == "trials.csv"

    def test_plain_string_finder_coerces(self, tmp_path):
        config = make_config(tmp_path, finder="path")
        assert config.finder is FinderKind.PATH

    def test_missing_field_named(self):
        raw = config_dict()
        del raw["n"]
        with pytest.raises(ValueError, match="missing required field 'n'"):
            config_from_dict(raw)

    @pytest.mark.parametrize(
        "raw, kind",
        [(42, "int"), (None, "NoneType"), ([1, 2], "list"), ("abc", "str")],
        ids=["int", "null", "list", "string"],
    )
    def test_top_level_must_be_an_object(self, raw, kind):
        with pytest.raises(
            ValueError, match=f"^config must be a JSON object, got {kind}$"
        ):
            config_from_dict(raw)

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(ValueError, match="unknown field.*bogus"):
            config_from_dict(config_dict(bogus=1))

    def test_unknown_params_field_rejected(self):
        raw = config_dict(params={"gamma": 0.5, "epsilon": 0.1, "zeta": 2})
        with pytest.raises(ValueError, match="unknown field.*params.*zeta"):
            config_from_dict(raw)

    def test_unknown_seed_field_rejected(self):
        raw = config_dict(seed_spec={"kind": "path", "l": 8, "x": 1})
        with pytest.raises(ValueError, match="unknown field.*seed_spec"):
            config_from_dict(raw)

    def test_schema_version_checked(self):
        with pytest.raises(ValueError, match="schema_version"):
            config_from_dict(config_dict(schema_version=2))

    def test_bool_is_not_an_int(self):
        with pytest.raises(ValueError, match="'trials' must be int"):
            config_from_dict(config_dict(trials=True))

    def test_int_promotes_to_float_in_params(self):
        raw = config_dict(
            params={"gamma": 0.5, "epsilon": 0.1, "jog_loh_c": 2}
        )
        assert config_from_dict(raw).params.jog_loh_c == 2.0

    def test_custom_seed_length_consistency(self):
        raw = config_dict(
            seed_spec={"kind": "custom", "parents": [1, 1, 2], "l": 5}
        )
        with pytest.raises(ValueError, match="l=5 but parents describe"):
            config_from_dict(raw)

    def test_unknown_finder_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict(config_dict(finder="bfs"))

    def test_n_must_cover_seed(self, tmp_path):
        with pytest.raises(ValueError, match="smaller than the seed"):
            make_config(tmp_path, n=7)

    def test_trials_positive(self, tmp_path):
        with pytest.raises(ValueError, match="trials"):
            make_config(tmp_path, trials=0)

    def test_parallelism_positive(self, tmp_path):
        with pytest.raises(ValueError, match="parallelism"):
            make_config(tmp_path, parallelism=0)

    def test_params_l_must_match_seed(self, tmp_path):
        with pytest.raises(ValueError, match="params say l=9"):
            make_config(
                tmp_path, params=FinderParams(l=9, gamma=0.5, epsilon=0.1)
            )

    def test_load_config_reads_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_dict()))
        assert load_config(path).master_seed == 777

    def test_load_config_env_override_is_opt_in(self, tmp_path, monkeypatch):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_dict()))
        monkeypatch.setenv(SEED_ENV_VAR, "5150")
        assert load_config(path).master_seed == 777
        assert load_config(path, honor_env=True).master_seed == 5150
        monkeypatch.delenv(SEED_ENV_VAR)
        assert load_config(path, honor_env=True).master_seed == 777


# ---------------------------------------------------------------------------
# single trials


class TestRunTrial:
    def test_deterministic(self, tmp_path):
        config = make_config(tmp_path)
        assert (
            run_trial_artifacts(config, 3).record
            == run_trial_artifacts(config, 3).record
        )

    def test_bare_seed_always_first_kind_success(self, tmp_path):
        # With n = l the whole tree is the seed, so any output is inside
        # it; and with target < l containment of the seed must fail.
        config = make_config(tmp_path, n=8)
        for t in range(5):
            record = run_trial_artifacts(config, t).record
            assert record.success_first
            assert record.output_size == 4  # floor(0.5 * 8)
            assert record.overlap == 4
            assert not record.success_second

    def test_star_deficit_reaches_record(self, tmp_path):
        config = make_config(
            tmp_path,
            seed_spec=SeedSpec.star(5),
            n=5,
            finder=FinderKind.STAR,
            params=FinderParams(l=5, gamma=0.2, epsilon=0.1),
        )
        record = run_trial_artifacts(config, 0).record
        assert record.deficit
        assert record.output_size == 5
        assert record.success_second

    def test_record_invariants(self, tmp_path):
        config = make_config(tmp_path, n=40)
        for t in range(8):
            record = run_trial_artifacts(config, t).record
            assert 0 <= record.overlap <= min(8, record.output_size)
            assert record.success_first == (
                record.overlap == record.output_size
            )
            assert record.success_second == (record.overlap == 8)

    def test_artifacts_expose_scoring_inputs(self, tmp_path):
        config = make_config(tmp_path)
        record, tree, view, estimate = run_trial_artifacts(config, 2)
        assert tree.n == view.n == 60
        assert len(estimate.vertices) == record.output_size
        arrivals = view.arrival_labels_of(estimate.vertices)
        assert sum(1 for a in arrivals if a <= 8) == record.overlap

    def test_trial_never_builds_the_csr(self, tmp_path, monkeypatch):
        # Finders, scoring and the shape writer read only the rooting.
        def refuse(n, parent):
            raise AssertionError("built a CSR adjacency")

        monkeypatch.setattr(trees, "_csr_from_parent", refuse)
        ranked = 0
        for finder in FinderKind:
            config = make_config(
                tmp_path,
                seed_spec=SeedSpec.star(20),
                n=20_000,
                finder=finder,
                params=FinderParams(l=20, gamma=0.3, epsilon=0.2),
            )
            for t in range(3):
                artifacts = run_trial_artifacts(config, t)
                artifacts.view.to_text()
                if finder is FinderKind.STAR:
                    ranked += not artifacts.estimate.deficit
        assert ranked  # the star finder ranked the centre's branches

    def test_csv_row_layout(self, tmp_path):
        config = make_config(tmp_path, trials=5)
        run_experiment(config)
        header, *rows = (tmp_path / "trials.csv").read_text().splitlines()
        assert header == (
            "trial,success_first,success_second,overlap,output_size,deficit"
        )
        r = run_trial_artifacts(config, 4).record
        assert rows[4] == (
            f"4,{int(r.success_first)},{int(r.success_second)},"
            f"{r.overlap},{r.output_size},{int(r.deficit)}"
        )


# ---------------------------------------------------------------------------
# whole experiments


class TestRunExperiment:
    def test_csv_matches_recomputed_trials(self, tmp_path):
        config = make_config(tmp_path, trials=12)
        summary = run_experiment(config)
        lines = (tmp_path / "trials.csv").read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 13
        for t, line in enumerate(lines[1:]):
            record = run_trial_artifacts(config, t).record
            assert line == ",".join(str(int(field)) for field in record)
        assert summary.trials == 12

    def test_rerun_is_byte_identical(self, tmp_path):
        config = make_config(tmp_path, trials=15)
        run_experiment(config)
        first = (tmp_path / "trials.csv").read_bytes()
        run_experiment(config)
        assert (tmp_path / "trials.csv").read_bytes() == first

    def test_parallelism_does_not_change_bytes(self, tmp_path):
        serial = make_config(
            tmp_path, trials=14, output_path=str(tmp_path / "serial.csv")
        )
        parallel = make_config(
            tmp_path,
            trials=14,
            parallelism=2,
            output_path=str(tmp_path / "parallel.csv"),
        )
        run_experiment(serial)
        run_experiment(parallel)
        assert (tmp_path / "serial.csv").read_bytes() == (
            tmp_path / "parallel.csv"
        ).read_bytes()

    def test_worker_count_bounded_by_trials_and_cpus(
        self, tmp_path, monkeypatch
    ):
        # A fake pool records the worker count and maps in this process,
        # so no worker is ever started.
        asked = []

        class SerialPool(Executor):
            def __init__(self, max_workers):
                asked.append(max_workers)

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(experiment.os, "cpu_count", lambda: 4)
        bounded = make_config(
            tmp_path,
            trials=3,
            parallelism=10**6,
            output_path=str(tmp_path / "bounded.csv"),
        )
        run_experiment(replace(bounded, trials=9))
        run_experiment(bounded)
        assert asked == [4, 3]
        serial = replace(
            bounded, parallelism=1, output_path=str(tmp_path / "serial.csv")
        )
        run_experiment(serial)
        assert (tmp_path / "bounded.csv").read_bytes() == (
            tmp_path / "serial.csv"
        ).read_bytes()

    def test_unwritable_output_fails_before_any_trial(self, tmp_path):
        # The trial count is absurd on purpose: if the output path were
        # opened only at the end, this test would hang instead of failing.
        config = make_config(
            tmp_path,
            trials=10**9,
            output_path=str(tmp_path / "no" / "such" / "dir.csv"),
        )
        with pytest.raises(OSError):
            run_experiment(config)

    def test_summary_metrics_match_csv(self, tmp_path):
        config = make_config(tmp_path, trials=20, n=30)
        summary = run_experiment(config)
        rows = [
            line.split(",")
            for line in (tmp_path / "trials.csv")
            .read_text()
            .strip()
            .splitlines()[1:]
        ]
        first = np.array([int(r[1]) for r in rows], dtype=float)
        overlap = np.array([int(r[3]) for r in rows], dtype=float)
        assert summary.metrics["success_first"].mean == pytest.approx(
            first.mean()
        )
        assert summary.metrics["overlap"].mean == pytest.approx(
            overlap.mean()
        )
        low = summary.metrics["success_first"].wilson_low
        high = summary.metrics["success_first"].wilson_high
        assert 0.0 <= low <= first.mean() <= high <= 1.0

    def test_single_trial_has_zero_se(self, tmp_path):
        config = make_config(tmp_path, trials=1)
        summary = run_experiment(config)
        assert summary.metrics["overlap"].se == 0.0
        assert summary.metrics["success_first"].se == 0.0

    def test_summary_serializes_to_json(self, tmp_path):
        summary = run_experiment(make_config(tmp_path, trials=3))
        text = json.dumps(summary.to_dict())
        parsed = json.loads(text)
        assert parsed["trials"] == 3
        assert parsed["config"]["schema_version"] == SCHEMA_VERSION

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_debug_dump_supports_full_rescoring(self, tmp_path, parallelism):
        config = make_config(
            tmp_path,
            trials=6,
            n=24,
            parallelism=parallelism,
            output_path=str(tmp_path / "dump.csv"),
        )
        dump = tmp_path / "artifacts"
        run_experiment(config, debug_dump=dump)
        lines = (tmp_path / "dump.csv").read_text().strip().splitlines()[1:]
        for t, line in enumerate(lines):
            stem = dump / f"trial_{t:05d}"
            tree = ArrivalTree.from_text(
                (dump.parent / stem).with_suffix(".tree").read_text()
            )
            assert tree.n == 24
            mapping = {}
            for row in stem.with_suffix(".perm").read_text().strip().splitlines():
                shape, arrival = (int(x) for x in row.split())
                mapping[shape] = arrival
            *label_rows, meta_row = (
                stem.with_suffix(".estimate").read_text().strip().splitlines()
            )
            labels = [int(x) for x in label_rows]
            meta = json.loads(meta_row)
            arrivals = {mapping[v] for v in labels}
            overlap = sum(1 for a in arrivals if a <= 8)
            fields = line.split(",")
            assert int(fields[3]) == overlap
            assert int(fields[1]) == int(overlap == len(arrivals))
            assert int(fields[2]) == int(overlap == 8)
            assert int(fields[4]) == len(arrivals)
            assert meta["target_size"] == len(arrivals)

    def test_estimate_dump_is_the_estimate_text(self, tmp_path):
        config = make_config(
            tmp_path,
            seed_spec=SeedSpec.star(4),
            finder=FinderKind.STAR,
            params=FinderParams(l=4, gamma=0.5, epsilon=0.1),
            trials=3,
            n=30,
        )
        dump = tmp_path / "artifacts"
        run_experiment(config, debug_dump=dump)
        for t in range(3):
            estimate = run_trial_artifacts(config, t).estimate
            written = (dump / f"trial_{t:05d}.estimate").read_text()
            assert written == estimate.to_text()

    def test_success_rises_with_seed_share(self, tmp_path):
        # Growing the seed from 20 to 100 vertices inside a fixed
        # n = 5000 makes path recovery strictly easier; allow 3 combined
        # SEs of slack around the monotonicity.
        rates = []
        for l in (20, 50, 100):
            config = make_config(
                tmp_path,
                seed_spec=SeedSpec.path(l),
                params=FinderParams(l=l, gamma=0.5, epsilon=0.1),
                n=5000,
                trials=200,
                master_seed=424,
                output_path=str(tmp_path / f"sweep_{l}.csv"),
            )
            summary = run_experiment(config)
            metric = summary.metrics["success_first"]
            rates.append((metric.mean, metric.se))
        for (p_small, se_small), (p_big, se_big) in zip(rates, rates[1:]):
            assert p_small <= p_big + 3 * math.hypot(se_small, se_big)


# ---------------------------------------------------------------------------
# formula validation suites


class TestValidateFormulas:
    SUITE_TRIALS = {
        "descendants": 4000,
        "singletons": 3000,
        "camouflage": 2000,
        "polya": 4000,
        "tails": 2000,
    }

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            validate_formulas("entropy", 2000, RngHandle(0))

    def test_too_few_trials_rejected(self):
        with pytest.raises(ValueError, match="trials >= 1000"):
            validate_formulas("polya", 999, RngHandle(0))

    def test_polya_theoretical_values_pinned(self):
        # Urn (3 red, 7 blue) after 1000 draws: mean 3/10, and the Beta
        # limit's variance 21/(10^2 * 11) times 1000/(10 + 1000).
        report = validate_formulas("polya", 1000, RngHandle(0))
        mean, variance = (c["theoretical"] for c in report["checks"])
        assert mean == 0.3
        assert variance == pytest.approx(0.21 / 11 * 1000 / 1010, rel=1e-15)

    @pytest.mark.parametrize("suite", VALIDATION_SUITES)
    def test_suite_passes_and_is_json_clean(self, suite):
        report = validate_formulas(
            suite, self.SUITE_TRIALS[suite], RngHandle(1123)
        )
        assert report["suite"] == suite
        assert report["master_seed"] == 1123
        assert report["passed"] is True
        for check in report["checks"]:
            assert set(check) == {
                "name",
                "empirical",
                "theoretical",
                "se",
                "passed",
            }
            assert check["passed"] is True
        json.dumps(report)  # no numpy scalars may leak through


# ---------------------------------------------------------------------------
# Wilson interval


class TestWilsonInterval:
    def test_even_split_published_value(self):
        low, high = _wilson_interval(0.5, 100)
        assert low == pytest.approx(0.40381, abs=2e-4)
        assert high == pytest.approx(0.59619, abs=2e-4)

    def test_zero_successes_still_open_interval(self):
        low, high = _wilson_interval(0.0, 50)
        assert low == pytest.approx(0.0, abs=1e-12)
        assert high == pytest.approx(0.0714, abs=1e-3)

    def test_needs_observations(self):
        with pytest.raises(ValueError, match="observation"):
            _wilson_interval(0.5, 0)

    def test_contains_point_estimate(self):
        for p in (0.1, 0.33, 0.9):
            low, high = _wilson_interval(p, 40)
            assert low < p < high
