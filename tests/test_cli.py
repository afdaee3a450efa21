"""The command-line surface, in-process plus subprocess smoke tests."""

import csv
import io
import json
import math
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from seed_archeology import cli
from seed_archeology.cli import main
from seed_archeology.experiment import run_experiment, load_config
from seed_archeology.rng import SEED_ENV_VAR, RngHandle
from seed_archeology.stats import (
    deep_tail_check,
    descendant_histogram,
    mcdiarmid_tail_check,
    polya_fraction_samples,
)
from seed_archeology.trees import ArrivalTree, ShapeView


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# generate


class TestGenerate:
    def test_bare_path_to_stdout(self, capsys):
        code, out, err = run_cli(capsys, "generate", "--kind", "path", "--l", "4")
        assert code == 0
        assert out == "n=4 l=4\n2 1\n3 2\n4 3\n"
        assert err == ""

    def test_grown_tree_parses_and_keeps_seed(self, capsys, tmp_path):
        target = tmp_path / "tree.txt"
        code, _, _ = run_cli(
            capsys,
            "generate",
            "--kind",
            "star",
            "--l",
            "5",
            "--n",
            "50",
            "--output",
            str(target),
        )
        assert code == 0
        tree = ArrivalTree.from_text(target.read_text())
        assert (tree.n, tree.l) == (50, 5)
        assert list(tree.parent_of[2:6]) == [1, 1, 1, 1]

    def test_custom_parents(self, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "--kind", "custom", "--parents", "1,1,2"
        )
        assert code == 0
        assert out == "n=4 l=4\n2 1\n3 1\n4 2\n"

    def test_custom_requires_parents(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--kind", "custom")
        assert code == 2
        assert "error:" in err and "--parents" in err

    @pytest.mark.parametrize(
        "parents, message",
        [
            ("1,x", "--parents entry 2 is 'x', not an integer"),
            ("1,2.5", "--parents entry 2 is '2.5', not an integer"),
            ("1,,x", "--parents entry 3 is 'x', not an integer"),
        ],
    )
    def test_custom_parents_must_be_integers(self, capsys, parents, message):
        code, out, err = run_cli(
            capsys, "generate", "--kind", "custom", "--parents", parents
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_l_must_match_custom_parents(self, capsys):
        code, _, err = run_cli(
            capsys,
            "generate",
            "--kind",
            "custom",
            "--parents",
            "1,1",
            "--l",
            "7",
        )
        assert code == 2
        assert "disagrees" in err

    def test_path_requires_l(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--kind", "path")
        assert code == 2
        assert "--l is required" in err

    def test_same_seed_same_bytes(self, capsys):
        _, first, _ = run_cli(
            capsys,
            "generate", "--kind", "urrt", "--l", "30", "--master-seed", "5",
        )
        _, second, _ = run_cli(
            capsys,
            "generate", "--kind", "urrt", "--l", "30", "--master-seed", "5",
        )
        assert first == second

    @pytest.mark.parametrize(
        ("flags", "env", "field"),
        [
            (["--master-seed", "-5"], None, "master_seed"),
            (["--stream", "-1"], None, "stream"),
            ([], "-5", "master_seed"),
        ],
        ids=["master-seed", "stream", "env"],
    )
    def test_negative_seed_is_a_clean_error(
        self, capsys, monkeypatch, flags, env, field
    ):
        if env is not None:
            monkeypatch.setenv(SEED_ENV_VAR, env)
        code, out, err = run_cli(
            capsys, "generate", "--kind", "urrt", "--l", "30", *flags
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {field} must be >= 0")

    def test_env_seed_changes_output_and_flag_wins(self, capsys, monkeypatch):
        _, default_out, _ = run_cli(
            capsys, "generate", "--kind", "urrt", "--l", "30"
        )
        monkeypatch.setenv(SEED_ENV_VAR, "90125")
        _, env_out, _ = run_cli(
            capsys, "generate", "--kind", "urrt", "--l", "30"
        )
        _, flag_out, _ = run_cli(
            capsys,
            "generate", "--kind", "urrt", "--l", "30", "--master-seed", "90125",
        )
        assert env_out != default_out
        assert flag_out == env_out

    def test_scramble_emits_shape_and_permutation(self, capsys, tmp_path):
        perm = tmp_path / "perm.txt"
        code, out, _ = run_cli(
            capsys,
            "generate",
            "--kind",
            "path",
            "--l",
            "4",
            "--n",
            "12",
            "--scramble",
            "--permutation-out",
            str(perm),
        )
        assert code == 0
        view = ShapeView.from_text(out)
        assert view.n == 12
        rows = perm.read_text().strip().splitlines()
        assert len(rows) == 12
        arrivals = sorted(int(r.split()[1]) for r in rows)
        assert arrivals == list(range(1, 13))

    def test_permutation_out_needs_scramble(
        self, capsys, tmp_path, monkeypatch
    ):
        def no_growth(*args):
            raise AssertionError("grew a tree before checking the options")

        monkeypatch.setattr(cli, "grow", no_growth)
        code, _, err = run_cli(
            capsys,
            "generate",
            "--kind",
            "path",
            "--l",
            "4",
            "--permutation-out",
            str(tmp_path / "p.txt"),
        )
        assert code == 2
        assert "requires --scramble" in err


# ---------------------------------------------------------------------------
# centrality


class TestCentrality:
    def test_star_profile_csv(self, capsys, tmp_path):
        tree_file = tmp_path / "star.txt"
        run_cli(
            capsys,
            "generate", "--kind", "star", "--l", "5",
            "--output", str(tree_file),
        )
        code, out, _ = run_cli(capsys, "centrality", str(tree_file))
        assert code == 0
        assert out.splitlines() == [
            "vertex,psi,is_centroid",
            "1,1,1",
            "2,4,0",
            "3,4,0",
            "4,4,0",
            "5,4,0",
        ]

    def test_both_centroids_flagged(self, capsys, tmp_path):
        tree_file = tmp_path / "path.txt"
        run_cli(
            capsys,
            "generate", "--kind", "path", "--l", "4",
            "--output", str(tree_file),
        )
        code, out, _ = run_cli(capsys, "centrality", str(tree_file))
        assert code == 0
        assert out == "vertex,psi,is_centroid\n1,3,0\n2,2,1\n3,2,1\n4,3,0\n"

    def test_reads_scrambled_shape(self, capsys, tmp_path):
        shape_file = tmp_path / "shape.txt"
        run_cli(
            capsys,
            "generate", "--kind", "star", "--l", "5", "--scramble",
            "--output", str(shape_file),
        )
        code, out, _ = run_cli(capsys, "centrality", str(shape_file))
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert sorted(int(r[1]) for r in rows) == [1, 4, 4, 4, 4]
        assert sum(int(r[2]) for r in rows) == 1

    def test_reads_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("n=3 l=3\n2 1\n3 2\n")
        )
        code, out, _ = run_cli(capsys, "centrality", "-")
        assert code == 0
        assert out.splitlines()[2] == "2,1,1"

    def test_missing_file_is_a_clean_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "centrality", str(tmp_path / "absent.txt")
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "text",
        [
            "n=3\n1 2\n2 99999999999999999999\n",
            "n=3 l=1\n2 1\n3 99999999999999999999\n",
            "n=1000000000000 l=1\n",
            "n=٣ l=١\n2 1\n3 1\n",
            "n=0_3\n1 2\n2 3\n",
            "n=3 n=4 l=1\n2 1\n3 1\n",
        ],
        ids=[
            "shape-int64-overflow",
            "arrival-int64-overflow",
            "huge-header",
            "header-non-ascii-digits",
            "header-digit-separator",
            "header-key-twice",
        ],
    )
    def test_malformed_text_is_a_clean_error(self, capsys, tmp_path, text):
        f = tmp_path / "bad.txt"
        f.write_text(text)
        code, out, err = run_cli(capsys, "centrality", str(f))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


# ---------------------------------------------------------------------------
# find


class TestFind:
    def make_shape(self, capsys, tmp_path, kind="star", l=5, n=40, seed="11"):
        shape_file = tmp_path / "shape.txt"
        perm_file = tmp_path / "perm.txt"
        run_cli(
            capsys,
            "generate", "--kind", kind, "--l", str(l), "--n", str(n),
            "--scramble",
            "--master-seed", seed,
            "--permutation-out", str(perm_file),
            "--output", str(shape_file),
        )
        return shape_file, perm_file

    def test_star_output_layout(self, capsys, tmp_path):
        shape_file, _ = self.make_shape(capsys, tmp_path)
        code, out, _ = run_cli(
            capsys,
            "find", str(shape_file),
            "--kind", "star", "--l", "5",
            "--gamma", "0.3", "--epsilon", "0.1",
        )
        assert code == 0
        *labels, meta_line = out.strip().splitlines()
        meta = json.loads(meta_line)
        assert meta["kind"] == "second"
        assert meta["target_size"] == 7  # ceil(1.3 * 5)
        vertices = [int(x) for x in labels]
        assert len(vertices) == len(set(vertices))
        if not meta["deficit"]:
            assert len(vertices) == 7

    def test_path_first_kind(self, capsys, tmp_path):
        shape_file, _ = self.make_shape(
            capsys, tmp_path, kind="path", l=8, n=60
        )
        code, out, _ = run_cli(
            capsys,
            "find", str(shape_file),
            "--kind", "path", "--l", "8",
            "--gamma", "0.5", "--epsilon", "0.1",
        )
        assert code == 0
        *labels, meta_line = out.strip().splitlines()
        assert json.loads(meta_line) == {
            "kind": "first",
            "target_size": 4,
            "deficit": False,
        }
        assert len(labels) == 4

    def test_deterministic_given_seed(self, capsys, tmp_path):
        shape_file, _ = self.make_shape(capsys, tmp_path)
        args = (
            "find", str(shape_file),
            "--kind", "urrt", "--l", "5",
            "--gamma", "0.3", "--epsilon", "0.1",
            "--master-seed", "3",
        )
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_scoring_through_permutation_file(self, capsys, tmp_path):
        # End to end at a friendly scale: a star center is almost always
        # recovered, and the permutation file is what maps it back.
        hits = 0
        for seed in range(10):
            shape_file, perm_file = self.make_shape(
                capsys, tmp_path, l=12, n=100, seed=str(100 + seed)
            )
            _, out, _ = run_cli(
                capsys,
                "find", str(shape_file),
                "--kind", "star", "--l", "12",
                "--gamma", "0.2", "--epsilon", "0.1",
            )
            labels = [int(x) for x in out.strip().splitlines()[:-1]]
            mapping = {}
            for row in perm_file.read_text().strip().splitlines():
                shape, arrival = (int(x) for x in row.split())
                mapping[shape] = arrival
            arrivals = {mapping[v] for v in labels}
            hits += 1 in arrivals
        assert hits >= 8

    def test_bad_gamma_is_a_clean_error(self, capsys, tmp_path):
        shape_file, _ = self.make_shape(capsys, tmp_path)
        code, _, err = run_cli(
            capsys,
            "find", str(shape_file),
            "--kind", "star", "--l", "5",
            "--gamma", "1.5", "--epsilon", "0.1",
        )
        assert code == 2
        assert "gamma" in err


# ---------------------------------------------------------------------------
# stats


class TestStats:
    def write_tree(self, tmp_path, name, text):
        f = tmp_path / name
        f.write_text(text)
        return f

    def test_descendants_report(self, capsys, tmp_path):
        f = self.write_tree(tmp_path, "p3.txt", "n=3 l=3\n2 1\n3 2\n")
        code, out, _ = run_cli(
            capsys, "stats", "--report", "descendants", str(f)
        )
        assert code == 0
        assert out.splitlines() == [
            "tree,k,exactly,at_least",
            f"{f},0,1,3",
            f"{f},1,1,2",
            f"{f},2,1,1",
        ]

    def test_descendants_report_escapes_percent_in_path(self, capsys, tmp_path):
        text = "n=5 l=2\n2 1\n3 1\n4 2\n5 4\n"
        f = self.write_tree(tmp_path, "100%d%%s.txt", text)
        code, out, _ = run_cli(
            capsys, "stats", "--report", "descendants", str(f)
        )
        assert code == 0
        hist = descendant_histogram(ArrivalTree.from_text(text))
        expected = ["tree,k,exactly,at_least"]
        for k in range(5):
            if hist.at_least[k] == 0:
                break
            expected.append(
                f"{f},{k},{int(hist.exactly[k])},{int(hist.at_least[k])}"
            )
        assert out == "\n".join(expected) + "\n"

    def test_singletons_report_multiple_trees(self, capsys, tmp_path):
        p3 = self.write_tree(tmp_path, "p3.txt", "n=3 l=3\n2 1\n3 2\n")
        s4 = self.write_tree(tmp_path, "s4.txt", "n=4 l=4\n2 1\n3 1\n4 1\n")
        code, out, _ = run_cli(
            capsys, "stats", "--report", "singletons", str(p3), str(s4)
        )
        assert code == 0
        assert out.splitlines() == [
            "tree,n,singleton_parents",
            f"{p3},3,1",
            f"{s4},4,0",
        ]

    def test_camouflage_report(self, capsys, tmp_path):
        f = self.write_tree(tmp_path, "t4.txt", "n=4 l=2\n2 1\n3 1\n4 1\n")
        code, out, _ = run_cli(
            capsys, "stats", "--report", "camouflage", "--l", "2", str(f)
        )
        assert code == 0
        assert out.splitlines() == [
            "tree,l,singleton_parents,camouflaging",
            f"{f},2,1,1",
        ]

    def test_camouflage_report_requires_l(self, capsys, tmp_path):
        # Checked before any tree file is read.
        missing = tmp_path / "missing.txt"
        code, _, err = run_cli(
            capsys, "stats", "--report", "camouflage", str(missing)
        )
        assert code == 2
        assert "--l" in err
        assert "missing.txt" not in err

    @pytest.mark.parametrize("name", ["a,b.txt", 'q"x.txt'])
    @pytest.mark.parametrize(
        "report, header",
        [
            ("descendants", ["tree", "k", "exactly", "at_least"]),
            ("singletons", ["tree", "n", "singleton_parents"]),
            ("camouflage", ["tree", "l", "singleton_parents", "camouflaging"]),
        ],
    )
    def test_report_quotes_path_as_one_csv_field(
        self, capsys, tmp_path, monkeypatch, name, report, header
    ):
        monkeypatch.chdir(tmp_path)
        self.write_tree(tmp_path, name, "n=6 l=3\n2 1\n3 2\n4 1\n5 3\n6 1\n")
        code, out, _ = run_cli(
            capsys, "stats", "--report", report, "--l", "3", name
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out, newline="")))
        assert rows[0] == header
        assert len(rows) > 1
        for row in rows[1:]:
            assert len(row) == len(header)
            assert row[0] == name
        # Written byte for byte as the csv module writes those rows.
        rewritten = io.StringIO()
        csv.writer(rewritten, lineterminator="\n").writerows(rows)
        assert out == rewritten.getvalue()

    def test_report_keeps_plain_path_unquoted(self, capsys, tmp_path):
        f = self.write_tree(tmp_path, "plain 1;2.txt", "n=3 l=3\n2 1\n3 2\n")
        code, out, _ = run_cli(capsys, "stats", "--report", "singletons", str(f))
        assert code == 0
        assert out.splitlines()[1] == f"{f},3,1"

    def test_report_requires_trees(self, capsys):
        code, _, err = run_cli(capsys, "stats", "--report", "singletons")
        assert code == 2
        assert "at least one tree" in err

    def test_check_option_is_gone(self):
        # The Monte Carlo checks run through `experiment validate`.
        with pytest.raises(SystemExit) as excinfo:
            main(["stats", "--check", "polya"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("draws", [-1, -10])
    def test_polya_check_rejects_negative_draws(self, capsys, draws):
        # No command line sets the urn's draw count any more; the sampler
        # behind `experiment validate polya` still refuses a negative one.
        for argv in (
            ["stats", "--check", "polya", "--draws", str(draws)],
            ["experiment", "validate", "polya", "--draws", str(draws)],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert "error:" in err
        with pytest.raises(ValueError, match="^draws must be >= 0"):
            polya_fraction_samples(3, 7, draws, 1000, RngHandle(0))

    def tail_checks(self, capsys):
        code, out, _ = run_cli(
            capsys, "experiment", "validate", "tails", "--trials", "1500"
        )
        assert code == 0
        return json.loads(out)["checks"]

    def test_mcdiarmid_check(self, capsys):
        lower_tails = self.tail_checks(capsys)[1:]
        assert [c["name"] for c in lower_tails] == [
            "camouflage lower tail l=60 t=5",
            "camouflage lower tail l=60 t=30",
        ]
        for check, t in zip(lower_tails, (5.0, 30.0)):
            assert check["theoretical"] == pytest.approx(
                math.exp(-t * t / 120.0)
            )
            # G_l >= 0 > l/384 - t: the lower-tail event is impossible.
            assert check["empirical"] == 0.0
            assert check["passed"] is True

    def test_deeptail_check(self, capsys):
        deep = self.tail_checks(capsys)[0]
        assert deep["name"] == "deep-vertex tail n=64 k=1"
        assert deep["theoretical"] == pytest.approx(math.exp(-2.0))
        assert deep["passed"] is True

    @pytest.mark.parametrize(
        "check",
        [
            lambda trials: deep_tail_check(64, 1, trials, RngHandle(0)),
            lambda trials: mcdiarmid_tail_check(60, 5.0, trials, RngHandle(0)),
        ],
        ids=["deeptail", "mcdiarmid"],
    )
    def test_tail_checks_reject_zero_trials(self, capsys, check):
        code, out, err = run_cli(
            capsys, "experiment", "validate", "tails", "--trials", "0"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: need trials >= 1000")
        with pytest.raises(ValueError, match="^trials must be >= 1, got 0$"):
            check(0)


# ---------------------------------------------------------------------------
# experiment


class TestExperimentCommands:
    def write_config(self, tmp_path, **overrides):
        raw = {
            "schema_version": 1,
            "seed_spec": {"kind": "path", "l": 8},
            "n": 60,
            "finder": "path",
            "params": {"gamma": 0.5, "epsilon": 0.1},
            "trials": 8,
            "master_seed": 777,
            "output_path": str(tmp_path / "trials.csv"),
        }
        raw.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        return path

    def test_run_writes_csv_and_summary(self, capsys, tmp_path):
        config_path = self.write_config(tmp_path)
        code, out, _ = run_cli(capsys, "experiment", "run", str(config_path))
        assert code == 0
        summary = json.loads(out)
        assert summary["trials"] == 8
        assert "success_first" in summary["metrics"]
        lines = (tmp_path / "trials.csv").read_text().strip().splitlines()
        assert len(lines) == 9

    def test_run_env_override(self, capsys, tmp_path, monkeypatch):
        config_path = self.write_config(tmp_path)
        monkeypatch.setenv(SEED_ENV_VAR, "31337")
        code, _, _ = run_cli(capsys, "experiment", "run", str(config_path))
        assert code == 0
        via_env = (tmp_path / "trials.csv").read_bytes()
        monkeypatch.delenv(SEED_ENV_VAR)
        import dataclasses

        config = dataclasses.replace(
            load_config(config_path), master_seed=31337
        )
        run_experiment(config)
        assert (tmp_path / "trials.csv").read_bytes() == via_env

    @pytest.mark.parametrize("via", ["config", "env"])
    def test_run_rejects_negative_master_seed(
        self, capsys, tmp_path, monkeypatch, via
    ):
        if via == "config":
            config_path = self.write_config(tmp_path, master_seed=-5)
        else:
            config_path = self.write_config(tmp_path)
            monkeypatch.setenv(SEED_ENV_VAR, "-5")
        earlier = tmp_path / "trials.csv"
        earlier.write_bytes(b"trial,earlier\r\n0,1\n")
        code, out, err = run_cli(capsys, "experiment", "run", str(config_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: master_seed must be >= 0")
        assert earlier.read_bytes() == b"trial,earlier\r\n0,1\n"

    def test_run_debug_dump(self, capsys, tmp_path):
        config_path = self.write_config(tmp_path, trials=3)
        dump = tmp_path / "artifacts"
        code, _, _ = run_cli(
            capsys,
            "experiment", "run", str(config_path), "--debug-dump", str(dump),
        )
        assert code == 0
        assert sorted(p.name for p in dump.iterdir()) == [
            "trial_00000.estimate",
            "trial_00000.perm",
            "trial_00000.tree",
            "trial_00001.estimate",
            "trial_00001.perm",
            "trial_00001.tree",
            "trial_00002.estimate",
            "trial_00002.perm",
            "trial_00002.tree",
        ]

    def test_run_rejects_unknown_config_field(self, capsys, tmp_path):
        config_path = self.write_config(tmp_path, threads=4)
        code, _, err = run_cli(capsys, "experiment", "run", str(config_path))
        assert code == 2
        assert "unknown field" in err

    @pytest.mark.parametrize(
        "parents",
        [[None, 1], [{}, 1], [1.7, 1], ["2", 1]],
        ids=["null", "object", "float", "string"],
    )
    def test_run_rejects_non_integer_parents(self, capsys, tmp_path, parents):
        config_path = self.write_config(
            tmp_path, seed_spec={"kind": "custom", "parents": parents}
        )
        code, out, err = run_cli(capsys, "experiment", "run", str(config_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: seed_spec.parents must be ints")

    def test_validate_suite_exit_zero(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "experiment", "validate", "singletons", "--trials", "1500",
        )
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["suite"] == "singletons"

    def test_validate_output_to_file(self, capsys, tmp_path):
        target = tmp_path / "verdict.json"
        code, out, _ = run_cli(
            capsys,
            "experiment", "validate", "polya", "--trials", "1000",
            "--output", str(target),
        )
        assert out == ""
        report = json.loads(target.read_text())
        assert (report["suite"], report["trials"]) == ("polya", 1000)
        assert code == (0 if report["passed"] else 1)

    @pytest.mark.parametrize(
        "top, kind",
        [("42", "int"), ("null", "NoneType"), ("[1, 2]", "list"),
         ('"abc"', "str")],
        ids=["int", "null", "list", "string"],
    )
    def test_run_rejects_non_object_config(self, capsys, tmp_path, top, kind):
        config_path = tmp_path / "config.json"
        config_path.write_text(top)
        code, out, err = run_cli(capsys, "experiment", "run", str(config_path))
        assert code == 2
        assert out == ""
        assert err == f"error: config must be a JSON object, got {kind}\n"

    def test_validate_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "validate", "nonsense"])
        assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# README examples


def readme_commands() -> list[str]:
    """Every ``seed-archeology ...`` line of README.md's ``sh`` blocks,
    with backslash continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8"
    )
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        for line in re.sub(r"\s*\\\n\s*", " ", block).splitlines():
            if line.startswith("seed-archeology "):
                commands.append(line)
    return commands


def test_readme_finds_the_cli_examples():
    # Guards the extraction itself: an empty list would pass vacuously.
    assert len(readme_commands()) >= 8


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command_parses(command):
    argv = shlex.split(command, comments=True)[1:]
    cli.build_parser().parse_args(argv)


# ---------------------------------------------------------------------------
# subprocess smoke tests


class TestSubprocess:
    def run(self, *argv, stdin=None):
        return subprocess.run(
            [sys.executable, "-m", "seed_archeology", *argv],
            capture_output=True,
            text=True,
            input=stdin,
            timeout=120,
        )

    def test_generate_pipes_into_centrality(self):
        made = self.run("generate", "--kind", "path", "--l", "6")
        assert made.returncode == 0
        ranked = self.run("centrality", "-", stdin=made.stdout)
        assert ranked.returncode == 0
        rows = ranked.stdout.strip().splitlines()
        assert rows[0] == "vertex,psi,is_centroid"
        assert len(rows) == 7

    def test_foreign_character_is_a_clean_error(self, tmp_path):
        # Given this row, NumPy 2.4's loadtxt crashes the interpreter.
        f = tmp_path / "bad.txt"
        f.write_text("n=3\n\U000c43dc 1\n2 3\n", encoding="utf-8")
        result = self.run("centrality", str(f))
        assert result.returncode == 2
        assert result.stderr.startswith("error: line 2: non-integer")

    def test_usage_error_exit_code(self):
        result = self.run("generate", "--kind", "hexagon", "--l", "4")
        assert result.returncode == 2
