"""Command-line surface.

Subcommands: ``generate`` (build and grow trees), ``centrality``
(per-vertex anti-centrality as CSV), ``find`` (run a seed finder on a
serialized shape), ``stats`` (per-tree statistic reports as CSV),
``experiment run`` / ``experiment validate`` (the Monte Carlo harness and
its checks of the exact formulas).

Master seeds resolve in this order: an explicit ``--master-seed`` flag
wins; otherwise the ``SEED_ARCHEOLOGY_SEED`` environment variable
overrides the built-in default (and, for ``experiment run``, the value
committed in the config file).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .centrality import anti_centrality
from .experiment import (
    VALIDATION_SUITES,
    load_config,
    run_experiment,
    validate_formulas,
)
from .finders import (
    FinderKind,
    FinderParams,
    find_path_seed,
    find_star_seed,
    find_urrt_seed,
)
from .rng import DEFAULT_MASTER_SEED, RngHandle, master_seed_from_env
from .stats import count_camouflaging, descendant_histogram, singleton_parents
from .trees import (
    ArrivalTree,
    SeedKind,
    SeedSpec,
    ShapeView,
    build_seed,
    grow,
    identity_view,
    scramble,
    _format_rows,
    _split_header,
)

__all__ = ["main", "build_parser"]

def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seed-archeology",
        description="Grow uniform attachment trees and hunt for their seeds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="build a seed and grow it")
    p.add_argument(
        "--kind",
        required=True,
        choices=[kind.value for kind in SeedKind],
        help="seed family",
    )
    p.add_argument("--l", type=int, help="seed size (required unless custom)")
    p.add_argument(
        "--parents",
        help="comma-separated parents of vertices 2..l (custom seeds only)",
    )
    p.add_argument(
        "--n", type=int, help="final tree size (default: the bare seed)"
    )
    _add_seed_args(p)
    p.add_argument(
        "--scramble",
        action="store_true",
        help="emit a label-scrambled shape instead of the arrival tree",
    )
    p.add_argument(
        "--permutation-out",
        help="with --scramble: also write the hidden relabeling here",
    )
    p.add_argument("--output", help="write here instead of stdout")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser(
        "centrality", help="per-vertex anti-centrality as CSV"
    )
    p.add_argument("input", help="tree or shape file ('-' for stdin)")
    p.add_argument("--output", help="write here instead of stdout")
    p.set_defaults(func=_cmd_centrality)

    p = sub.add_parser("find", help="run a seed finder on a shape")
    p.add_argument("input", help="shape file ('-' for stdin)")
    p.add_argument(
        "--kind", required=True, choices=[kind.value for kind in FinderKind]
    )
    p.add_argument("--l", type=int, required=True, help="seed size to look for")
    p.add_argument("--gamma", type=float, required=True, help="slack in (0,1)")
    p.add_argument(
        "--epsilon", type=float, required=True, help="failure budget in (0,1)"
    )
    p.add_argument(
        "--jog-loh-c",
        type=float,
        default=1.0,
        help="constant in the star guarantee threshold (default 1)",
    )
    _add_seed_args(p)
    p.add_argument("--output", help="write here instead of stdout")
    p.set_defaults(func=_cmd_find)

    p = sub.add_parser("stats", help="per-tree statistic reports as CSV")
    p.add_argument(
        "--report",
        required=True,
        choices=["descendants", "singletons", "camouflage"],
        help="which statistic to report for each tree file",
    )
    p.add_argument("trees", nargs="*", help="arrival tree files")
    p.add_argument("--l", type=int, help="prefix size (camouflage report)")
    p.add_argument("--output", help="write here instead of stdout")
    p.set_defaults(func=_stats_report)

    p = sub.add_parser("experiment", help="Monte Carlo harness")
    esub = p.add_subparsers(dest="subcommand", required=True)

    q = esub.add_parser("run", help="run an experiment config")
    q.add_argument("config", help="JSON config file")
    q.add_argument(
        "--debug-dump",
        help="directory for per-trial trees, relabelings, and estimates",
    )
    q.set_defaults(func=_cmd_experiment_run)

    q = esub.add_parser(
        "validate", help="Monte Carlo checks of the exact formulas"
    )
    q.add_argument("suite", choices=list(VALIDATION_SUITES))
    q.add_argument("--trials", type=int, help="override the suite default")
    _add_seed_args(q)
    q.add_argument("--output", help="write here instead of stdout")
    q.set_defaults(func=_cmd_experiment_validate)

    return parser


def _add_seed_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--master-seed",
        type=int,
        default=None,
        help="master seed (default: SEED_ARCHEOLOGY_SEED or "
        f"{DEFAULT_MASTER_SEED})",
    )
    p.add_argument(
        "--stream", type=int, default=0, help="stream index (default 0)"
    )


def _resolve_rng(args) -> RngHandle:
    if args.master_seed is not None:
        seed = args.master_seed
    else:
        seed = master_seed_from_env(DEFAULT_MASTER_SEED)
    return RngHandle(seed, args.stream)


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as f:
            f.write(text)


def _load_view(text: str) -> ShapeView:
    if "l=" in _split_header(text)[0]:
        # An arrival tree: operate on it under its own labels.
        return identity_view(ArrivalTree.from_text(text))
    return ShapeView.from_text(text)


def _parse_parents(text: str) -> list[int]:
    """The integers of a comma-separated ``--parents`` list; blank entries
    are skipped, and a bad one is named by its position from 1."""
    parents = []
    for pos, tok in enumerate(text.split(","), start=1):
        if not tok.strip():
            continue
        try:
            parents.append(int(tok))
        except ValueError:
            raise ValueError(
                f"--parents entry {pos} is {tok.strip()!r}, not an integer"
            ) from None
    return parents


def _cmd_generate(args) -> int:
    if args.permutation_out and not args.scramble:
        raise ValueError("--permutation-out requires --scramble")
    if args.kind == "custom":
        if not args.parents:
            raise ValueError("custom seeds need --parents")
        spec = SeedSpec.custom(_parse_parents(args.parents))
        if args.l is not None and args.l != spec.l:
            raise ValueError(
                f"--l {args.l} disagrees with --parents ({spec.l} vertices)"
            )
    else:
        if args.l is None:
            raise ValueError("--l is required for path/star/urrt seeds")
        spec = SeedSpec(SeedKind(args.kind), args.l)
    n = args.n if args.n is not None else spec.l
    rng = _resolve_rng(args)
    tree = grow(build_seed(spec, rng), n, rng)
    if args.scramble:
        view = scramble(tree, rng)
        if args.permutation_out:
            _emit(view.permutation_to_text(), args.permutation_out)
        _emit(view.to_text(), args.output)
    else:
        _emit(tree.to_text(), args.output)
    return 0


def _cmd_centrality(args) -> int:
    view = _load_view(_read_input(args.input))
    profile = anti_centrality(view)
    labels = np.arange(1, view.n + 1)
    is_centroid = np.isin(labels, list(profile.centroids))
    rows = _format_rows(labels, profile.psi[1:], is_centroid, sep=",")
    _emit("vertex,psi,is_centroid\n" + rows, args.output)
    return 0


def _cmd_find(args) -> int:
    view = _load_view(_read_input(args.input))
    params = FinderParams(
        l=args.l,
        gamma=args.gamma,
        epsilon=args.epsilon,
        jog_loh_c=args.jog_loh_c,
    )
    finder = {
        "path": find_path_seed,
        "star": find_star_seed,
        "urrt": find_urrt_seed,
    }[args.kind]
    estimate = finder(view, params, _resolve_rng(args))
    _emit(estimate.to_text(), args.output)
    return 0


def _stats_report(args) -> int:
    if args.report == "camouflage" and args.l is None:
        raise ValueError("camouflage report needs --l")
    if not args.trees:
        raise ValueError("reports need at least one tree file")
    trees = [(path, ArrivalTree.from_text(_read_input(path))) for path in args.trees]
    if args.report == "descendants":
        rows = ["tree,k,exactly,at_least\n"]
        for path, tree in trees:
            hist = descendant_histogram(tree)
            # Rows stop before the first k that no vertex reaches.
            k = np.arange(np.count_nonzero(hist.at_least))
            rows.append(
                _format_rows(
                    k,
                    hist.exactly[k],
                    hist.at_least[k],
                    sep=",",
                    prefix=_csv_field(path) + ",",
                )
            )
    elif args.report == "singletons":
        rows = ["tree,n,singleton_parents\n"]
        for path, tree in trees:
            report = singleton_parents(tree)
            rows.append(f"{_csv_field(path)},{tree.n},{report.S}\n")
    else:
        rows = ["tree,l,singleton_parents,camouflaging\n"]
        for path, tree in trees:
            report = count_camouflaging(tree, args.l)
            rows.append(
                f"{_csv_field(path)},{args.l},{report.S},{report.G}\n"
            )
    _emit("".join(rows), args.output)
    return 0


def _csv_field(text: str) -> str:
    """`text` as one CSV field: quoted, with inner quotes doubled, when it
    holds a comma, a quote, CR or LF (the rule of Python's `csv` module);
    otherwise unchanged."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _cmd_experiment_run(args) -> int:
    config = load_config(args.config, honor_env=True)
    summary = run_experiment(config, debug_dump=args.debug_dump)
    sys.stdout.write(json.dumps(summary.to_dict(), indent=2) + "\n")
    return 0


def _cmd_experiment_validate(args) -> int:
    report = validate_formulas(args.suite, args.trials, _resolve_rng(args))
    _emit(json.dumps(report, indent=2) + "\n", args.output)
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
