"""Recover seeds from scrambled grown trees at desk scale.

Three finders, three regimes:

- path seeds: output the most central floor((1-gamma) l) vertices, aiming
  for a set contained in the seed (first kind);
- star seeds: find the most central vertex and absorb its largest
  branches until ceil((1+gamma) l) vertices are collected, aiming for a
  superset of the seed (second kind);
- recursive-tree seeds: a first-kind finder with a much smaller, depth-
  scaled output.

The published guarantees are asymptotic in l, but the finders behave
well far below those thresholds; this script measures how well.
"""

import argparse
import time

from seed_archeology import (
    ExperimentConfig,
    FinderKind,
    FinderParams,
    SeedSpec,
    run_trial_artifacts,
)

SETUPS = [
    ("path", ExperimentConfig(
        seed_spec=SeedSpec.path(50), n=5_000, finder=FinderKind.PATH,
        params=FinderParams(l=50, gamma=0.5, epsilon=0.1),
        trials=1, master_seed=2024)),
    ("star", ExperimentConfig(
        seed_spec=SeedSpec.star(100), n=10_000, finder=FinderKind.STAR,
        params=FinderParams(l=100, gamma=0.3, epsilon=0.1),
        trials=1, master_seed=2024)),
    ("urrt", ExperimentConfig(
        seed_spec=SeedSpec.urrt(300), n=30_000, finder=FinderKind.URRT,
        params=FinderParams(l=300, gamma=0.5, epsilon=0.1),
        trials=1, master_seed=2024)),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=25,
                        help="trials per setup (default 25)")
    args = parser.parse_args()

    print(f"{args.trials} trials per setup; success of the first kind means "
          f"output inside the seed,")
    print("success of the second kind means seed inside the output.")
    print()
    header = (f"{'seed':6s} {'n':>6s} {'output':>6s} {'first':>6s} "
              f"{'second':>6s} {'ms/trial':>9s}")
    print(header)
    for name, config in SETUPS:
        first = second = out_size = 0
        started = time.perf_counter()
        for t in range(args.trials):
            record = run_trial_artifacts(config, t).record
            first += record.success_first
            second += record.success_second
            out_size = record.output_size
        ms = 1000.0 * (time.perf_counter() - started) / args.trials
        print(f"{name:6s} {config.n:6d} {out_size:6d} "
              f"{first:3d}/{args.trials:<2d} {second:3d}/{args.trials:<2d} "
              f"{ms:9.1f}")
    print()
    print("the path and urrt finders trade coverage for purity (small output,")
    print("first kind); the star finder overshoots on purpose (second kind).")


if __name__ == "__main__":
    main()
