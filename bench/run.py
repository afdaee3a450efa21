"""Benchmark for seed-archeology: seed recovery, shape I/O and formula checks.

Usage, from the root of a checkout:

    python3 bench/run.py --workload desk_trials --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1

Each workload runs in this one process at parallelism 1.  Operations run
in whole rounds until the timed phase reaches ``--seconds``; every output
is checked outside the timed window.  ``setup_s`` is the median over
several cold starts, each a fresh interpreter that imports the package
from ``src/`` and prepares the workload's inputs.  With ``--trace 1`` the
run records spans around the package's public functions and reports the
per-layer metrics instead (see README.md).  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("desk_trials", "ranked_star_trials", "shape_roundtrip", "formula_suites")
#: Cold starts per run for setup_s, after one uncounted warm-up start.
SETUP_STARTS = 9

# Parallelism 1: keep numpy's thread pools at one thread, here and in
# every cold start, which inherits the environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def import_package() -> None:
    """Put the checkout's src/ first on the path and import the package."""
    src = ROOT / "src"
    if not (src / "seed_archeology" / "__init__.py").is_file():
        sys.exit(f"error: no seed_archeology package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import seed_archeology

    if Path(seed_archeology.__file__).resolve().parent.parent != src:
        sys.exit(f"error: imported seed_archeology from {seed_archeology.__file__}, not {src}")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


class ColdStarts:
    """setup_s samples: fresh interpreters that import the package and
    prepare the workload's inputs, timed from launch to ready.

    The starts are spread over the run, between operations, so that one
    slow stretch of a shared machine does not set the median.  One
    uncounted start first leaves caches as every later start finds them.
    """

    def __init__(self, args) -> None:
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                    "--seed", str(args.seed), "--setup-probe"]
        self.samples: list[float] = []
        self.start()
        self.samples.clear()

    def start(self) -> None:
        import subprocess

        started = time.perf_counter()
        with subprocess.Popen(self.cmd, stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            ready = time.perf_counter()
            probe.stdout.read()
        if line.strip() != "ready" or probe.returncode != 0:
            sys.exit(f"error: cold start failed (exit {probe.returncode}): {line!r}")
        self.samples.append(ready - started)

    def due(self, timed: float, seconds: float) -> None:
        """Start those whose share of the timed phase has passed."""
        while len(self.samples) < SETUP_STARTS and timed >= len(self.samples) * seconds / SETUP_STARTS:
            self.start()

    def median(self) -> float:
        import statistics

        while len(self.samples) < SETUP_STARTS:
            self.start()
        return statistics.median(self.samples)


def run_workload(args) -> dict:
    import resource
    import shutil
    import tempfile
    import traceback

    import checker
    import spans
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT, prefix=f"{args.workload}-"))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        cold_starts = None if args.trace else ColdStarts(args)
        problems = [f"checker self-test: {p}" for p in checker.selftest()]

        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            spans.install(tracer, workload.trial_label)
        op_seconds: list[float] = []
        failed = 0
        timed = 0.0
        while timed < args.seconds:
            for _ in range(workload.round_size):
                i = len(op_seconds)
                x = workload.inputs(i)
                if tracer:
                    tracer.op, tracer.recording = i, True
                started = time.perf_counter()
                try:
                    out = workload.op(x)
                    raised = False
                except Exception:
                    raised = True
                elapsed = time.perf_counter() - started
                if tracer:
                    tracer.recording = False
                op_seconds.append(elapsed)
                timed += elapsed
                if raised:
                    traceback.print_exc()
                    failed += 1
                    continue
                try:
                    failed += workload.check(x, out)
                except Exception as exc:
                    problems.append(f"op {i}: {type(exc).__name__}: {exc}")
                if cold_starts:
                    cold_starts.due(timed, args.seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup = cold_starts.median() if cold_starts else None
        try:
            workload.finish()
        except Exception as exc:
            problems.append(f"finish: {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in problems:
        print(f"CHECK FAILED {line}", file=sys.stderr)
    attempted = len(op_seconds)
    print(f"{args.workload} seed={args.seed}: {attempted} ops attempted, {failed} failed, "
          f"checks {'passed' if not problems else 'FAILED'}")
    if workload.report():
        print(workload.report())

    if tracer:
        values, extra = spans.layer_metrics(tracer, op_seconds)
        metrics = {k: {"value": values[k], "unit": spans.UNITS[k]} for k in spans.UNITS}
        summary = {"workload": args.workload, "seed": args.seed, "metrics": metrics, "detail": extra}
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(path, summary)
        print(f"spans written to {path.relative_to(ROOT)}")
        for name, info in extra.items():
            if isinstance(info, dict) and "tail_percentile" in info:
                print(f"  {name}: median {values[name]:.4g}, p{info['tail_percentile']} "
                      f"{info['tail_value']:.4g} over {info['samples']} samples")
        print(f"  self times sum to {extra['self_time_sum_s']:.4f} s of {extra['op_time_sum_s']:.4f} s op time")
    else:
        metrics = {
            "ops_per_s": {"value": attempted / timed, "unit": "1/s"},
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own process, one after another."""
    import subprocess

    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
    return {"correct": all(r["correct"] for r in results.values()), "workloads": results}


def main() -> None:
    args = parse_args()
    if args.workload == "all":
        result = run_all(args)
    else:
        import_package()
        if args.setup_probe:
            import shutil

            import workloads

            workdir = OUT / f"cold-start-{os.getpid()}"
            workdir.mkdir()
            workloads.WORKLOADS[args.workload](args.seed, workdir).inputs(0)
            print("ready", flush=True)
            shutil.rmtree(workdir)
            return
        result = run_workload(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
