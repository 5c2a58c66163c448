"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_scan --seed 11 \
        --seconds 20 --trace 0

Workloads: serve_scan, serve_hot, cluster_8dpu, tpch_1dpu (see
perfbench/README.md). ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics from a traced run. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it give the
same numbers for a reader. The program is imported from ``src/`` next
to this directory; without it the run exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# Traced runs write their spans here (inside the checkout, ignored).
SPANS_DIR = HERE.parent / ".bench_build"

# Load comes from one single-threaded process: pin every BLAS /
# OpenMP pool numpy might start to one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# numpy asks for transparent huge pages on large arrays; whether the
# kernel has one free decides per run whether a sparsely touched array
# costs 2 MiB of RSS or a few pages (peak RSS 114 or 131 MB on
# cluster_8dpu). Off, peak_rss_mb counts the pages the program touches.
HUGEPAGE_VAR = "NUMPY_MADVISE_HUGEPAGE"


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is KiB on Linux


def _print_summary(suite, run, metrics, trace: bool) -> None:
    share = run.failed / run.attempted
    print(f"workload {run.workload}  seed {run.seed}  "
          f"rounds {len(run.rounds)} untraced, {len(run.traced_rounds)} "
          f"traced  setups {len(run.setup_s)}  ops {run.attempted}  "
          f"failed {run.failed}  fail_share {share:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>18.6g} {unit}")
    speed = run.speed
    print(f"  host times scaled to a {suite.CALIBRATION_REF_S * 1e3:g} ms "
          f"calibration loop: set-up x {speed.scale('setup'):.4f} "
          f"({len(speed.samples['setup'])} loops), rounds x "
          f"{speed.scale('round'):.4f} ({len(speed.samples['round'])} "
          f"loops); unscaled setup_s "
          f"{statistics.median(run.setup_s):.6g} s, ops_per_s "
          f"{statistics.median(p / s for s, p in run.rounds):.6g} 1/s")
    if not trace:
        latencies = [v for unit in run.first for v in unit.latencies]
        _value, pct, beyond = suite.tail(latencies)
        print(f"  sim_tail_cycles is p{pct:.2f} of {len(latencies)} "
              f"sim latencies, {beyond} beyond it")
    for name, error in sorted(run.compile_errors.items()):
        print(f"  compile gap: {name}: PlanError: {error}")
    for error in run.errors:
        print(f"  failed op: {error}")
    if run.nondeterministic:
        print(f"  NONDETERMINISTIC: {run.nondeterministic} unit repeats "
              "changed their simulated results")
    if run.recorder is not None and run.recorder.missing:
        print("  not wrapped (gone): "
              + ", ".join(sorted(run.recorder.missing)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("serve_scan", "serve_hot", "cluster_8dpu",
                                 "tpch_1dpu"))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default 11; held out: 2027)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program is not next to the benchmark "
              f"({SRC / 'repro'} is missing)", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ[HUGEPAGE_VAR] = "0"
    sys.path[:0] = [str(SRC), str(HERE)]
    import suite

    seed = suite.DEFAULT_SEED if args.seed is None else args.seed
    run = suite.measure(args.workload, seed, args.seconds, bool(args.trace))
    if args.trace:
        metrics = suite.per_layer(run)
    else:
        metrics = suite.end_to_end(run, _peak_rss_mb())
    correct = run.mismatches == 0 and run.nondeterministic == 0
    _print_summary(suite, run, metrics, bool(args.trace))
    if args.trace:
        spans_file = SPANS_DIR / f"spans-{args.workload}-{seed}.json"
        run.recorder.write(spans_file, workload=args.workload, seed=seed)
        print(f"  spans written to {spans_file}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
