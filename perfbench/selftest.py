"""Self-test of the benchmark itself.

Usage (from the repository root)::

    python3 perfbench/selftest.py [workload ...]

For each workload (all four by default):

* two traced runs on the default seed must give bit-identical
  simulated metrics, layer counts, and op counts;
* one brief run on the held-out seed must pass the oracle with no
  failed op.

Each run is one round (``seconds=0``). Exits 1 on any failure.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import suite  # noqa: E402

# Metrics read off the simulated clock or the program's counters:
# they must not change between two runs of one seed.
SIMULATED_E2E = ("pass_share", "compile_share", "sim_p50_cycles",
                 "sim_tail_cycles", "sim_cycles", "perfw_geomean")
SIMULATED_LAYER = (
    "serve.result_hit_share", "serve.batch_size_mean",
    "serve.gold_tail_cycles", "serve.bronze_tail_cycles",
    "sql.cycles_per_row", "dms.descriptors", "memory.ddr_bytes",
    "memory.ddr_busy_share", "memory.row_misses", "cluster.serial_ratio",
    "cluster.gather_cycles", "cluster.network_bytes",
    "cluster.exchange_cycles", "recovery.cycles",
    "recovery.detection_cycles", "recovery.election_cycles",
    "recovery.reexec_share", "recovery.resends", "recovery.journal_bytes",
    "sim.timeouts", "sim.processes",
)


def _simulated(run) -> dict:
    e2e = suite.end_to_end(run, peak_rss_mb=0.0)
    layer = suite.per_layer(run)
    values = {name: e2e[name][0] for name in SIMULATED_E2E}
    values.update({name: layer[name][0] for name in SIMULATED_LAYER
                   if name in layer})
    values["attempted"] = run.attempted
    values["failed"] = run.failed
    return values


def check(workload: str) -> list:
    problems = []
    first, second = (
        _simulated(suite.measure(workload, suite.DEFAULT_SEED, 0.0, True))
        for _ in range(2))
    for name, value in first.items():
        if repr(value) != repr(second.get(name)):
            problems.append(f"{name}: {value!r} then {second.get(name)!r} "
                            f"on seed {suite.DEFAULT_SEED}")
    held = suite.measure(workload, suite.HELD_OUT_SEED, 0.0, False)
    if held.failed or held.mismatches or held.nondeterministic:
        problems.append(
            f"held-out seed {suite.HELD_OUT_SEED}: {held.failed} of "
            f"{held.attempted} ops failed: {held.errors}")
    return problems


def main(argv) -> int:
    workloads = argv or list(suite.WORKLOADS)
    failures = 0
    for workload in workloads:
        problems = check(workload)
        failures += bool(problems)
        print(f"{workload}: {'FAIL' if problems else 'ok'}")
        for problem in problems:
            print(f"  {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
