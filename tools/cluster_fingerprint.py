"""Fingerprint every ``cluster_*`` job, fault-free and under chaos.

A refactor of the cluster-job layer (``repro.cluster.scaleout``,
``recovery``, ``shuffle``) should leave every job's simulated outcome
bit-identical. This script runs each entry of the ``JOBS`` table in
``tests/test_cluster_concurrency.py`` on fresh clusters and records,
per run, ``cycles``, a digest of ``value``, ``network_bytes``,
``retransmissions``, ``detail`` and ``RecoveryStats.counters()``:

* fault-free at 1, 2, 4 and 8 DPUs;
* at 2 and 4 DPUs under a DPU-0 (coordinator) kill and a DPU-1 kill,
  each early (cycle 15,000) and at half the job's fault-free cycles,
  and under a ``dpu.slow`` straggler on DPU 1 long enough to trigger
  speculative re-execution.

Usage::

    PYTHONPATH=src python tools/cluster_fingerprint.py run before.json
    PYTHONPATH=src python tools/cluster_fingerprint.py compare before.json after.json

``compare`` prints every differing field and exits 1 on any
difference.
"""

import json
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent / "tests"
sys.path.insert(0, str(TESTS))

from test_cluster_concurrency import JOBS, inputs  # noqa: E402
from test_equivalence import digest  # noqa: E402

from repro.cluster import Cluster  # noqa: E402
from repro.faults import ChaosSpec, FaultPlan  # noqa: E402


def _fingerprint(result):
    return {
        "cycles": float(result.cycles),
        "value": digest(result.value),
        "network_bytes": int(result.network_bytes),
        "retransmissions": int(result.retransmissions),
        "detail": result.detail,
        "recovery": (result.recovery.counters()
                     if result.recovery is not None else None),
    }


def _chaos_plans(clean_cycles):
    half = clean_cycles / 2
    return {
        "kill0_early": ChaosSpec("dpu.dead", (0,), at_cycle=15_000.0),
        "kill0_mid": ChaosSpec("dpu.dead", (0,), at_cycle=half),
        "kill1_early": ChaosSpec("dpu.dead", (1,), at_cycle=15_000.0),
        "kill1_mid": ChaosSpec("dpu.dead", (1,), at_cycle=half),
        "slow1": ChaosSpec("dpu.slow", (1,), at_cycle=0.0,
                           duration=2_000_000.0, factor=4.0),
    }


def run():
    data = inputs.__wrapped__()
    prints = {}
    for job in sorted(JOBS):
        for num_dpus in (1, 2, 4, 8):
            clean = JOBS[job](Cluster(num_dpus), num_dpus, data)
            prints[f"{job}/{num_dpus}/clean"] = _fingerprint(clean)
            if num_dpus not in (2, 4):
                continue
            for name, spec in _chaos_plans(clean.cycles).items():
                cluster = Cluster(
                    num_dpus, fault_plan=FaultPlan.none().with_chaos(spec))
                result = JOBS[job](cluster, num_dpus, data)
                prints[f"{job}/{num_dpus}/{name}"] = _fingerprint(result)
    return prints


def compare(before, after):
    differences = 0
    for key in sorted(set(before) | set(after)):
        old, new = before.get(key), after.get(key)
        if old == new:
            continue
        differences += 1
        if old is None or new is None:
            print(f"{key}: only in {'after' if old is None else 'before'}")
            continue
        for field in sorted(set(old) | set(new)):
            if old.get(field) != new.get(field):
                print(f"{key} {field}: {old.get(field)!r} -> "
                      f"{new.get(field)!r}")
    print(f"{len(before)} runs before, {len(after)} after, "
          f"{differences} differ")
    return differences


def main(argv):
    if len(argv) == 2 and argv[0] == "run":
        prints = run()
        Path(argv[1]).write_text(json.dumps(prints, indent=1,
                                            sort_keys=True) + "\n")
        print(f"{len(prints)} runs written to {argv[1]}")
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        before, after = (json.loads(Path(path).read_text())
                         for path in argv[1:])
        return 1 if compare(before, after) else 0
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
