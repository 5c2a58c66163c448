"""Continuous sim-time metrics for TPC-H Q1: SLOs, chaos, a report.

Run:  PYTHONPATH=src python examples/metrics_tpch.py [metrics.jsonl]

Two acts, one metrics pipeline (``repro.obs.metrics``):

1. **Single DPU under an SLO.** Runs the paper's Q1 plan (a filtered
   six-aggregate GROUP BY over lineitem) with the hub sampling every
   10k cycles and a p99 latency SLO on the groupby operator. The rule
   is set tight enough that the run breaches it, so the alert path —
   digest, threshold, structured alert — shows up in the output.

2. **Cluster chaos.** Re-runs Q1 sharded over a 2-DPU rack and
   chaos-kills the coordinator (DPU 0) mid-job. The hub annotates the
   kill and the recovery (declare-dead, leader election), a
   fabric-idle rule fires during the post-kill lease window, and the
   job still completes. The exported JSONL renders the full health
   report: timelines, fabric heatmap, alert log, annotations.

Exit status is non-zero if the chaos-recovered Q1 differs from the
one-DPU reference or if either export fails JSONL schema validation,
which is how CI uses this script.
"""

import sys

from repro.apps.sql import (Table, compile_query, load_query,
                            load_tpch_on_dpu, run_query, tpch_catalog)
from repro.baseline import XeonModel
from repro.cluster import Cluster, cluster_compiled_query
from repro.core import DPU
from repro.faults import ChaosSpec, FaultPlan
from repro.obs import validate_metrics_jsonl
from repro.obs.metrics import render_report, _load_records
from repro.workloads.tpch import generate_tpch


def shard_table(table, num_shards, name="li"):
    """Row-range shards of one table, as in the scale-out benchmarks."""
    total = len(next(iter(table.values())))
    bounds = [round(total * i / num_shards) for i in range(num_shards + 1)]
    return [
        Table(
            f"{name}{i}",
            {n: c[bounds[i]:bounds[i + 1]] for n, c in table.items()},
        )
        for i in range(num_shards)
    ]


def single_dpu_act(data):
    """Q1 on one DPU with a (deliberately breached) p99 operator SLO."""
    dpu = DPU()
    hub = dpu.enable_metrics(cadence=10_000.0)
    hub.add_rule("p99(sql.groupby.cycles) > 1e4 for 0", name="q1-p99")
    tables = load_tpch_on_dpu(dpu, data)
    dpu_result, xeon_result = run_query("Q1", dpu, tables, data, XeonModel())
    # The operator digest fills as host-side wrappers return; one
    # final sample evaluates the SLO against the completed run.
    hub.flush()
    print(f"Q1 on DPU: {dpu_result.seconds * 1e6:.0f} us simulated "
          f"({xeon_result.seconds * 1e6:.0f} us on the Xeon model)")
    groupby = hub.digests["sql.groupby.cycles"]
    print(f"sql.groupby p99: {groupby.p99:.0f} cycles over "
          f"{groupby.count:.0f} calls")
    for alert in hub.alerts:
        print(f"alert: t={alert.t:.0f} {alert.state.upper()} {alert.rule} "
              f"value={alert.value:.0f} threshold={alert.threshold:.0f}")
    return hub


def cluster_chaos_act(data):
    """Q1 sharded over 2 DPUs, coordinator chaos-killed mid-job.
    Returns the hub and whether the result matched the reference."""
    q1 = compile_query(load_query("q1"), tpch_catalog(data), "q1")
    shards = shard_table(data.tables["lineitem"], 2)
    reference = cluster_compiled_query(
        Cluster(1), q1, shard_table(data.tables["lineitem"], 1),
        "pre_aggregate",
    ).value

    plan = FaultPlan.none().with_chaos(
        ChaosSpec("dpu.dead", (0,), at_cycle=15_000.0)
    )
    cluster = Cluster(2, fault_plan=plan)
    hub = cluster.enable_metrics(cadence=5_000.0)
    # Heartbeats repaint the fabric every 50k cycles; a 20k-cycle
    # sustain window detects the post-kill idle lease in between.
    hub.add_rule("rate(fabric.bytes_sent) < 1.0 for 20000",
                 name="fabric-idle")
    result = cluster_compiled_query(cluster, q1, shards, "pre_aggregate")
    matches = result.value == reference
    print(f"cluster Q1 with coordinator kill: "
          f"{'byte-equal' if matches else 'MISMATCH'}, "
          f"leader {cluster.leader}, "
          f"{len(hub.alerts)} alert transitions, "
          f"{len(hub.annotations)} annotations")
    return hub, matches


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    out_path = argv[0] if argv else "metrics.jsonl"

    data = generate_tpch(scale=0.01)
    print("== act 1: single-DPU Q1 under a p99 SLO ==")
    dpu_hub = single_dpu_act(data)

    print("\n== act 2: cluster Q1 with a coordinator kill ==")
    cluster_hub, matches = cluster_chaos_act(data)

    status = 0 if matches else 1
    for label, hub, path in (
        ("dpu", dpu_hub, out_path + ".dpu"),
        ("cluster", cluster_hub, out_path),
    ):
        count = hub.export_jsonl(path)
        problems = validate_metrics_jsonl(path)
        if problems:
            status = 1
            print(f"\n{label} metrics FAILED validation "
                  f"({len(problems)} problems):", file=sys.stderr)
            for problem in problems[:20]:
                print(f"  - {problem}", file=sys.stderr)
        else:
            print(f"\nwrote {path}: {count} records (valid)")

    print()
    print(render_report(_load_records(out_path)))
    if not matches:
        print("\ncluster Q1 under the coordinator kill differs from the "
              "one-DPU reference", file=sys.stderr)
    if status == 0:
        print(f"\nmetrics OK: python -m repro.obs.metrics report {out_path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
