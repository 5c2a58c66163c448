"""§1/§2 rack provisioning claims + cluster scale-out efficiency.

The introduction's design point: ~1000 memory channels per rack to
scan 10 TB in under a second, >10 TB/s aggregate bandwidth and >10 TB
capacity within a 20 kW budget. Plus a measured scale-out run: the
distributed FILT count's efficiency as DPUs are added.
"""

import numpy as np
from conftest import run_once

from repro.cluster import PAPER_RACK, Cluster, cluster_filter_count


def test_sec1_rack_provisioning(benchmark, report):
    rack = run_once(benchmark, lambda: PAPER_RACK)
    report(
        "§1: rack provisioning arithmetic (1440 DPUs)",
        "metric value",
        [f"aggregate bandwidth: {rack.aggregate_bandwidth_tbps:.1f} TB/s "
         "(claim: >10)",
         f"memory capacity: {rack.total_capacity_tb:.1f} TB (claim: >10)",
         f"provisioned power: {rack.total_watts / 1000:.1f} kW "
         f"(budget {rack.rack_budget_watts / 1000:.0f} kW)",
         f"10 TB scan: {rack.seconds_to_scan(10.0):.2f} s "
         "(goal: sub-second)"],
    )
    benchmark.extra_info["tbps"] = rack.aggregate_bandwidth_tbps
    assert rack.aggregate_bandwidth_tbps > 10.0
    assert rack.total_capacity_tb > 10.0
    assert rack.within_budget()
    assert rack.seconds_to_scan(10.0) < 1.0


def test_sec4_cluster_scaleout_efficiency(benchmark, report):
    """Distributed FILT count: near-linear scaling, since only tiny
    partials cross the fabric while shards scan locally."""

    def run():
        rng = np.random.default_rng(5)
        timings = {}
        for num_dpus in (1, 2, 4):
            shards = [rng.integers(0, 1000, 131072).astype(np.int32)
                      for _ in range(num_dpus)]
            cluster = Cluster(num_dpus=num_dpus)
            result = cluster_filter_count(cluster, shards, 100, 199)
            timings[num_dpus] = result.seconds
        return timings

    timings = run_once(benchmark, run)
    rows = [f"{n} DPU(s): {seconds * 1e3:7.3f} ms per shard set"
            for n, seconds in timings.items()]
    report("§4: scale-out efficiency (equal shard per DPU)",
           "cluster  time", rows)
    # Weak scaling: every DPU scans its equal shard at the same time,
    # so adding DPUs costs only the longer gather.
    assert timings[4] < 1.6 * timings[1]
    benchmark.extra_info.update(
        {f"dpus_{n}": t for n, t in timings.items()}
    )
