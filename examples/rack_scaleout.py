"""Rack-scale DPU analytics (paper §1, §2, §4).

Run:  python examples/rack_scaleout.py

The paper's larger project packs 1440 DPUs in a 42U rack — >10 TB/s
of aggregate memory bandwidth and >10 TB of DRAM inside a 20 kW
budget — and scaled applications across 500+ DPU clusters through
each DPU's A9 Infiniband endpoint.

This example does both halves:

1. simulates a small cluster faithfully — every DPU's dpCores, DMS
   and A9 uplink are event-simulated — running a distributed
   distinct-count (HyperLogLog) and a distributed filtered count;
2. prints the rack-scale provisioning arithmetic that motivated the
   whole design.

Exit status is 1 if a simulated result fails its host check: the
filtered count must be exact, and the HyperLogLog estimate must lie
within three standard errors (3 x 1.04 / sqrt(2^precision)) of the
true distinct count.
"""

import sys

import numpy as np

from repro.cluster import (
    PAPER_RACK,
    Cluster,
    cluster_filter_count,
    cluster_hll,
)


HLL_PRECISION = 12


def main():
    rng = np.random.default_rng(31)
    num_dpus = 6
    failures = []

    print(f"simulating a {num_dpus}-DPU cluster "
          f"({num_dpus * 32} dpCores total)...\n")

    # -- distributed distinct count ------------------------------------
    pool = rng.integers(0, 2**63, 60000, dtype=np.uint64)
    shards = [rng.choice(pool, 40000) for _ in range(num_dpus)]
    truth = len(np.unique(np.concatenate(shards)))
    cluster = Cluster(num_dpus=num_dpus)
    hll = cluster_hll(cluster, shards, precision=HLL_PRECISION)
    error = abs(hll.value - truth) / truth
    bound = 3 * 1.04 / np.sqrt(2 ** HLL_PRECISION)
    print("distributed HyperLogLog (sketch locally, merge at DPU 0):")
    print(f"  estimate {hll.value:.0f} vs true {truth} "
          f"({error * 100:.1f}% error, bound {bound * 100:.1f}%)")
    if error > bound:
        failures.append(f"HLL error {error:.4f} exceeds {bound:.4f}")
    print(f"  network traffic: {hll.network_bytes} bytes "
          f"({num_dpus} register files) — the data never moved")

    # -- distributed filtered count -------------------------------------
    shards2 = [rng.integers(0, 10000, 200000).astype(np.int32)
               for _ in range(num_dpus)]
    cluster2 = Cluster(num_dpus=num_dpus)
    count = cluster_filter_count(cluster2, shards2, 9000, 9499)
    expected = sum(int(((s >= 9000) & (s <= 9499)).sum()) for s in shards2)
    print(f"\ndistributed FILT count over "
          f"{sum(len(s) for s in shards2)} rows:")
    print(f"  result {count.value} (host check: {expected}), "
          f"{count.seconds * 1e3:.2f} ms simulated")
    if count.value != expected:
        failures.append(f"filter count {count.value} != {expected}")

    # -- the rack arithmetic ----------------------------------------------
    rack = PAPER_RACK
    print(f"\nthe paper's rack ({rack.num_dpus} DPUs):")
    print(f"  aggregate memory bandwidth: "
          f"{rack.aggregate_bandwidth_tbps:.1f} TB/s   (paper: >10)")
    print(f"  memory capacity:            "
          f"{rack.total_capacity_tb:.1f} TB     (paper: >10)")
    print(f"  provisioned power:          {rack.total_watts / 1000:.1f} kW"
          f"    (budget: {rack.rack_budget_watts / 1000:.0f} kW)")
    print(f"  10 TB scan at measured DMS efficiency: "
          f"{rack.seconds_to_scan(10.0):.2f} s  (design goal: sub-second"
          f" per §1)")

    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
