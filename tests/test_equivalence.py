"""Golden-snapshot equivalence harness.

The simulator's host-speed fast paths (batched scheduler, vectorized
data plane, cached descriptor programs) must never change *modelled*
behaviour: cycle counts are the paper's results and the functional
data path is byte-exact. This harness pins both. Each scenario in the
canonical matrix runs a workload end to end and records

* the modelled cycle count (bit-exact float),
* a SHA-256 digest of the result bytes (byte-exact data path),
* the hardware-counter snapshot (every counter the run touched).

Snapshots live in ``tests/goldens/<scenario>.json``. They were
generated on the pre-fast-path tree, so any divergence introduced by
a host-perf change fails here with a readable cycle/byte/counter
diff. Regenerate deliberately with::

    PYTHONPATH=src python -m pytest tests/test_equivalence.py --update-goldens

and review the JSON diff like any other behavioural change.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.apps.sql import (
    AggSpec,
    Between,
    Table,
    dpu_filter,
    dpu_groupby,
    dpu_partitioned_join_count,
    dpu_sort,
    load_tpch_on_dpu,
    run_query,
)
from repro.baseline import XeonModel
from repro.cluster import Cluster, cluster_filter_count, cluster_groupby
from repro.core import DPU, DPU_40NM
from repro.dms import (
    Descriptor,
    DescriptorType,
    PartitionLayout,
    PartitionMode,
    PartitionSpec,
)
from repro.faults import ChaosSpec, FaultPlan
from repro.workloads.tpch import generate_tpch

GOLDEN_DIR = Path(__file__).parent / "goldens"


# -- canonical digests --------------------------------------------------------


def _feed(hasher, obj):
    """Feed ``obj`` into ``hasher`` in a canonical, type-tagged form."""
    if isinstance(obj, np.ndarray):
        hasher.update(b"nd:" + str(obj.dtype).encode() + str(obj.shape).encode())
        hasher.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        hasher.update(b"d:")
        for key in sorted(obj, key=repr):
            _feed(hasher, key)
            _feed(hasher, obj[key])
    elif isinstance(obj, (list, tuple)):
        hasher.update(b"l:")
        for item in obj:
            _feed(hasher, item)
    elif isinstance(obj, float):
        hasher.update(b"f:" + repr(obj).encode())
    elif isinstance(obj, (int, np.integer)):
        hasher.update(b"i:" + str(int(obj)).encode())
    elif isinstance(obj, bytes):
        hasher.update(b"b:" + obj)
    elif obj is None:
        hasher.update(b"n:")
    else:
        hasher.update(b"s:" + str(obj).encode())


def digest(obj) -> str:
    hasher = hashlib.sha256()
    _feed(hasher, obj)
    return hasher.hexdigest()


# -- the scenario matrix ------------------------------------------------------


def _table(seed: int, rows: int) -> Table:
    rng = np.random.default_rng(seed)
    return Table("t", {
        "a": rng.integers(0, 10000, rows).astype(np.int32),
        "b": rng.integers(0, 500, rows).astype(np.int32),
    })


def _snapshot(dpu: DPU, cycles, value) -> dict:
    return {
        "cycles": float(cycles),
        "digest": digest(value),
        "counters": {k: float(v) for k, v in sorted(dpu.stats.snapshot().items())},
    }


def scenario_filter():
    dpu = DPU()
    dtable = _table(101, 16 * 1024).to_dpu(dpu)
    result = dpu_filter(dpu, dtable, Between("a", 1000, 7000))
    return _snapshot(dpu, result.cycles, result.value)


def scenario_gather():
    dpu = DPU(DPU_40NM.with_updates(rtl_gather_bug=False))
    rows = 512
    data = {
        core: dpu.store_array(
            (np.arange(rows, dtype=np.uint64) * 7 + core)
        )
        for core in range(4)
    }
    bv = np.full(rows // 8, 0x9D, dtype=np.uint8)

    def kernel(ctx):
        ctx.dmem.write(16384, bv)
        ctx.push(Descriptor(dtype=DescriptorType.DMEM_TO_DMS,
                            rows=len(bv) // 8, col_width=8, dmem_addr=16384,
                            internal_mem="bv"))
        ctx.push(Descriptor(dtype=DescriptorType.DDR_TO_DMEM,
                            rows=rows, col_width=8,
                            ddr_addr=data[ctx.core_id], dmem_addr=0,
                            gather_src=True, notify_event=0))
        yield from ctx.wfe(0)
        ctx.clear_event(0)

    launch = dpu.launch(kernel, cores=[0, 1, 2, 3])
    selected = int(np.unpackbits(bv).sum())
    out = [dpu.scratchpads[core].read(0, selected * 8) for core in range(4)]
    return _snapshot(dpu, launch.cycles, out)


def scenario_partition():
    dpu = DPU()
    rng = np.random.default_rng(7)
    rows = 4096
    key = rng.integers(0, 2**31, rows).astype(np.uint32)
    payload = rng.integers(0, 2**31, rows).astype(np.uint32)
    key_addr = dpu.store_array(key)
    payload_addr = dpu.store_array(payload)
    spec = PartitionSpec(mode=PartitionMode.HASH, radix_bits=5)
    count_offset = 31 * 1024
    layout = PartitionLayout(target_cores=tuple(range(32)), dmem_base=0,
                             capacity=24 * 1024, count_offset=count_offset)

    def driver(ctx):
        ctx.push(Descriptor(dtype=DescriptorType.HASH_CONFIG, partition=spec,
                            partition_layout=layout))
        chunk = 512
        for start in range(0, rows, chunk):
            count = min(chunk, rows - start)
            ctx.push(Descriptor(dtype=DescriptorType.DDR_TO_DMS, rows=count,
                                col_width=4, ddr_addr=key_addr + start * 4,
                                is_key_column=True))
            ctx.push(Descriptor(dtype=DescriptorType.DDR_TO_DMS, rows=count,
                                col_width=4, ddr_addr=payload_addr + start * 4))
            ctx.push(Descriptor(dtype=DescriptorType.DMS_TO_DMS, partition=spec))
            ctx.push(Descriptor(dtype=DescriptorType.DMS_TO_DMEM, partition=spec))
        while not ctx.dmad.idle():
            yield from ctx.compute(100)

    launch = dpu.launch(driver, cores=[0])
    out = []
    for core in range(32):
        count = int(dpu.scratchpads[core].view(count_offset, 4, np.uint32)[0])
        out.append((count, dpu.scratchpads[core].read(0, count * 8)))
    return _snapshot(dpu, launch.cycles, out)


def scenario_sort():
    dpu = DPU()
    dtable = _table(202, 8 * 1024).to_dpu(dpu)
    result = dpu_sort(dpu, dtable, "a")
    return _snapshot(dpu, result.cycles, result.value)


def scenario_groupby():
    dpu = DPU()
    dtable = _table(303, 8 * 1024).to_dpu(dpu)
    result = dpu_groupby(dpu, dtable, "b",
                         [AggSpec("sum", "a"), AggSpec("count", "a")])
    return _snapshot(dpu, result.cycles, result.value)


def scenario_join():
    dpu = DPU()
    rng = np.random.default_rng(404)
    build = Table("build", {
        "k": rng.integers(0, 1500, 2048).astype(np.uint32),
    }).to_dpu(dpu)
    probe = Table("probe", {
        "k": rng.integers(0, 1500, 6144).astype(np.uint32),
    }).to_dpu(dpu)
    result = dpu_partitioned_join_count(dpu, build, "k", probe, "k")
    return _snapshot(dpu, result.cycles, result.value)


def scenario_tpch_q1():
    data = generate_tpch(scale=0.002, seed=11)
    dpu = DPU()
    tables = load_tpch_on_dpu(dpu, data)
    dpu_result, _xeon = run_query("Q1", dpu, tables, data, XeonModel())
    return _snapshot(dpu, dpu_result.cycles, dpu_result.value)


def scenario_ate_pingpong():
    dpu = DPU()
    rounds = 32
    counter_addr = dpu.address_map.dmem_address(0, 512)

    def kernel(ctx):
        total = 0
        for _ in range(rounds):
            value = yield from ctx.fetch_add(0, counter_addr, 1)
            total += value
            yield from ctx.compute(50)
        return total

    launch = dpu.launch(kernel, cores=[1, 2, 3, 4])
    final = dpu.scratchpads[0].read_u64(512)
    return _snapshot(dpu, launch.cycles, (launch.values, final))


def scenario_cluster_2dpu():
    cluster = Cluster(num_dpus=2)
    rng = np.random.default_rng(505)
    shards = [rng.integers(0, 10000, 4096).astype(np.int64) for _ in range(2)]
    result = cluster_filter_count(cluster, shards, 2000, 8000)
    counters = {k: float(v)
                for k, v in sorted(cluster.dpus[0].stats.snapshot().items())}
    counters["net.bytes_sent"] = float(result.network_bytes)
    return {
        "cycles": float(result.cycles),
        "digest": digest(result.value),
        "counters": counters,
    }


def scenario_cluster_2dpu_failover():
    """Coordinator kill mid-exchange: DPU 0 dies at cycle 40,000,
    inside the all-to-all, so the recovery manager's exchange runs
    across a leader takeover and its gather runs under the new leader
    with DPU 0's slot re-partitioned on DPU 1."""
    plan = FaultPlan.none().with_chaos(
        ChaosSpec("dpu.dead", (0,), at_cycle=40_000.0))
    cluster = Cluster(num_dpus=2, fault_plan=plan)
    rng = np.random.default_rng(606)
    columns = {"k": rng.integers(0, 64, 8192).astype(np.int64),
               "v": rng.integers(0, 1000, 8192).astype(np.int64)}
    shards = [Table(f"s{i}", {name: column[i * 4096:(i + 1) * 4096]
                              for name, column in columns.items()})
              for i in range(2)]
    result = cluster_groupby(cluster, shards, "k",
                             [AggSpec("sum", "v"), AggSpec("count")])
    counters = {f"recovery.{k}": float(v)
                for k, v in sorted(result.recovery.counters().items())}
    counters["net.bytes_sent"] = float(result.network_bytes)
    return {
        "cycles": float(result.cycles),
        "digest": digest(result.value),
        "counters": counters,
    }


SCENARIOS = {
    "filter": scenario_filter,
    "gather": scenario_gather,
    "partition": scenario_partition,
    "sort": scenario_sort,
    "groupby": scenario_groupby,
    "join": scenario_join,
    "tpch_q1": scenario_tpch_q1,
    "ate_pingpong": scenario_ate_pingpong,
    "cluster_2dpu": scenario_cluster_2dpu,
    "cluster_2dpu_failover": scenario_cluster_2dpu_failover,
}


# -- golden comparison --------------------------------------------------------


def _diff(name: str, golden: dict, observed: dict) -> str:
    lines = [f"equivalence divergence in scenario {name!r}:"]
    if golden["cycles"] != observed["cycles"]:
        delta = observed["cycles"] - golden["cycles"]
        lines.append(
            f"  cycles: golden {golden['cycles']!r} != observed "
            f"{observed['cycles']!r} (delta {delta:+g})"
        )
    if golden["digest"] != observed["digest"]:
        lines.append(
            f"  result bytes: golden digest {golden['digest'][:16]}... != "
            f"observed {observed['digest'][:16]}..."
        )
    gold_counters = golden["counters"]
    obs_counters = observed["counters"]
    for key in sorted(set(gold_counters) | set(obs_counters)):
        gold_value = gold_counters.get(key)
        obs_value = obs_counters.get(key)
        if gold_value != obs_value:
            lines.append(f"  counter {key}: golden {gold_value} != {obs_value}")
    if len(lines) == 1:
        lines.append("  (golden file is stale or malformed)")
    return "\n".join(lines)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_equivalence_golden(name, request):
    observed = SCENARIOS[name]()
    path = GOLDEN_DIR / f"{name}.json"
    if request.config.getoption("--update-goldens"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(observed, indent=2, sort_keys=True) + "\n")
        return
    if not path.exists():
        pytest.fail(
            f"no golden for scenario {name!r}; generate it with "
            f"--update-goldens and commit {path}"
        )
    golden = json.loads(path.read_text())
    if golden != observed:
        pytest.fail(_diff(name, golden, observed), pytrace=False)


def test_scenarios_are_deterministic():
    """Two runs of a scenario in one process must agree exactly —
    otherwise golden comparisons would flap regardless of fast paths."""
    first = SCENARIOS["filter"]()
    second = SCENARIOS["filter"]()
    assert first == second
