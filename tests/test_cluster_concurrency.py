"""Concurrent per-DPU phases in cluster jobs (paper §4).

Every DPU of a cluster job runs its local phase (partition, sketch,
scan, join...) as its own process on the shared engine, so the DPUs
overlap and meet only at the exchange and the gather. These tests pin
the consequences:

* a job's ``cycles`` is its critical path:
  ``detail["parallel_cycles"]`` plus the coordinator's admission wait,
  fault-free and under chaos;
* a DPU's cycles in a concurrent run equal the synchronous operator's
  cycles on the same shard from the same start instant;
* several shards on one DPU run back to back, never overlapping;
* an operator error surfaces from the job call with its type intact;
* the recovery manager's compute phases do not spend the simulation
  phases' watchdog budget;
* the sync and process paths record the same span and metric names.
"""

import numpy as np
import pytest

from repro.apps.hll import dpu_hll
from repro.apps.sql import Between, PlanError, Table, compile_query, load_query
from repro.apps.sql import tpch_catalog
from repro.apps.sql.aggregate import AggSpec, dpu_groupby
from repro.apps.sql.filter import dpu_filter
from repro.apps.sql.join import dpu_partitioned_join_count
from repro.apps.sql.physical import CompiledQuery
from repro.apps.sql.topk import dpu_topk
from repro.apps.sql.tpch_queries import q1_plan
from repro.cluster import (
    Cluster,
    RecoveryConfig,
    cluster_batched_queries,
    cluster_compiled_query,
    cluster_filter_count,
    cluster_groupby,
    cluster_hll,
    cluster_partitioned_join_count,
    cluster_topk,
    partition_source,
)
from repro.core import LaunchRequest
from repro.faults import ChaosSpec, FaultPlan
from repro.obs import validate_chrome_trace
from repro.runtime.admission import AdmissionController
from repro.sim import DeadlockError, Watchdog
from repro.workloads.tpch import generate_tpch

AGGS = [AggSpec("sum", "v"), AggSpec("count")]


def _shard(columns, num_shards, name="shard"):
    total = len(next(iter(columns.values())))
    bounds = [total * i // num_shards for i in range(num_shards + 1)]
    return [
        Table(f"{name}{i}",
              {n: c[bounds[i]:bounds[i + 1]] for n, c in columns.items()})
        for i in range(num_shards)
    ]


@pytest.fixture(scope="module")
def inputs():
    rng = np.random.default_rng(29)
    data = generate_tpch(scale=0.002, seed=11)
    catalog = tpch_catalog(data)
    compiled = {name: compile_query(load_query(name), catalog, name)
                for name in ("q1", "q6", "q12")}
    return {
        "values": rng.integers(0, 10_000, 12_000, dtype=np.int64),
        "hll": rng.integers(0, 1 << 40, 20_000, dtype=np.uint64),
        "gb": {"k": rng.integers(0, 64, 6000, dtype=np.uint32),
               "v": rng.integers(0, 1000, 6000, dtype=np.uint32)},
        "build": {"k": rng.integers(0, 512, 3000, dtype=np.uint32)},
        "probe": {"k": rng.integers(0, 512, 4500, dtype=np.uint32)},
        "topk": {"x": rng.permutation(
            np.arange(20_000, dtype=np.uint32))[:8000]},
        "lineitem": data.tables["lineitem"],
        "compiled": compiled,
    }


def _lineitem_shards(inputs, n, names):
    return _shard({k: inputs["lineitem"][k] for k in names}, n, "li")


# One entry per cluster_* job (the compiled job under both exchanges).
JOBS = {
    "hll": lambda c, n, d: cluster_hll(
        c, [s.columns["v"] for s in _shard({"v": d["hll"]}, n)]),
    "filter_count": lambda c, n, d: cluster_filter_count(
        c, [s.columns["v"] for s in _shard({"v": d["values"]}, n)],
        2000, 8000),
    "groupby": lambda c, n, d: cluster_groupby(
        c, _shard(d["gb"], n), "k", AGGS),
    "join": lambda c, n, d: cluster_partitioned_join_count(
        c, _shard(d["build"], n, "b"), "k", _shard(d["probe"], n, "p"), "k"),
    "topk": lambda c, n, d: cluster_topk(c, _shard(d["topk"], n), "x", 25),
    "tpch_q1": lambda c, n, d: cluster_compiled_query(
        c, d["compiled"]["q1"], _shard(d["lineitem"], n, "li"),
        "pre_aggregate"),
    "compiled_pre_aggregate": lambda c, n, d: cluster_compiled_query(
        c, d["compiled"]["q6"],
        _lineitem_shards(d, n, d["compiled"]["q6"].needed_columns),
        strategy="pre_aggregate"),
    "compiled_all_to_all": lambda c, n, d: cluster_compiled_query(
        c, d["compiled"]["q12"],
        _lineitem_shards(d, n, d["compiled"]["q12"].needed_columns),
        strategy="all_to_all"),
    "batched": lambda c, n, d: cluster_batched_queries(
        c, [d["compiled"]["q1"], d["compiled"]["q6"]],
        _shard(d["lineitem"], n, "li")),
}


class TestCriticalPath:
    @pytest.mark.parametrize("num_dpus", [1, 2, 4, 8])
    @pytest.mark.parametrize("job", sorted(JOBS))
    def test_cycles_equal_parallel_cycles(self, inputs, job, num_dpus):
        result = JOBS[job](Cluster(num_dpus), num_dpus, inputs)
        detail = result.detail
        assert detail["admission_cycles"] == 0.0
        assert result.cycles == pytest.approx(
            detail["parallel_cycles"] + detail["admission_cycles"],
            rel=1e-12, abs=0.0)
        assert detail["local_cycles"] > 0
        if num_dpus == 1:
            # One DPU: nothing to exchange, nothing to gather.
            assert result.network_bytes == 0
            assert detail["partition_cycles"] == 0.0
            assert detail["exchange_cycles"] == 0.0
            assert detail["gather_cycles"] == 0.0

    # Under chaos the phases come off the same clock: re-executed and
    # speculative computes count as partition/local, lease waits,
    # resends and journal traffic as exchange/gather.
    KILLS = {
        "kill0_after_job": ChaosSpec("dpu.dead", (0,), at_cycle=1e12),
        "kill0_early": ChaosSpec("dpu.dead", (0,), at_cycle=15_000.0),
        "kill1_early": ChaosSpec("dpu.dead", (1,), at_cycle=15_000.0),
    }

    @pytest.mark.parametrize("kill", sorted(KILLS))
    @pytest.mark.parametrize("num_dpus", [2, 4])
    @pytest.mark.parametrize("job", sorted(JOBS))
    def test_chaos_phases_add_up(self, inputs, job, num_dpus, kill):
        plan = FaultPlan.none().with_chaos(self.KILLS[kill])
        result = JOBS[job](Cluster(num_dpus, fault_plan=plan), num_dpus,
                           inputs)
        assert result.recovery is not None
        detail = result.detail
        for phase in ("partition_cycles", "exchange_cycles",
                      "local_cycles", "gather_cycles"):
            assert detail[phase] >= 0.0
        assert result.cycles == pytest.approx(
            detail["parallel_cycles"] + detail["admission_cycles"],
            rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("job", ["filter_count", "groupby", "batched"])
    def test_admission_wait_is_the_remainder(self, inputs, job):
        cluster = Cluster(4)
        engine = cluster.engine
        controller = cluster.set_admission(
            AdmissionController(engine, max_concurrent=1))
        engine.process(controller.acquire("hog"))

        def release_later():
            yield engine.timeout(7000.0)
            controller.release()

        engine.process(release_later())
        result = JOBS[job](cluster, 4, inputs)
        detail = result.detail
        assert detail["admission_cycles"] == 7000.0
        assert result.cycles == pytest.approx(
            detail["parallel_cycles"] + 7000.0, rel=1e-12, abs=0.0)


def _dpu_ops(inputs, num_dpus):
    """(op, args for DPU i) for every operator a cluster job runs."""
    values = _shard({"v": inputs["values"]}, num_dpus)
    hll = _shard({"v": inputs["hll"]}, num_dpus)
    gb = _shard(inputs["gb"], num_dpus)
    build = _shard(inputs["build"], num_dpus, "b")
    probe = _shard(inputs["probe"], num_dpus, "p")
    topk = _shard(inputs["topk"], num_dpus)
    key, aggs, row_filter = q1_plan()
    lineitem = _shard(inputs["lineitem"], num_dpus, "li")
    return {
        "groupby": (dpu_groupby, lambda dpu, i: (
            gb[i].to_dpu(dpu), "k", AGGS)),
        "q1": (dpu_groupby, lambda dpu, i: (
            lineitem[i].to_dpu(dpu), key, aggs, row_filter)),
        "filter": (dpu_filter, lambda dpu, i: (
            values[i].to_dpu(dpu), Between("v", 2000, 8000))),
        "hll": (dpu_hll, lambda dpu, i: (
            dpu.store_array(hll[i].columns["v"]), hll[i].num_rows)),
        "join": (dpu_partitioned_join_count, lambda dpu, i: (
            build[i].to_dpu(dpu), "k", probe[i].to_dpu(dpu), "k")),
        "topk": (dpu_topk, lambda dpu, i: (topk[i].to_dpu(dpu), "x", 10)),
        "partition": (partition_source, lambda dpu, i: (
            gb[i].to_dpu(dpu), "k", ["k", "v"], num_dpus)),
    }


def _cycles(result):
    return result[1] if isinstance(result, tuple) else result.cycles


class TestPerDpuCycles:
    @pytest.mark.parametrize("start", [0.0, 123_456.75])
    @pytest.mark.parametrize(
        "op", ["groupby", "q1", "filter", "hll", "join", "topk",
               "partition"])
    def test_concurrent_equals_sync_op(self, inputs, op, start):
        num_dpus = 4
        fn, args_for = _dpu_ops(inputs, num_dpus)[op]
        cluster = Cluster(num_dpus)
        cluster.engine.run(until=start)
        concurrent = cluster.run_steps([
            (i, fn.steps(dpu, *args_for(dpu, i)))
            for i, dpu in enumerate(cluster.dpus)
        ])
        assert cluster.engine.now == pytest.approx(
            start + max(_cycles(r) for r in concurrent), rel=1e-12)
        for i, result in enumerate(concurrent):
            reference = Cluster(num_dpus)
            reference.engine.run(until=start)
            dpu = reference.dpus[i]
            alone = fn(dpu, *args_for(dpu, i))
            assert _cycles(result) == pytest.approx(
                _cycles(alone), rel=1e-12, abs=0.0)
            if isinstance(alone, tuple):  # partition_source's raw blobs
                assert all(np.array_equal(a, b)
                           for a, b in zip(result[0], alone[0]))
            else:
                assert repr(result.value) == repr(alone.value)

    def test_job_local_phase_is_the_slowest_dpu(self, inputs):
        shards = _shard(inputs["lineitem"], 4, "li")
        q1 = inputs["compiled"]["q1"]
        result = cluster_compiled_query(Cluster(4), q1, shards,
                                        "pre_aggregate")
        alone = []
        for i, shard in enumerate(shards):
            dpu = Cluster(4).dpus[i]
            alone.append(q1.run_local(dpu, shard.columns, f"shard{i}")[1])
        assert result.detail["local_cycles"] == pytest.approx(
            max(alone), rel=1e-12, abs=0.0)
        # The serial sum is what the job used to report for this phase.
        assert result.cycles < sum(alone) + result.detail["gather_cycles"]


def _timed(engine, steps, spans, label):
    """Wrap launch steps, recording their [start, end) sim interval."""
    began = engine.now
    value = yield from steps
    spans[label] = (began, engine.now)
    return value


class TestSameDpuRunsBackToBack:
    def test_run_steps_serializes_entries_per_dpu(self, inputs):
        cluster = Cluster(4)
        engine = cluster.engine
        gb = _shard(inputs["gb"], 4)
        spans = {}

        def entry(index, shard, label):
            dpu = cluster.dpus[index]
            steps = dpu_groupby.steps(dpu, gb[shard].to_dpu(dpu), "k", AGGS)
            return index, _timed(engine, steps, spans, label)

        values = cluster.run_steps([
            entry(1, 0, "a"), entry(2, 2, "c"), entry(1, 1, "b"),
        ])
        assert spans["a"][0] == spans["c"][0] == 0.0  # DPUs overlap
        assert spans["b"][0] == spans["a"][1]  # same DPU: back to back
        for value, shard in zip(values, (0, 2, 1)):
            dpu = Cluster(1).dpus[0]
            alone = dpu_groupby(dpu, gb[shard].to_dpu(dpu), "k", AGGS)
            assert value.value == alone.value

    def test_rerouted_shards_never_overlap(self, inputs):
        # DPU 3 dies at cycle 1; the first job detects it, so the
        # second job reroutes shard 3 onto a survivor that also owns
        # its own shard.
        plan = FaultPlan.none().with_chaos(
            ChaosSpec("dpu.dead", (3,), at_cycle=1.0))
        cluster = Cluster(4, fault_plan=plan)
        tracer = cluster.enable_tracing(capacity=1 << 18)
        shards = _shard(inputs["lineitem"], 4, "li")
        q1 = inputs["compiled"]["q1"]
        first = cluster_compiled_query(cluster, q1, shards, "pre_aggregate")
        assert first.recovery.declared_dead == (3,)
        second_began = cluster.engine.now
        second = cluster_compiled_query(cluster, q1, shards, "pre_aggregate")
        assert second.value == first.value
        assert second.recovery.reexecuted_shards == 1
        payload = tracer.to_chrome()
        assert validate_chrome_trace(payload) == []
        by_pid = {}
        for event in payload["traceEvents"]:
            if (event.get("name") == "sql.groupby" and event["ph"] == "X"
                    and event["ts"] >= second_began):
                by_pid.setdefault(event["pid"], []).append(
                    (event["ts"], event["ts"] + event["dur"]))
        assert 3 + 1 not in by_pid  # the corpse computes nothing
        doubled = [spans for spans in by_pid.values() if len(spans) == 2]
        assert len(doubled) == 1
        (start_a, end_a), (start_b, end_b) = sorted(doubled[0])
        assert start_b == end_a  # back to back, no overlap
        assert end_b > start_b


def _failing_local_steps(original, bad_shard):
    def local_steps(self, dpu, columns, shard_name="shard", resident=None):
        result = yield from original(self, dpu, columns, shard_name,
                                     resident)
        if shard_name == bad_shard:
            raise PlanError(f"{shard_name}: no plan")
        return result

    return local_steps


class TestErrorsSurface:
    @pytest.mark.parametrize("chaos", [False, True])
    def test_op_error_keeps_its_type(self, inputs, monkeypatch, chaos):
        compiled = inputs["compiled"]["q6"]
        shards = _lineitem_shards(inputs, 4, compiled.needed_columns)
        plan = (FaultPlan.none().with_chaos(
            ChaosSpec("dpu.dead", (3,), at_cycle=1e12)) if chaos else None)
        cluster = Cluster(4, fault_plan=plan)
        original = CompiledQuery.local_steps
        monkeypatch.setattr(CompiledQuery, "local_steps",
                            _failing_local_steps(original, "shard1"))
        with pytest.raises(PlanError, match="shard1: no plan"):
            cluster_compiled_query(cluster, compiled, shards)
        # Every DPU stopped before the error surfaced, and the cluster
        # still serves the next job.
        assert not [p for p in cluster.engine.blocked_processes()
                    if p.name.endswith(".steps")]
        monkeypatch.setattr(CompiledQuery, "local_steps", original)
        again = cluster_compiled_query(cluster, compiled, shards)
        assert again.value == cluster_compiled_query(
            Cluster(4), compiled, shards).value

    def test_run_steps_raises_first_error_in_work_order(self):
        cluster = Cluster(4)
        finished = []

        def steps(index, error=None):
            yield LaunchRequest(_tiny_kernel, [0])
            if error is not None:
                raise error
            finished.append(index)
            return index

        with pytest.raises(KeyError):
            cluster.run_steps([
                (0, steps(0)), (2, steps(2, KeyError("first"))),
                (1, steps(1, ValueError("second"))), (3, steps(3)),
            ])
        assert sorted(finished) == [0, 3]


def _tiny_kernel(ctx):
    yield from ctx.compute(100)
    return ctx.core_id


class TestRecoveryWatchdogScope:
    # Simulation phases of this job dispatch < 3k events each; the
    # 8-DPU compute phase alone dispatches more than the budget.
    BUDGET = 5000

    def test_compute_phase_does_not_spend_the_budget(self):
        data = generate_tpch(scale=0.01, seed=1)
        compiled = compile_query(load_query("q1"), tpch_catalog(data), "q1")
        shards = _shard({k: data.tables["lineitem"][k]
                         for k in compiled.needed_columns}, 8, "li")
        clean = cluster_compiled_query(Cluster(8), compiled, shards)

        probe = Cluster(8)
        probe.engine.watchdog = Watchdog(max_events=self.BUDGET)
        with pytest.raises(DeadlockError, match="livelock"):
            probe.run_steps([
                (i, compiled.local_steps(dpu, shards[i].columns,
                                         f"shard{i}"))
                for i, dpu in enumerate(probe.dpus)
            ])

        plan = FaultPlan.none().with_chaos(
            ChaosSpec("dpu.dead", (0,), at_cycle=clean.cycles / 2))
        cluster = Cluster(
            8, fault_plan=plan,
            recovery_config=RecoveryConfig(watchdog_events=self.BUDGET))
        killed = cluster_compiled_query(cluster, compiled, shards)
        assert killed.value == clean.value
        assert killed.recovery.declared_dead == (0,)
        assert killed.recovery.leader_changes == 1


class TestObservability:
    def test_sync_and_process_paths_share_names(self, inputs):
        shards = _shard(inputs["lineitem"], 4, "li")
        cluster = Cluster(4)
        tracer = cluster.enable_tracing(capacity=1 << 18)
        hub = cluster.enable_metrics(cadence=5000.0)
        q1 = inputs["compiled"]["q1"]
        cluster_compiled_query(cluster, q1, shards, "pre_aggregate")
        payload = tracer.to_chrome()
        assert validate_chrome_trace(payload) == []
        groupby = sorted(
            (event["ts"], event["ts"] + event["dur"], event["pid"])
            for event in payload["traceEvents"]
            if event.get("name") == "sql.groupby" and event["ph"] == "X")
        # One span per DPU, each on its own DPU's track, all at once.
        assert sorted(pid for _s, _e, pid in groupby) == [1, 2, 3, 4]
        assert groupby[-1][0] < groupby[0][1]

        single = Cluster(1)
        single_tracer = single.enable_tracing()
        single_hub = single.enable_metrics(cadence=5000.0)
        q1.run_local(single.dpus[0], shards[0].columns)

        def names(payload):
            return {event["name"] for event in payload["traceEvents"]
                    if event["name"].startswith(("sql.", "dpu."))}

        assert names(payload) == names(single_tracer.to_chrome()) == {
            "sql.groupby", "dpu.launch"}
        for name in ("sql.groupby.cycles", "dpu.launch.cycles"):
            assert hub.digests[name].count == 4
            assert single_hub.digests[name].count == 1
