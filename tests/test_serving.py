"""Multi-tenant serving layer (docs/SERVING.md).

Covers the PR-10 surface end to end: the shared-default-config bugfix
sweep (no two construction sites may alias one ``FabricConfig``), the
anchor-based :class:`~repro.runtime.admission.TokenBucket` (a long
run of tiny refills admits exactly what one large refill admits),
start-time fair queueing, plan/result caches with catalog-version
invalidation, shared-scan batching, the QoS serving front end — and
the byte-equality contract that makes all of it safe: every cached,
batched, or chaos-recovered response equals the rows of a standalone
:func:`~repro.cluster.scaleout.cluster_compiled_query` run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.sql import Table, compile_query, load_query, tpch_catalog
from repro.apps.sql.ir import PlanError
from repro.cluster import (
    Cluster,
    FabricConfig,
    IBFabric,
    ShuffleRackModel,
    cluster_batched_queries,
    cluster_compiled_query,
)
from repro.faults import ChaosSpec, FaultPlan
from repro.runtime.admission import TokenBucket, WeightedFairQueue
from repro.serve import (
    DEFAULT_TIERS,
    OpenLoopWorkload,
    PlanCache,
    QueryRequest,
    ResultCache,
    ServingFrontend,
    TierSpec,
)
from repro.sim import Engine
from repro.workloads.tpch import generate_tpch

QUERIES = ["q1", "q6", "q12", "q14"]


@pytest.fixture(scope="module")
def data():
    return generate_tpch(scale=0.002, seed=11)


@pytest.fixture(scope="module")
def catalog(data):
    return tpch_catalog(data)


@pytest.fixture(scope="module")
def query_texts():
    return {name: load_query(name) for name in QUERIES}


def _full_shards(data, num_shards, fact="lineitem"):
    """Row-shard the fact table keeping every column (the serving
    front end projects per batch)."""
    table = data.tables[fact]
    columns = list(table)
    total = len(table[columns[0]])
    bounds = [total * i // num_shards for i in range(num_shards + 1)]
    return [
        Table(
            f"{fact}_shard{i}",
            {n: table[n][bounds[i]:bounds[i + 1]] for n in columns},
        )
        for i in range(num_shards)
    ]


def _reference_rows(query_texts, catalog, data, name, num_dpus=4):
    """Standalone cluster run of one query: the byte-equality oracle."""
    compiled = compile_query(query_texts[name], catalog, name)
    shards = _full_shards(data, num_dpus)
    projected = [
        Table(s.name, {n: s.columns[n] for n in compiled.needed_columns})
        for s in shards
    ]
    return cluster_compiled_query(Cluster(num_dpus), compiled,
                                  projected).value


# -- shared-default-config bugfix sweep (B006/B008) ------------------------


class TestNoSharedConfigDefaults:
    """Each construction site must build its own FabricConfig.

    The config dataclass is frozen, so a shared instance cannot be
    mutated today — but any future mutable field (or an ``object.__
    setattr__`` escape hatch) would silently couple every fabric in
    the process. The fix is ``None``-sentinel defaults and
    ``default_factory``; these tests pin the resulting identity
    semantics at all four former ``f(cfg=FabricConfig())`` sites.
    """

    def test_ibfabric_defaults_are_distinct_instances(self):
        engine = Engine()
        a = IBFabric(engine, num_endpoints=2)
        b = IBFabric(engine, num_endpoints=2)
        assert a.config is not b.config
        assert a.config == b.config  # same values, different objects

    def test_cluster_defaults_are_distinct_instances(self):
        a = Cluster(2)
        b = Cluster(2)
        assert a.fabric.config is not b.fabric.config

    def test_shuffle_model_field_uses_default_factory(self):
        a = ShuffleRackModel(total_rows=1000, record_bytes=8,
                             result_bytes=64)
        b = ShuffleRackModel(total_rows=1000, record_bytes=8,
                             result_bytes=64)
        assert a.fabric is not b.fabric

    def test_explicit_config_is_used_verbatim(self):
        config = FabricConfig(fabric_latency_cycles=7)
        cluster = Cluster(2, fabric_config=config)
        assert cluster.fabric.config is config
        detail = {"partition_cycles": 100.0, "local_cycles": 200.0}
        model = ShuffleRackModel.from_sim(
            detail, num_dpus=2, total_rows=1000, record_bytes=8,
            fabric=config)
        assert model.fabric is config


# -- token bucket drift ----------------------------------------------------


class TestTokenBucketDrift:
    """The level must be a pure function of (anchor, now): observing
    the bucket many times between consumptions cannot change what it
    admits."""

    @given(
        steps=st.lists(st.floats(min_value=0.01, max_value=50.0),
                       min_size=1, max_size=300),
        rate=st.floats(min_value=0.01, max_value=10.0),
        burst=st.floats(min_value=1.0, max_value=16.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_many_small_refills_equal_one_large_refill(
            self, steps, rate, burst):
        watched = TokenBucket(rate_per_kcycle=rate, burst=burst)
        ignored = TokenBucket(rate_per_kcycle=rate, burst=burst)
        now = 0.0
        for step in steps:
            now += step
            watched.cycles_until_available(now)  # read-only observation
        ignored.cycles_until_available(now)  # one large refill
        assert watched.tokens == ignored.tokens
        # Both buckets now admit the identical prefix of takes.
        admitted_watched = admitted_ignored = 0
        while watched.try_take(now):
            admitted_watched += 1
        while ignored.try_take(now):
            admitted_ignored += 1
        assert admitted_watched == admitted_ignored

    def test_long_observed_run_admits_like_single_jump(self):
        # Regression for the accumulate-per-refill implementation: 1e5
        # observations of a 0.1-cycle step used to drift the level away
        # from one 1e4-cycle jump.
        observed = TokenBucket(rate_per_kcycle=1.0, burst=8.0)
        jumped = TokenBucket(rate_per_kcycle=1.0, burst=8.0)
        assert observed.try_take(0.0) and jumped.try_take(0.0)
        now = 0.0
        for _ in range(100_000):
            now += 0.1
            observed.cycles_until_available(now)
        assert now == pytest.approx(10_000.0)
        count_observed = count_jumped = 0
        while observed.try_take(10_000.0):
            count_observed += 1
        while jumped.try_take(10_000.0):
            count_jumped += 1
        assert count_observed == count_jumped
        assert observed.tokens == jumped.tokens

    def test_cap_is_exact_after_idle(self):
        bucket = TokenBucket(rate_per_kcycle=0.3, burst=5.0)
        assert bucket.try_take(0.0, cost=5.0)
        bucket.cycles_until_available(1e9)
        assert bucket.tokens == 5.0


# -- weighted fair queue ---------------------------------------------------


class TestWeightedFairQueue:
    def test_service_in_weight_ratio(self):
        queue = WeightedFairQueue()
        queue.register("gold", 8.0)
        queue.register("bronze", 1.0)
        for i in range(90):
            queue.push("gold", f"g{i}")
            queue.push("bronze", f"b{i}")
        served = [queue.pop()[0] for _ in range(90)]
        gold = served.count("gold")
        bronze = served.count("bronze")
        assert gold / max(bronze, 1) == pytest.approx(8.0, rel=0.3)

    def test_fifo_within_flow(self):
        queue = WeightedFairQueue()
        queue.register("t", 2.0)
        for i in range(10):
            queue.push("t", i)
        assert [queue.pop()[1] for i in range(10)] == list(range(10))

    def test_no_starvation(self):
        # A backlogged weight-1 flow's head tag ages; it must be
        # served long before the weight-8 flow drains.
        queue = WeightedFairQueue()
        queue.register("gold", 8.0)
        queue.register("bronze", 1.0)
        queue.push("bronze", "b0")
        for i in range(64):
            queue.push("gold", f"g{i}")
        served = [queue.pop()[0] for _ in range(16)]
        assert "bronze" in served

    def test_eligibility_filter_skips_flows(self):
        queue = WeightedFairQueue()
        queue.register("a", 1.0)
        queue.register("b", 1.0)
        queue.push("a", 1)
        queue.push("b", 2)
        flow, item = queue.pop({"a": False, "b": True})
        assert (flow, item) == ("b", 2)
        assert queue.pop({"a": False, "b": False}) is None
        assert len(queue) == 1

    def test_idle_flow_gains_no_credit(self):
        # An idle flow re-enters at the current virtual time: it may
        # win the next slot but cannot burst through the backlog.
        queue = WeightedFairQueue()
        queue.register("busy", 1.0)
        queue.register("idle", 1.0)
        for i in range(20):
            queue.push("busy", i)
        for _ in range(10):
            queue.pop()
        queue.push("idle", "late")
        served = [queue.pop()[0] for _ in range(3)]
        assert served.count("idle") == 1

    def test_deterministic_order(self):
        def run():
            queue = WeightedFairQueue()
            queue.register("x", 3.0)
            queue.register("y", 1.0)
            for i in range(30):
                queue.push("x", i)
                queue.push("y", i)
            return [queue.pop() for _ in range(60)]

        assert run() == run()

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            WeightedFairQueue().register("t", 0.0)


# -- caches ----------------------------------------------------------------


class TestCaches:
    def test_result_cache_hit_and_miss(self):
        cache = ResultCache(capacity=4)
        assert cache.get("q1", 0) is None
        cache.put("q1", 0, ((1, 2),))
        assert cache.get("q1", 0) == ((1, 2),)
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 0, 1)
        cache.put("b", 0, 2)
        cache.get("a", 0)  # refresh a
        cache.put("c", 0, 3)  # evicts b
        assert cache.get("b", 0) is None
        assert cache.get("a", 0) == 1
        assert cache.stats()["evictions"] == 1

    def test_version_change_misses_and_invalidates(self):
        cache = ResultCache(capacity=4)
        cache.put("q1", 0, "old")
        assert cache.get("q1", 1) is None  # stale key never matches
        cache.put("q1", 1, "new")  # eagerly drops version-0 entry
        assert cache.stats()["invalidations"] == 1
        assert len(cache) == 1

    def test_stale_put_does_not_evict_newer_version(self):
        # A put carrying an older catalog_version (a plan compiled
        # before an interleaved catalog bump) must not invalidate the
        # newer-version entry: eager invalidation is strictly older-only.
        cache = ResultCache(capacity=4)
        cache.put("q1", 1, "new")
        cache.put("q1", 0, "stale")
        assert cache.get("q1", 1) == "new"
        assert cache.stats()["invalidations"] == 0

    def test_catalog_update_bumps_version_and_invalidates(
            self, data, query_texts):
        catalog = tpch_catalog(data)
        cache = PlanCache()
        version = catalog.version
        compiled = compile_query(query_texts["q6"], catalog, "q6")
        cache.put("q6", version, compiled)
        assert cache.get("q6", catalog.version) is compiled
        quantity = catalog.tables["lineitem"]["l_quantity"]
        assert catalog.update_column(
            "lineitem", "l_quantity", quantity.copy()) == version + 1
        assert cache.get("q6", catalog.version) is None
        recompiled = compile_query(query_texts["q6"], catalog, "q6")
        assert recompiled.catalog_version == version + 1
        assert recompiled.batch_key != compiled.batch_key

    def test_catalog_update_rejects_bad_shapes(self, data):
        catalog = tpch_catalog(data)
        with pytest.raises(PlanError):
            catalog.update_column("lineitem", "nope", np.zeros(4))
        with pytest.raises(PlanError):
            catalog.update_column("lineitem", "l_quantity", np.zeros(4))


# -- shared-scan batching --------------------------------------------------


class TestBatchedQueries:
    @pytest.mark.parametrize("num_dpus", [1, 2, 4])
    def test_batch_byte_equal_to_standalone(self, data, catalog,
                                            query_texts, num_dpus):
        batch = [compile_query(query_texts[n], catalog, n)
                 for n in QUERIES]
        shards = _full_shards(data, num_dpus)
        union = list(dict.fromkeys(
            n for c in batch for n in c.needed_columns))
        projected = [Table(s.name, {n: s.columns[n] for n in union})
                     for s in shards]
        result = cluster_batched_queries(Cluster(num_dpus), batch,
                                         projected)
        assert result.detail["batch"] == len(batch)
        for compiled, rows in zip(batch, result.value):
            assert rows == _reference_rows(query_texts, catalog, data,
                                           compiled.name, num_dpus)

    @pytest.mark.parametrize("num_dpus", [1, 4])
    def test_batch_local_cycles_match_standalone(self, data, catalog,
                                                 query_texts, monkeypatch,
                                                 num_dpus):
        # Inside a shared scan each query scans the resident shard at
        # the fan-out a standalone run picks for the same row count.
        # Its local cycles equal a standalone run_local over the same
        # stored shard on a fresh DPU (to the float rounding of the
        # absolute clock the batch starts it at), except that a DRAM
        # row the previous query left open can turn the first access
        # to that bank into a hit: at most one row miss per bank.
        from repro.apps.sql.physical import CompiledQuery
        from repro.core import DPU

        batch = [compile_query(query_texts[n], catalog, n)
                 for n in QUERIES]
        union = list(dict.fromkeys(
            n for c in batch for n in c.needed_columns))
        shards = [Table(s.name, {n: s.columns[n] for n in union})
                  for s in _full_shards(data, num_dpus)]
        in_batch = []
        local_steps = CompiledQuery.local_steps

        def recording(compiled, dpu, columns, shard_name="shard",
                      resident=None):
            groups, cycles = yield from local_steps(
                compiled, dpu, columns, shard_name, resident)
            in_batch.append((compiled, shard_name, cycles))
            return groups, cycles

        monkeypatch.setattr(CompiledQuery, "local_steps", recording)
        cluster_batched_queries(Cluster(num_dpus), batch, shards)
        monkeypatch.setattr(CompiledQuery, "local_steps", local_steps)
        assert len(in_batch) == len(batch) * num_dpus
        config = DPU().config
        carried = config.ddr_num_banks * config.ddr_row_miss_cycles
        for compiled, shard_name, cycles in in_batch:
            shard = shards[int(shard_name[len("shard"):])]
            dpu = DPU()
            resident = Table(shard.name, shard.columns).to_dpu(dpu)
            _groups, alone = compiled.run_local(
                dpu, shard.columns, shard_name, resident=resident)
            if compiled is batch[0]:
                assert cycles == pytest.approx(alone, rel=1e-12, abs=0.0)
            else:
                assert alone - carried - 1e-6 <= cycles <= alone + 1e-6

    def test_rejects_empty_batch(self, data):
        with pytest.raises(ValueError):
            cluster_batched_queries(Cluster(2), [],
                                    _full_shards(data, 2))

    def test_rejects_mixed_catalog_versions(self, data, query_texts):
        catalog = tpch_catalog(data)
        q6 = compile_query(query_texts["q6"], catalog, "q6")
        catalog.bump_version()
        q14 = compile_query(query_texts["q14"], catalog, "q14")
        with pytest.raises(ValueError, match="cannot share a scan"):
            cluster_batched_queries(Cluster(2), [q6, q14],
                                    _full_shards(data, 2))

    def test_batch_cheaper_than_separate_jobs(self, data, catalog,
                                              query_texts):
        # The batch pays one admission, one fabric message per DPU,
        # and one gather for the whole query list; payload bytes are
        # identical (the same partial group tables cross the fabric).
        batch = [compile_query(query_texts[n], catalog, n)
                 for n in QUERIES]
        shards = _full_shards(data, 4)
        batched = cluster_batched_queries(Cluster(4), batch, shards)
        separate_cycles = 0.0
        separate_bytes = 0
        for name in QUERIES:
            compiled = compile_query(query_texts[name], catalog, name)
            projected = [
                Table(s.name,
                      {n: s.columns[n] for n in compiled.needed_columns})
                for s in shards
            ]
            result = cluster_compiled_query(
                Cluster(4), compiled, projected,
                strategy="pre_aggregate")
            separate_cycles += result.cycles
            separate_bytes += result.network_bytes
        assert batched.network_bytes == separate_bytes
        assert batched.cycles < separate_cycles


# -- serving front end -----------------------------------------------------


TENANTS = {"acme": "gold", "beta": "silver", "corp": "bronze",
           "dyn": "bronze"}


def _frontend(data, catalog, query_texts, num_dpus=4, fault_plan=None,
              tenants=None, **kwargs):
    cluster = (Cluster(num_dpus, fault_plan=fault_plan)
               if fault_plan is not None else Cluster(num_dpus))
    return ServingFrontend(
        cluster, catalog, query_texts,
        {"lineitem": _full_shards(data, num_dpus)},
        tenants=tenants if tenants is not None else dict(TENANTS),
        **kwargs,
    )


class TestServingFrontend:
    def test_all_requests_served_byte_equal(self, data, catalog,
                                            query_texts):
        workload = OpenLoopWorkload(TENANTS, QUERIES, seed=7)
        requests = workload.generate(40, mean_interarrival_cycles=20_000.0)
        # A burst: every tenant asks a different query at one instant,
        # so the first dispatch is a shared-scan batch however fast
        # the cluster drains the Poisson stream behind it.
        requests += [
            QueryRequest(len(requests) + offset, tenant, TENANTS[tenant],
                         query, 0.0)
            for offset, (tenant, query) in enumerate(zip(TENANTS, QUERIES))
        ]
        frontend = _frontend(data, catalog, query_texts)
        report = frontend.run(requests)
        assert len(report.records) == len(requests)
        assert report.counters["cache_hits"] > 0
        assert report.counters.get("batches", 0) > 0
        assert report.records[0].source == "batch"
        for name in QUERIES:
            assert report.results[name] == _reference_rows(
                query_texts, catalog, data, name)

    def test_uncached_unbatched_byte_equal(self, data, catalog,
                                           query_texts):
        workload = OpenLoopWorkload(TENANTS, QUERIES, seed=3)
        requests = workload.generate(12, mean_interarrival_cycles=40_000.0)
        frontend = _frontend(data, catalog, query_texts,
                             batching=False, caching=False)
        report = frontend.run(requests)
        assert len(report.records) == len(requests)
        assert all(r.source == "direct" for r in report.records)
        for name in {r.query for r in requests}:
            assert report.results[name] == _reference_rows(
                query_texts, catalog, data, name)

    def test_deterministic_replay(self, data, catalog, query_texts):
        workload = OpenLoopWorkload(TENANTS, QUERIES, seed=5)
        requests = workload.generate(24, mean_interarrival_cycles=15_000.0)

        def run():
            report = _frontend(data, catalog, query_texts).run(requests)
            return [(r.request.index, r.completion, r.latency, r.source)
                    for r in report.records]

        assert run() == run()

    def test_workload_is_deterministic_and_zipfian(self):
        workload = OpenLoopWorkload(TENANTS, QUERIES, seed=9)
        first = workload.generate(200, mean_interarrival_cycles=1000.0)
        second = OpenLoopWorkload(TENANTS, QUERIES, seed=9).generate(
            200, mean_interarrival_cycles=1000.0)
        assert first == second
        counts = {t: sum(1 for r in first if r.tenant == t)
                  for t in TENANTS}
        assert counts["acme"] > counts["corp"]  # rank-1 beats rank-3

    def test_gold_latency_beats_bronze_under_overload(self, data, catalog,
                                                      query_texts):
        workload = OpenLoopWorkload(TENANTS, QUERIES, seed=13)
        requests = workload.generate(60, mean_interarrival_cycles=4_000.0)
        report = _frontend(data, catalog, query_texts).run(requests)
        gold = report.tier_digests["gold"]
        bronze = report.tier_digests["bronze"]
        assert gold.quantile(0.99) < bronze.quantile(0.99)

    def test_result_cache_serves_repeats(self, data, catalog, query_texts):
        workload = OpenLoopWorkload({"solo": "gold"}, ["q6"], seed=1)
        requests = workload.generate(8, mean_interarrival_cycles=50_000.0)
        frontend = _frontend(data, catalog, query_texts,
                             tenants={"solo": "gold"})
        report = frontend.run(requests)
        sources = [r.source for r in sorted(report.records,
                                            key=lambda r: r.request.index)]
        assert sources[0] == "direct"
        assert sources.count("cache") == 7


# -- rate-limit integrity --------------------------------------------------


class TestRateLimitIntegrity:
    """The token bucket must gate *every* dequeue path, including the
    shared-scan batch window, and failures must be loud."""

    def test_token_starved_tenant_not_batched(self, data, catalog,
                                              query_texts):
        # A tenant whose bucket is empty must stay queued even while a
        # co-tenant's batch window is open: the batch-collection loop
        # used to omit starved flows from the eligibility map, which
        # WeightedFairQueue.pop treats as eligible — a silent
        # rate-limit bypass.
        tiers = dict(DEFAULT_TIERS)
        tiers["trickle"] = TierSpec("trickle", weight=1.0,
                                    rate_per_kcycle=0.001, burst=1.0)
        refill_cycles = 1000.0 / 0.001  # one token per 1e6 cycles
        tenants = {"fast": "gold", "slow": "trickle"}
        requests = [
            QueryRequest(0, "slow", "trickle", "q6", 0.0),
            QueryRequest(1, "slow", "trickle", "q1", 1.0),
            QueryRequest(2, "fast", "gold", "q12", 2.0),
            QueryRequest(3, "fast", "gold", "q14", 3.0),
        ]
        frontend = _frontend(data, catalog, query_texts, tenants=tenants,
                             tiers=tiers, caching=False)
        report = frontend.run(requests)
        assert len(report.records) == len(requests)
        second = next(r for r in report.records if r.request.index == 1)
        # The slow tenant spent its only token on request 0 near cycle
        # 0; request 1 cannot be served before the bucket refills.
        assert second.completion >= refill_cycles
        for name in {r.query for r in requests}:
            assert report.results[name] == _reference_rows(
                query_texts, catalog, data, name)

    def test_failed_token_take_raises(self, data, catalog, query_texts):
        # If the eligibility map and a bucket ever disagree, the take
        # must fail loudly instead of serving an unmetered request.
        frontend = _frontend(data, catalog, query_texts)
        assert frontend.buckets["corp"].try_take(0.0)  # drain bronze
        with pytest.raises(RuntimeError, match="without an available"):
            frontend._take_token("corp", 0.0)

    def test_tier_rejects_sub_token_burst(self):
        # burst < 1 makes cycles_until_available return inf forever,
        # which used to hang the serving loop's idle branch.
        with pytest.raises(ValueError, match="burst"):
            TierSpec("bad", weight=1.0, rate_per_kcycle=1.0, burst=0.5)

    def test_unfillable_bucket_stalls_loudly(self, data, catalog,
                                             query_texts):
        # Defense in depth behind the TierSpec check: a bucket that can
        # never hold a full token must raise, not _advance(inf).
        frontend = _frontend(data, catalog, query_texts,
                             tenants={"solo": "gold"})
        frontend.buckets["solo"] = TokenBucket(rate_per_kcycle=1.0,
                                               burst=0.5)
        with pytest.raises(RuntimeError, match="stalled"):
            frontend.run([QueryRequest(0, "solo", "gold", "q6", 0.0)])


# -- chaos serving ---------------------------------------------------------


class TestChaosServing:
    """Kill DPU 0 mid-run: every response stays byte-equal and the
    gold tenant's tail degrades less than bronze's."""

    def _run(self, data, catalog, query_texts, fault_plan,
             mean_interarrival_cycles=6_000.0, **kwargs):
        workload = OpenLoopWorkload(TENANTS, QUERIES, seed=21)
        requests = workload.generate(
            48, mean_interarrival_cycles=mean_interarrival_cycles)
        frontend = _frontend(data, catalog, query_texts,
                             fault_plan=fault_plan, **kwargs)
        report = frontend.run(requests)
        return frontend, report

    def test_dpu0_killed_mid_run_byte_equal(self, data, catalog,
                                            query_texts):
        plan = FaultPlan.none().with_chaos(
            ChaosSpec("dpu.dead", (0,), at_cycle=30_000.0))
        frontend, report = self._run(data, catalog, query_texts, plan)
        assert len(report.records) == 48
        assert 0 in frontend.cluster.recovery.declared_dead
        assert frontend.cluster.leader == 1
        for name in QUERIES:
            assert report.results[name] == _reference_rows(
                query_texts, catalog, data, name)

    def test_gold_tail_degrades_less_than_bronze(self, data, catalog,
                                                 query_texts):
        # Run uncached and unbatched at moderate load: every request
        # is a real cluster job, so the post-recovery backlog drains
        # in weighted-fair order and the tier weights — not a shared
        # warmup backlog or batch membership — set the tails. (With
        # caching on, only the four unique queries ever reach the
        # cluster and every tier's p99 sits in the same warmup queue,
        # where the kill stall shifts gold and bronze identically.)
        plan = FaultPlan.none().with_chaos(
            ChaosSpec("dpu.dead", (0,), at_cycle=200_000.0))
        direct = dict(mean_interarrival_cycles=80_000.0,
                      caching=False, batching=False)
        _, healthy = self._run(data, catalog, query_texts, None, **direct)
        _, chaotic = self._run(data, catalog, query_texts, plan, **direct)
        gold_delta = (chaotic.tier_digests["gold"].quantile(0.99)
                      - healthy.tier_digests["gold"].quantile(0.99))
        bronze_delta = (chaotic.tier_digests["bronze"].quantile(0.99)
                        - healthy.tier_digests["bronze"].quantile(0.99))
        assert gold_delta < bronze_delta
