"""The benchmark's four fixed workloads and the loop that times them.

Every workload is a fixed *op set* built from the seed during set-up
and split into units (a unit runs one or more ops). A round runs every
unit once; the timed phase repeats whole rounds until ``seconds`` have
passed. Simulated metrics come from the first round and must repeat
bit-for-bit in later rounds; host metrics are medians over rounds.

The program is reached only through its public calls:
``compile_query``, ``CompiledQuery.run_dpu/run_xeon/run_local``,
``cluster_compiled_query``, ``cluster_batched_queries``,
``ServingFrontend.run`` and ``counter_registry()``. Module attributes
are looked up at call time (``sql.compile_query``, not a bound
import), so the traced run's wrappers see the benchmark's own calls.

Load comes from this one single-threaded process. In the serve
workloads the open loop runs on the simulated clock (arrivals are sim
cycles); the host side runs as fast as it can.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import repro.apps.sql as sql
import repro.cluster as cluster_api
import repro.serve.frontend as serve_frontend
from repro.apps.sql import PlanError, Table
from repro.baseline import XeonModel
from repro.cluster import Cluster, ClusterError
from repro.core import DPU
from repro.faults import ChaosSpec, FaultPlan
from repro.serve import (OpenLoopWorkload, QueryRequest, ResultCache,
                         ServingFrontend)
from repro.workloads.tpch import generate_tpch

from spans import Recorder, engine_events

DEFAULT_SEED = 11
HELD_OUT_SEED = 2027
# After every round, set up again for about this share of the round's
# time (at least once), so set-up is sampled across the whole run, not
# only in its first seconds.
SETUP_SHARE = 0.1
# A shared host's speed can drift by up to 2x over minutes
# (other tenants, clock frequency), and every host time drifts with it.
# A fixed pure-Python loop is timed once per CALIBRATION_EVERY_S of
# set-up or program time, between calls; set-up and round host times
# are reported at the speed at which the loop takes CALIBRATION_REF_S
# (its time on a quiet 2-vCPU VM, Python 3.11; up to 9 ms on a busy
# one), i.e. scaled by CALIBRATION_REF_S / the median loop time beside
# them. The loop shares nothing with the program, so a program change
# moves them in full.
CALIBRATION_REF_S = 0.004
CALIBRATION_EVERY_S = 0.25

TPCH = ("q1", "q3", "q5", "q6", "q10", "q12", "q14")
SERVE_MIX = ("q1", "q6", "q12", "q14")
TENANTS = {
    "tenant-a": "gold",
    "tenant-b": "silver",
    "tenant-c": "silver",
    "tenant-d": "bronze",
    "tenant-e": "bronze",
    "tenant-f": "bronze",
}
ZIPF_S = 1.1

_now = time.perf_counter


def calibrate() -> float:
    """Host seconds of a fixed interpreter-bound loop."""
    start = _now()
    counts: Dict[int, int] = {}
    for k in range(40_000):
        counts[k & 1023] = counts.get(k & 1023, 0) + k
    return _now() - start


class HostSpeed:
    """Loop times beside set-up and beside rounds, taken in proportion
    to the host time they scale, so their median covers it evenly."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {"setup": [], "round": []}
        self._owed = {"setup": 0.0, "round": 0.0}

    def after(self, kind: str, busy_s: float) -> None:
        self._owed[kind] += busy_s
        samples = self.samples[kind]
        while not samples or self._owed[kind] >= CALIBRATION_EVERY_S:
            samples.append(calibrate())
            self._owed[kind] = max(0.0,
                                   self._owed[kind] - CALIBRATION_EVERY_S)

    def scale(self, kind: str) -> float:
        """Factor from host seconds to reference seconds."""
        return CALIBRATION_REF_S / statistics.median(self.samples[kind])


# -- small helpers ---------------------------------------------------------


def tail(values: List[float]) -> Tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile
    with at least ten samples beyond it. Sets of 20 or fewer hold no
    such percentile above the median; their tail is the maximum,
    reported as p100 with 0 beyond."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 20:
        return ordered[-1], 100.0, 0
    rank = n - 11
    return ordered[rank], 100.0 * (rank + 1) / n, n - rank - 1


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def shard(columns: Dict, name: str, parts: int) -> List[Table]:
    """Contiguous row shards, one per DPU."""
    total = len(next(iter(columns.values())))
    bounds = [total * i // parts for i in range(parts + 1)]
    return [
        Table(f"{name}_shard{i}",
              {col: arr[bounds[i]:bounds[i + 1]]
               for col, arr in columns.items()})
        for i in range(parts)
    ]


def references(catalog, data, names) -> Tuple[dict, dict, dict, dict]:
    """Compile each query and run it on the Xeon model over the
    unsharded table: (compiled, reference rows as repr, Xeon joules,
    PlanError text) by query name."""
    compiled, rows, joules, errors = {}, {}, {}, {}
    for name in names:
        try:
            query = sql.compile_query(sql.load_query(name), catalog, name)
        except PlanError as exc:
            errors[name] = f"{exc.message} [clause: {exc.clause}]"
            continue
        xeon = query.run_xeon(XeonModel(), data)
        compiled[name] = query
        rows[name] = repr(xeon.value)
        joules[name] = xeon.seconds * xeon.config.tdp_watts
    return compiled, rows, joules, errors


def cluster_gain(result, watts: float, xeon_joules: float) -> float:
    """Perf/W of a cluster job over the Xeon answering the same
    queries (DPU watts = every DPU's TDP)."""
    return xeon_joules / (result.seconds * watts)


# Counter-registry paths harvested per op, summed over DPUs.
_SUFFIXES = {
    ".dms.descriptors": "dms.descriptors",
    ".ddr.bytes_served": "memory.ddr_bytes",
    ".ddr.busy_cycles": "memory.ddr_busy_cycles",
    ".ddr.row_misses": "memory.row_misses",
    ".engine.now": "memory.dpu_cycles",
}
_EXACT = {
    "fabric.bytes_sent": "fabric.bytes",
    "recovery.detection_latency_cycles": "recovery.detection_cycles",
    "recovery.leader_election_latency_cycles": "recovery.election_cycles",
    "recovery.reexecuted_shards": "recovery.reexecuted_shards",
    "recovery.resends": "recovery.resends",
    "recovery.journal_bytes": "recovery.journal_bytes",
}


def harvest(rec: Recorder, before: Dict[str, float], source) -> None:
    """Add the counter deltas since ``before``, and the events of the
    engines created since the last harvest, to ``rec.counts``."""
    for engine in rec.engines:
        events = engine_events(engine)
        if events is not None:
            rec.counts["sim.events"] += events
    rec.engines.clear()
    for path, value in source.counter_registry().snapshot().items():
        delta = value - before.get(path, 0.0)
        if not delta:
            continue
        if path in _EXACT:
            rec.counts[_EXACT[path]] += delta
            continue
        for suffix, name in _SUFFIXES.items():
            if path.endswith(suffix):
                rec.counts[name] += delta
                break


def snapshot(rec: Optional[Recorder], source) -> Dict[str, float]:
    return source.counter_registry().snapshot() if rec else {}


@dataclass
class UnitResult:
    """What one unit did: op outcomes plus deterministic facts."""

    ops: int = 0
    host_s: float = 0.0  # host seconds of the program calls alone
    failed: int = 0
    mismatches: int = 0
    errors: List[str] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    gains: List[float] = field(default_factory=list)
    facts: Counter = field(default_factory=Counter)
    tiers: Dict[str, List[float]] = field(default_factory=dict)

    def fail(self, what: str, mismatch: bool = False) -> None:
        self.failed += 1
        self.mismatches += int(mismatch)
        if len(self.errors) < 8:
            self.errors.append(what)

    def signature(self) -> tuple:
        """Everything simulated: must repeat bit-for-bit."""
        return (self.ops, self.failed, tuple(self.latencies),
                tuple(self.gains), tuple(sorted(self.facts.items())))

    def add_job_facts(self, result) -> None:
        detail = result.detail or {}
        facts = self.facts
        facts["cluster.jobs"] += 1
        facts["cluster.cycles"] += result.cycles
        facts["cluster.parallel_cycles"] += detail.get("parallel_cycles", 0.0)
        facts["cluster.gather_cycles"] += detail.get("gather_cycles", 0.0)
        facts["cluster.exchange_cycles"] += detail.get("exchange_cycles", 0.0)


# -- serve_scan / serve_hot ------------------------------------------------


class _RecordingCache(ResultCache):
    """Result cache that keeps every hit it hands out, in order."""

    def __init__(self) -> None:
        super().__init__()
        self.served: List[tuple] = []

    def get(self, *args, **kwargs):
        rows = super().get(*args, **kwargs)
        if rows is not None:
            self.served.append(rows)
        return rows


class _JobTap:
    """Sees every cluster job the serving front end runs, at the names
    it looks them up by, so the oracle can check each request's rows.
    Installed for the whole of ``ServingFrontend.run``, traced or not."""

    NAMES = ("cluster_compiled_query", "cluster_batched_queries")

    def __enter__(self) -> "_JobTap":
        self.jobs: List[Tuple[dict, object, float]] = []
        self._saved = {name: getattr(serve_frontend, name)
                       for name in self.NAMES}
        for name, original in self._saved.items():
            setattr(serve_frontend, name,
                    self._tap(original, name == "cluster_batched_queries"))
        return self

    def __exit__(self, *exc) -> None:
        for name, original in self._saved.items():
            setattr(serve_frontend, name, original)

    def _tap(self, original, batched: bool):
        def call(cluster, queries, shards, *args, **kwargs):
            result = original(cluster, queries, shards, *args, **kwargs)
            batch = list(queries) if batched else [queries]
            rows = result.value if batched else (result.value,)
            self.jobs.append((
                {query.name: value for query, value in zip(batch, rows)},
                result, cluster.total_watts()))
            return result
        return call


@dataclass
class ServeState:
    catalog: object
    queries: Dict[str, str]
    shards: List[Table]
    streams: list
    reference: Dict[str, str]
    joules: Dict[str, float]
    texts: int
    compile_errors: Dict[str, str]


# serve_hot fills its caches before the timed stream: one gold request
# per query, then the Poisson stream shifted past the priming jobs.
PRIME_GAP = 2_000_000.0


class Serve:
    """Multi-tenant serving over a 4-DPU cluster at TPC-H scale 0.002:
    six Zipf(1.1) tenants (gold, silver x2, bronze x3), the
    q1/q6/q12/q14 mix, Poisson arrivals on the simulated clock. Each
    stream is served by a fresh cluster and front end."""

    num_dpus = 4
    scale = 0.002

    def __init__(self, streams: int, requests: int, interarrival: float,
                 caching: bool) -> None:
        self.streams = streams
        self.requests = requests
        self.interarrival = interarrival
        self.caching = caching

    def setup(self, seed: int) -> ServeState:
        data = generate_tpch(scale=self.scale, seed=seed)
        catalog = sql.tpch_catalog(data)
        queries = {name: sql.load_query(name) for name in SERVE_MIX}
        compiled, reference, joules, errors = references(
            catalog, data, SERVE_MIX)
        fact = data.tables["lineitem"]
        offset = PRIME_GAP if self.caching else 0.0
        streams = [
            [replace(request, arrival=request.arrival + offset)
             for request in OpenLoopWorkload(
                 TENANTS, SERVE_MIX, seed=seed * 1000 + index, zipf_s=ZIPF_S)
             .generate(self.requests, self.interarrival)]
            for index in range(self.streams)
        ]
        return ServeState(catalog, queries,
                          shard(fact, "lineitem", self.num_dpus), streams,
                          reference, joules, len(SERVE_MIX), errors)

    def units(self, state: ServeState) -> int:
        return len(state.streams)

    def run_unit(self, state: ServeState, index: int,
                 rec: Optional[Recorder]) -> UnitResult:
        requests = state.streams[index]
        out = UnitResult(ops=len(requests))
        cluster = Cluster(self.num_dpus)
        cache = _RecordingCache()
        frontend = ServingFrontend(
            cluster, state.catalog, state.queries,
            {"lineitem": state.shards}, tenants=TENANTS,
            result_cache=cache, caching=self.caching, batching=True)
        before = snapshot(rec, cluster)
        if rec is not None:
            rec.op = f"stream{index}"
        with _JobTap() as tap:
            try:
                if self.caching:
                    # Untimed: every later hit is checked against the
                    # reference, so wrong priming rows still show.
                    frontend.run([
                        QueryRequest(slot, "tenant-a", "gold", name,
                                     float(slot))
                        for slot, name in enumerate(SERVE_MIX)])
                    if cluster.engine.now >= PRIME_GAP:
                        raise RuntimeError("priming overran PRIME_GAP")
                    cache.served.clear()
                primed = len(tap.jobs)
                start = _now()
                report = frontend.run(requests)
                out.host_s = _now() - start
            except (PlanError, ClusterError) as exc:
                self._lost(out, exc)
                return out
            except RuntimeError as exc:
                if "serving loop stalled" not in str(exc):
                    raise
                self._lost(out, exc)
                return out
        if rec is not None:
            harvest(rec, before, cluster)
        self._check(state, report, cache.served, tap.jobs, primed, out)
        return out

    @staticmethod
    def _lost(out: UnitResult, exc: Exception) -> None:
        for _ in range(out.ops):
            out.fail(f"{type(exc).__name__}: {exc}")

    def _check(self, state, report, hits, jobs, primed: int,
               out: UnitResult) -> None:
        """Match every response to the rows it was served and compare
        them with the reference; collect latency and job facts."""
        hits, job_iter = iter(hits), iter(jobs[primed:])
        left, served = 0, {}
        for record in report.records:
            request = record.request
            if record.source == "cache":
                rows = next(hits, None)
            else:
                if left == 0:
                    served = next(job_iter, ({}, None, 0.0))[0]
                    left = record.batch_size
                rows = served.get(request.query)
                left -= 1
            if rows is None or repr(rows) != state.reference[request.query]:
                out.fail(f"{request.query}: rows differ from run_xeon",
                         mismatch=True)
            out.latencies.append(record.latency)
            out.tiers.setdefault(request.tier, []).append(record.latency)
            out.facts["serve.cache_hits"] += record.source == "cache"
        for _ in range(out.ops - len(report.records)):
            out.fail("request never completed")
        out.facts["serve.requests"] += out.ops
        out.facts["serve.member_requests"] += sum(
            record.source != "cache" for record in report.records)
        # Priming jobs included: they are the cluster work behind the
        # hits, so they carry serve_hot's perf/W and job facts.
        for served, result, watts in jobs:
            out.add_job_facts(result)
            joules = sum(state.joules[name] for name in served)
            out.gains.append(cluster_gain(result, watts, joules))


# -- cluster_8dpu ----------------------------------------------------------


@dataclass
class ClusterState:
    jobs: List[Tuple[object, str, List[Table]]]
    reference: Dict[str, str]
    joules: Dict[str, float]
    texts: int
    compile_errors: Dict[str, str]


class ClusterJobs:
    """Every compiled TPC-H query under every legal exchange on a
    fresh 8-DPU cluster, once fault-free and once with DPU 0 (the
    coordinator) killed at half the fault-free job's cycles."""

    num_dpus = 8
    scale = 0.002

    def setup(self, seed: int) -> ClusterState:
        data = generate_tpch(scale=self.scale, seed=seed)
        catalog = sql.tpch_catalog(data)
        compiled, reference, joules, errors = references(catalog, data, TPCH)
        jobs = []
        for query in compiled.values():
            fact = data.tables[query.fact]
            shards = shard({col: fact[col] for col in query.needed_columns},
                           query.fact, self.num_dpus)
            jobs.append((query, "pre_aggregate", shards))
            if query.key_column is not None:
                jobs.append((query, "all_to_all", shards))
        return ClusterState(jobs, reference, joules, len(TPCH), errors)

    def units(self, state: ClusterState) -> int:
        return len(state.jobs)

    def _run(self, rec, out: UnitResult, op: str, query, strategy, shards,
             fault_plan):
        cluster = Cluster(self.num_dpus, fault_plan=fault_plan)
        before = snapshot(rec, cluster)
        if rec is not None:
            rec.op = op
        start = _now()
        try:
            result = cluster_api.cluster_compiled_query(
                cluster, query, shards, strategy=strategy)
        finally:
            out.host_s += _now() - start
        if rec is not None:
            harvest(rec, before, cluster)
        return result, cluster.total_watts()

    def run_unit(self, state: ClusterState, index: int,
                 rec: Optional[Recorder]) -> UnitResult:
        query, strategy, shards = state.jobs[index]
        out = UnitResult(ops=2)
        label = f"{query.name}/{strategy}"
        reference = state.reference[query.name]
        try:
            clean, watts = self._run(rec, out, f"{label}:fault_free",
                                     query, strategy, shards, None)
        except (PlanError, ClusterError) as exc:
            out.fail(f"{label}: {type(exc).__name__}: {exc}")
            out.fail(f"{label}: no fault-free cycles to time the kill")
            return out
        if repr(clean.value) != reference:
            out.fail(f"{label}: fault-free rows differ", mismatch=True)
        out.latencies.append(clean.cycles)
        out.gains.append(
            cluster_gain(clean, watts, state.joules[query.name]))
        out.add_job_facts(clean)

        plan = FaultPlan.none().with_chaos(
            ChaosSpec("dpu.dead", (0,), at_cycle=clean.cycles / 2))
        try:
            killed, _ = self._run(rec, out, f"{label}:killed", query,
                                  strategy, shards, plan)
        except (PlanError, ClusterError) as exc:
            out.fail(f"{label} killed: {type(exc).__name__}: {exc}")
            return out
        if repr(killed.value) != reference:
            out.fail(f"{label}: rows differ after the kill", mismatch=True)
        out.latencies.append(killed.cycles)
        out.facts["recovery.jobs"] += 1
        out.facts["recovery.shards"] += self.num_dpus
        out.facts["recovery.cycles"] += killed.cycles - clean.cycles
        return out


# -- tpch_1dpu -------------------------------------------------------------


@dataclass
class TpchState:
    data: object
    catalog: object
    queries: List[Tuple[str, str]]
    reference: Dict[str, str]
    texts: int
    compile_errors: Dict[str, str]


class TpchOneDpu:
    """Fig. 16: each TPC-H query compiled from its .sql text and run
    on one fresh DPU and on the Xeon model, at scale 0.01."""

    scale = 0.01

    def setup(self, seed: int) -> TpchState:
        data = generate_tpch(scale=self.scale, seed=seed)
        catalog = sql.tpch_catalog(data)
        compiled, reference, _joules, errors = references(
            catalog, data, TPCH)
        queries = [(name, query.sql) for name, query in compiled.items()]
        return TpchState(data, catalog, queries, reference, len(TPCH),
                         errors)

    def units(self, state: TpchState) -> int:
        return len(state.queries)

    def run_unit(self, state: TpchState, index: int,
                 rec: Optional[Recorder]) -> UnitResult:
        name, text = state.queries[index]
        out = UnitResult(ops=1)
        if rec is not None:
            rec.op = name
        dpu = DPU()
        before = snapshot(rec, dpu)
        start = _now()
        try:
            query = sql.compile_query(text, state.catalog, name)
            on_dpu = query.run_dpu(dpu, state.data)
            on_xeon = query.run_xeon(XeonModel(), state.data)
        except PlanError as exc:
            out.fail(f"{name}: PlanError: {exc}")
            return out
        finally:
            out.host_s = _now() - start
        if rec is not None:
            harvest(rec, before, dpu)
        if repr(on_dpu.value) != state.reference[name] \
                or repr(on_xeon.value) != state.reference[name]:
            out.fail(f"{name}: rows differ from the reference", mismatch=True)
        out.latencies.append(on_dpu.cycles)
        out.gains.append(sql.efficiency_gain(on_dpu, on_xeon))
        return out


WORKLOADS = {
    # Local scans do the work: no result cache, batching on, offered
    # load below capacity (makespan tracks the last arrival).
    "serve_scan": lambda: Serve(streams=4, requests=96,
                                interarrival=80_000.0, caching=False),
    # Result-cache hits: host time goes to dispatch, not scans. The
    # caches are primed before the timed stream.
    "serve_hot": lambda: Serve(streams=1, requests=30_000,
                               interarrival=20_000.0, caching=True),
    "cluster_8dpu": ClusterJobs,
    "tpch_1dpu": TpchOneDpu,
}


# -- tracing ---------------------------------------------------------------


def _rows_of(columns) -> int:
    return len(next(iter(columns.values()))) if columns else 0


def _local_note(args, result):
    return {"rows": _rows_of(args[2]), "cycles": result[1]}


def _dpu_note(args, result):
    query, _dpu, data = args[:3]
    table = getattr(data, "tables", data)[query.fact]
    return {"rows": len(table[query.needed_columns[0]]),
            "cycles": result.cycles}


def _groupby_note(args, result):
    return {"rows": args[1].num_rows, "cycles": result.cycles}


def _shuffle_note(_args, result):
    return {"rows": result.rows_moved}


def install(rec: Recorder) -> None:
    """Wrap each layer's entry points where their callers look them
    up. Paths are ``module:attribute``."""
    physical = "repro.apps.sql.physical:CompiledQuery"
    rec.span("repro.serve.frontend:ServingFrontend.run", "serve.run")
    rec.span("repro.runtime.admission:WeightedFairQueue.pop",
             "runtime.wfq_pop")
    for path in ("repro.serve.frontend:compile_query",
                 "repro.apps.sql:compile_query"):
        rec.span(path, "sql.compile")
    for path in ("repro.serve.frontend:cluster_compiled_query",
                 "repro.serve.frontend:cluster_batched_queries",
                 "repro.cluster:cluster_compiled_query"):
        rec.span(path, "cluster.job")
    rec.span("repro.cluster.scaleout:shuffle_exchange", "cluster.shuffle",
             _shuffle_note)
    rec.span("repro.cluster.recovery:RecoveryManager.run_exchange",
             "cluster.shuffle", _shuffle_note)
    rec.span(f"{physical}.run_local", "sql.local", _local_note)
    rec.span(f"{physical}.run_dpu", "sql.local", _dpu_note)
    rec.span("repro.cluster.scaleout:dpu_groupby", "sql.local",
             _groupby_note)
    rec.span(f"{physical}.run_xeon", "baseline.xeon")
    rec.count("repro.sim.engine:Engine.timeout", "sim.timeouts")
    rec.count("repro.sim.engine:Engine.process", "sim.processes")
    rec.track_engines("repro.sim.engine:Engine.__init__")


# -- the timed loop --------------------------------------------------------


@dataclass
class Run:
    """Everything one benchmark run measured."""

    workload: str
    seed: int
    setup_s: List[float]  # unscaled host seconds
    speed: HostSpeed
    first: List[UnitResult]
    rounds: List[Tuple[float, int]]  # (host s, ops passed), untraced
    traced_rounds: List[float]
    attempted: int
    failed: int
    mismatches: int
    nondeterministic: int
    errors: List[str]
    texts: int
    compile_errors: Dict[str, str]
    recorder: Optional[Recorder] = None


def _round(workload, state, rec, first, tally,
           speed) -> Tuple[float, int]:
    # Start every round from a collected heap, so the collector's
    # work inside a round is the round's own and the same every time.
    gc.collect()
    spent, passed = 0.0, 0
    for index in range(workload.units(state)):
        out = workload.run_unit(state, index, rec)
        speed.after("round", out.host_s)
        spent += out.host_s
        passed += out.ops - out.failed
        tally["attempted"] += out.ops
        tally["failed"] += out.failed
        tally["mismatches"] += out.mismatches
        for error in out.errors:
            if error not in tally["errors"]:
                tally["errors"].append(error)
        if first[index] is None:
            first[index] = out
        elif out.signature() != first[index].signature():
            tally["nondeterministic"] += 1
    return spent, passed


def _set_up(workload, seed: int, setup_s: List[float], speed):
    gc.collect()
    start = _now()
    state = workload.setup(seed)
    setup_s.append(_now() - start)
    speed.after("setup", setup_s[-1])
    return state


def measure(name: str, seed: int, seconds: float, trace: bool) -> Run:
    workload = WORKLOADS[name]()
    setup_s: List[float] = []
    speed = HostSpeed()
    state = _set_up(workload, seed, setup_s, speed)

    first: List[Optional[UnitResult]] = [None] * workload.units(state)
    tally = {"attempted": 0, "failed": 0, "mismatches": 0,
             "nondeterministic": 0, "errors": []}
    rounds: List[Tuple[float, int]] = []
    traced: List[float] = []
    rec = Recorder() if trace else None
    begin = _now()
    while not rounds or _now() - begin < seconds:
        started = _now()
        rounds.append(
            _round(workload, state, None, first, tally, speed))
        if rec is not None:
            install(rec)
            try:
                traced.append(
                    _round(workload, state, rec, first, tally, speed)[0])
            finally:
                rec.restore()
        # The next round runs on the fresh state: set-up is
        # deterministic, so its units must repeat their results.
        budget = SETUP_SHARE * (_now() - started)
        spent = 0.0
        while spent < budget or not spent:
            state = None
            state = _set_up(workload, seed, setup_s, speed)
            spent += setup_s[-1]
    return Run(name, seed, setup_s, speed, first, rounds, traced,
               tally["attempted"], tally["failed"], tally["mismatches"],
               tally["nondeterministic"], tally["errors"], state.texts,
               state.compile_errors, rec)


# -- metrics ---------------------------------------------------------------


def end_to_end(run: Run, peak_rss_mb: float) -> Dict[str, Tuple[float, str]]:
    latencies = [v for unit in run.first for v in unit.latencies]
    gains = [v for unit in run.first for v in unit.gains]
    tail_value, _pct, _beyond = tail(latencies)
    return {
        "setup_s": (statistics.median(run.setup_s)
                    * run.speed.scale("setup"), "s"),
        "ops_per_s": (statistics.median(
            passed / spent for spent, passed in run.rounds)
            / run.speed.scale("round"), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "pass_share": (1.0 - run.failed / run.attempted, "share"),
        "compile_share": (
            (run.texts - len(run.compile_errors)) / run.texts, "share"),
        "sim_p50_cycles": (statistics.median(latencies), "cycles"),
        "sim_tail_cycles": (tail_value, "cycles"),
        "sim_cycles": (math.fsum(latencies), "cycles"),
        "perfw_geomean": (geomean(gains), "x"),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(run: Run) -> Dict[str, Tuple[float, str]]:
    """Layer metrics from the traced rounds. Counts are per round;
    host times come from spans. A layer the workload does not reach
    reads 0; a layer whose wrapped name is gone is left out."""
    rec = run.recorder
    rounds = len(run.traced_rounds)
    facts: Counter = Counter()
    tiers: Dict[str, List[float]] = {}
    for unit in run.first:
        facts.update(unit.facts)
        for tier, values in unit.tiers.items():
            tiers.setdefault(tier, []).extend(values)
    counts = {key: value / rounds for key, value in rec.counts.items()}
    untraced = statistics.median(spent for spent, _ in run.rounds)

    def spans(name: str, op_filter=None):
        return [s for s in rec.named(name)
                if op_filter is None or op_filter(s.op or "")]

    def seconds(items) -> float:
        return math.fsum(s.duration for s in items)

    def mean_ms(items) -> float:
        return _ratio(1e3 * seconds(items), len(items))

    def data_sum(items, key: str) -> float:
        return math.fsum(s.data[key] for s in items if s.data)

    local = spans("sql.local")
    shuffle = spans("cluster.shuffle")

    def killed(op: str) -> bool:
        return op.endswith(":killed")

    requests = facts["serve.requests"]
    local_s = seconds(local) / rounds

    def tier_tail(tier: str) -> float:
        return tail(tiers[tier])[0] if tiers.get(tier) else 0.0

    metrics = {
        "serve.dispatch_us": (_ratio(1e6 * rec.self_seconds(
            "serve.run", {"cluster.job", "sql.compile"}) / rounds,
            requests), "us"),
        "serve.result_hit_share": (
            _ratio(facts["serve.cache_hits"], requests), "share"),
        "runtime.wfq_pop_us": (1e3 * mean_ms(spans("runtime.wfq_pop")),
                               "us"),
        "serve.batch_size_mean": (_ratio(facts["serve.member_requests"],
                                         facts["cluster.jobs"]), "count"),
        "serve.gold_tail_cycles": (tier_tail("gold"), "cycles"),
        "serve.bronze_tail_cycles": (tier_tail("bronze"), "cycles"),
        "sql.scan_rows_per_s": (_ratio(data_sum(local, "rows"),
                                       seconds(local)), "1/s"),
        "sql.local_share": (_ratio(seconds(local),
                                   math.fsum(run.traced_rounds)), "share"),
        "dms.descriptors_per_s": (_ratio(counts.get("dms.descriptors", 0.0),
                                         local_s), "1/s"),
        "sql.compile_ms": (mean_ms(spans("sql.compile")), "ms"),
        "baseline.xeon_ms": (mean_ms(spans("baseline.xeon")), "ms"),
        "sql.cycles_per_row": (_ratio(data_sum(local, "cycles"),
                                      data_sum(local, "rows")), "cycles"),
        "dms.descriptors": (counts.get("dms.descriptors", 0.0), "count"),
        "memory.ddr_bytes": (counts.get("memory.ddr_bytes", 0.0), "B"),
        "memory.ddr_busy_share": (
            _ratio(counts.get("memory.ddr_busy_cycles", 0.0),
                   counts.get("memory.dpu_cycles", 0.0)), "share"),
        "memory.row_misses": (counts.get("memory.row_misses", 0.0), "count"),
        "cluster.serial_ratio": (_ratio(facts["cluster.cycles"],
                                        facts["cluster.parallel_cycles"]),
                                 "ratio"),
        "cluster.gather_cycles": (facts["cluster.gather_cycles"], "cycles"),
        "cluster.network_bytes": (counts.get("fabric.bytes", 0.0), "B"),
        "cluster.job_host_ms": (
            mean_ms(spans("cluster.job", lambda op: not killed(op))), "ms"),
        "cluster.shuffle_rows_per_s": (_ratio(data_sum(shuffle, "rows"),
                                              seconds(shuffle)), "1/s"),
        "cluster.exchange_cycles": (facts["cluster.exchange_cycles"],
                                    "cycles"),
        "recovery.cycles": (facts["recovery.cycles"], "cycles"),
        "recovery.host_ms_per_job": (mean_ms(spans("cluster.job", killed)),
                                     "ms"),
        "recovery.detection_cycles": (
            counts.get("recovery.detection_cycles", 0.0), "cycles"),
        "recovery.election_cycles": (
            counts.get("recovery.election_cycles", 0.0), "cycles"),
        "recovery.reexec_share": (
            _ratio(counts.get("recovery.reexecuted_shards", 0.0),
                   facts["recovery.shards"]), "share"),
        "recovery.resends": (counts.get("recovery.resends", 0.0), "count"),
        "recovery.journal_bytes": (counts.get("recovery.journal_bytes", 0.0),
                                   "B"),
        "sim.timeouts": (counts.get("sim.timeouts", 0.0), "count"),
        "sim.processes": (counts.get("sim.processes", 0.0), "count"),
        "obs.span_overhead_share": (
            statistics.median(run.traced_rounds) / untraced - 1.0, "share"),
    }
    if "sim.events" in counts:
        metrics["sim.events_per_s"] = (counts["sim.events"] / untraced, "1/s")
    # A metric whose every wrapped entry point is gone is absent.
    for metric, needs in _NEEDS.items():
        if not needs <= rec.installed:
            metrics.pop(metric, None)
    return metrics


# Per-layer metric -> the span or count names it is read from.
_LOCAL = {"sql.local"}
_NEEDS = {
    "serve.dispatch_us": {"serve.run"},
    "runtime.wfq_pop_us": {"runtime.wfq_pop"},
    "sql.scan_rows_per_s": _LOCAL,
    "sql.local_share": _LOCAL,
    "dms.descriptors_per_s": _LOCAL,
    "sql.cycles_per_row": _LOCAL,
    "sql.compile_ms": {"sql.compile"},
    "baseline.xeon_ms": {"baseline.xeon"},
    "cluster.job_host_ms": {"cluster.job"},
    "recovery.host_ms_per_job": {"cluster.job"},
    "cluster.shuffle_rows_per_s": {"cluster.shuffle"},
    "sim.timeouts": {"sim.timeouts"},
    "sim.processes": {"sim.processes"},
}
