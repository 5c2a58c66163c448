"""Scale-out algorithms across a DPU cluster (paper §4).

"Such system services allowed us to scale several of the applications
in Section 5 across 500+ DPU clusters." The communication path is the
one the paper describes: dpCores never touch the network — a
designated core mailboxes its partial result (a pointer-sized
message; bulk stays in DRAM) to the local **A9**, which runs the
Infiniband stack and ships it to the coordinator DPU's A9.

Two job families:

* **merge-only** — :func:`cluster_hll` (lossless register-file merge)
  and :func:`cluster_filter_count` (sum of per-shard counts): each
  DPU works on its shard in place; only tiny partials cross the
  fabric.

* **exchange-based** — :func:`cluster_groupby`,
  :func:`cluster_partitioned_join_count` and :func:`cluster_topk`
  redistribute (or rank) rows with the
  :mod:`~repro.cluster.shuffle` partitioned exchange so each DPU owns
  a disjoint key range; :func:`cluster_compiled_query` runs a
  planner-compiled SQL query either way, and its ``pre_aggregate``
  exchange (TPC-H Q1) instead pre-aggregates per shard and merges
  4-group partials — with NDV ~4, shipping the group table (a few
  hundred bytes) beats shuffling the whole lineitem, the classic
  aggregate-pushdown tradeoff.

Each DPU's local phase (partition, sketch, scan, join...) runs as its
own process on the shared engine (:meth:`Cluster.run_steps`), so the
DPUs work at the same time and meet only at the exchange and the
gather, as in the paper's rack: ``ScaleOutResult.cycles`` is the
job's critical path, and it equals ``detail["parallel_cycles"]`` plus
the coordinator's admission wait, fault-free and under chaos alike.

Every job reports **per-job** fabric accounting: ``network_bytes``
and ``retransmissions`` are deltas from the job's start, so
back-to-back jobs on one long-lived cluster don't absorb each other's
traffic.

On the fault-free path the coordinator is pinned to DPU 0. Under a
chaos plan every job runs through the
:class:`~repro.cluster.recovery.RecoveryManager` retry loops instead,
which address partials to the *current elected leader* — DPU 0 until
it dies, the lowest surviving index afterwards — and still hand back
exactly one :class:`ScaleOutResult` per job (merge happens once, on
the final leader, after every shard arrived).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..apps.hll import HllSketch, dpu_hll, hll_estimate
from ..apps.sql import Between, Table, dpu_filter
from ..apps.sql.aggregate import (
    _as_row_filter,
    _needed_columns,
    dpu_groupby,
    merge_groups,
)
from ..apps.sql.join import dpu_partitioned_join_count
from ..apps.sql.topk import dpu_topk
from .rack import Cluster
from .recovery import ClusterError, RecoveryStats, a9_uplink
from .shuffle import ShuffleResult, shuffle_exchange

__all__ = [
    "ScaleOutResult",
    "cluster_batched_queries",
    "cluster_filter_count",
    "cluster_groupby",
    "cluster_hll",
    "cluster_partitioned_join_count",
    "cluster_topk",
]


@dataclass
class ScaleOutResult:
    """Outcome of one distributed job."""

    value: Any
    cycles: float
    num_dpus: int
    clock_hz: float
    # Per-job deltas (snapshot at job start minus at completion), NOT
    # cluster-lifetime counters: a second job on the same cluster
    # reports only its own traffic.
    network_bytes: int
    # Admission outcome (see repro.runtime.admission): True when the
    # coordinator admitted this job at reduced per-DPU core fanout.
    degraded: bool = False
    retransmissions: int = 0
    # Phase breakdown (partition_cycles, exchange_cycles, local_cycles,
    # gather_cycles, parallel_cycles, rows_moved) — feeds
    # ShuffleRackModel calibration.
    detail: Optional[Dict[str, float]] = None
    # Recovery outcome when the cluster ran this job under a chaos
    # plan (declared deaths, re-executed shards, speculative wins...);
    # None on the fault-free path.
    recovery: Optional[RecoveryStats] = None

    @property
    def seconds(self) -> float:
        return self.cycles / self.clock_hz


# A job's phases, in the order they follow one another.
_PHASES = ("partition_cycles", "exchange_cycles", "local_cycles",
           "gather_cycles")


class _Job:
    """One cluster job's bracket (a context manager), and the one place
    that knows a job's phases.

    Entering snapshots the fabric counters (``network_bytes`` and
    ``retransmissions`` are per-job deltas), passes the coordinator's
    admission gate (queue time counts toward the job's latency; a shed
    raises ``OverloadError`` before any DPU does work) and, under a
    chaos plan on more than one DPU, opens the recovery manager's job.
    Leaving closes both. In between, :meth:`exchange` and
    :meth:`run_shards` run the job's phases on whichever path is
    active — the fault-free path with the coordinator pinned to DPU 0,
    or the :class:`~repro.cluster.recovery.RecoveryManager` retry
    loops — and the job's ``compute`` is the same on both.

    Both paths move the shared clock in only two ways: per-DPU compute
    through :meth:`Cluster.run_steps`, and everything else on the A9s
    and the fabric. So the phases are read off the clock
    (:meth:`_clock`): partition is the time spent inside ``run_steps``
    during :meth:`exchange` and exchange the rest of it; local is the
    time spent inside ``run_steps`` during :meth:`run_shards` and
    gather the rest of it. They add up to the job's ``cycles`` less
    its admission wait, under chaos too, and :meth:`result` turns them
    into ``detail``.

    A one-DPU cluster has nothing to exchange and nothing to gather:
    its one shard already holds every key, and its partial is the
    result. So :meth:`exchange` leaves each side where it is,
    :meth:`run_shards` merges the single partial in place, and the
    job reports zero fabric bytes and zero partition, exchange and
    gather cycles.
    """

    def __init__(self, cluster: Cluster, site: str) -> None:
        self.cluster = cluster
        self.site = site
        self.start = cluster.engine.now
        self.start_bytes = cluster.fabric.bytes_sent
        self.start_retransmissions = cluster.fabric.retransmissions
        self.ticket = None
        self.manager = None
        # Slot -> DPU map of the last exchange (None: slot i on DPU i).
        self.owners: Optional[Dict[int, int]] = None
        # The two exchanges of a join add up.
        self.phases = dict.fromkeys(_PHASES + ("rows_moved",), 0.0)

    def __enter__(self) -> "_Job":
        cluster = self.cluster
        self.ticket = cluster.admit_job(f"cluster.{self.site}")
        if cluster.recovery is not None and cluster.num_dpus > 1:
            self.manager = cluster.recovery
            self.manager.begin_job(self.site)
        return self

    def __exit__(self, *exc_info) -> bool:
        try:
            if self.manager is not None:
                self.manager.end_job()
        finally:
            self.cluster.release_job()
        return False

    def fanout(self, dpu) -> Optional[List[int]]:
        """Cores of ``dpu`` the admission ticket grants (None: all)."""
        if self.ticket is None:
            return None
        return self.ticket.fanout(list(dpu.config.core_ids))

    @contextmanager
    def _clock(self, compute_phase: str, fabric_phase: str):
        """Charge the shared clock the enclosed block spends inside
        :meth:`Cluster.run_steps` to ``compute_phase`` and the rest to
        ``fabric_phase``. Yields a dict that holds the block's two
        values once it ends."""
        cluster = self.cluster
        spans = cluster.steps_spans = []
        spent = dict.fromkeys((compute_phase, fabric_phase), 0.0)
        mark = cluster.engine.now
        try:
            yield spent
        finally:
            cluster.steps_spans = None
        for began, ended in spans:
            spent[fabric_phase] += began - mark
            spent[compute_phase] += ended - began
            mark = ended
        spent[fabric_phase] += cluster.engine.now - mark
        for phase, cycles in spent.items():
            self.phases[phase] += cycles

    def exchange(self, *sides: Tuple[Sequence[Table], str, Sequence[str]],
                 sites: Sequence[str] = ()) -> List[ShuffleResult]:
        """Shuffle each side's host ``tables`` (one per DPU) by
        ``hash(key)``; ``sides`` are ``(tables, key, names)`` and
        ``sites`` name them for the recovery manager (default: the
        job's site). Fault-free, every side is stored before any side
        shuffles, so a later side's DRAM placement (and so its row-miss
        timing) does not depend on an earlier shuffle's freed regions.
        On one DPU every side stays as it is: zero cycles, nothing moved.
        """
        cluster = self.cluster
        if cluster.num_dpus == 1:
            return [ShuffleResult([dict(tables[0].columns)], 0, 0)
                    for tables, _key, _names in sides]
        if self.manager is None:
            stored = [[table.to_dpu(dpu)
                       for table, dpu in zip(tables, cluster.dpus)]
                      for tables, _key, _names in sides]
        shuffled = []
        for index, (tables, key, names) in enumerate(sides):
            with self._clock("partition_cycles", "exchange_cycles") as spent:
                if self.manager is not None:
                    result = self.manager.run_exchange(
                        sites[index] if sites else self.site,
                        tables, key, names)
                    self.owners = dict(self.manager.last_slot_owner)
                else:
                    result = shuffle_exchange(cluster, stored[index], key,
                                              names)
            if cluster.metrics.enabled:
                cluster.metrics.observe("shuffle.partition.cycles",
                                        spent["partition_cycles"])
                cluster.metrics.observe("shuffle.exchange.cycles",
                                        spent["exchange_cycles"])
            self.phases["rows_moved"] += result.rows_moved
            shuffled.append(result)
        return shuffled

    def run_shards(self, compute, merge, nbytes_of):
        """Local phase plus gather; returns the merged partials.

        ``compute(shard, dpu)`` returns the launch steps of one shard's
        partial (see :meth:`Cluster.run_steps`). Fault-free, every DPU
        computes its own shard at the same time, then each ships its
        partial to coordinator 0."""
        cluster = self.cluster
        with self._clock("local_cycles", "gather_cycles"):
            if self.manager is not None:
                return self.manager.run_job(
                    self.site, compute, merge, nbytes_of=nbytes_of,
                    owners=self.owners)
            partials = cluster.run_steps([
                (index, compute(index, dpu))
                for index, dpu in enumerate(cluster.dpus)
            ])
            if cluster.num_dpus == 1:
                return merge(None, partials[0])
            return _gather_partials(cluster, partials, nbytes_of, merge,
                                    site=self.site)

    def result(self, value, **extra) -> ScaleOutResult:
        """The job's outcome; ``extra`` entries join ``detail``."""
        cluster = self.cluster
        fabric = cluster.fabric
        if fabric.trace.enabled:
            fabric.trace.complete_async(
                f"cluster.{self.site}", "cluster", self.start,
                num_dpus=cluster.num_dpus,
                network_bytes=fabric.bytes_sent - self.start_bytes,
            )
        ticket = self.ticket
        detail = {name: float(self.phases[name]) for name in _PHASES}
        # Critical path: the phases follow one another on the shared
        # clock, so ScaleOutResult.cycles is this plus the
        # coordinator's admission wait.
        detail["parallel_cycles"] = sum(detail[name] for name in _PHASES)
        detail["rows_moved"] = float(self.phases["rows_moved"])
        # The rest of the latency: the coordinator's admission wait.
        detail["admission_cycles"] = (
            float(ticket.waited_cycles) if ticket is not None else 0.0)
        detail.update(extra)
        return ScaleOutResult(
            value=value,
            cycles=cluster.engine.now - self.start,
            num_dpus=cluster.num_dpus,
            clock_hz=cluster.config.clock_hz,
            network_bytes=fabric.bytes_sent - self.start_bytes,
            retransmissions=(fabric.retransmissions
                             - self.start_retransmissions),
            degraded=bool(ticket.degraded) if ticket is not None else False,
            detail=detail,
            recovery=(self.manager.stats if self.manager is not None
                      else None),
        )


def _a9_collector(cluster, coordinator, expected, merge, site="gather"):
    """Coordinator A9: gather ``expected`` messages and merge.

    Each receive is guarded by the fabric's gather lease
    (:attr:`~repro.cluster.network.FabricConfig.gather_lease_cycles`,
    sized far above any fault-free gather): a missing partial raises a
    structured :class:`~repro.cluster.recovery.ClusterError` — naming
    the job, the sim time, the missing DPUs, and the fabric counter
    snapshot — instead of hanging until the engine watchdog."""

    def process():
        engine = cluster.engine
        fabric = cluster.fabric
        lease = fabric.config.gather_lease_cycles
        merged = None
        received = []
        for _ in range(expected):
            abort = engine.timeout(lease)
            message = yield from fabric.receive(coordinator,
                                               abort_event=abort)
            if message is None:
                reason = (f"gather lease of {lease:.0f} cycles expired "
                          f"with {len(received)}/{expected} partials")
                if fabric.trace.enabled:
                    fabric.trace.instant(
                        "cluster.error", unit="cluster", site=site,
                        epoch=0, leader=coordinator, reason=reason,
                    )
                raise ClusterError(
                    site, engine.now,
                    missing=sorted(set(range(cluster.num_dpus))
                                   - set(received)),
                    fabric=fabric.counters(),
                    reason=reason,
                    # The fault-free gather never changes leadership:
                    # generation 0 under the pinned coordinator.
                    epoch=0, leader=coordinator,
                )
            abort.cancel()
            src, payload = message
            received.append(src)
            merged = merge(merged, payload)
        return merged

    return process()


def _gather_partials(cluster, partials, nbytes_of, merge, site="gather"):
    """Ship one partial result per DPU to coordinator 0 and merge.

    Returns the merged value. Follows the paper's path on every DPU
    including the coordinator (its A9 loops back through the fabric
    model): core 0 mailboxes the partial to the local A9, which ships
    it over the fabric."""
    engine = cluster.engine
    processes = []
    for index, partial in enumerate(partials):
        processes.extend(
            a9_uplink(cluster, index, 0, partial, nbytes_of(partial)))
    collector = engine.process(
        _a9_collector(cluster, 0, len(partials), merge, site=site))
    processes.append(collector)
    cluster.run(processes)
    return collector.value


def _merge_disjoint(accumulator, partial):
    merged = accumulator if accumulator is not None else {}
    merged.update(partial)  # disjoint key sets: plain union
    return merged


def _merge_counts(accumulator, count):
    return (accumulator or 0) + count


def _merge_registers(accumulator, registers):
    if accumulator is None:
        return registers.copy()
    np.maximum(accumulator, registers, out=accumulator)
    return accumulator


def cluster_hll(
    cluster: Cluster,
    shards: Sequence[np.ndarray],
    precision: int = 12,
    hash_fn: str = "crc32",
) -> ScaleOutResult:
    """Distributed HyperLogLog over one u64 shard per DPU: every DPU
    sketches its shard in place, the coordinator max-merges the
    register files (lossless)."""
    _validate_shards(cluster, shards)
    register_bytes = (1 << precision)
    with _Job(cluster, "hll") as job:

        def compute(shard_index, dpu):
            shard = shards[shard_index]
            address = dpu.store_array(shard)
            local = yield from dpu_hll.steps(
                dpu, address, len(shard), precision=precision,
                hash_fn=hash_fn, cores=job.fanout(dpu),
            )
            return local.detail["registers"]

        merged = job.run_shards(
            compute, _merge_registers,
            nbytes_of=lambda registers: register_bytes,
        )
        return job.result(hll_estimate(HllSketch(precision, merged)))


def cluster_filter_count(
    cluster: Cluster,
    shards: Sequence[np.ndarray],
    lo: int,
    hi: int,
) -> ScaleOutResult:
    """Distributed selective count: FILT each shard, ship counts."""
    _validate_shards(cluster, shards)
    predicate = Between("v", lo, hi)
    with _Job(cluster, "filter_count") as job:

        def compute(shard_index, dpu):
            table = Table(f"shard{shard_index}", {"v": shards[shard_index]})
            result = yield from dpu_filter.steps(
                dpu, table.to_dpu(dpu), predicate, cores=job.fanout(dpu))
            return int(result.detail["selected"])

        return job.result(job.run_shards(
            compute, _merge_counts, nbytes_of=lambda partial: 8))


# -- exchange-based SQL jobs --------------------------------------------------


def _validate_shards(cluster: Cluster, shards, what="shards") -> None:
    if len(shards) != cluster.num_dpus:
        raise ValueError(
            f"{len(shards)} {what} for {cluster.num_dpus} DPUs"
        )


def cluster_groupby(
    cluster: Cluster,
    shards: Sequence[Table],
    key: str,
    aggs,
    row_filter=None,
) -> ScaleOutResult:
    """Distributed group-by: shuffle rows by ``hash(key)`` so each DPU
    owns a disjoint key set, group locally, union the disjoint partial
    tables at the coordinator. Byte-equal to
    :func:`~repro.apps.sql.aggregate.dpu_groupby` over the
    concatenated shards (integer inputs; float sums below 2^53 are
    order-independent)."""
    _validate_shards(cluster, shards)
    if not isinstance(key, str):
        raise ValueError(
            "cluster_groupby shuffles on a single key column; composite "
            "GroupKeys belong in pre-aggregating jobs (see "
            "cluster_compiled_query)"
        )
    with _Job(cluster, "groupby") as job:
        names = _needed_columns(key, aggs, _as_row_filter(row_filter))
        record_bytes = 8 + 8 * len(aggs)
        [shuffled] = job.exchange((shards, key, names))

        def compute(slot, dpu):
            columns = shuffled.columns[slot]
            if len(columns[key]) == 0:
                return {}
            local_table = Table(f"shuffle{slot}", columns).to_dpu(dpu)
            local = yield from dpu_groupby.steps(
                dpu, local_table, key, aggs, row_filter=row_filter)
            return local.value

        return job.result(job.run_shards(
            compute, _merge_disjoint,
            nbytes_of=lambda partial: max(record_bytes * len(partial), 8),
        ))


def cluster_partitioned_join_count(
    cluster: Cluster,
    build_shards: Sequence[Table],
    build_key: str,
    probe_shards: Sequence[Table],
    probe_key: str,
) -> ScaleOutResult:
    """Distributed join cardinality: shuffle both tables on their join
    keys (same hash), join each co-located pair with the 32-way
    intra-DPU partitioned join, sum the match counts."""
    _validate_shards(cluster, build_shards, "build shards")
    _validate_shards(cluster, probe_shards, "probe shards")
    with _Job(cluster, "join") as job:
        build_shuffled, probe_shuffled = job.exchange(
            (build_shards, build_key, [build_key]),
            (probe_shards, probe_key, [probe_key]),
            sites=("join.build", "join.probe"))

        def compute(slot, dpu):
            build_columns = build_shuffled.columns[slot]
            probe_columns = probe_shuffled.columns[slot]
            if (len(build_columns[build_key]) == 0
                    or len(probe_columns[probe_key]) == 0):
                return 0
            build_local = Table(f"build{slot}", build_columns).to_dpu(dpu)
            probe_local = Table(f"probe{slot}", probe_columns).to_dpu(dpu)
            local = yield from dpu_partitioned_join_count.steps(
                dpu, build_local, build_key, probe_local, probe_key,
            )
            return int(local.value)

        return job.result(job.run_shards(
            compute, _merge_counts, nbytes_of=lambda partial: 8))


def cluster_topk(
    cluster: Cluster,
    shards: Sequence[Table],
    column: str,
    k: int,
) -> ScaleOutResult:
    """Distributed top-k: local top-k per shard (row ids offset to the
    global row space), candidates gathered and re-ranked at the
    coordinator — no repartition needed, the two-phase scheme of
    :func:`~repro.apps.sql.topk.dpu_topk` lifted to the cluster.
    Byte-equal to the single-DPU result when values are distinct (with
    duplicates at the k-boundary, which tied rows survive depends on
    the sharding — same caveat as the per-core merge)."""
    _validate_shards(cluster, shards)
    offsets = np.cumsum([0] + [shard.num_rows for shard in shards])

    def merge(accumulator, candidates):
        merged = accumulator if accumulator is not None else []
        merged.extend(candidates)
        return merged

    with _Job(cluster, "topk") as job:

        def compute(shard_index, dpu):
            local = yield from dpu_topk.steps(
                dpu, shards[shard_index].to_dpu(dpu), column, k)
            base = int(offsets[shard_index])
            return [(value, row + base) for value, row in local.value]

        candidates = job.run_shards(
            compute, merge,
            nbytes_of=lambda partial: max(16 * len(partial), 8),
        )
        return job.result(sorted(candidates, reverse=True)[:k])


def cluster_compiled_query(
    cluster: Cluster,
    compiled,
    shards: Sequence[Table],
    strategy: Optional[str] = None,
) -> ScaleOutResult:
    """Run a planner-compiled SQL query
    (:class:`~repro.apps.sql.physical.CompiledQuery`) over row-sharded
    fact tables.

    ``strategy`` defaults to the exchange the cost-based planner chose
    (``compiled.plan["exchange"]["choice"]``):

    - ``pre_aggregate``: each DPU runs the full local plan on its
      shard and only partial group tables cross the fabric, merged
      with :func:`~repro.apps.sql.aggregate.merge_groups` (the only
      legal strategy for computed group keys).
    - ``all_to_all``: shuffle the fact rows by the single-column group
      key so each DPU owns a disjoint key set, group locally, union
      the disjoint partials.

    The coordinator applies ``compiled.finish`` (decode / gather /
    sort / limit) to the merged groups, so the value is byte-equal to
    ``compiled.run_dpu`` and ``compiled.run_xeon`` over the
    concatenated shards (all aggregates are integer-valued float sums
    below 2^53, hence order-independent)."""
    _validate_shards(cluster, shards, "fact shards")
    if strategy is None:
        strategy = compiled.plan["exchange"]["choice"]
    if strategy not in ("pre_aggregate", "all_to_all"):
        raise ValueError(f"unknown exchange strategy {strategy!r}")
    if strategy == "all_to_all" and compiled.key_column is None:
        raise ValueError(
            f"{compiled.name}: all_to_all shuffles on a single key column; "
            "computed group keys only support pre_aggregate"
        )
    record_bytes = compiled.record_bytes

    def merge_partials(accumulator, partial):
        if accumulator is None:
            return merge_groups([partial], compiled.aggs)
        return merge_groups([accumulator, partial], compiled.aggs)

    def nbytes_of(partial):
        return max(record_bytes * len(partial), 8)

    with _Job(cluster, f"sql.{compiled.name}") as job:
        if strategy == "all_to_all":
            projected = [
                Table(shard.name, {name: shard.columns[name]
                                   for name in compiled.needed_columns})
                for shard in shards
            ]
            [shuffled] = job.exchange(
                (projected, compiled.key_column, compiled.needed_columns))

            def compute(slot, dpu):
                groups, _cycles = yield from compiled.local_steps(
                    dpu, shuffled.columns[slot], f"slot{slot}")
                return groups

            merge = _merge_disjoint
        else:

            def compute(shard_index, dpu):
                groups, _cycles = yield from compiled.local_steps(
                    dpu, shards[shard_index].columns, f"shard{shard_index}")
                return groups

            merge = merge_partials

        return job.result(compiled.finish(
            job.run_shards(compute, merge, nbytes_of)))


def cluster_batched_queries(
    cluster: Cluster,
    batch: Sequence,
    shards: Sequence[Table],
) -> ScaleOutResult:
    """Run several compiled queries over **one shared fact scan**.

    The serving layer's batching primitive
    (:mod:`repro.serve`): every
    :class:`~repro.apps.sql.physical.CompiledQuery` in ``batch`` must
    read the same fact table (equal
    :attr:`~repro.apps.sql.physical.CompiledQuery.batch_key`). Each
    DPU stores the *union* of the batch's needed columns once, then
    runs every query's group-by against that single resident copy —
    the DRAM image, admission ticket, and gather round-trip are paid
    once per batch instead of once per query. Partial group tables for
    the whole batch travel to the coordinator in one message per DPU
    and merge per-query with
    :func:`~repro.apps.sql.aggregate.merge_groups` (the
    ``pre_aggregate`` exchange lifted to a query list).

    ``value`` is a tuple of finished row tuples, aligned with
    ``batch`` order; each element is byte-equal to running that query
    alone through :func:`cluster_compiled_query` over the same shards.
    """
    batch = list(batch)
    if not batch:
        raise ValueError("empty query batch")
    fact = batch[0].fact
    for compiled in batch[1:]:
        if compiled.batch_key != batch[0].batch_key:
            raise ValueError(
                f"{compiled.name} (fact {compiled.fact!r}, catalog "
                f"v{compiled.catalog_version}) cannot share a scan with "
                f"{batch[0].name} (fact {fact!r}, catalog "
                f"v{batch[0].catalog_version})"
            )
    _validate_shards(cluster, shards, "fact shards")
    union_names = list(dict.fromkeys(
        name for compiled in batch for name in compiled.needed_columns
    ))
    site = "sql.batch[" + "+".join(c.name for c in batch) + "]"

    def shard_partials(dpu, columns, label):
        """The shared scan, as launch steps: one union table stored per
        DPU; each query's group-by streams only its own needed columns
        from the resident copy, at the fan-out a standalone run picks
        for the shard, one query after another. Per-query results are
        byte-equal to the standalone plan; cycles equal a standalone
        scan of the same stored shard, except that DRAM rows the
        previous query left open can save up to one row miss per
        bank."""
        if not columns or len(next(iter(columns.values()))) == 0:
            return [{} for _ in batch]
        table = Table(f"{fact}_{label}",
                      {name: columns[name] for name in union_names})
        dtable = table.to_dpu(dpu)
        partials = []
        for compiled in batch:
            groups, _cycles = yield from compiled.local_steps(
                dpu, columns, label, resident=dtable)
            partials.append(groups)
        return partials

    def merge(accumulator, partials):
        if accumulator is None:
            return [merge_groups([partial], compiled.aggs)
                    for partial, compiled in zip(partials, batch)]
        return [merge_groups([merged, partial], compiled.aggs)
                for merged, partial, compiled
                in zip(accumulator, partials, batch)]

    def nbytes_of(partials):
        return max(8, sum(compiled.record_bytes * len(partial)
                          for compiled, partial in zip(batch, partials)))

    with _Job(cluster, site) as job:

        def compute(shard_index, dpu):
            return shard_partials(
                dpu, shards[shard_index].columns, f"shard{shard_index}")

        value = job.run_shards(compute, merge, nbytes_of)
        return job.result(
            tuple(compiled.finish(groups)
                  for compiled, groups in zip(batch, value)),
            batch=float(len(batch)))
