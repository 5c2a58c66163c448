"""dpCore cycle costs for SQL operator inner loops.

Every constant here is *derived from the ISA interpreter*: the
function next to each constant assembles the operator's inner loop,
runs it on :class:`~repro.core.dpcore.DpCoreInterpreter`, and returns
the measured cycles per tuple. Unit tests assert the constants match
the measurements, so if the core model changes, the operator costs
cannot silently drift.

The headline number is the paper's Figure 15: the BVLD/FILT filter
loop at ~1.65 cycles/tuple (482 Mtuples/s on one 800 MHz dpCore).

:class:`FanoutModel` composes these per-row costs with the DMS and
mailbox constants of :class:`~repro.core.config.DPUConfig` into the
cycles of a low-NDV group-by scanned on ``k`` dpCores; the physical
planner picks each shard's fan-out from it (``docs/SQL.md``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Any, Dict, Tuple

import numpy as np

from ...core.assembler import assemble
from ...core.config import DPU_40NM, DPUConfig
from ...core.dpcore import DpCoreInterpreter
from ...memory.ddr import AXI_MAX_TRANSFER
from ...memory.dmem import Scratchpad

__all__ = [
    "FILTER_CYCLES_PER_TUPLE",
    "AGG_CYCLES_PER_ROW",
    "JOIN_BUILD_CYCLES_PER_ROW",
    "JOIN_PROBE_CYCLES_PER_ROW",
    "TOPK_CYCLES_PER_ROW",
    "TOPK_CYCLES_PER_HIT",
    "SW_PARTITION_CYCLES_PER_ROW_COL",
    "MERGE_CYCLES_PER_GROUP",
    "LOW_NDV_STREAM_BYTES",
    "BROADCAST_PIECE_BYTES",
    "FANOUT_MIN_SAVING",
    "FanoutModel",
    "low_ndv_tile_rows",
    "measure_filter_loop",
    "measure_agg_loop",
]

# Figure 15: one 4 B column filtered with FILT, 8x unrolled,
# dual-issued LW+FILT pairs: measured 1.60 cycles/tuple on the
# interpreter (~500 Mtuples/s at 800 MHz vs the paper's 482 at 1.65 —
# within 4%; EXPERIMENTS.md records the delta).
FILTER_CYCLES_PER_TUPLE = 1.60

# Hash group-by update: CRC32 hash (1) + masked index arithmetic (3) +
# bucket load (1) + aggregate add + store (2) + loop overhead —
# measured 9.0 cycles/row on the interpreter.
AGG_CYCLES_PER_ROW = 9.0

# Hash join build: hash + store key/payload + chain pointer.
JOIN_BUILD_CYCLES_PER_ROW = 8.0
# Probe: hash + load candidate + compare (+ occasional chain walk).
JOIN_PROBE_CYCLES_PER_ROW = 7.0

# Top-k scan: compare against the current threshold (1 load + 1
# compare + loop, dual-issued) ...
TOPK_CYCLES_PER_ROW = 2.0
# ... plus a binary-heap sift on the rare replacement.
TOPK_CYCLES_PER_HIT = 24.0

# Software partitioning: per row x column, copy the value into the
# partition's DMEM staging buffer (hash already computed once per
# row; copy is LW+SW dual-issued with address bumps).
SW_PARTITION_CYCLES_PER_ROW_COL = 2.5

# Final merge of per-core aggregates (ATE-shipped): per group, add
# counters and compare keys.
MERGE_CYCLES_PER_GROUP = 10.0

# Low-NDV streaming: double-buffered stream tiles and the broadcast
# tables (at the top of DMEM) share this much of each core's DMEM.
LOW_NDV_STREAM_BYTES = 30 * 1024
# A broadcast table loads into each core's DMEM in pieces this big.
BROADCAST_PIECE_BYTES = 8192
# The planner leaves the all-cores plan only for a predicted saving of
# at least this share: below it, the ranking of fan-outs is inside the
# model's resolution (tile remainders and DDR bank phase move a scan's
# cycles by about 1% from one k to the next).
FANOUT_MIN_SAVING = 0.01


def low_ndv_tile_rows(row_bytes: int, broadcast_bytes: int,
                      tile_rows: int = 2048) -> int:
    """Rows per stream tile of the low-NDV scan: two tile buffers fit
    the DMEM the broadcasts leave, in multiples of 64 rows."""
    stream_budget = LOW_NDV_STREAM_BYTES - broadcast_bytes
    return min(tile_rows,
               max(64, (stream_budget // (2 * row_bytes)) // 64 * 64))


@dataclass(frozen=True)
class FanoutModel:
    """Cycles of a low-NDV group-by scanned on ``k`` dpCores.

    Each of the ``k`` cores loads its own copy of the broadcasts, then
    streams a static ``rows / k`` share in double-buffered tiles, one
    DMS descriptor per column per tile; core 0 then merges the other
    ``k - 1`` partial tables one mailbox message at a time. The model
    prices the three shared or serial resources of that scan:

    * **DDR channel** — bytes at peak, plus per descriptor the DMAC
      decode, per AXI transaction the controller overhead, and a row
      miss per DRAM row opened. The cores issue tile ``j`` of every
      column in lockstep, so a tile round sweeps each column across
      all cores, opening a row per request unless neighbouring
      requests share it (fewer streams than banks keep their rows
      open instead).
    * **compute** — a core computes a tile once its last column has
      landed; the scan ends when the last core has computed every tile
      after the last one it waited for. Compute-bound, that is the
      first tile's wait plus ``rows / k x cycles_per_row``;
      stream-bound, the channel's drain plus the last tile.
    * **merge** — core 0 takes one interrupt plus
      ``MERGE_CYCLES_PER_GROUP`` per group for each partial. Cores
      finish staggered by the last column's share of a tile round, so
      the merges overlap the stragglers' streaming until core 0 falls
      behind.

    The broadcast loads (``k`` copies on the channel) come first.
    Inputs are per query (from the physical planner); the row count
    is per shard. Constants come from :class:`DPUConfig` and this
    module, so a config change moves the model with the simulator.
    """

    # dpCore cycles per streamed row: filter, plus the group update
    # weighted by the share of rows the filter selects.
    cycles_per_row: float
    # Widths of the streamed columns, in stream order.
    column_bytes: Tuple[int, ...]
    broadcast_bytes: int
    # Share of rows the filter selects, and distinct keys among them.
    selectivity: float
    groups: int

    @property
    def row_bytes(self) -> int:
        return sum(self.column_bytes)

    @property
    def tile_rows(self) -> int:
        return low_ndv_tile_rows(self.row_bytes, self.broadcast_bytes)

    def cycles(self, rows: int, cores: int,
               config: DPUConfig = DPU_40NM) -> float:
        """Predicted cycles of scanning ``rows`` rows on ``cores``."""
        widths = self.column_bytes
        row_bytes = self.row_bytes
        per_core = -(-rows // cores)
        tile = self.tile_rows
        full, rest = divmod(per_core, tile)
        # (rows per tile, tiles of that size) for one core's share.
        shapes = [(tile, full)] + ([(rest, 1)] if rest else [])
        num_tiles = full + (1 if rest else 0)
        peak = config.ddr_peak_bytes_per_cycle
        row_size = config.ddr_row_size
        miss = config.ddr_row_miss_cycles
        decode = config.dms_dmac_decode_cycles
        overhead = config.ddr_transaction_overhead_cycles

        if cores * len(widths) < config.ddr_num_banks:
            misses = rows * row_bytes / row_size
        else:
            misses = sum(
                count * min(cores * (1 + size * width / row_size),
                            rows * width / row_size + 1)
                for size, count in shapes for width in widths)
        transactions = cores * sum(
            count * -(-size * width // AXI_MAX_TRANSFER)
            for size, count in shapes for width in widths)
        stream = (rows * row_bytes / peak
                  + transactions * overhead
                  + cores * num_tiles * len(widths) * decode
                  + misses * miss)
        start = 0.0
        if self.broadcast_bytes:
            nbytes = self.broadcast_bytes
            start = cores * (
                nbytes / peak
                + -(-nbytes // AXI_MAX_TRANSFER) * overhead
                + -(-nbytes // BROADCAST_PIECE_BYTES) * decode
                + -(-nbytes // row_size) * miss)

        # Tile j of every core has landed once the channel has streamed
        # the rows up to its end; the last column's round staggers the
        # cores, core 0 first. A core finishes by the latest landing
        # plus the compute left after it; that is linear across the
        # full tiles, so the first and last full tile and the short
        # tail tile bound it.
        stagger_per_row = cores * stream / rows * widths[-1] / row_bytes
        ends = [(0, tile), ((full - 1) * tile, tile)] if full else []
        if rest:
            ends.append((full * tile, rest))
        last_core = first_core = 0.0
        for lo, size in ends:
            landed = start + stream * (lo + size) / per_core
            remaining = (per_core - lo) * self.cycles_per_row
            last_core = max(last_core, landed + remaining)
            first_core = max(first_core,
                             landed - size * stagger_per_row + remaining)
        if cores == 1:
            return last_core
        groups = min(self.groups, max(1.0, per_core * self.selectivity))
        merge = config.mbc_interrupt_cycles + MERGE_CYCLES_PER_GROUP * groups
        return max(first_core + (cores - 1) * merge,
                   last_core + config.mbc_send_cycles + merge)

    def choose(self, rows: int, config: DPUConfig = DPU_40NM) -> int:
        """The fan-out for a ``rows``-row shard: the argmin of
        :meth:`cycles` over ``1..num_cores`` (ties to the smaller k),
        unless it saves less than ``FANOUT_MIN_SAVING`` over every
        core."""
        return _choose_fanout(self, rows, config)

    def as_dict(self) -> Dict[str, Any]:
        record = asdict(self)
        record["column_bytes"] = list(self.column_bytes)
        record["row_bytes"] = self.row_bytes
        record["tile_rows"] = self.tile_rows
        return record


@lru_cache(maxsize=1024)
def _choose_fanout(model: FanoutModel, rows: int, config: DPUConfig) -> int:
    all_cores = config.num_cores
    if rows <= 0:
        return all_cores
    costs = {k: model.cycles(rows, k, config) for k in range(1, all_cores + 1)}
    best = min(costs, key=lambda k: (costs[k], k))
    if costs[best] > (1.0 - FANOUT_MIN_SAVING) * costs[all_cores]:
        return all_cores
    return best


def _run_loop(source: str, dmem_words: int = 4096) -> DpCoreInterpreter:
    program = assemble(source)
    dmem = Scratchpad(core_id=0)
    interpreter = DpCoreInterpreter(program, dmem)
    return interpreter


@lru_cache(maxsize=None)
def measure_filter_loop(num_tuples: int = 2048) -> float:
    """Cycles/tuple of the Figure 15 filter loop, measured on the
    interpreter: 4 B loads + FILT, 4x unrolled, bitvector stores every
    64 tuples.

    The loop filters ``num_tuples`` values resident in DMEM (r3 walks
    the data, r4 is the end pointer, r5 the bitvector cursor).
    """
    if num_tuples % 64 != 0:
        raise ValueError("tuple count must be a multiple of 64")
    data_bytes = num_tuples * 4
    source = f"""
        li   r3, 0              # data cursor
        li   r4, {data_bytes}   # data end
        li   r5, {data_bytes}   # bitvector cursor
        li   r6, 100            # predicate bounds: 100..1000
        setfl r6
        li   r6, 1000
        setfh r6
    outer:
        li   r7, 8              # 8 x 8-unrolled = 64 tuples per word
    word:
        lw   r10, 0(r3)
        filt r11, r10
        lw   r12, 4(r3)
        filt r13, r12
        lw   r10, 8(r3)
        filt r11, r10
        lw   r12, 12(r3)
        filt r13, r12
        lw   r10, 16(r3)
        filt r11, r10
        lw   r12, 20(r3)
        filt r13, r12
        lw   r10, 24(r3)
        filt r11, r10
        lw   r12, 28(r3)
        filt r13, r12
        addi r3, r3, 32
        addi r7, r7, -1
        bne  r7, r0, word
        rdbv r8
        sd   r8, 0(r5)
        addi r5, r5, 8
        bne  r3, r4, outer
        halt
    """
    interpreter = _run_loop(source)
    # Fill DMEM with values straddling the predicate.
    values = (np.arange(num_tuples, dtype=np.uint32) * 37) % 2000
    interpreter.dmem.write(0, values)
    result = interpreter.run()
    assert result.halted
    return result.cycles / num_tuples


@lru_cache(maxsize=None)
def measure_agg_loop(num_rows: int = 512, table_slots: int = 256) -> float:
    """Cycles/row of the DMEM hash group-by update loop.

    Per row: load the key, CRC32 it, mask into the table, load the
    bucket count, increment, store — the fastest-path update with no
    collision chains (DMEM tables are sized to keep chains rare,
    §5.3).
    """
    data_bytes = num_rows * 4
    table_base = 16 * 1024
    mask = (table_slots - 1) * 8
    source = f"""
        li   r3, 0
        li   r4, {data_bytes}
        li   r9, {table_base}
        li   r14, {mask}
    row:
        lw   r10, 0(r3)
        li   r11, 0
        crc32w r11, r10
        slli r12, r11, 3
        and  r12, r12, r14
        add  r12, r12, r9
        ld   r13, 0(r12)
        addi r13, r13, 1
        sd   r13, 0(r12)
        addi r3, r3, 4
        bne  r3, r4, row
        halt
    """
    interpreter = _run_loop(source)
    keys = (np.arange(num_rows, dtype=np.uint32) * 7) % 64
    interpreter.dmem.write(0, keys)
    result = interpreter.run()
    assert result.halted
    return result.cycles / num_rows
