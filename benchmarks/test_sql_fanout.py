"""dpCore fan-out of compiled low-NDV scans over a shard-size grid.

The physical planner picks how many dpCores a low-NDV group-by spreads
over from each shard's row count (``FanoutModel`` in
``repro.apps.sql.costs``, docs/SQL.md). This sweep runs every compiled
low-NDV TPC-H query at scale 0.002 and 0.01 on 1, 4 and 8 row shards
(1,502 to 60,262 rows per DPU), at fan-outs 1..32 and at the planner's
choice, and checks:

- the rows are byte-equal at every fan-out;
- the chosen fan-out never costs more simulated cycles than all 32
  cores;
- over the grid, the chosen fan-out's cycles are within 10% (geomean)
  of the best swept fan-out's.

The scale-0.002 half of the grid also runs in tier 1
(``tests/test_tpch_conformance.py::TestFanoutSweep``).
"""

import math

from conftest import run_once

from repro.apps.sql import (
    PlanError,
    Table,
    compile_query,
    dpu_groupby,
    load_query,
    tpch_catalog,
)
from repro.core import DPU
from repro.workloads.tpch import generate_tpch

QUERIES = ["q1", "q5", "q6", "q10", "q12", "q14"]
SCALES = [0.002, 0.01]
SHARDS = [1, 4, 8]
FANOUTS = [1, 2, 4, 8, 16, 32]


def _scan(compiled, columns, cores):
    dpu = DPU()
    dtable = Table(compiled.fact, columns).to_dpu(dpu)
    result = dpu_groupby(
        dpu, dtable, compiled.key, compiled.aggs,
        row_filter=compiled.row_filter,
        broadcasts=compiled._dpu_broadcasts(dpu), cores=cores)
    return compiled.finish(result.value), result.cycles


def sweep():
    """One record per (scale, query, shard count): cycles per swept
    fan-out, the chosen fan-out and its cycles, and whether the rows
    agreed at every fan-out."""
    points = []
    for scale in SCALES:
        data = generate_tpch(scale=scale, seed=11)
        catalog = tpch_catalog(data)
        for name in QUERIES:
            try:
                compiled = compile_query(load_query(name), catalog, name)
            except PlanError:
                continue  # Q5/Q10's broadcasts outgrow DMEM above ~0.004
            fact = data.tables[compiled.fact]
            for num_shards in SHARDS:
                rows = len(fact[compiled.needed_columns[0]]) // num_shards
                columns = {n: fact[n][:rows] for n in compiled.needed_columns}
                reference, _ = _scan(compiled, columns, 32)
                cycles = {}
                agree = True
                for cores in FANOUTS:
                    result, cycles[cores] = _scan(compiled, columns, cores)
                    agree = agree and result == reference
                chosen = compiled.fanout(rows)
                result, chosen_cycles = _scan(compiled, columns, chosen)
                points.append({
                    "scale": scale, "query": name, "rows": rows,
                    "cycles": cycles, "chosen": chosen,
                    "chosen_cycles": chosen_cycles,
                    "agree": agree and result == reference,
                })
    return points


def test_fanout_grid(benchmark, report):
    points = run_once(benchmark, sweep)
    ratios = []
    rows = []
    for point in points:
        best = min(min(point["cycles"].values()), point["chosen_cycles"])
        ratios.append(point["chosen_cycles"] / best)
        rows.append(
            f"{point['scale']:<6} {point['query']:<4} {point['rows']:>6} "
            f"{point['cycles'][32]:>9.0f} {point['chosen']:>3} "
            f"{point['chosen_cycles']:>9.0f} "
            f"{point['chosen_cycles'] / point['cycles'][32]:6.3f}")
    geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    rows.append(f"geomean chosen / best swept: {geomean:.4f}")
    report("Compiled low-NDV scans: planner fan-out vs all 32 cores",
           "scale  q      rows  k=32 cyc   k    chosen  ratio", rows)
    benchmark.extra_info["geomean_vs_best"] = geomean
    for point in points:
        label = f"{point['query']}@{point['rows']}"
        assert point["agree"], f"{label}: rows depend on the fan-out"
        assert point["chosen_cycles"] <= point["cycles"][32], label
    assert geomean <= 1.10
