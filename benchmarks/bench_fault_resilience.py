"""ABL-FAULT: throughput/latency degradation under injected faults.

Sweeps link drop rate × crashed-node count over the reliable transport and
reports each cell's throughput and latency relative to the fault-free
baseline (measured with :func:`repro.bench.metrics.measure_run`, the same
methodology as every other bench).  Safety is asserted at every point, and
crash/recover cells additionally assert the recovered node caught up via
``repro.consensus.sync``.

Expected shape: loss costs retransmission delay, not safety — throughput
degrades gracefully with the drop rate; a transient crash costs roughly its
downtime fraction of the fault-free throughput.
"""

from repro.bench.metrics import measure_run
from repro.bench.parallel import run_tasks
from repro.committees.config import ClanConfig
from repro.consensus import Deployment, ProtocolParams
from repro.net.faults import ChurnSchedule, LossyLink
from repro.net.latency import UniformLatencyModel
from repro.smr.mempool import SyntheticWorkload

from .conftest import emit, run_once

N = 7
DURATION = 12.0
WARMUP = 2.0
DROP_RATES = (0.0, 0.02, 0.05, 0.10)
CRASH_COUNTS = (0, 1, 2)
#: Crashed nodes go down at t=3 and recover at t=6 (staggered by 0.5s).
DOWN_AT, UP_AT = 3.0, 6.0


def _run_cell(drop_rate: float, crashes: int, seed: int = 17):
    workload = SyntheticWorkload(txns_per_proposal=100)
    churn = (
        ChurnSchedule.outages(
            [
                (N - 1 - i, DOWN_AT + 0.5 * i, UP_AT + 0.5 * i)
                for i in range(crashes)
            ]
        )
        if crashes
        else None
    )
    deployment = Deployment(
        ClanConfig.baseline(N),
        ProtocolParams(leader_timeout=1.0, verify_signatures=False),
        latency=UniformLatencyModel(0.05),
        make_block=workload.make_block,
        seed=seed,
        faults=LossyLink(drop_rate, seed=seed) if drop_rate else None,
        reliable=True,
        churn=churn,
    )
    deployment.start()
    deployment.run(until=DURATION)
    deployment.check_total_order_consistency()
    metrics = measure_run(deployment, workload, WARMUP, DURATION)
    for i in range(crashes):
        node = deployment.nodes[N - 1 - i]
        assert node.sync.syncs_started >= 1, "crashed node never caught up"
    return deployment, metrics


def _cell_row(drop_rate: float, crashes: int) -> dict:
    """One grid cell as a picklable row (asserts run inside the worker)."""
    deployment, metrics = _run_cell(drop_rate, crashes)
    return {
        "drop_rate": drop_rate,
        "crashes": crashes,
        "throughput_tps": metrics.throughput_tps,
        "throughput_ktps": round(metrics.throughput_tps / 1000.0, 2),
        "avg_latency_s": round(metrics.avg_latency_s, 3),
        "p95_latency_s": round(metrics.p95_latency_s, 3),
        "rounds": metrics.rounds,
        "retransmissions": deployment.network.retransmissions,
        "dropped": deployment.base_network.stats.messages_dropped,
    }


def _sweep(jobs=None):
    """The drop × crash grid, fanned out via the parallel engine.

    Cells are independent seeded simulations; :func:`run_tasks` merges rows
    back in grid order, so ``vs_baseline`` (relative to the fault-free first
    cell) and the CSV are identical at any worker count.
    """
    cells = [
        (drop_rate, crashes)
        for crashes in CRASH_COUNTS
        for drop_rate in DROP_RATES
    ]
    rows = run_tasks([(_cell_row, cell) for cell in cells], jobs=jobs)
    baseline_tps = rows[0]["throughput_tps"]  # (0 drop, 0 crash) cell
    for row in rows:
        tps = row.pop("throughput_tps")
        row["vs_baseline"] = round(tps / baseline_tps, 3)
    return rows


def test_fault_resilience_degrades_gracefully(benchmark):
    rows = run_once(benchmark, _sweep)
    emit(
        rows,
        "ablation_fault_resilience",
        f"Fault resilience: drop rate x crash count (n={N}, reliable transport)",
    )
    by_cell = {(row["drop_rate"], row["crashes"]): row for row in rows}
    baseline = by_cell[(0.0, 0)]
    # Fault-free sanity: real throughput and sub-second average latency.
    assert baseline["throughput_ktps"] > 0
    assert baseline["avg_latency_s"] < 1.0
    # 5% loss over the reliable channel keeps >= 60% of baseline throughput.
    assert by_cell[(0.05, 0)]["vs_baseline"] >= 0.6
    # Loss hurts monotonically-ish: 10% loss is no faster than lossless.
    assert (
        by_cell[(0.10, 0)]["throughput_ktps"]
        <= baseline["throughput_ktps"] + 1e-9
    )
    # Transient crashes degrade but never halt: every cell kept committing.
    for row in rows:
        assert row["throughput_ktps"] > 0, f"no progress in cell {row}"
    # Retransmissions only happen when links are lossy.
    for row in rows:
        if row["drop_rate"] == 0.0:
            assert row["dropped"] == 0


def test_recovered_nodes_share_the_committed_prefix(benchmark):
    def scenario():
        deployment, metrics = _run_cell(0.05, 2)
        return [
            {
                "committed_blocks": metrics.committed_blocks,
                "common_prefix": deployment.check_total_order_consistency(),
                "recovered_pulls": sum(
                    deployment.nodes[N - 1 - i].sync.vertices_pulled
                    for i in range(2)
                ),
            }
        ]

    rows = run_once(benchmark, scenario)
    emit(rows, "fault_recovery_prefix", "Recovered nodes: identical prefix")
    (row,) = rows
    assert row["common_prefix"] > 0
    assert row["recovered_pulls"] > 0
