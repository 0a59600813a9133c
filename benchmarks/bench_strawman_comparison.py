"""ABL-POA: the straw-man PoA architecture vs the paper's pipelined design.

§1 dismisses the obvious design — a separate dissemination layer producing
proofs of availability, ordered by a leader-based SMR — because it is
sequential: ≥ 2δ PoA formation + ~1δ shipping + ~1δ queueing + 5δ Jolteon
commit ≈ 8δ+ (the paper's Arete accounting, §8).  The clan-based DAG
protocols pipeline dissemination with consensus and commit leader vertices in
3δ / non-leaders in 5δ.

This bench runs both architectures on identical networks and clans and
measures block commit latency in δ units.
"""


from repro.bench.parallel import run_tasks
from repro.committees import ClanConfig
from repro.consensus import Deployment, ProtocolParams
from repro.net.latency import UniformLatencyModel
from repro.smr.mempool import SyntheticWorkload
from repro.strawman import StrawmanSystem

from .conftest import emit, run_once

DELTA = 0.05
N = 10
CLAN = 5


def _strawman_latency() -> dict:
    workload = SyntheticWorkload(txns_per_proposal=10)
    cfg = ClanConfig.single_clan(N, CLAN, seed=1)
    system = StrawmanSystem(
        cfg,
        latency=UniformLatencyModel(DELTA),
        make_block=workload.make_block,
        seed=1,
    )
    system.start()
    for k in range(10):
        system.sim.schedule(0.5 + 0.3 * k, system.propose_blocks)
    system.run(until=15.0, max_events=5_000_000)
    committed = system.committed_everywhere()
    latencies = [
        when - workload.blocks[d][1] for d, when in committed.items()
    ]
    return {
        "architecture": "straw-man (PoA + Jolteon)",
        "blocks": len(committed),
        "avg_latency_delta": round(sum(latencies) / len(latencies) / DELTA, 2),
    }


def _clan_dag_latency() -> dict:
    workload = SyntheticWorkload(txns_per_proposal=10)
    cfg = ClanConfig.single_clan(N, CLAN, seed=1)
    deployment = Deployment(
        cfg,
        ProtocolParams(verify_signatures=False),
        latency=UniformLatencyModel(DELTA),
        make_block=workload.make_block,
        seed=1,
    )
    deployment.start()
    deployment.run(until=15.0, max_events=10_000_000)
    latencies = [
        when - workload.blocks[v.block_digest][1]
        for v, when in deployment.commits.entries(deployment.honest_ids[0])
        if v.block_digest is not None
    ]
    return {
        "architecture": "single-clan DAG (this paper)",
        "blocks": len(latencies),
        "avg_latency_delta": round(sum(latencies) / len(latencies) / DELTA, 2),
    }


def _compare(jobs=None):
    # Two independent simulations; fan out (REPRO_JOBS) with a grid-order merge.
    return run_tasks([(_clan_dag_latency, ()), (_strawman_latency, ())], jobs=jobs)


def test_strawman_vs_clan_dag_latency(benchmark):
    rows = run_once(benchmark, _compare)
    emit(rows, "strawman_comparison", "Straw-man PoA+SMR vs pipelined clan DAG (δ units)")
    dag, strawman = rows
    # Paper: straw-man >= 6δ (their §1 floor) and ~8δ with Jolteon (§8);
    # the DAG commits leaders at 3δ / non-leaders at 5δ (≈ 4-5δ average).
    assert strawman["avg_latency_delta"] >= 7.0
    assert dag["avg_latency_delta"] <= 5.5
    # The pipelined design saves at least ~2δ end to end.
    assert strawman["avg_latency_delta"] - dag["avg_latency_delta"] >= 2.0
