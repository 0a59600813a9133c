"""ABL-COMM: measured communication complexity vs the §3/§5 analysis.

The paper's complexity claims, measured as actual bytes on the simulated
wire:

* Tribe-assisted RBC (honest sender): O(n_c·ℓ + κn²) — the payload term
  scales with the *clan*, the quadratic term with the tribe (Fig. 2 analysis).
* Standard RBC: O(n·ℓ + κn²).
* Single-clan DAG round: O(n_c²·ℓ + κn³) vs baseline O(n²·ℓ + κn³) (§5).

The bench sweeps n with a fixed clan fraction and fits the measured byte
counts against the predicted terms.
"""

import pytest

from repro.committees import ClanConfig
from repro.consensus import Deployment, ProtocolParams
from repro.net.latency import UniformLatencyModel
from repro.net.network import Network
from repro.rbc.base import Membership
from repro.rbc.plain import PlainRbc
from repro.sim import Simulator
from repro.smr.mempool import SyntheticWorkload

from .conftest import emit, run_once

PAYLOAD = bytes(50_000)  # ℓ = 50 kB >> κ


def _rbc_bytes(n: int, clan_size: int) -> dict:
    sim = Simulator()
    net = Network(sim, n, latency=UniformLatencyModel(0.01))
    membership = Membership(n, frozenset(range(clan_size)))
    modules = [
        PlainRbc(i, membership, net, sim, None, lambda d: None, "bracha")
        for i in range(n)
    ]
    modules[0].broadcast(PAYLOAD, 1)
    sim.run(max_events=1_000_000)
    sender_bytes = net.stats.bytes_sent[0]
    return {
        "n": n,
        "clan": clan_size,
        "sender_MB": round(sender_bytes / 1e6, 3),
        "total_MB": round(net.stats.total_bytes / 1e6, 3),
        "messages": net.stats.total_messages,
    }


def _rbc_sweep():
    rows = []
    for n in (12, 24, 48):
        rows.append(_rbc_bytes(n, clan_size=n // 2))  # tribe-assisted
        rows.append(_rbc_bytes(n, clan_size=n))  # standard Bracha
    return rows


def test_rbc_communication_scaling(benchmark):
    rows = run_once(benchmark, _rbc_sweep)
    emit(rows, "comm_rbc", "Tribe-assisted vs standard RBC bytes (honest sender)")
    by = {(r["n"], r["clan"]): r for r in rows}
    for n in (12, 24, 48):
        tribe_assisted = by[(n, n // 2)]
        standard = by[(n, n)]
        # Sender payload bytes scale with the clan: half the clan, roughly
        # half the sender traffic (the κn digest term is negligible vs 50 kB).
        ratio = tribe_assisted["sender_MB"] / standard["sender_MB"]
        assert 0.45 <= ratio <= 0.62, f"n={n}: sender ratio {ratio:.2f}"
        # Control traffic (message count) is tribe-quadratic and identical.
        assert tribe_assisted["messages"] == pytest.approx(standard["messages"], rel=0.05)
    # Doubling n with the same clan fraction doubles the payload term and
    # quadruples the control term; total stays well below the standard RBC's.
    assert by[(48, 24)]["total_MB"] < by[(48, 48)]["total_MB"]


def _dag_round_bytes(protocol: str, n: int) -> dict:
    workload = SyntheticWorkload(txns_per_proposal=100)
    cfg = (
        ClanConfig.baseline(n)
        if protocol == "sailfish"
        else ClanConfig.single_clan(n, n // 2, seed=1)
    )
    deployment = Deployment(
        cfg,
        ProtocolParams(verify_signatures=False),
        latency=UniformLatencyModel(0.02),
        make_block=workload.make_block,
        seed=1,
    )
    deployment.start()
    deployment.run(until=3.0, max_events=20_000_000)
    rounds = min(node.round for node in deployment.nodes)
    return {
        "protocol": protocol,
        "n": n,
        "MB_per_round": round(deployment.network.stats.total_bytes / 1e6 / rounds, 2),
        "rounds": rounds,
    }


def _dag_sweep():
    rows = []
    for n in (12, 24):
        rows.append(_dag_round_bytes("sailfish", n))
        rows.append(_dag_round_bytes("single-clan", n))
    return rows


def test_dag_round_communication(benchmark):
    rows = run_once(benchmark, _dag_sweep)
    emit(rows, "comm_dag", "Bytes per DAG round: baseline vs single-clan (§5)")
    by = {(r["protocol"], r["n"]): r["MB_per_round"] for r in rows}
    for n in (12, 24):
        # §5: payload replication drops from n² to n_c² streams; with a half
        # clan that is ~4x less block traffic (plus shared control traffic).
        assert by[("single-clan", n)] < 0.6 * by[("sailfish", n)]
