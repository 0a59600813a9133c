"""ABL-RBC: three-round (Fig. 2) vs two-round (Fig. 3) tribe-assisted RBC.

The paper presents both constructions and deploys the two-round variant for
latency (§7 "To minimize latency, we use the round-optimal RBC...").  This
ablation measures, on identical networks:

* good-case delivery latency (clan and non-clan observers);
* messages and bytes on the wire (the signature-free variant trades a third
  round for smaller, unsigned messages);
* end-to-end consensus round rate under both modes.
"""

import pytest

from repro.committees import ClanConfig
from repro.consensus import Deployment, ProtocolParams
from repro.crypto.signatures import Pki
from repro.net.latency import UniformLatencyModel
from repro.net.network import Network
from repro.rbc.base import Membership
from repro.rbc.plain import PlainRbc
from repro.sim import Simulator
from repro.smr.mempool import SyntheticWorkload

from .conftest import emit, run_once

N = 16
CLAN = frozenset(range(10))
DELTA = 0.05


def _run_primitive(completion):
    sim = Simulator()
    net = Network(sim, N, latency=UniformLatencyModel(DELTA))
    membership = Membership(N, CLAN)
    pki = Pki(N, seed=3)
    deliveries = {}

    def on_deliver(node):
        def cb(d):
            deliveries.setdefault(node, sim.now)

        return cb

    modules = [
        PlainRbc(i, membership, net, sim, pki, on_deliver(i), completion)
        for i in range(N)
    ]
    modules[0].broadcast(b"x" * 1024, 1)
    sim.run(max_events=1_000_000)
    clan_lat = [deliveries[i] for i in CLAN]
    tribe_lat = [deliveries[i] for i in range(N) if i not in CLAN]
    return {
        "avg_clan_delivery_s": round(sum(clan_lat) / len(clan_lat), 4),
        "avg_tribe_delivery_s": round(sum(tribe_lat) / len(tribe_lat), 4),
        "messages": net.stats.total_messages,
        "kbytes": round(net.stats.total_bytes / 1024.0, 1),
    }


def _primitive_rows():
    rows = []
    rows.append({"protocol": "tribe-bracha (Fig.2, 3 rounds)",
                 **_run_primitive("bracha")})
    rows.append({"protocol": "tribe-two-round (Fig.3, 2 rounds)",
                 **_run_primitive("two-round")})
    return rows


def test_rbc_primitive_latency_and_cost(benchmark):
    rows = run_once(benchmark, _primitive_rows)
    emit(rows, "ablation_rbc_primitive", "Tribe-assisted RBC: Fig.2 vs Fig.3")
    bracha, two_round = rows
    # Good case: the two-round protocol delivers one δ earlier everywhere.
    assert two_round["avg_clan_delivery_s"] < bracha["avg_clan_delivery_s"]
    assert two_round["avg_tribe_delivery_s"] < bracha["avg_tribe_delivery_s"]
    # 3δ vs 2δ up to loopback/self-delivery effects.
    assert bracha["avg_clan_delivery_s"] == pytest.approx(3 * DELTA, rel=0.15)
    assert two_round["avg_clan_delivery_s"] == pytest.approx(2 * DELTA, rel=0.15)
    # The signature-free variant moves fewer bytes (no signatures/certs).
    assert bracha["kbytes"] < two_round["kbytes"]


def _consensus_modes():
    rows = []
    for mode in ("two-round", "bracha"):
        workload = SyntheticWorkload(txns_per_proposal=100)
        dep = Deployment(
            ClanConfig.single_clan(N, 10, seed=1),
            ProtocolParams(rbc_mode=mode, verify_signatures=False),
            latency=UniformLatencyModel(DELTA),
            make_block=workload.make_block,
        )
        dep.start()
        dep.run(until=6.0, max_events=20_000_000)
        dep.check_total_order_consistency()
        rows.append(
            {
                "rbc_mode": mode,
                "rounds_in_6s": min(n.round for n in dep.nodes),
                "ordered_vertices": dep.min_ordered(),
                "messages": dep.network.stats.total_messages,
            }
        )
    return rows


def test_consensus_round_rate_by_rbc_mode(benchmark):
    rows = run_once(benchmark, _consensus_modes)
    emit(rows, "ablation_rbc_consensus", "Single-clan consensus: RBC mode ablation")
    two_round, bracha = rows
    # One fewer message delay per round => strictly more rounds per second.
    assert two_round["rounds_in_6s"] > bracha["rounds_in_6s"]
