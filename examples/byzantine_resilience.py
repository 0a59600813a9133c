#!/usr/bin/env python3
"""Fault injection: the protocol under crashes, equivocation, and withholding.

Runs a 13-party single-clan deployment at the fault bound f = 4 with four
simultaneous misbehaviours and shows safety (identical total orders, identical
replica states) and liveness (steady commits) are preserved:

* a node that crashes mid-run (forcing the no-vote certificate path whenever
  it would have led a round);
* an equivocating proposer (different vertices to different halves);
* a block-withholding proposer (clan members pull the block, §3);
* a silent node (participates in RBC, never proposes).

    python examples/byzantine_resilience.py
"""

from repro.committees import ClanConfig
from repro.consensus import Deployment, ProtocolParams
from repro.consensus.byzantine import (
    CrashAt,
    EquivocatingProposer,
    SilentNode,
    WithholdingProposer,
)
from repro.net.latency import gcp_latency_model
from repro.smr.mempool import SyntheticWorkload

N = 13  # f = 4


def main() -> None:
    cfg = ClanConfig.single_clan(N, 8, seed=5)
    clan = sorted(cfg.clan(0))
    withholder = clan[0]
    faulty = {
        withholder: WithholdingProposer(receive_full=5),
        clan[1]: EquivocatingProposer(),
    }
    outsiders = [i for i in range(N) if i not in cfg.clan(0)]
    faulty[outsiders[0]] = SilentNode()
    faulty[outsiders[1]] = CrashAt(3.0)
    print(f"n={N}, f={cfg.f}; injected faults:")
    for node, behavior in sorted(faulty.items()):
        print(f"  node {node:2}: {type(behavior).__name__}")

    workload = SyntheticWorkload(txns_per_proposal=50)
    deployment = Deployment(
        cfg,
        ProtocolParams(leader_timeout=2.0),
        latency=gcp_latency_model(N, seed=5),
        make_block=workload.make_block,
        byzantine=faulty,
        seed=5,
    )
    deployment.start()
    deployment.run(until=20.0)

    # Safety: all honest parties agree on one total order.
    deployment.check_total_order_consistency()
    print("\nsafety: honest total orders are consistent")

    honest = deployment.honest_ids
    rounds = [deployment.nodes[i].round for i in honest]
    commits = deployment.commits  # what every node ordered, and when
    ordered = [commits.count(i) for i in honest]
    print(f"liveness: honest nodes reached rounds {min(rounds)}..{max(rounds)}, "
          f"ordered >= {min(ordered)} vertices in 20 s")

    # The no-vote path fired for the crashed node's leader slots.
    order = [v for v, _ in commits.entries(honest[0])]
    nvcs = [v for v in order if v.nvc is not None]
    print(f"no-vote certificates embedded in leader vertices: {len(nvcs)}")

    # The withheld blocks were pulled by the rest of the clan.
    withheld = [
        v.block_digest
        for v in order
        if v.source == withholder and v.block_digest
    ]
    holders = [
        member
        for member in clan
        if member not in faulty
        and all(d in deployment.nodes[member].blocks for d in withheld)
    ]
    print(f"withholder's {len(withheld)} ordered blocks were retrieved by "
          f"{len(holders)} honest clan members via the pull path")

    # The equivocator's split vertices never produced divergent deliveries.
    keys = [v.key for v in order]
    assert len(keys) == len(set(keys))
    print("equivocation: at most one version per (round, source) was ordered")


if __name__ == "__main__":
    main()
