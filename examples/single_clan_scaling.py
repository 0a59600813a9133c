#!/usr/bin/env python3
"""Single-clan Sailfish (§5): elect a clan, confine blocks to it, compare
bandwidth against baseline Sailfish on the same network.

Shows the paper's core mechanism end to end:

* exact hypergeometric sizing of the clan for a target failure probability;
* blocks reliably delivered only inside the clan (outsiders hold digests);
* the proposer-bandwidth reduction that drives the throughput gains;
* commit latency unaffected (vertices carry only digests).

    python examples/single_clan_scaling.py
"""

from repro.committees import ClanConfig
from repro.committees.hypergeometric import dishonest_majority_prob, min_clan_size
from repro.consensus import Deployment, ProtocolParams
from repro.net.latency import gcp_latency_model
from repro.smr.mempool import SyntheticWorkload
from repro.types import max_faults

N = 20
TXNS_PER_PROPOSAL = 300
BANDWIDTH = 200e6  # 200 Mbit/s effective per node
DURATION = 6.0


def run(cfg: ClanConfig) -> tuple[Deployment, SyntheticWorkload]:
    workload = SyntheticWorkload(txns_per_proposal=TXNS_PER_PROPOSAL)
    deployment = Deployment(
        cfg,
        ProtocolParams(verify_signatures=False),
        latency=gcp_latency_model(cfg.n, seed=3),
        bandwidth_bps=BANDWIDTH,
        make_block=workload.make_block,
        seed=3,
    )
    deployment.start()
    deployment.run(until=DURATION)
    deployment.check_total_order_consistency()
    return deployment, workload


def avg_block_latency(deployment: Deployment, workload: SyntheticWorkload) -> float:
    samples = [
        when - workload.blocks[v.block_digest][1]
        for v, when in deployment.commits.entries(deployment.honest_ids[0])
        if v.block_digest is not None
    ]
    return sum(samples) / len(samples)


def main() -> None:
    # Size the clan with the exact statistics of §5 (Eq. 1-2).  At n=20 a
    # meaningful reduction needs a relaxed failure bound — the paper's point
    # that clan benefits grow with scale (Fig. 1).
    target = 1e-2
    clan_size = min_clan_size(N, failure_prob=target)
    prob = dishonest_majority_prob(N, max_faults(N), clan_size)
    print(f"tribe n={N}: clan of {clan_size} has dishonest-majority "
          f"probability {prob:.2e} (target {target:.0e})")

    baseline_cfg = ClanConfig.baseline(N)
    clan_cfg = ClanConfig.single_clan(N, clan_size, seed=3)

    base_dep, base_wl = run(baseline_cfg)
    clan_dep, clan_wl = run(clan_cfg)

    proposer = sorted(clan_cfg.clan(0))[0]
    outsider = next(i for i in range(N) if i not in clan_cfg.clan(0))

    base_bytes = base_dep.network.stats.bytes_sent[proposer] / 1e6
    clan_bytes = clan_dep.network.stats.bytes_sent[proposer] / 1e6
    print(f"\nproposer {proposer} outbound traffic over {DURATION:.0f}s:")
    print(f"  baseline Sailfish    : {base_bytes:8.1f} MB")
    print(f"  single-clan Sailfish : {clan_bytes:8.1f} MB "
          f"({clan_bytes / base_bytes:.0%} of baseline)")

    print(f"\naverage block commit latency (created -> ordered):")
    print(f"  baseline Sailfish    : {avg_block_latency(base_dep, base_wl):.3f} s")
    print(f"  single-clan Sailfish : {avg_block_latency(clan_dep, clan_wl):.3f} s")

    clan_node = clan_dep.nodes[proposer]
    out_node = clan_dep.nodes[outsider]
    print(f"\nblock bodies held after the run:")
    print(f"  clan member {proposer:2}: {len(clan_node.blocks):4} blocks")
    print(f"  outsider    {outsider:2}: {len(out_node.blocks):4} blocks "
          "(outsiders order digests only)")
    print(f"\nboth protocols ordered consistently; single-clan ordered "
          f"{clan_dep.min_ordered()} vertices vs baseline {base_dep.min_ordered()}")


if __name__ == "__main__":
    main()
