#!/usr/bin/env python3
"""Multi-clan Sailfish as a shared sequencer (§6.1).

Two independent applications (a DEX and a game) share one globally-ordered
sequencer built from a 12-party tribe partitioned into two clans.  Each clan
disseminates, executes, and answers clients for its own application only,
while the *total order spans both* — the shared-sequencer property.

    python examples/shared_sequencer.py
"""

from repro.committees import ClanConfig
from repro.committees.multiclan import multi_clan_dishonest_prob
from repro.smr import SmrRuntime
from repro.types import max_faults

N = 12
CLANS = 2


def main() -> None:
    cfg = ClanConfig.multi_clan(N, CLANS, seed=11)
    prob = multi_clan_dishonest_prob(
        N, max_faults(N), [len(c) for c in cfg.clans]
    )
    print(f"tribe n={N} partitioned into {CLANS} clans "
          f"{[sorted(c) for c in cfg.clans]}")
    print(f"probability some clan lacks an honest majority: {prob:.2e}")

    runtime = SmrRuntime(cfg, seed=11)
    dex = runtime.new_client("dex", clan_idx=0)
    game = runtime.new_client("game", clan_idx=1)
    runtime.start()

    # Each application submits to its own clan.
    dex_txns = [
        runtime.submit(dex, ("set", "ETH/USD", 3001)),
        runtime.submit(dex, ("set", "BTC/USD", 97000)),
        runtime.submit(dex, ("incr", "trades", 1)),
    ]
    game_txns = [
        runtime.submit(game, ("set", "player:1:hp", 100)),
        runtime.submit(game, ("incr", "player:1:xp", 250)),
    ]

    runtime.run(until=6.0)
    runtime.deployment.check_total_order_consistency()
    runtime.check_execution_consistency(0)
    runtime.check_execution_consistency(1)

    print("\nper-application results (accepted on f_c+1 matching replies):")
    for name, client, txns in (("dex", dex, dex_txns), ("game", game, game_txns)):
        for txn in txns:
            print(f"  [{name:4}] {txn.op!r:30} -> {client.result_of(txn.txn_id)!r}")

    # The global order interleaves both applications' blocks; every party
    # (whichever clan it serves) agrees on it.
    clan_of = cfg.clan_index_of
    interleaving = [
        f"r{v.round}:clan{clan_of(v.source)}"
        for v, _ in runtime.deployment.commits.entries(0)
        if v.block_digest is not None
    ]
    print(f"\nglobal order interleaves clans: {interleaving[:12]} ...")

    # But state is clan-local: clan 0 executed only DEX keys.
    member0 = next(iter(cfg.clan(0)))
    member1 = next(iter(cfg.clan(1)))
    print(f"\nclan 0 replica sees ETH/USD={runtime.executors[member0].machine.get('ETH/USD')}, "
          f"player:1:hp={runtime.executors[member0].machine.get('player:1:hp')}")
    print(f"clan 1 replica sees ETH/USD={runtime.executors[member1].machine.get('ETH/USD')}, "
          f"player:1:hp={runtime.executors[member1].machine.get('player:1:hp')}")


if __name__ == "__main__":
    main()
