#!/usr/bin/env python3
"""Quickstart: a 7-node baseline Sailfish tribe committing transactions.

Runs the full stack — simulated geo network, merged vertex+block RBC, DAG
consensus, execution, and a client accepting on f_c+1 matching replies — in a
couple of simulated seconds.

    python examples/quickstart.py
"""

from repro.committees import ClanConfig
from repro.smr import SmrRuntime


def main() -> None:
    # 1. A tribe of 7 parties (tolerates f = 2 Byzantine faults).  The
    #    baseline config makes everyone a block proposer and executor —
    #    plain Sailfish.
    cfg = ClanConfig.baseline(7)
    print(f"tribe: n={cfg.n}, f={cfg.f}, quorum={cfg.quorum}, mode={cfg.mode}")

    # 2. The SMR runtime wires consensus nodes, executors, and clients over
    #    one deterministic simulated network.
    runtime = SmrRuntime(cfg, seed=42)
    client = runtime.new_client("alice")
    runtime.start()

    # 3. Submit a few dependent transactions.
    t1 = runtime.submit(client, ("set", "greeting", "hello world"))
    t2 = runtime.submit(client, ("incr", "counter", 5))
    t3 = runtime.submit(client, ("incr", "counter", 7))

    # 4. Run five simulated seconds of protocol.
    runtime.run(until=5.0)

    # 5. Every honest node ordered the same vertices...
    runtime.deployment.check_total_order_consistency()
    node0 = runtime.deployment.nodes[0]
    print(f"rounds completed: {node0.round}")
    print(f"vertices ordered: {runtime.deployment.commits.count(0)}")
    print(f"leaders committed: {len(node0.committed_leaders)}")

    # ...all replicas reached the same state...
    runtime.check_execution_consistency()
    print("replica states: consistent")

    # ...and the client saw f_c+1 matching replies for each transaction.
    for txn in (t1, t2, t3):
        print(f"  {txn.op!r:35} -> accepted={client.is_accepted(txn.txn_id)}"
              f" result={client.result_of(txn.txn_id)!r}")


if __name__ == "__main__":
    main()
