"""Property-based tests: consensus safety under randomized configurations.

Randomizes tribe size, protocol variant, fault mix (crashes + Byzantine
behaviours up to f), seeds, and load; asserts the Byzantine atomic broadcast
safety properties on every world:

* honest ordered logs are prefix-consistent (Total order + Agreement);
* no (round, source) position is ordered twice (Integrity);
* the order respects DAG causality.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import sanitizers
from repro.committees import ClanConfig
from repro.consensus import Deployment, ProtocolParams
from repro.consensus.byzantine import (
    CrashAt,
    EquivocatingProposer,
    LazyVoter,
    SilentNode,
)
from repro.smr.mempool import SyntheticWorkload
from repro.types import max_faults

BEHAVIOURS = [
    lambda: CrashAt(1.0),
    EquivocatingProposer,
    SilentNode,
    LazyVoter,
]

world = st.fixed_dictionaries(
    {
        "n": st.integers(min_value=4, max_value=10),
        "seed": st.integers(min_value=0, max_value=500),
        "mode": st.sampled_from(["baseline", "single-clan", "multi-clan"]),
        "rng": st.randoms(use_true_random=False),
        "txns": st.sampled_from([0, 1, 20]),
    }
)


@settings(max_examples=20, deadline=None)
@given(world=world)
def test_consensus_safety_in_random_worlds(world):
    # Each generated world is its own sanitizer run: hypothesis may abort an
    # example after its ClanConfig derived a stream and before the
    # Deployment's Simulator starts a new run, so the next example with the
    # same world would read as a stream collision (REPRO_SANITIZE=1).
    sanitizers.begin_run()
    n = world["n"]
    rng = world["rng"]
    if world["mode"] == "baseline":
        cfg = ClanConfig.baseline(n)
    elif world["mode"] == "single-clan":
        cfg = ClanConfig.single_clan(n, rng.randint(3, n), seed=world["seed"])
    else:
        cfg = ClanConfig.multi_clan(n, rng.choice([1, 2]), seed=world["seed"])

    f = max_faults(n)
    byzantine = {}
    count = rng.randint(0, f)
    for node in rng.sample(range(n), count):
        byzantine[node] = rng.choice(BEHAVIOURS)()

    workload = SyntheticWorkload(txns_per_proposal=world["txns"])
    deployment = Deployment(
        cfg,
        ProtocolParams(leader_timeout=1.0),
        make_block=workload.make_block,
        byzantine=byzantine,
        seed=world["seed"],
    )
    deployment.start()
    deployment.run(until=8.0, max_events=3_000_000)

    # Agreement / total order.
    deployment.check_total_order_consistency()
    for i in deployment.honest_ids:
        ordered = [v for v, _ in deployment.commits.entries(i)]
        keys = [v.key for v in ordered]
        # Integrity.
        assert len(keys) == len(set(keys))
        # Causality.
        position = {k: idx for idx, k in enumerate(keys)}
        for vertex in ordered:
            for ref in vertex.parents():
                if ref.round == 0:
                    continue
                assert position.get(ref.key, 10**9) < position[vertex.key]
    # Liveness (no Byzantine nodes interfere with > f honest... all worlds
    # keep faults <= f, so progress must happen).
    assert min(deployment.nodes[i].round for i in deployment.honest_ids) >= 2
