"""Property-based tests: RBC guarantees under randomized fault environments.

Hypothesis drives the adversary: random clan choice, random crash sets up to
f, random sender behaviour (honest / withholding / equivocating), random
latencies.  The same generated worlds run over every cell of payload policy
× completion, and the Definition 2 properties must hold in each:

* Integrity — at most one delivery per (origin, round) per party;
* Agreement — no two honest parties deliver different digests;
* Validity — with an honest sender and ≤ f crashes, everyone delivers;
* Totality — if one live honest party delivers, all of them do by the
  horizon (and if one live clan member delivers the clan-only payload, every
  live clan member does).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.latency import UniformLatencyModel
from repro.types import clan_max_faults, max_faults
from tests.rbc.worlds import COMPLETIONS, POLICIES, World

world = st.fixed_dictionaries(
    {
        "n": st.integers(min_value=4, max_value=13),
        "seed": st.integers(min_value=0, max_value=10_000),
        "clan_pick": st.randoms(use_true_random=False),
        "behaviour": st.sampled_from(["honest", "withhold", "equivocate"]),
        "crash_pick": st.randoms(use_true_random=False),
    }
)


# 25 examples per cell: the six cells together cost a few seconds, about
# what the 40 examples of plain × {bracha, two-round} alone did.
@pytest.mark.parametrize("completion", COMPLETIONS)
@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=25, deadline=None)
@given(world=world)
def test_rbc_properties_hold_in_random_worlds(policy, completion, world):
    n = world["n"]
    f = max_faults(n)
    clan_size = world["clan_pick"].randint(3, n)
    clan = sorted(world["clan_pick"].sample(range(n), clan_size))
    seed = world["seed"]
    w = World(
        policy, completion, n, clan,
        lambda: UniformLatencyModel(0.03, jitter=0.02, seed=seed), seed=seed,
    )
    sender = world["crash_pick"].randrange(n)
    behaviour = world["behaviour"]
    if policy != "plain" and sender not in w.clan:
        # Only clan members propose blocks (§5): an outsider's vertex has no
        # clan-only part to withhold, and its equivocation is over vertices.
        behaviour = "equivocate" if behaviour == "equivocate" else "honest"
    crashes = set()
    if f > 0 and behaviour == "honest":
        # Crash up to f tribe members, but never a clan majority: the
        # tribe/clan construction assumes f_c <= ceil(n_c/2) - 1 faults per
        # clan (payload retrieval needs a live honest clan majority), so a
        # world that crashes more isn't one validity is promised in.
        count = world["crash_pick"].randint(0, f)
        candidates = [i for i in range(n) if i != sender]
        world["crash_pick"].shuffle(candidates)
        clan_budget = clan_max_faults(len(clan))
        for i in candidates:
            if len(crashes) == count:
                break
            if i in w.clan:
                if clan_budget == 0:
                    continue
                clan_budget -= 1
            crashes.add(i)

    if behaviour == "honest":
        w.broadcast(sender)
    elif behaviour == "withhold":
        # Anything from one lucky clan member (the instance starves) through
        # f_c+1 (the rest must pull) to the whole clan (an honest broadcast).
        w.withhold(sender, clan[: world["clan_pick"].randint(1, len(clan))])
    else:
        w.equivocate(sender)
    for node in crashes:
        w.net.crash(node)
    w.run(until=60.0)

    # A Byzantine sender is not an honest party: nothing is promised to it.
    live = [
        i for i in range(n)
        if i not in crashes and (behaviour == "honest" or i != sender)
    ]
    live_clan = [i for i in live if i in w.clan]
    # Integrity.
    for i in live:
        assert len(w.digests[i]) <= 1
        assert len(w.payloads[i]) <= 1
    # Agreement on the digest, and on the payload among clan deliverers.
    assert len({d for i in live for _, d in w.digests[i]}) <= 1
    assert len({p for i in live for _, p in w.payloads[i]}) <= 1
    # Clan members deliver payloads, outsiders deliver digests only.
    for i in live:
        if i not in w.clan:
            assert w.payloads[i] == []
        elif policy == "plain":
            assert len(w.payloads[i]) == len(w.digests[i])
    # Validity under an honest sender.
    carries_payload = policy == "plain" or sender in w.clan
    if behaviour == "honest":
        for i in live:
            assert w.digests[i], f"honest-sender validity failed at {i}"
        if carries_payload:
            for i in live_clan:
                assert w.payloads[i], f"honest-sender validity failed at {i}"
    # Totality.
    if any(w.digests[i] for i in live):
        for i in live:
            assert w.digests[i], f"totality failed at {i}"
    if any(w.payloads[i] for i in live_clan):
        for i in live_clan:
            assert w.payloads[i], f"payload totality failed at {i}"
