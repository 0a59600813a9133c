"""Cross-policy differential: one voting core, two payload policies.

With an honest sender the plain policy (Fig. 2/3 family) and the clan-only
block policy (§5 merged vertex RBC) run the same protocol with a different
payload split, so under the same completion, tribe, clan, seed and an
infinite-bandwidth network every party must deliver at the same instant and
the VAL/ECHO/READY/CERT counts must match.

Under a *withholding* sender the two policies differ on the pull path, so
that case is asserted per policy, not across them.  The recorded divergences
(docs/PROTOCOLS.md, "Known policy divergences"):

1. **ECHO after pull** — a starved clan member ECHOes once its pull
   completes only under the clan-only block policy; under the plain policy it
   delivers without ever voting.
2. **Pull-holder source under two-round** — the plain policy pulls from the
   clan signers of the certificate, the clan-only block policy from the clan
   members whose ECHOes it has tallied.
3. **Default ``retry_timeout``** — 0.5 s for the plain constructors, 0.25 s
   for ``VertexRbc``.
"""

import pytest

from repro.net.latency import UniformLatencyModel

from .worlds import COMPLETIONS, World

N = 10  # f = 3, quorum = 7
CLAN = (0, 1, 2, 3, 4)  # n_c = 5, f_c = 2, clan quorum = 3
SENDER = 1
SILENT = 8


def latency(jitter):
    if jitter:
        return lambda: UniformLatencyModel(0.03, jitter=0.02, seed=11)
    return lambda: UniformLatencyModel(0.05)


def run_honest(policy, completion, silent, jitter):
    world = World(policy, completion, N, CLAN, latency(jitter), seed=11)
    if silent:
        world.silence(SILENT)
    world.broadcast(SENDER)
    world.run()
    return world


@pytest.mark.parametrize("jitter", [False, True], ids=["constant", "jittered"])
@pytest.mark.parametrize("silent", [False, True], ids=["no-fault", "one-silent"])
@pytest.mark.parametrize("completion", COMPLETIONS)
def test_policies_deliver_at_the_same_instants(completion, silent, jitter):
    plain = run_honest("plain", completion, silent, jitter)
    merged = run_honest("clan-only block", completion, silent, jitter)
    live = [i for i in range(N) if not (silent and i == SILENT)]
    for i in live:
        assert len(plain.digests[i]) == 1, (i, plain.digests[i])
        instant = plain.digests[i][0][0]
        # Outside the clan the plain Delivery is the vertex delivery; inside,
        # it is the block delivery (which the vertex never waits for).
        assert [t for t, _ in merged.digests[i]] == [instant], i
        if i in CLAN:
            assert [t for t, _ in merged.payloads[i]] == [instant], i
            assert [t for t, _ in plain.payloads[i]] == [instant], i
        else:
            assert merged.payloads[i] == plain.payloads[i] == []
    assert plain.kind_counts() == merged.kind_counts()
    assert plain.kind_counts()["Val"] == N


@pytest.mark.parametrize("completion", COMPLETIONS)
def test_plain_policy_under_a_withholding_sender(completion):
    world = World("plain", completion, N, CLAN, latency(False), seed=11)
    world.withhold(9, lucky=(0, 1, 2))
    world.run()
    for i in range(N):
        assert len(world.digests[i]) == 1, i
    for i in CLAN:
        assert [p for _, p in world.payloads[i]] == [b"payload"], i
    # Divergence 1: the two starved clan members pulled and delivered, but
    # never voted.
    assert world.kind_counts()["Echo"] == (N - 2) * N


@pytest.mark.parametrize("completion", COMPLETIONS)
def test_clan_only_block_policy_under_a_withholding_sender(completion):
    world = World("clan-only block", completion, N, CLAN, latency(False), seed=11)
    world.withhold(SENDER, lucky=(0, 1, 2))
    world.run()
    for i in range(N):
        assert len(world.digests[i]) == 1, i  # the vertex never waits
    for i in CLAN:
        assert len(world.payloads[i]) == 1, i
    # Divergence 1: the starved clan members ECHO once their pull completes.
    assert world.kind_counts()["Echo"] == N * N
