"""Cross-policy differential: one voting core, one set of payload rules,
two payload policies.

The plain policy (Fig. 2/3 family) and the clan-only block policy (§5 merged
vertex RBC) run the same protocol with a different payload split, so under
the same completion, tribe, clan, seed and an infinite-bandwidth network
every party must deliver at the same instant and the VAL/ECHO/READY/CERT
counts must match — with an honest sender, and with one that withholds the
payload from part of the clan, which then pulls it.
"""

import pytest

from repro.net.adversary import DelayAdversary
from repro.net.latency import UniformLatencyModel

from .worlds import COMPLETIONS, POLICIES, World

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
    # The sender sits outside the clan.
    world = World("plain", completion, N, CLAN, latency(False), seed=11)
    world.withhold(9, lucky=(0, 1, 2))
    world.run()
    for i in range(N):
        assert len(world.digests[i]) == 1, i
    for i in CLAN:
        assert [p for _, p in world.payloads[i]] == [b"payload"], i
    # The two starved clan members ECHO once their pull completes.
    assert world.kind_counts()["Echo"] == N * N


@pytest.mark.parametrize("completion", COMPLETIONS)
def test_clan_only_block_policy_under_a_withholding_sender(completion):
    world = World("clan-only block", completion, N, CLAN, latency(False), seed=11)
    world.withhold(SENDER, lucky=(0, 1, 2))
    world.run()
    for i in range(N):
        assert len(world.digests[i]) == 1, i  # the vertex never waits
    for i in CLAN:
        assert len(world.payloads[i]) == 1, i
    # The starved clan members ECHO once their pull completes.
    assert world.kind_counts()["Echo"] == N * N


@pytest.mark.parametrize("completion", COMPLETIONS)
def test_policies_agree_under_a_withholding_sender(completion):
    worlds = {}
    for policy in POLICIES:
        world = World(policy, completion, N, CLAN, latency(False), seed=11)
        world.withhold(SENDER, lucky=(0, 1, 2))
        world.run()
        worlds[policy] = world
    plain, merged = worlds["plain"], worlds["clan-only block"]
    for i in range(N):
        assert len(plain.digests[i]) == len(merged.digests[i]) == 1, i
        if i in CLAN:
            [(instant, payload)] = plain.payloads[i]
            assert payload == b"payload"
            assert [t for t, _ in merged.payloads[i]] == [instant], i
            # The vertex never waits for the block.
            assert merged.digests[i][0][0] <= instant
        else:
            assert merged.digests[i][0][0] == plain.digests[i][0][0], i
    assert plain.kind_counts() == merged.kind_counts()
    # The two starved clan members ECHO once their pull completes.
    assert plain.kind_counts()["Echo"] == N * N


class ClanEchoesLate(DelayAdversary):
    """Clan ECHOes reach ``victim`` ``extra`` seconds late."""

    def __init__(self, victim, extra):
        self.victim, self.extra = victim, extra

    def extra_delay(self, src, dst, msg, now):
        late = dst == self.victim and src in CLAN and "Echo" in type(msg).__name__
        return self.extra if late else 0.0


@pytest.mark.parametrize("late_vertex", [False, True], ids=["bare-val", "no-val"])
@pytest.mark.parametrize("policy", POLICIES)
def test_a_member_denied_the_payload_pulls_from_the_certificate(policy, late_vertex):
    """Two-round: clan member 0 is denied the payload and certifies from a
    received CERT before any clan ECHO reaches it, so it knows no clan
    echoer; the certificate's clan signers hold the payload.  With no VAL at
    all (and a sender gone silent), the clan-only block policy first pulls
    the vertex, and the block pull that follows still asks those signers."""
    world = World(
        policy, "two-round", N, CLAN, latency(False), seed=11,
        adversary=ClanEchoesLate(0, extra=5.0),
    )
    world.withhold(SENDER, lucky=(1, 2, 3, 4), unsent=(0,) if late_vertex else ())
    if late_vertex:
        world.silence(SENDER)
    world.run()
    # CERT at 0.15 s, request to a clan signer, its answer at 0.25 s; a
    # pulled vertex first costs the clan-only block policy one more round trip.
    late = late_vertex and policy == "clan-only block"
    assert [t for t, _ in world.payloads[0]] == [pytest.approx(0.35 if late else 0.25)]
