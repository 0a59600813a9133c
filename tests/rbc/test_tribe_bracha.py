"""Tests for the Fig. 2 tribe-assisted RBC (signature-free, 3 rounds)."""


from repro.net.adversary import TargetedDelayAdversary
from repro.rbc.byzantine import send_equivocating_vals, send_withholding_vals

N = 10  # f = 3, quorum = 7
CLAN = frozenset({0, 1, 2, 3, 4})  # n_c = 5, f_c = 2, clan_quorum = 3


def test_validity_clan_gets_value_others_get_digest(make_harness):
    h = make_harness("bracha", N, clan=CLAN)
    h.modules[0].broadcast(b"payload", 1)
    h.run()
    for i in range(N):
        assert len(h.deliveries[i]) == 1
        d = h.deliveries[i][0]
        assert (d.origin, d.round) == (0, 1)
        if i in CLAN:
            assert d.full and d.payload == b"payload"
        else:
            assert not d.full and d.payload is None
        from repro.rbc.base import payload_digest

        assert d.digest == payload_digest(b"payload")


def test_sender_outside_clan_can_broadcast(make_harness):
    # The primitive itself allows any designated sender; clan restriction on
    # proposers is a consensus-layer rule.
    h = make_harness("bracha", N, clan=CLAN)
    h.modules[7].broadcast(b"from-outside", 2)
    h.run()
    for i in CLAN:
        assert h.deliveries[i][0].payload == b"from-outside"


def test_integrity_one_delivery_per_origin_round(make_harness):
    h = make_harness("bracha", N, clan=CLAN)
    h.modules[1].broadcast(b"a", 1)
    h.run()
    for i in range(N):
        assert len(h.deliveries[i]) == 1


def test_echo_quorum_requires_clan_members(make_harness):
    """Without f_c+1 clan ECHOs no READY can form.

    Crash 3 of 5 clan members: only 2 clan ECHOs remain (< clan quorum 3),
    so no honest party delivers even though 7 tribe ECHOs are impossible
    anyway; crash only clan members to isolate the clan condition.
    """
    h = make_harness("bracha", N, clan=CLAN)
    for i in (2, 3, 4):
        h.net.crash(i)
    h.modules[0].broadcast(b"x", 1)
    h.run()
    for i in range(N):
        if not h.net.is_crashed(i):
            assert h.deliveries[i] == []


def test_delivery_with_non_clan_crashes(make_harness):
    """Crashing f non-clan members leaves 7 parties: exactly quorum."""
    h = make_harness("bracha", N, clan=CLAN)
    for i in (7, 8, 9):
        h.net.crash(i)
    h.modules[0].broadcast(b"x", 1)
    h.run()
    for i in range(7):
        assert len(h.deliveries[i]) == 1


def test_withholding_sender_triggers_pull(make_harness):
    """Sender gives the value to only 3 clan members; the other 2 pull it."""
    h = make_harness("bracha", N, clan=CLAN)
    send_withholding_vals(
        h.net, 9, 1, b"secret", h.membership, receive_full=[0, 1, 2]
    )
    h.run()
    for i in CLAN:
        assert len(h.deliveries[i]) == 1
        assert h.deliveries[i][0].payload == b"secret", f"clan member {i}"
    for i in range(N):
        if i not in CLAN:
            assert len(h.deliveries[i]) == 1
            assert h.deliveries[i][0].payload is None


def test_equivocation_never_splits_clan(make_harness):
    """Byzantine sender equivocates; no two honest parties deliver different values."""
    h = make_harness("bracha", N, clan=CLAN)
    assignments = {}
    for i in range(N):
        if i == 9:
            continue  # the Byzantine sender itself
        assignments[i] = b"A" if i % 2 == 0 else b"B"
    send_equivocating_vals(h.net, 9, 1, assignments, h.membership)
    h.run()
    digests = {d.digest for i in range(N) for d in h.deliveries[i]}
    assert len(digests) <= 1
    payloads = {d.payload for i in range(N) for d in h.deliveries[i] if d.full}
    assert len(payloads) <= 1


def test_agreement_under_adversarial_delay(make_harness):
    """A clan member cut off during dissemination still delivers eventually."""
    adversary = TargetedDelayAdversary({4}, extra=30.0, until=5.0)
    h = make_harness("bracha", N, clan=CLAN, adversary=adversary)
    h.modules[0].broadcast(b"x", 1)
    h.run()
    assert h.deliveries[4]
    assert h.deliveries[4][0].payload == b"x"


def test_slow_clan_member_downloads_value(make_harness):
    """VALs to one clan member are hugely delayed; READY quorum forms without
    it and the retrieval path supplies the payload."""
    adversary = TargetedDelayAdversary({3}, extra=100.0, until=0.001)
    h = make_harness("bracha", N, clan=CLAN, adversary=adversary)
    h.modules[0].broadcast(b"v", 1)
    # Run well past the protocol completion but before the delayed VAL (t=100).
    h.run(until=50.0)
    assert h.deliveries[3]
    assert h.deliveries[3][0].payload == b"v"


def test_conflicting_val_recorded_not_followed(make_harness):
    h = make_harness("bracha", N, clan=CLAN)
    from repro.crypto.hashing import digest as hash_of
    from repro.rbc.messages import ValMsg

    h.net.send(5, 1, ValMsg(5, 1, hash_of(b"first"), None))
    h.net.send(5, 1, ValMsg(5, 1, hash_of(b"second"), None))
    h.run()
    state = h.modules[1].instances[1][5]
    assert state.val_digest == hash_of(b"first")
    assert hash_of(b"second") in state.conflicting


def test_communication_cost_scales_with_clan(make_harness):
    """Sender bytes: ℓ to clan members, κ-sized to the rest (§3 complexity)."""
    big = bytes(100_000)
    h_clan = make_harness("bracha", N, clan=CLAN)
    h_clan.modules[0].broadcast(big, 1)
    h_clan.run()
    clan_sender_bytes = h_clan.net.stats.bytes_sent[0]

    h_full = make_harness("bracha", N, clan=frozenset(range(N)))
    h_full.modules[0].broadcast(big, 1)
    h_full.run()
    full_sender_bytes = h_full.net.stats.bytes_sent[0]

    # 5 full copies (incl. self) vs 10 full copies, plus small control traffic.
    assert clan_sender_bytes < 0.6 * full_sender_bytes


def test_deliveries_recorded_on_module(make_harness):
    h = make_harness("bracha", N, clan=CLAN)
    h.modules[2].broadcast(b"z", 3)
    h.run()
    assert h.modules[0].delivered(2, 3)
    assert not h.modules[0].delivered(2, 4)
