"""Tests for the two-round RBC variants (Fig. 3 and Abraham et al. baseline)."""


from repro.crypto.hashing import digest as hash_of
from repro.crypto.signatures import Signature
from repro.net.adversary import TargetedDelayAdversary
from repro.rbc.byzantine import send_equivocating_vals, send_withholding_vals
from repro.rbc.core import tally_of
from repro.rbc.messages import EchoMsg, ValMsg, echo_statement

N = 10
CLAN = frozenset({0, 1, 2, 3, 4})


def test_two_round_validity(make_harness):
    h = make_harness("two-round", 7)
    h.modules[0].broadcast(b"hello", 1)
    h.run()
    for i in range(7):
        assert h.delivered_values(i) == [(0, 1, b"hello", True)]


def test_two_round_faster_than_bracha(make_harness):
    """Good case: cert-based delivery beats the 3-hop Bracha path."""
    
    latency = 0.1
    times = {}
    for proto in ("two-round", "bracha"):
        h = make_harness(proto, 7, latency=latency)
        h.modules[0].broadcast(b"m", 1)
        h.run()
        times[proto] = h.sim.now
    # Both complete; the 2-round protocol's last event lands earlier or equal.
    assert times["two-round"] <= times["bracha"] + 1e-9


def test_tribe_two_round_clan_value_others_digest(make_harness):
    h = make_harness("two-round", N, clan=CLAN)
    h.modules[1].broadcast(b"block", 4)
    h.run()
    for i in range(N):
        d = h.deliveries[i][0]
        if i in CLAN:
            assert d.full and d.payload == b"block"
        else:
            assert not d.full and d.payload is None


def test_unsigned_val_rejected(make_harness):
    h = make_harness("two-round", N, clan=CLAN)
    h.net.send(0, 1, ValMsg(0, 1, hash_of(b"x"), b"x", None))
    h.run()
    assert h.deliveries[1] == []


def test_badly_signed_val_rejected(make_harness):
    h = make_harness("two-round", N, clan=CLAN)
    fake_sig = Signature(0, hash_of(b"nonsense"), b"\x00" * 16)
    h.net.send(0, 1, ValMsg(0, 1, hash_of(b"x"), b"x", fake_sig))
    h.run()
    assert h.deliveries[1] == []


def test_echo_with_wrong_signer_rejected(make_harness):
    h = make_harness("two-round", N, clan=CLAN)
    d = hash_of(b"v")
    sig = h.pki.key(2).sign(echo_statement(0, 1, d))
    # Node 3 replays node 2's echo signature as its own.
    h.net.send(3, 1, EchoMsg(0, 1, d, sig))
    h.run()
    state = h.modules[1]._live(0, 1)
    tally = tally_of(state, d) if state is not None else None
    assert tally is None or not tally.echo_mask & 1 << 3


def test_forged_certificate_rejected(make_harness):
    """A certificate without f_c+1 clan signers must not deliver."""
    from repro.crypto.certificates import build_certificate
    from repro.rbc.messages import CertMsg

    h = make_harness("two-round", N, clan=CLAN)
    d = hash_of(b"v")
    stmt = echo_statement(9, 1, d)
    # 7 signatures but only 2 clan members (0, 1) — below clan quorum 3.
    signers = [0, 1, 5, 6, 7, 8, 9]
    cert = build_certificate([h.pki.key(i).sign(stmt) for i in signers])
    h.net.send(9, 2, CertMsg(9, 1, d, cert, N))
    h.run()
    assert h.deliveries[2] == []


def test_valid_certificate_delivers_immediately(make_harness):
    from repro.crypto.certificates import build_certificate
    from repro.rbc.messages import CertMsg

    h = make_harness("two-round", N, clan=CLAN)
    d = hash_of(b"v")
    stmt = echo_statement(9, 1, d)
    signers = [0, 1, 2, 5, 6, 7, 8]  # 7 total, 3 clan members
    cert = build_certificate([h.pki.key(i).sign(stmt) for i in signers])
    # Node 6 is outside the clan: it delivers the digest directly.  (Clan
    # members will pull forever since no one truly holds the payload of this
    # crafted cert, so bound the run.)
    h.net.send(9, 6, CertMsg(9, 1, d, cert, N))
    h.run(until=30.0)
    assert h.deliveries[6]
    assert h.deliveries[6][0].digest == d
    assert not h.deliveries[6][0].full


def test_withholding_sender_pull_via_cert_signers(make_harness):
    h = make_harness("two-round", N, clan=CLAN)
    send_withholding_vals(
        h.net, 9, 1, b"secret", h.membership, receive_full=[0, 1, 2], pki=h.pki
    )
    h.run()
    for i in CLAN:
        assert h.deliveries[i] and h.deliveries[i][0].payload == b"secret"


def test_equivocation_agreement_holds(make_harness):
    h = make_harness("two-round", N, clan=CLAN)
    assignments = {i: (b"A" if i < 5 else b"B") for i in range(9)}
    send_equivocating_vals(h.net, 9, 1, assignments, h.membership, pki=h.pki)
    h.run()
    digests = {d.digest for i in range(N) for d in h.deliveries[i]}
    assert len(digests) <= 1


def test_cert_forwarding_reaches_delayed_party(make_harness):
    """A party that misses all ECHOs gets the forwarded certificate."""
    adversary = TargetedDelayAdversary({8}, extra=10.0, until=0.2)
    h = make_harness("two-round", N, clan=CLAN, adversary=adversary)
    h.modules[0].broadcast(b"m", 1)
    h.run()
    assert h.deliveries[8]


def test_all_to_all_broadcast_storm(make_harness):
    """Every party broadcasts in the same round; all n^2 instances deliver."""
    h = make_harness("two-round", N, clan=CLAN)
    for s in range(N):
        h.modules[s].broadcast(f"b{s}".encode(), 1)
    h.run()
    for i in range(N):
        assert len(h.deliveries[i]) == N
        for d in h.deliveries[i]:
            if i in CLAN:
                assert d.payload == f"b{d.origin}".encode()
