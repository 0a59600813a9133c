"""Message/byte accounting for the RBC family (the §3/§4 complexity tables).

Counts actual protocol messages in the good case and checks them against the
closed-form expectations:

* Bracha-style (3 rounds): n VALs + n² ECHOes + n² READYs
* Two-round: n VALs + n² ECHOes + n·(cert broadcasts) = n VALs + 2n²
"""

import pytest

from repro.crypto.signatures import Pki
from repro.net.latency import UniformLatencyModel
from repro.net.network import Network
from repro.rbc.base import Membership
from repro.rbc.messages import CertMsg, EchoMsg, ReadyMsg, ValMsg
from repro.rbc.plain import PlainRbc
from repro.sim import Simulator

N = 10
CLAN = frozenset(range(5))


def run_protocol(completion):
    sim = Simulator()
    net = Network(sim, N, latency=UniformLatencyModel(0.02), track_kinds=True)
    membership = Membership(N, CLAN)
    pki = Pki(N, seed=1)
    modules = []
    for i in range(N):
        modules.append(
            PlainRbc(i, membership, net, sim, pki, lambda d: None, completion)
        )
    modules[0].broadcast(b"x" * 1000, 1)
    sim.run(max_events=500_000)
    return net.stats


def test_bracha_message_counts():
    stats = run_protocol("bracha")
    counts = stats.messages_by_kind
    assert counts["ValMsg"] == N  # one VAL per recipient (incl. self-clan)
    assert counts["EchoMsg"] == N * N  # every party broadcasts one ECHO
    assert counts["ReadyMsg"] == N * N  # every party broadcasts one READY
    assert "CertMsg" not in counts


def test_two_round_message_counts():
    stats = run_protocol("two-round")
    counts = stats.messages_by_kind
    assert counts["ValMsg"] == N
    assert counts["EchoMsg"] == N * N
    # Every party forms/forwards the certificate exactly once.
    assert counts["CertMsg"] == N * N
    assert "ReadyMsg" not in counts


def test_two_round_bytes_include_signatures():
    bracha = run_protocol("bracha").bytes_by_kind
    signed = run_protocol("two-round").bytes_by_kind
    # Signed ECHOes are exactly one signature larger per message.
    per_echo_plain = bracha["EchoMsg"] / (N * N)
    per_echo_signed = signed["EchoMsg"] / (N * N)
    assert per_echo_signed - per_echo_plain == pytest.approx(64)


def test_payload_bytes_confined_to_clan():
    stats = run_protocol("bracha")
    val_bytes = stats.bytes_by_kind["ValMsg"]
    # 5 full copies (1000 B payload + digest + header) + 5 digest-only VALs.
    full = 5 * (40 + 32 + 1000)
    digest_only = 5 * (40 + 32)
    assert val_bytes == full + digest_only
