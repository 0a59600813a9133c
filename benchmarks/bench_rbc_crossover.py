"""RBC-XOVER: optimistic fast path vs pessimistic Bracha under degradation.

The optimistic protocol bets on the good case: when all n parties ECHO the
same digest it delivers in 2δ (VAL+ECHO), one message delay ahead of the
3δ READY path — but every bet it loses costs a fallback timeout.  This bench
measures where the bet stops paying: a loss-rate × Byzantine sweep of mean
honest delivery latency for :class:`~repro.rbc.plain.PlainRbc` under the
``optimistic`` completion against the ``bracha`` one (Fig. 2) on identical
networks (reliable transport over seeded lossy links).

A second lane runs the ``slow-proposer-prefix`` chaos scenario end to end:
the certified-prefix commit rule must keep committing non-empty prefixes —
with zero safety anomalies — while a proposer drip-feeds its block tail.
"""

import pytest

from repro.net.faults import LossyLink
from repro.net.latency import UniformLatencyModel
from repro.net.network import Network
from repro.net.transport import ReliableTransport
from repro.rbc.base import Membership
from repro.rbc.plain import PlainRbc
from repro.sim import Simulator

from .conftest import emit, run_once

N = 8
CLAN = frozenset(range(N))
DELTA = 0.05
FALLBACK_TIMEOUT = 0.4
INSTANCES = 30
GAP = 1.0  # seconds between broadcasts (instances never overlap timers)
LOSS_RATES = (0.0, 0.02, 0.05, 0.1, 0.2)


def _run_primitive(protocol: str, drop_prob: float, silent_byz: int, seed: int):
    """Mean honest delivery latency over rotating-sender instances."""
    sim = Simulator()
    faults = LossyLink(drop_prob, seed=seed) if drop_prob > 0 else None
    net = Network(sim, N, latency=UniformLatencyModel(DELTA), faults=faults)
    transport = ReliableTransport(net, ack_timeout=0.15)
    membership = Membership(N, CLAN)
    silent = frozenset(range(N - silent_byz, N))
    started: dict[tuple[int, int], float] = {}
    latencies: list[float] = []

    def on_deliver(node):
        def cb(delivery):
            if node in silent:
                return
            key = (delivery.origin, delivery.round)
            if key in started:
                latencies.append(sim.now - started[key])

        return cb

    modules = [
        PlainRbc(
            i, membership, transport, sim, None, on_deliver(i), protocol,
            fallback_timeout=FALLBACK_TIMEOUT,
        )
        for i in range(N)
    ]
    # Silent parties receive but never echo/ready: in the optimistic mode a
    # single one forces *every* instance off the all-n fast path.
    for i in silent:
        modules[i].network = _NullSender(transport)

    def start(round_: int) -> None:
        sender = (round_ - 1) % (N - silent_byz)
        started[(sender, round_)] = sim.now
        modules[sender].broadcast(b"x" * 512, round_)

    for round_ in range(1, INSTANCES + 1):
        sim.schedule((round_ - 1) * GAP, start, round_)
    sim.run(until=INSTANCES * GAP + 10.0, max_events=10_000_000)

    honest = N - silent_byz
    expected = INSTANCES * honest
    fast = fallback = 0
    if protocol == "optimistic":
        fast = sum(modules[i].fast_deliveries for i in range(honest))
        fallback = sum(modules[i].fallback_deliveries for i in range(honest))
    return {
        "delivered": len(latencies),
        "expected": expected,
        "mean_latency_ms": round(1e3 * sum(latencies) / max(1, len(latencies)), 2),
        "fast": fast,
        "fallback": fallback,
    }


class _NullSender:
    """Network facade that swallows every send (a silent-but-listening node)."""

    def __init__(self, inner) -> None:
        self._inner = inner

    def broadcast(self, src, msg) -> None:
        pass

    def multicast(self, src, parties, msg) -> None:
        pass

    def send(self, src, dst, msg) -> None:
        pass

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _crossover_rows():
    rows = []
    for silent_byz in (0, 1):
        for drop in LOSS_RATES:
            opt = _run_primitive("optimistic", drop, silent_byz, seed=5)
            bra = _run_primitive("bracha", drop, silent_byz, seed=5)
            # Totality: every honest party delivers every instance, in both
            # protocols, in every cell of the sweep.
            assert opt["delivered"] == opt["expected"], (drop, silent_byz, opt)
            assert bra["delivered"] == bra["expected"], (drop, silent_byz, bra)
            rows.append({
                "loss": drop,
                "silent_byz": silent_byz,
                "optimistic_ms": opt["mean_latency_ms"],
                "bracha_ms": bra["mean_latency_ms"],
                "advantage_ms": round(
                    bra["mean_latency_ms"] - opt["mean_latency_ms"], 2
                ),
                "fast": opt["fast"],
                "fallback": opt["fallback"],
            })
    return rows


def test_rbc_crossover(benchmark):
    rows = run_once(benchmark, _crossover_rows)
    emit(rows, "rbc_crossover",
         "Optimistic vs Bracha RBC: loss-rate x Byzantine crossover")
    by_key = {(r["loss"], r["silent_byz"]): r for r in rows}
    # Good case (no loss, no Byzantine): the 2δ fast path beats 3δ Bracha,
    # and every instance delivers fast.
    good = by_key[(0.0, 0)]
    assert good["fallback"] == 0
    assert good["optimistic_ms"] < good["bracha_ms"]
    assert good["optimistic_ms"] == pytest.approx(2 * DELTA * 1e3, rel=0.2)
    # One silent party kills the all-n condition: everything falls back and
    # the optimistic protocol pays the timeout — the measured crossover.
    byz = by_key[(0.0, 1)]
    assert byz["fast"] == 0 and byz["fallback"] > 0
    assert byz["optimistic_ms"] > byz["bracha_ms"]
    # Loss degrades the advantage monotonically enough that the worst lossy
    # cell is strictly worse for optimistic than the lossless one.
    assert by_key[(0.2, 0)]["advantage_ms"] < good["advantage_ms"]


def _prefix_resilience():
    from repro.chaos import get_scenario, run_scenario

    result = run_scenario(get_scenario("slow-proposer-prefix"), monitors=True)
    return {
        "ok": result.ok,
        "prefix_commits": result.stats["prefix_commits"],
        "prefix_truncated": result.stats["prefix_truncated"],
        "chunks_committed": result.stats["prefix_chunks_committed"],
        "chunks_dropped": result.stats["prefix_chunks_dropped"],
        "min_ordered": result.stats["min_ordered"],
        "safety_anomalies": sum(
            1 for a in (result.stats.get("anomalies") or {}).items()
            if a[0] == "safety"
        ),
    }


def test_prefix_resilience(benchmark):
    row = run_once(benchmark, _prefix_resilience)
    emit([row], "rbc_prefix_resilience",
         "Certified-prefix commits under a slow proposer")
    assert row["ok"]
    # Non-empty prefixes commit even though the adversary forces truncation.
    assert row["prefix_commits"] > 0
    assert row["prefix_truncated"] > 0
    assert row["chunks_committed"] > row["chunks_dropped"]
    assert row["safety_anomalies"] == 0
