"""Optimistic fast-path RBC: 2δ good case, pessimistic fallback triggers."""

from __future__ import annotations

import pytest

from repro.rbc.byzantine import send_equivocating_vals, silence

DELTA = 0.05


class TestFastPath:
    def test_good_case_delivers_everywhere(self, make_harness):
        h = make_harness("optimistic", n=7, latency=DELTA)
        h.modules[0].broadcast(b"hello", 1)
        h.run()
        for node in range(7):
            assert h.delivered_values(node) == [(0, 1, b"hello", True)]
        for module in h.modules:
            assert module.fast_deliveries == 1
            assert module.fallback_deliveries == 0
            assert module.fallbacks == {}

    def test_good_case_is_two_rounds(self, make_harness):
        # Fast path: VAL (δ) + ECHO (δ) = 2δ; Bracha pays the READY hop too.
        times = {}
        for protocol in ("optimistic", "bracha"):
            h = make_harness(protocol, n=7, latency=DELTA)
            at = {}

            def record(d, at=at, h=h):
                at.setdefault("t", h.sim.now)

            h.modules[1].on_deliver = record
            h.modules[0].broadcast(b"payload", 1)
            h.run()
            times[protocol] = at["t"]
        assert times["optimistic"] == pytest.approx(2 * DELTA)
        assert times["bracha"] == pytest.approx(3 * DELTA)

    def test_tribe_outside_clan_delivers_digest_only(self, make_harness):
        h = make_harness("optimistic", n=7, clan=range(4), latency=DELTA)
        h.modules[0].broadcast(b"clan-payload", 3)
        h.run()
        assert h.delivered_values(2) == [(0, 3, b"clan-payload", True)]
        origin, round_, payload, full = h.delivered_values(6)[0]
        assert (origin, round_, payload, full) == (0, 3, None, False)
        assert all(m.fast_deliveries == 1 for m in h.modules)


class TestFallback:
    def test_silent_party_forces_timeout_fallback(self, make_harness):
        h = make_harness("optimistic", n=7, latency=DELTA, fallback_timeout=0.4)
        silence(h.modules[6])
        h.modules[0].broadcast(b"slow", 1)
        h.run()
        for node in range(6):
            assert h.delivered_values(node) == [(0, 1, b"slow", True)]
            module = h.modules[node]
            assert module.fast_deliveries == 0
            assert module.fallback_deliveries == 1
            assert module.instances[1][0].pessimistic
        triggers = {reason for m in h.modules[:6] for reason in m.fallbacks}
        assert "timeout" in triggers
        # Fallback happens at the timer, not before.
        assert h.sim.now > 0.4

    def test_ready_join_propagates_fallback(self, make_harness):
        # Party 0 times out early; its READY converts everyone else without
        # waiting for their (much longer) local timers.
        h = make_harness("optimistic", n=4, latency=DELTA, fallback_timeout=10.0)
        h.modules[0].fallback_timeout = 0.3
        silence(h.modules[3])
        delivered_at = {}
        for node in range(3):
            inner = h.modules[node].on_deliver

            def on_deliver(d, node=node, inner=inner):
                delivered_at[node] = h.sim.now
                inner(d)

            h.modules[node].on_deliver = on_deliver
        h.modules[1].broadcast(b"join", 2)
        h.run(until=5.0)
        for node in range(3):
            assert h.delivered_values(node) == [(1, 2, b"join", True)]
            assert delivered_at[node] < 1.0  # far below the 10 s timers
        assert h.modules[0].fallbacks == {"timeout": 1}
        assert h.modules[1].fallbacks == {"ready": 1}
        assert h.modules[2].fallbacks == {"ready": 1}

    def test_equivocation_falls_back_and_never_delivers(self, make_harness):
        h = make_harness("optimistic", n=7, latency=DELTA, fallback_timeout=0.4)
        assignments = {
            p: (b"value-a" if p % 2 == 0 else b"value-b") for p in range(7)
        }
        send_equivocating_vals(h.net, 0, 1, assignments, h.membership)
        h.run(until=10.0)
        # 4-vs-3 echo split: neither digest reaches the 2f+1 quorum.
        for node in range(1, 7):
            assert h.delivered_values(node) == []
            assert "conflict" in h.modules[node].fallbacks
        assert all(m.fast_deliveries == 0 for m in h.modules)

    def test_lone_faller_completes_via_delivered_nodes_readies(self, make_harness):
        # Totality across the fast/pessimistic split: every other node
        # fast-delivers on all-n echoes, but one node misses an ECHO, times
        # out, and falls back.  The fast deliverers skipped the READY phase —
        # they must answer the faller's READY with their own, or it waits for
        # a 2f+1 READY quorum that can never form.
        from repro.rbc.messages import EchoMsg

        h = make_harness("optimistic", n=4, latency=DELTA, fallback_timeout=0.3)
        inner = h.modules[3].on_message
        eaten = []

        def drop_one_echo(src, msg):
            if isinstance(msg, EchoMsg) and src == 0 and not eaten:
                eaten.append(msg)
                return
            inner(src, msg)

        h.net.register(3, drop_one_echo)
        faller_deliver = h.modules[3].on_deliver
        delivered_at = {}

        def timed_deliver(d):
            delivered_at["t"] = h.sim.now
            faller_deliver(d)

        h.modules[3].on_deliver = timed_deliver
        h.modules[0].broadcast(b"split", 1)
        h.run(until=5.0)
        for node in range(4):
            assert h.delivered_values(node) == [(0, 1, b"split", True)]
        assert all(m.fast_deliveries == 1 for m in h.modules[:3])
        assert h.modules[3].fallback_deliveries == 1
        assert h.modules[3].fallbacks == {"timeout": 1}
        # Delivery happens shortly after the faller's timer, not never.
        assert delivered_at["t"] < 1.5

    def test_fast_path_unaffected_by_other_instances_fallback(self, make_harness):
        # Fallback state is per-instance: a conflicted round must not drag a
        # clean one off its fast path.
        h = make_harness("optimistic", n=4, latency=DELTA, fallback_timeout=0.4)
        assignments = {p: (b"a" if p % 2 == 0 else b"b") for p in range(4)}
        send_equivocating_vals(h.net, 0, 1, assignments, h.membership)
        h.modules[1].broadcast(b"clean", 1)
        h.run(until=10.0)
        for node in range(4):
            assert (1, 1, b"clean", True) in h.delivered_values(node)
        assert all(m.fast_deliveries == 1 for m in h.modules)
