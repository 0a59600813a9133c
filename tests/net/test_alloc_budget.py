"""Allocation budget of an in-flight event: one GC-tracked object.

The cyclic collector re-traverses every tracked container that is still alive
when a collection runs, and a queued delivery lives ~100k events before it
fires — so the number of tracked objects per pending event is a direct
multiplier on collector time (docs/PERFORMANCE.md, "One object per in-flight
event").  These tests count tracked objects with ``gc.get_objects()`` so a
refactor that re-wraps events (a per-event list, an ``(fn, args)`` pair, a
separate handle) fails here instead of showing up as a slow benchmark.  The calendar's own
containers are budgeted too: one list per occupied epoch, whatever it holds.
"""

import gc

import pytest

from repro.analysis import sanitizers
from repro.net.latency import UniformLatencyModel
from repro.net.message import Message
from repro.net.network import Network
from repro.sim import Simulator


pytestmark = pytest.mark.skipif(
    sanitizers.enabled(),
    reason="REPRO_SANITIZE=1 routes insertions through post and keeps per-message guard state",
)


class _Blob(Message):
    __slots__ = ()

    def wire_size(self):
        return 1000


def _tracked() -> int:
    gc.collect()
    return len(gc.get_objects())


def _inline_net(n, bandwidth_bps):
    sim = Simulator()
    net = Network(sim, n, latency=UniformLatencyModel(0.05), bandwidth_bps=bandwidth_bps)
    assert net._inline, "budget is stated for the inline producer"
    for node in range(n):
        net.register(node, lambda src, msg: None)
    return sim, net


def test_pending_delivery_alone_at_its_instant_is_one_object():
    n, k = 9, 40
    sim, net = _inline_net(n, bandwidth_bps=1e6)
    msgs = [_Blob() for _ in range(k)]
    others = list(range(1, n))
    base = _tracked()
    for msg in msgs:
        # One sender: its NIC clock keeps advancing (8 ms per copy), so
        # every copy arrives at its own instant — and in its own epoch, the
        # worst case for the calendar's per-epoch list.
        net.multicast(0, others, msg)
    pending = sim.pending_events
    assert pending == k * (n - 1)
    assert len(sim._epochs) == pending
    # + one list per occupied epoch;
    # + k: each _transmit call binds `deliver` once, shared by its copies;
    # + 1: the calendar dict is tracked once it holds a tracked value.
    assert _tracked() - base <= pending + len(sim._epochs) + k + 1
    sim.run()
    assert sim.pending_events == 0
    assert _tracked() <= base


def test_deliveries_sharing_an_instant_add_one_list_per_instant():
    n, k = 9, 40
    sim, net = _inline_net(n, bandwidth_bps=None)
    msgs = [_Blob() for _ in range(k)]
    base = _tracked()
    for msg in msgs:
        net.broadcast(0, msg)
    # Infinite bandwidth, constant latency: k loopback copies at t=0 and
    # k·(n-1) remote copies at t=0.05 — two epochs, one list each.
    assert sim.pending_events == k * n
    assert len(sim._epochs) == 2
    assert _tracked() - base <= k * n + 2 + k + 1
    sim.run()
    assert _tracked() <= base


def test_timer_is_one_object_and_leaves_nothing_behind():
    k = 200
    sim = Simulator()
    fired = []
    record = fired.append
    base = _tracked()
    handles = [sim.schedule(1.0 + i, record, i) for i in range(k)]
    # The handle is the queued entry: no (when, handle) pair, no args tuple.
    # As for deliveries, + one list per occupied epoch (here: one each), and
    # + 2: `handles` and the calendar dict.
    assert _tracked() - base <= k + len(sim._epochs) + 2
    for handle in handles[::2]:
        handle.cancel()
    del handles, handle
    sim.run()
    assert fired == list(range(1, k, 2))
    del fired[:]
    assert _tracked() <= base
