"""Shared fixtures for the RBC tests: a tribe with modules on a network."""

from __future__ import annotations

import pytest

from repro.crypto.signatures import Pki
from repro.net.latency import UniformLatencyModel
from repro.net.network import Network
from repro.rbc.base import Membership
from repro.rbc.plain import PlainRbc
from repro.sim import Simulator


class Harness:
    """A tribe of ``PlainRbc`` modules under ``completion`` over one simulated
    network; the clan defaults to the whole tribe."""

    def __init__(self, completion, n, clan=None, latency=0.05, adversary=None, **kwargs):
        self.sim = Simulator()
        self.net = Network(
            self.sim, n, latency=UniformLatencyModel(latency), adversary=adversary
        )
        self.n = n
        clan = frozenset(clan) if clan is not None else frozenset(range(n))
        self.membership = Membership(n, clan)
        self.pki = Pki(n, seed=7)
        self.deliveries = {i: [] for i in range(n)}
        self.modules = []
        for i in range(n):
            def on_deliver(d, i=i):
                self.deliveries[i].append(d)
            self.modules.append(PlainRbc(
                i, self.membership, self.net, self.sim, self.pki, on_deliver,
                completion, **kwargs,
            ))

    def run(self, until=None):
        self.sim.run(until=until, max_events=2_000_000)

    def delivered_values(self, node):
        return [(d.origin, d.round, d.payload, d.full) for d in self.deliveries[node]]


@pytest.fixture
def make_harness():
    return Harness
