"""Shared fixtures for the RBC tests: a tribe with modules on a network."""

from __future__ import annotations

import pytest

from repro.crypto.signatures import Pki
from repro.net.latency import UniformLatencyModel
from repro.net.network import Network
from repro.rbc.base import Membership
from repro.rbc.bracha import BrachaRbc, OptimisticRbc, TribeBrachaRbc
from repro.rbc.two_round import TribeTwoRoundRbc, TwoRoundRbc
from repro.sim import Simulator


class Harness:
    """A tribe of RBC modules over one simulated network."""

    def __init__(self, protocol, n, clan=None, latency=0.05, adversary=None, **kwargs):
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
            if protocol in (BrachaRbc, TwoRoundRbc):
                if protocol is BrachaRbc:
                    module = BrachaRbc(i, n, self.net, self.sim, on_deliver)
                else:
                    module = TwoRoundRbc(i, n, self.net, self.sim, self.pki, on_deliver)
            elif protocol is OptimisticRbc:
                module = OptimisticRbc(
                    i, self.membership, self.net, self.sim, on_deliver, **kwargs
                )
            elif protocol is TribeBrachaRbc:
                module = TribeBrachaRbc(
                    i, self.membership, self.net, self.sim, on_deliver, **kwargs
                )
            elif protocol is TribeTwoRoundRbc:
                module = TribeTwoRoundRbc(
                    i, self.membership, self.net, self.sim, self.pki, on_deliver, **kwargs
                )
            else:
                raise AssertionError(protocol)
            self.modules.append(module)

    def run(self, until=None):
        self.sim.run(until=until, max_events=2_000_000)

    def delivered_values(self, node):
        return [(d.origin, d.round, d.payload, d.full) for d in self.deliveries[node]]


@pytest.fixture
def make_harness():
    return Harness
