"""One RBC instance under any (payload policy, completion) — shared harness.

``World`` builds a tribe of RBC modules over one simulated network and
drives a single ``(sender, round 1)`` instance through an honest,
withholding or equivocating sender, recording what every party delivers in
one vocabulary for both policies:

* ``digests[i]`` — ``(time, digest)`` of the tribe-wide delivery at party i
  (plain: the ``Delivery``; clan-only block: ``on_vertex``);
* ``payloads[i]`` — ``(time, payload identity)`` of the clan-only delivery
  (plain: a full ``Delivery``; clan-only block: ``on_block``).
"""

from __future__ import annotations

from dataclasses import replace

from repro.committees import ClanConfig
from repro.consensus.vertex_rbc import VertexRbc
from repro.crypto.signatures import Pki
from repro.dag.block import Block
from repro.dag.transaction import Transaction
from repro.dag.vertex import Vertex, genesis_vertex
from repro.net.network import Network
from repro.rbc.base import Membership
from repro.rbc.byzantine import send_equivocating_vals
from repro.rbc.core import COMPLETIONS
from repro.rbc.plain import PlainRbc, val_parts
from repro.sim import Simulator

POLICIES = ("plain", "clan-only block")


class World:
    def __init__(
        self, policy, completion, n, clan, latency_model, seed=0, adversary=None
    ):
        """``latency_model`` is a factory: it must be called after the
        simulator exists, which starts a fresh RNG-sanitizer run."""
        self.policy, self.completion = policy, completion
        self.n = n
        self.clan = frozenset(clan)
        self.sim = Simulator()
        self.net = Network(
            self.sim, n, latency=latency_model(), adversary=adversary,
            track_kinds=True,
        )
        self.pki = Pki(n, seed=seed)
        self.digests = {i: [] for i in range(n)}
        self.payloads = {i: [] for i in range(n)}
        self.membership = Membership(n, self.clan)
        self.cfg = ClanConfig(
            n=n, mode="single-clan", clans=(self.clan,), block_proposers=self.clan
        )
        build = self._plain_module if policy == "plain" else self._vertex_module
        self.modules = [build(i) for i in range(n)]

    # -- construction ----------------------------------------------------------

    def _plain_module(self, i):
        def on_deliver(d):
            self.digests[i].append((self.sim.now, d.digest))
            if d.full:
                self.payloads[i].append((self.sim.now, bytes(d.payload)))

        return PlainRbc(
            i, self.membership, self.net, self.sim, self.pki, on_deliver,
            self.completion,
        )

    def _vertex_module(self, i):
        module = VertexRbc(
            i, self.cfg, self.net, self.sim, self.pki,
            on_first_val=lambda v: None,
            on_vertex=lambda v: self.digests[i].append(
                (self.sim.now, v.vertex_digest())
            ),
            on_block=lambda b: self.payloads[i].append(
                (self.sim.now, b.payload_digest())
            ),
            mode=self.completion,
        )
        self.net.register(i, module.on_message)
        return module

    def _proposal(self, sender):
        """The (vertex, block) of ``sender``; outsiders carry no block."""
        block = None
        if sender in self.clan:
            txns = [Transaction(f"p{sender}:{k}", ("noop",)) for k in range(3)]
            block = Block.concrete(sender, 1, txns, 0.0)
        refs = tuple(genesis_vertex(i).ref() for i in range(self.n))
        digest = block.payload_digest() if block is not None else None
        return Vertex(1, sender, digest, refs), block

    # -- senders ---------------------------------------------------------------

    def broadcast(self, sender):
        """An honest ``sender`` r_bcasts in round 1."""
        if self.policy == "plain":
            self.modules[sender].broadcast(b"payload", 1)
        else:
            self.modules[sender].broadcast(*self._proposal(sender))

    def withhold(self, sender, lucky, unsent=()):
        """The full value reaches only the ``lucky`` clan members, and no
        VAL at all reaches the ``unsent`` parties."""
        if self.policy == "plain":
            key = self.pki.key(sender) if self.completion == "two-round" else None
            parts = val_parts(sender, 1, b"payload", self.membership, key)
        else:
            parts = self.modules[sender].val_parts(*self._proposal(sender))
        for party in range(self.n):
            if party not in unsent:
                val = parts.full if party in lucky else parts.bare
                self.net.send(sender, party, val)

    def equivocate(self, sender):
        """Even parties are shown one value, odd parties another."""
        others = [i for i in range(self.n) if i != sender]
        if self.policy == "plain":
            pki = self.pki if self.completion == "two-round" else None
            assignments = {i: (b"A" if i % 2 == 0 else b"B") for i in others}
            send_equivocating_vals(
                self.net, sender, 1, assignments, self.membership, pki=pki
            )
            return
        vertex, block = self._proposal(sender)
        twin = replace(vertex, strong_edges=tuple(reversed(vertex.strong_edges)))
        shown = [self.modules[sender].val_parts(v, block) for v in (vertex, twin)]
        for party in others:
            parts = shown[party % 2]
            val = parts.full if party in self.clan else parts.bare
            self.net.send(sender, party, val)

    def silence(self, node):
        """``node`` stays on the roll but never sends or serves anything."""
        self.net.register(node, lambda src, msg: None)

    def run(self, until=60.0):
        self.sim.run(until=until, max_events=300_000)

    # -- observations ------------------------------------------------------------

    def kind_counts(self):
        """VAL/ECHO/READY/CERT message counts, policy-neutral names."""
        counts = self.net.stats.messages_by_kind
        return {
            kind: counts.get(kind + "Msg", 0) + counts.get(f"Vertex{kind}Msg", 0)
            for kind in ("Val", "Echo", "Ready", "Cert")
        }
