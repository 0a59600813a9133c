"""Tribe-assisted Byzantine reliable broadcast, Fig. 2 (Bracha-based).

Signature-free, three rounds in the good case:

1. The sender sends ⟨VAL, m, r⟩ to clan members and ⟨VAL, H(m), r⟩ to the
   rest of the tribe.
2. On its first VAL, a party multicasts ⟨ECHO, H(m), r⟩ — clan members only
   after holding the full value (so f_c+1 clan ECHOs certify an honest
   holder), everyone else on the digest alone.
3. On 2f+1 ECHOs for H(m) with at least f_c+1 from the clan, a party
   multicasts ⟨READY, H(m), r⟩; f+1 READYs amplify.
4. On 2f+1 READYs a clan member delivers m (pulling it from an echoing clan
   member if the sender withheld it); everyone else delivers H(m).
"""

from __future__ import annotations

from typing import Any

from ..errors import BroadcastError
from ..net.network import Network
from ..sim.scheduler import Simulator
from ..types import NodeId, Round
from .base import (
    DeliverFn,
    InstanceState,
    Membership,
    RbcProtocol,
    payload_digest,
)
from .messages import (
    EchoMsg,
    PayloadRequest,
    PayloadResponse,
    ReadyMsg,
    ValMsg,
)
from .retrieval import Responder, Retriever


class TribeBrachaRbc(RbcProtocol):
    """Per-node module for the Fig. 2 protocol.

    Args:
        early_fetch: start pulling a missing payload as soon as the ECHO
            quorum forms (the §5 optimization) instead of waiting for the
            READY quorum.
    """

    def __init__(
        self,
        node_id: NodeId,
        membership: Membership,
        network: Network,
        sim: Simulator,
        on_deliver: DeliverFn,
        early_fetch: bool = True,
        retry_timeout: float = 0.5,
        register: bool = True,
        tracer=None,
    ) -> None:
        super().__init__(
            node_id, membership, network, on_deliver, register=register, tracer=tracer
        )
        self.sim = sim
        self.early_fetch = early_fetch
        self._retriever = Retriever(
            node_id, network, sim, self._on_pulled_payload, retry_timeout
        )
        self._responder = Responder(node_id, network, self._lookup_payload)
        #: Instances whose READY quorum fired while the payload was missing.
        self._awaiting_payload: set[tuple[NodeId, Round]] = set()

    # -- sending -------------------------------------------------------------

    def broadcast(self, payload: Any, round_: Round) -> None:
        digest_ = payload_digest(payload)
        if self.tracer.enabled:
            self.tracer.counter(
                "rbc.propose", node=self.node_id, round=round_, time=self.sim.now
            )
        clan = self.membership.clan
        in_clan = [p for p in self.membership.all_parties if p in clan]
        outside = [p for p in self.membership.all_parties if p not in clan]
        self.network.multicast(
            self.node_id, in_clan, ValMsg(self.node_id, round_, digest_, payload)
        )
        if outside:
            self.network.multicast(
                self.node_id, outside, ValMsg(self.node_id, round_, digest_, None)
            )

    # -- receiving -----------------------------------------------------------

    def on_message(self, src: NodeId, msg: Any) -> None:
        if isinstance(msg, ValMsg):
            self._on_val(src, msg)
        elif isinstance(msg, EchoMsg):
            self._on_echo(src, msg)
        elif isinstance(msg, ReadyMsg):
            self._on_ready(src, msg)
        elif isinstance(msg, PayloadRequest):
            self._responder.on_request(src, msg)
        elif isinstance(msg, PayloadResponse):
            self._retriever.on_response(src, msg)
        else:
            raise BroadcastError(f"unexpected message {type(msg).__name__}")

    def _on_val(self, src: NodeId, msg: ValMsg) -> None:
        if src != msg.origin:
            return  # authenticated channels: VAL must come from its origin
        state = self.instance(msg.origin, msg.round)
        if self.tracer.enabled and state.val_at is None:
            state.val_at = self.sim.now
        digest_ = msg.digest
        if msg.payload is not None:
            if payload_digest(msg.payload) != digest_:
                return  # malformed: advertised digest does not match payload
            state.payloads.setdefault(digest_, msg.payload)
        if state.val_digest is None:
            state.val_digest = digest_
        elif state.val_digest != digest_:
            state.conflicting.add(digest_)
            return  # equivocation: honour only the first VAL
        if state.echoed:
            self._maybe_complete(msg.origin, msg.round, state)
            return
        # Clan members echo only once they hold the full value; others echo
        # on the digest alone.
        if self.in_clan and digest_ not in state.payloads:
            return
        state.echoed = True
        if self.tracer.enabled:
            now = self.sim.now
            state.echo_at = now
            self.tracer.span(
                "rbc.val_to_echo",
                start=state.val_at if state.val_at is not None else now,
                end=now, node=self.node_id, origin=msg.origin, round=msg.round,
            )
        self.network.broadcast(self.node_id, EchoMsg(msg.origin, msg.round, digest_))

    def _on_echo(self, src: NodeId, msg: EchoMsg) -> None:
        state = self.instance(msg.origin, msg.round)
        supporters = state.echoes.get(msg.digest)
        if supporters is None:
            supporters = state.echoes[msg.digest] = set()
        if src in supporters:
            return
        supporters.add(src)
        self._check_echo_quorum(msg.origin, msg.round, msg.digest, state)

    def _check_echo_quorum(
        self, origin: NodeId, round_: Round, digest_: bytes, state: InstanceState
    ) -> None:
        supporters = state.echoes.get(digest_, ())
        if len(supporters) < self.membership.quorum:
            return
        clan_supporters = [p for p in supporters if p in self.membership.clan]
        if len(clan_supporters) < self.membership.clan_quorum:
            return
        if state.ready_digest is None:
            state.ready_digest = digest_
            if self.tracer.enabled:
                self._trace_ready(state, origin, round_)
            self.network.broadcast(self.node_id, ReadyMsg(origin, round_, digest_))
        # §5 optimization: a clan member missing the payload can start the
        # download as soon as the ECHO quorum certifies an honest holder.
        if (
            self.early_fetch
            and self.in_clan
            and digest_ not in state.payloads
            and not state.delivered
        ):
            self._retriever.fetch(origin, round_, digest_, clan_supporters)

    def _trace_ready(self, state, origin: NodeId, round_: Round) -> None:
        """Record the echo→ready phase transition for one instance."""
        now = self.sim.now
        state.ready_at = now
        start = state.echo_at
        if start is None:
            start = state.val_at if state.val_at is not None else now
        self.tracer.span(
            "rbc.echo_to_ready", start=start, end=now,
            node=self.node_id, origin=origin, round=round_,
        )

    def _on_ready(self, src: NodeId, msg: ReadyMsg) -> None:
        state = self.instance(msg.origin, msg.round)
        supporters = state.readies.get(msg.digest)
        if supporters is None:
            supporters = state.readies[msg.digest] = set()
        if src in supporters:
            return
        supporters.add(src)
        count = len(supporters)
        if count >= self.membership.ready_amplify and state.ready_digest is None:
            state.ready_digest = msg.digest
            if self.tracer.enabled:
                self._trace_ready(state, msg.origin, msg.round)
            self.network.broadcast(
                self.node_id, ReadyMsg(msg.origin, msg.round, msg.digest)
            )
        if count >= self.membership.quorum:
            self._try_deliver(msg.origin, msg.round, msg.digest, state)

    # -- delivery and retrieval -----------------------------------------------

    def _try_deliver(
        self, origin: NodeId, round_: Round, digest_: bytes, state: InstanceState
    ) -> None:
        if state.delivered:
            return
        if not self.in_clan:
            self._deliver(origin, round_, state, digest_)
            return
        if digest_ in state.payloads:
            self._deliver(origin, round_, state, digest_)
            return
        # Clan member without the value: pull it from echoing clan members.
        self._awaiting_payload.add((origin, round_))
        holders = [
            p for p in state.echoes.get(digest_, ()) if p in self.membership.clan
        ]
        if holders:
            self._retriever.fetch(origin, round_, digest_, holders)
        # If no holder is known yet, later ECHOs will trigger the fetch via
        # _check_echo_quorum / _on_pulled_payload.

    def _maybe_complete(self, origin: NodeId, round_: Round, state: InstanceState) -> None:
        """Deliver if the READY quorum fired before the payload arrived."""
        if (origin, round_) in self._awaiting_payload and not state.delivered:
            digest_ = state.val_digest
            if digest_ is not None and digest_ in state.payloads:
                self._awaiting_payload.discard((origin, round_))
                self._deliver(origin, round_, state, digest_)

    def _on_pulled_payload(self, origin: NodeId, round_: Round, payload: Any) -> None:
        state = self.instance(origin, round_)
        digest_ = payload_digest(payload)
        state.payloads.setdefault(digest_, payload)
        if (origin, round_) in self._awaiting_payload and not state.delivered:
            ready = state.readies.get(digest_, ())
            if len(ready) >= self.membership.quorum:
                self._awaiting_payload.discard((origin, round_))
                self._deliver(origin, round_, state, digest_)

    def _lookup_payload(self, origin: NodeId, round_: Round) -> Any | None:
        state = self.instances.get((origin, round_))
        if state is None:
            return None
        if state.val_digest is not None and state.val_digest in state.payloads:
            return state.payloads[state.val_digest]
        if state.payloads:
            return next(iter(state.payloads.values()))
        return None
