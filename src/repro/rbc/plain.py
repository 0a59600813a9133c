"""The plain payload policy: the tribe-assisted RBC primitives of §3.

One opaque payload per instance and one fixed clan (:class:`Membership`):

1. The sender sends ⟨VAL, m, r⟩ to clan members and ⟨VAL, H(m), r⟩ to the
   rest of the tribe (signed under the two-round completion).
2. On its first VAL a party multicasts ⟨ECHO, H(m), r⟩ — clan members only
   after holding the full value, so f_c+1 clan ECHOes certify an honest
   holder; everyone else on the digest alone.
3. Once the completion rule of :mod:`repro.rbc.core` certifies H(m), a clan
   member delivers m — pulling it from clan members known to hold it if the
   sender withheld it (:mod:`repro.rbc.retrieval`) — and everyone else
   delivers H(m): exactly one :class:`Delivery` per instance.

The public classes are this policy under each completion:
:mod:`repro.rbc.bracha` (Fig. 2, classic Bracha, the optimistic fast path)
and :mod:`repro.rbc.two_round` (Fig. 3, Abraham et al.).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..crypto.certificates import QuorumCertificate
from ..crypto.signatures import KeyPair, Pki
from ..errors import BroadcastError
from ..net.network import Network
from ..sim.scheduler import Simulator
from ..types import NodeId, Round, parties_of
from .base import DeliverFn, Delivery, Membership, payload_digest
from .core import Instance, RbcCore, ValParts, echoers
from .messages import (
    CertMsg,
    EchoMsg,
    PayloadRequest,
    PayloadResponse,
    ReadyMsg,
    ValMsg,
    echo_statement,
    val_statement,
)


def val_parts(
    origin: NodeId,
    round_: Round,
    payload: Any,
    membership: Membership,
    key: KeyPair | None = None,
) -> ValParts:
    """The VALs an honest ``origin`` sends for ``payload``: the value to the
    clan, its digest to the rest; signed when ``key`` is given."""
    digest_ = payload_digest(payload)
    signature = None
    if key is not None:
        signature = key.sign(val_statement(origin, round_, digest_))
    clan = membership.clan
    return ValParts(
        signature,
        [p for p in membership.all_parties if p in clan],
        [p for p in membership.all_parties if p not in clan],
        ValMsg(origin, round_, digest_, payload, signature),
        ValMsg(origin, round_, digest_, None, signature),
    )


@dataclass(slots=True)
class PlainInstance(Instance):
    #: Full payloads received (via VAL or pull), keyed by digest.
    payloads: dict[bytes, Any] = field(default_factory=dict)


class PlainRbc(RbcCore):
    """Per-node module of the plain policy under ``completion``.

    Signatures are always verified: the primitives have no all-honest
    benchmark shortcut.
    """

    _instance_cls = PlainInstance
    _echo_cls = EchoMsg
    _ready_cls = ReadyMsg
    _cert_cls = CertMsg
    _val_statement = staticmethod(val_statement)
    _echo_statement = staticmethod(echo_statement)

    def __init__(
        self,
        node_id: NodeId,
        membership: Membership,
        network: Network,
        sim: Simulator,
        pki: Pki | None,
        on_deliver: DeliverFn,
        completion: str,
        retry_timeout: float = 0.5,
        fallback_timeout: float = 0.5,
        tracer=None,
    ) -> None:
        super().__init__(
            node_id, membership, network, sim, pki, completion,
            fallback_timeout=fallback_timeout, tracer=tracer,
        )
        self.membership = membership
        self.in_clan = node_id in membership.clan
        self.on_deliver = on_deliver
        self.deliveries: list[Delivery] = []
        self._retriever = self._pull_plane(
            "payload", self._on_pulled_payload, self._lookup_payload, retry_timeout
        )
        network.register(node_id, self.on_message)

    def _clan_of(self, origin: NodeId, round_: Round) -> frozenset[NodeId]:
        return self.membership.clan

    # -- sending -------------------------------------------------------------

    def broadcast(self, payload: Any, round_: Round) -> None:
        """``r_bcast``: disseminate ``payload`` as this node, in ``round_``."""
        if self.tracer.enabled:
            self.tracer.counter(
                "rbc.propose", node=self.node_id, round=round_, time=self.sim.now
            )
        key = self._key if self._signed else None
        self.send_val_parts(
            val_parts(self.node_id, round_, payload, self.membership, key)
        )

    # -- receiving -----------------------------------------------------------

    def dispatch_table(self) -> dict:
        return {
            EchoMsg: self._on_echo,
            ReadyMsg: self._on_ready,
            CertMsg: self._on_cert,
            ValMsg: self._on_val,
            PayloadRequest: self._on_payload_request,
            PayloadResponse: self._on_payload_response,
        }

    def on_message(self, src: NodeId, msg: object) -> None:
        """Network entry point; an RBC-only endpoint knows all its messages."""
        handler = self._dispatch.get(msg.__class__)
        if handler is None:
            raise BroadcastError(f"unexpected message {type(msg).__name__}")
        handler(src, msg)

    def _on_val(self, src: NodeId, msg: ValMsg) -> None:
        origin, round_, digest_ = msg.origin, msg.round, msg.digest
        if src != origin:
            return  # authenticated channels: VAL must come from its origin
        state = self._admit_val(origin, round_, digest_, msg)
        if state is None:
            return
        if msg.payload is not None:
            if payload_digest(msg.payload) != digest_:
                return  # malformed: advertised digest does not match payload
            state.payloads.setdefault(digest_, msg.payload)
        if state.val_digest is None:
            state.val_digest = digest_
        elif state.val_digest != digest_:
            self._conflict(origin, round_, state, digest_)
            return  # equivocation: honour only the first VAL
        if state.echoed:
            # A repeated VAL may carry the value a certified instance awaits.
            certified = state.quorum_digest
            if certified in state.payloads and not state.delivered:
                self._deliver(origin, round_, state, certified)
            return
        # Clan members vouch only for values they hold; others echo on the
        # digest alone.
        if self.in_clan and digest_ not in state.payloads:
            return
        self._vote(origin, round_, state)

    # -- delivery and retrieval -----------------------------------------------

    def _clan_holders(self, parties) -> list[NodeId]:
        return [p for p in parties if p in self.membership.clan]

    def _holder_certified(
        self, origin: NodeId, round_: Round, digest_: bytes, state: PlainInstance
    ) -> None:
        # §5 optimization: a clan member missing the payload starts the
        # download as soon as the ECHO quorum certifies an honest holder.
        if self.in_clan and digest_ not in state.payloads and not state.delivered:
            self._retriever.fetch(
                (origin, round_), self._clan_holders(echoers(state, digest_)), digest_
            )

    def _certified(
        self, origin: NodeId, round_: Round, digest_: bytes, state: PlainInstance,
        cert: QuorumCertificate | None,
    ) -> None:
        if state.delivered:
            return
        if not self.in_clan or digest_ in state.payloads:
            self._deliver(origin, round_, state, digest_)
            return
        # Clan member without the value: pull it from the clan members that
        # vouched for it — the certificate's signers, else the echoers.  With
        # no holder known yet, later ECHOes trigger the fetch.
        if cert is not None:
            vouchers = parties_of(cert.signers)
        else:
            vouchers = echoers(state, digest_)
        holders = self._clan_holders(vouchers)
        if holders:
            self._retriever.fetch((origin, round_), holders, digest_)

    def _deliver(
        self, origin: NodeId, round_: Round, state: PlainInstance, digest_: bytes
    ) -> None:
        self._mark_delivered(origin, round_, state)
        payload = state.payloads.get(digest_)
        delivery = Delivery(origin, round_, payload, digest_, payload is not None)
        self.deliveries.append(delivery)
        self.on_deliver(delivery)

    def _on_pulled_payload(self, origin: NodeId, round_: Round, payload: Any) -> None:
        state = self.instance(origin, round_)
        digest_ = payload_digest(payload)
        state.payloads.setdefault(digest_, payload)
        if state.quorum_digest == digest_ and not state.delivered:
            self._deliver(origin, round_, state, digest_)

    def _lookup_payload(self, origin: NodeId, round_: Round) -> Any | None:
        state = self._live(origin, round_)
        if state is None or not state.payloads:
            return None
        if state.val_digest in state.payloads:
            return state.payloads[state.val_digest]
        return next(iter(state.payloads.values()))

    def delivered(self, origin: NodeId, round_: Round) -> bool:
        state = self._live(origin, round_)
        return bool(state and state.delivered)


__all__ = ["PlainInstance", "PlainRbc", "val_parts"]
