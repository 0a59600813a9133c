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

The tribe-wide part is the digest itself, so it is held once certified; the
payload rules are the core's.  ``PlainRbc(..., completion)`` is the paper's
Fig. 2 (``"bracha"``), Fig. 3 (``"two-round"``) or the optimistic fast path
over ``membership``; with ``Membership.whole_tribe(n)`` it is classic Bracha
or Abraham et al.'s round-optimal RBC, the primitives existing DAG-based BFT
SMR builds on.
"""

from __future__ import annotations

from typing import Any

from ..crypto.signatures import KeyPair, Pki
from ..errors import BroadcastError
from ..net.network import Network
from ..sim.scheduler import Simulator
from ..types import NodeId, Round
from .base import DeliverFn, Delivery, Membership, payload_digest
from .core import Instance, RbcCore, ValParts
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


class PlainRbc(RbcCore):
    """Per-node module of the plain policy under ``completion``.

    Signatures are always verified: the primitives have no all-honest
    benchmark shortcut.
    """

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
        self._payload_pull = self._pull_plane(
            "payload", self._on_pulled_payload, self._lookup_payload
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
        if not super().on_message(src, msg):
            raise BroadcastError(f"unexpected message {type(msg).__name__}")

    def _on_val(self, src: NodeId, msg: ValMsg) -> None:
        origin, round_, digest_ = msg.origin, msg.round, msg.digest
        if src != origin:
            return  # authenticated channels: VAL must come from its origin
        state = self._admit_val(origin, round_, digest_, msg)
        if state is None:
            return
        payload = msg.payload
        if payload is not None and payload_digest(payload) != digest_:
            return  # malformed: advertised digest does not match payload
        if self._follow_val(origin, round_, state, digest_):
            self._take_payload(origin, round_, state, payload)

    # -- the tribe-wide part: the digest ----------------------------------------

    def _payload_want(
        self, origin: NodeId, round_: Round, state: Instance, digest_: bytes
    ) -> bytes | None:
        return digest_ if self.in_clan else None

    def _deliver_head(self, origin: NodeId, round_: Round, state: Instance) -> None:
        # A clan member's one Delivery carries m: it waits for the payload.
        if not self.in_clan:
            self._deliver_payload(origin, round_, state)

    def _deliver_payload(self, origin: NodeId, round_: Round, state: Instance) -> None:
        """The one :class:`Delivery`: m on the clan, H(m) elsewhere."""
        self._mark_delivered(origin, round_, state)
        payload = state.payload if self.in_clan else None
        delivery = Delivery(origin, round_, payload, state.quorum_digest, self.in_clan)
        self.deliveries.append(delivery)
        self.on_deliver(delivery)

    def delivered(self, origin: NodeId, round_: Round) -> bool:
        state = self._live(origin, round_)
        if state is None:
            return self.retired_payload(origin, round_) is not None
        return state.delivered


__all__ = ["PlainRbc", "val_parts"]
