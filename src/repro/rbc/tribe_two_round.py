"""Two-round tribe-assisted reliable broadcast, Fig. 3 (signature-based).

Good-case optimal: two message delays from sender to delivery.

1. The sender signs and sends ⟨VAL, m, r⟩ₖ to clan members and
   ⟨VAL, H(m), r⟩ₖ to the rest.
2. On its first VAL, a party multicasts a *signed* ⟨ECHO, H(m), r⟩ᵢ — clan
   members only after holding the full value.
3. On 2f+1 signed ECHOs with at least f_c+1 from the clan, a party forms the
   certificate EC_r(m) (a BLS multi-signature + signer bitmap), multicasts
   it, and delivers: clan members deliver m (pulling it from a clan signer of
   the certificate if missing), everyone else delivers H(m).
4. Receiving a valid EC_r(m) also delivers immediately.
"""

from __future__ import annotations

from typing import Any

from ..crypto.certificates import QuorumCertificate, build_certificate, verify_certificate
from ..crypto.hashing import digest as compute_digest
from ..crypto.signatures import Pki
from ..errors import BroadcastError
from ..net.network import Network
from ..sim.scheduler import Simulator
from ..types import NodeId, Round
from .base import DeliverFn, InstanceState, Membership, RbcProtocol, payload_digest
from .messages import CertMsg, EchoMsg, PayloadRequest, PayloadResponse, ValMsg
from .retrieval import Responder, Retriever


def echo_statement(origin: NodeId, round_: Round, digest_: bytes) -> bytes:
    """The statement an ECHO signature covers."""
    return compute_digest(b"ECHO", origin, round_, digest_)


def val_statement(origin: NodeId, round_: Round, digest_: bytes) -> bytes:
    """The statement the sender's VAL signature covers."""
    return compute_digest(b"VAL", origin, round_, digest_)


class TribeTwoRoundRbc(RbcProtocol):
    """Per-node module for the Fig. 3 protocol."""

    def __init__(
        self,
        node_id: NodeId,
        membership: Membership,
        network: Network,
        sim: Simulator,
        pki: Pki,
        on_deliver: DeliverFn,
        retry_timeout: float = 0.5,
        register: bool = True,
        tracer=None,
    ) -> None:
        super().__init__(
            node_id, membership, network, on_deliver, register=register, tracer=tracer
        )
        self.sim = sim
        self.pki = pki
        self._key = pki.key(node_id)
        self._retriever = Retriever(
            node_id, network, sim, self._on_pulled_payload, retry_timeout
        )
        self._responder = Responder(node_id, network, self._lookup_payload)
        self._awaiting_payload: dict[tuple[NodeId, Round], bytes] = {}

    # -- sending -------------------------------------------------------------

    def broadcast(self, payload: Any, round_: Round) -> None:
        digest_ = payload_digest(payload)
        if self.tracer.enabled:
            self.tracer.counter(
                "rbc.propose", node=self.node_id, round=round_, time=self.sim.now
            )
        signature = self._key.sign(val_statement(self.node_id, round_, digest_))
        clan = self.membership.clan
        in_clan = [p for p in self.membership.all_parties if p in clan]
        outside = [p for p in self.membership.all_parties if p not in clan]
        self.network.multicast(
            self.node_id,
            in_clan,
            ValMsg(self.node_id, round_, digest_, payload, signature),
        )
        if outside:
            self.network.multicast(
                self.node_id,
                outside,
                ValMsg(self.node_id, round_, digest_, None, signature),
            )

    # -- receiving -----------------------------------------------------------

    def on_message(self, src: NodeId, msg: Any) -> None:
        if isinstance(msg, ValMsg):
            self._on_val(src, msg)
        elif isinstance(msg, EchoMsg):
            self._on_echo(src, msg)
        elif isinstance(msg, CertMsg):
            self._on_cert(src, msg)
        elif isinstance(msg, PayloadRequest):
            self._responder.on_request(src, msg)
        elif isinstance(msg, PayloadResponse):
            self._retriever.on_response(src, msg)
        else:
            raise BroadcastError(f"unexpected message {type(msg).__name__}")

    def _on_val(self, src: NodeId, msg: ValMsg) -> None:
        if src != msg.origin:
            return
        if msg.signature is None or not self.pki.verify(msg.signature):
            return
        if msg.signature.message_digest != val_statement(msg.origin, msg.round, msg.digest):
            return
        if msg.signature.signer != msg.origin:
            return
        state = self.instance(msg.origin, msg.round)
        if self.tracer.enabled and state.val_at is None:
            state.val_at = self.sim.now
        digest_ = msg.digest
        if msg.payload is not None:
            if payload_digest(msg.payload) != digest_:
                return
            state.payloads.setdefault(digest_, msg.payload)
        if state.val_digest is None:
            state.val_digest = digest_
        elif state.val_digest != digest_:
            state.conflicting.add(digest_)
            return
        if state.echoed:
            self._maybe_complete(msg.origin, msg.round, state)
            return
        if self.in_clan and digest_ not in state.payloads:
            return  # clan members vouch only for values they hold
        state.echoed = True
        if self.tracer.enabled:
            now = self.sim.now
            state.echo_at = now
            self.tracer.span(
                "rbc.val_to_echo",
                start=state.val_at if state.val_at is not None else now,
                end=now, node=self.node_id, origin=msg.origin, round=msg.round,
            )
        echo_sig = self._key.sign(echo_statement(msg.origin, msg.round, digest_))
        self.network.broadcast(
            self.node_id, EchoMsg(msg.origin, msg.round, digest_, echo_sig)
        )

    def _on_echo(self, src: NodeId, msg: EchoMsg) -> None:
        if msg.signature is None or msg.signature.signer != src:
            return
        if msg.signature.message_digest != echo_statement(msg.origin, msg.round, msg.digest):
            return
        if not self.pki.verify(msg.signature):
            return
        state = self.instance(msg.origin, msg.round)
        sigs = state.echo_sigs.get(msg.digest)
        if sigs is None:
            sigs = state.echo_sigs[msg.digest] = {}
        if src in sigs:
            return
        sigs[src] = msg.signature
        supporters = state.echoes.get(msg.digest)
        if supporters is None:
            supporters = state.echoes[msg.digest] = set()
        supporters.add(src)
        self._check_echo_quorum(msg.origin, msg.round, msg.digest, state)

    def _check_echo_quorum(
        self, origin: NodeId, round_: Round, digest_: bytes, state: InstanceState
    ) -> None:
        if state.cert_sent or state.delivered:
            return
        supporters = state.echoes.get(digest_, ())
        if len(supporters) < self.membership.quorum:
            return
        clan_supporters = [p for p in supporters if p in self.membership.clan]
        if len(clan_supporters) < self.membership.clan_quorum:
            return
        cert = build_certificate(list(state.echo_sigs[digest_].values()))
        state.cert_sent = True
        self.network.broadcast(
            self.node_id, CertMsg(origin, round_, digest_, cert, self.membership.n)
        )
        self._try_deliver(origin, round_, digest_, state, cert)

    def _on_cert(self, src: NodeId, msg: CertMsg) -> None:
        state = self.instance(msg.origin, msg.round)
        if state.delivered:
            return
        if not verify_certificate(
            self.pki,
            msg.cert,
            quorum=self.membership.quorum,
            clan=self.membership.clan,
            clan_quorum=self.membership.clan_quorum,
        ):
            return
        if msg.cert.message_digest != echo_statement(msg.origin, msg.round, msg.digest):
            return
        # Forward the certificate once so every honest party eventually holds
        # it even if the original quorum-former was the only honest multicaster.
        if not state.cert_sent:
            state.cert_sent = True
            self.network.broadcast(self.node_id, msg)
        self._try_deliver(msg.origin, msg.round, msg.digest, state, msg.cert)

    # -- delivery and retrieval -----------------------------------------------

    def _try_deliver(
        self,
        origin: NodeId,
        round_: Round,
        digest_: bytes,
        state: InstanceState,
        cert: QuorumCertificate,
    ) -> None:
        if state.delivered:
            return
        if not self.in_clan:
            self._deliver(origin, round_, state, digest_)
            return
        if digest_ in state.payloads:
            self._deliver(origin, round_, state, digest_)
            return
        self._awaiting_payload[(origin, round_)] = digest_
        holders = [p for p in cert.signers if p in self.membership.clan]
        self._retriever.fetch(origin, round_, digest_, holders)

    def _maybe_complete(self, origin: NodeId, round_: Round, state: InstanceState) -> None:
        digest_ = self._awaiting_payload.get((origin, round_))
        if digest_ is not None and digest_ in state.payloads and not state.delivered:
            del self._awaiting_payload[(origin, round_)]
            self._deliver(origin, round_, state, digest_)

    def _on_pulled_payload(self, origin: NodeId, round_: Round, payload: Any) -> None:
        state = self.instance(origin, round_)
        digest_ = payload_digest(payload)
        state.payloads.setdefault(digest_, payload)
        expected = self._awaiting_payload.get((origin, round_))
        if expected == digest_ and not state.delivered:
            del self._awaiting_payload[(origin, round_)]
            self._deliver(origin, round_, state, digest_)

    def _lookup_payload(self, origin: NodeId, round_: Round) -> Any | None:
        state = self.instances.get((origin, round_))
        if state is None or not state.payloads:
            return None
        if state.val_digest is not None and state.val_digest in state.payloads:
            return state.payloads[state.val_digest]
        return next(iter(state.payloads.values()))
