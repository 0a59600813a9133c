"""The reliable-broadcast instance state machine, written once.

Every RBC in this repository is this voting core under one of three
*completion rules*, specialised by a *payload policy*:

==============  ==========================================================
completion      a digest is certified when ...
==============  ==========================================================
``two-round``   2f+1 *signed* ECHOes (≥ f_c+1 from the instance's clan)
                form the certificate EC_r(m), which is multicast once and
                forwarded once by every party that first sees it (Fig. 3;
                Abraham et al.'s good-case 2-round RBC).
``bracha``      the same ECHO quorum, unsigned, triggers READY; f+1 READYs
                amplify; 2f+1 READYs certify (Fig. 2).
``optimistic``  *all n* parties ECHO one digest — 2δ, no READY — else the
                instance falls back to the ``bracha`` rule (Shrestha, Losa
                and Yu's optimistic fast path).
==============  ==========================================================

An optimistic instance falls back when the all-to-all agreement is no
longer attainable or timely: **conflict** (a second digest shows up in a
VAL or an ECHO), **timeout** (the per-instance timer, armed on the first
VAL or ECHO, fires first) or **ready** (any READY arrives: someone else
already fell back, so join its quorum at network speed).  Safety of the
fast path: delivering d on all-n ECHOes means every honest party echoed d,
and parties echo at most once, so no conflicting digest can ever gather an
ECHO (hence READY) quorum — fast and fallback deliveries cannot diverge.
Totality: parties that miss the all-n condition fall back by timer, the
2f+1 honest ECHOes they already share restart the READY path, and every
fast-path deliverer answers an incoming READY with its own.

The completion is resolved to two booleans at construction; handlers
branch on those, never on the mode string.  The clan-payload rules are
written here once as well, for every policy: when a clan member may ECHO
(:meth:`RbcCore._maybe_echo`), what a VAL's or a pulled payload does
(:meth:`RbcCore._take_payload`), when the payload is delivered and whom it
is pulled from (:meth:`RbcCore._settle`, :meth:`RbcCore._pull`), and when a
delivered instance retires (:meth:`RbcCore._finished`).  A payload policy —
:class:`repro.rbc.plain.PlainRbc`, and the clan-only block and chunked
prefix policies of :mod:`repro.consensus.vertex_rbc` — supplies

* the message classes and signed statements (class attributes below);
* ``_clan_of`` — which clan's ECHOes gate an instance;
* the tribe-wide part: ``_on_val`` parses a VAL; ``_payload_want`` names
  the payload digest the held part commits this node to (None: none);
  ``_certified``/``_head_certified`` fetch and check it; and
  ``_deliver_head``/``_deliver_payload`` hand both parts on.

An instance is *live* from the first message for its key, *finished* once
nothing it may still receive makes it send, and *retired* when the GC floor
passes its round while it is finished (:meth:`RbcCore.gc_below`).  Live
instances sit in one table per round, ``{round: {origin: Instance}}``: a
row is made once per round, so no instance costs a key tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..crypto.certificates import QuorumCertificate, build_certificate, verify_certificate
from ..crypto.signatures import Pki, Signature
from ..errors import BroadcastError
from ..net.message import Message
from ..net.network import Network
from ..sim.scheduler import EventHandle, Simulator
from ..types import NodeId, Round, clan_response_quorum, parties_of
from .base import InstanceKey, payload_digest
from .messages import CertMsg, EchoMsg, PayloadRequest, PayloadResponse, ReadyMsg
from .retrieval import RequestFn, Responder, Retriever

COMPLETIONS = ("two-round", "bracha", "optimistic")

#: Party ids are recorded one byte each in ``Instance.echo_order``, and a
#: quorum of them iterates as a ``set`` in ascending order (see
#: :func:`echoers`) for every tribe up to this size.
MAX_PARTIES = 256


@dataclass(slots=True)
class Tally:
    """ECHO/READY votes for a digest other than the instance's first, whose
    votes live inline on the :class:`Instance` in fields of these names."""

    echo_mask: int = 0
    echo_order: bytearray | None = None
    echo_sigs: list[Signature] | None = None
    ready_mask: int = 0


@dataclass(frozen=True, slots=True)
class Clan:
    """One clan as the instances it gates read it, built once per clan."""

    members: frozenset[NodeId]
    #: f_c + 1: the ECHOes the echo-quorum rule requires from the clan.
    quorum: int
    #: The members as a supporter mask (bit p is party p).
    mask: int


@dataclass(slots=True)
class Instance:
    """Voting state of one ``(origin, round)`` instance.

    ECHO/READY tallies are per digest: an equivocating sender may split the
    network across digests, and quorum checks must never mix them.  An
    honest run sees one digest per instance, and there are n² instances per
    round, so that digest's tally is kept inline rather than in a
    per-digest container.  Policies subclass this with their tribe-wide
    part.
    """

    #: Digest of the first VAL seen — the only one this node ever vouches for.
    val_digest: bytes | None = None
    echoed: bool = False
    ready_digest: bytes | None = None
    cert_sent: bool = False
    #: The digest the completion rule certified (None until it did).
    quorum_digest: bytes | None = None
    #: The policy delivered the certified value (Integrity: at most once).
    delivered: bool = False
    #: The clan whose ECHOes gate this instance (None: no clan condition).
    clan: Clan | None = None
    #: The clan-only payload held: the first VAL's, or a pulled one.
    payload: Any = None
    #: The payload is delivered, or the certified instance owes this node
    #: none: nothing the payload rules do is left.
    payload_done: bool = False
    #: The first digest any ECHO or READY named.  Its votes live in the
    #: four fields below, the same four a :class:`Tally` holds for every
    #: further digest (see :func:`tally_of`).
    tally_digest: bytes | None = None
    #: ECHO supporters, as a mask (bit p: party p echoed).
    echo_mask: int = 0
    #: The same supporters in ECHO-arrival order, one byte each, until they
    #: are ``quorum_size(n)``: the order pulls ask holders in derives from
    #: it below that size, and from the mask from there on (see
    #: :func:`echoers`).
    echo_order: bytearray | None = None
    #: Two-round completion: signatures on the ECHO statement, in arrival
    #: order, kept only until the certificate is built or received.
    echo_sigs: list[Signature] | None = None
    #: READY supporters, as a mask.
    ready_mask: int = 0
    #: ``{digest: Tally}`` of the digests after the first; None until a
    #: second digest shows up, which only an equivocating sender causes.
    others: dict[bytes, Tally] | None = None
    #: Other digests seen in conflicting VALs (tests and forensics read this;
    #: the protocol itself honours only the first).  The shared empty
    #: frozenset until the first conflict replaces it.
    conflicting: frozenset[bytes] = frozenset()
    # Optimistic completion: has this instance abandoned the fast path, and
    # its armed fallback timer.
    pessimistic: bool = False
    fallback_timer: EventHandle | None = None
    # Phase timestamps, populated only when tracing is enabled: first VAL
    # seen, own ECHO sent, own READY sent.
    val_at: float | None = None
    echo_at: float | None = None
    ready_at: float | None = None
    #: Causal trace context of this instance (None when unsampled or tracing
    #: is off); inherited from the VAL and stamped onto what this node sends.
    ctx: Any | None = None


@dataclass(frozen=True, slots=True)
class ValParts:
    """What an honest sender transmits for one instance, in send order.

    A policy's ``val_parts`` builds it and its ``broadcast`` sends exactly
    this through :meth:`RbcCore.send_val_parts`; Byzantine senders perturb
    it instead of rebuilding VALs by hand.
    """

    signature: Signature | None
    #: Parties sent ``full`` (the clan-only payload rides along) ...
    holders: list[NodeId]
    #: ... and parties sent ``bare`` (the tribe-wide part alone).
    others: list[NodeId]
    full: Message
    bare: Message
    #: Chunked prefix only: the block, as chunk messages for ``holders``.
    chunks: tuple[Message, ...] = ()


def tally_of(state: Instance, digest_: bytes) -> Instance | Tally | None:
    """The votes for ``digest_``: the instance itself when it is the first
    digest, else its overflow tally (None when no vote named it)."""
    if state.tally_digest == digest_:
        return state
    others = state.others
    return others.get(digest_) if others is not None else None


def _claim(state: Instance, digest_: bytes) -> Instance | Tally:
    """:func:`tally_of`'s miss path for a vote: the first digest claims the
    inline slot, any other gets (or finds) its overflow tally."""
    if state.tally_digest is None:
        state.tally_digest = digest_
        return state
    others = state.others
    if others is None:
        others = state.others = {}
    tally = others.get(digest_)
    if tally is None:
        tally = others[digest_] = Tally()
    return tally


def tallies(state: Instance) -> list[tuple[bytes, Instance | Tally]]:
    """Every ``(digest, tally)`` of the instance, the inline one first."""
    if state.tally_digest is None:
        return []
    pairs = [(state.tally_digest, state)]
    if state.others is not None:
        pairs += state.others.items()
    return pairs


def _echoed(state: Instance) -> list[tuple[bytes, Instance | Tally]]:
    """The ``(digest, tally)`` pairs that hold at least one ECHO."""
    return [pair for pair in tallies(state) if pair[1].echo_mask]


def _drop_sigs(state: Instance) -> None:
    """The certificate is sent or forwarded: no digest's ECHO signatures
    are read again."""
    state.echo_sigs = None
    if state.others is not None:
        for tally in state.others.values():
            tally.echo_sigs = None


def echoers(state: Instance, digest_: bytes) -> list[NodeId]:
    """The parties that echoed ``digest_``, in the order a pull asks them.

    Every holder list drawn from the ECHO tally is built here, and its
    order is part of the simulation: it is the iteration order of a ``set``
    filled in ECHO-arrival order — arrival order among ids that share a
    slot (``{9, 1}`` iterates as ``[9, 1]``), ascending ids once the table
    has spread out.  At ``quorum_size(n)`` distinct ids below n it has, for
    every n ≤ 256 (the table then has more slots than n, so each id owns
    its slot), which is why the tally drops its arrival record there and
    this walks the mask instead.
    """
    tally = tally_of(state, digest_)
    if tally is None:
        return []
    order = tally.echo_order
    return list(set(order)) if order is not None else parties_of(tally.echo_mask)


class RbcCore:
    """Per-node RBC module: instance table, tallies and completion rules."""

    # -- payload-policy surface ------------------------------------------------

    _instance_cls: type[Instance] = Instance
    _echo_cls: type[EchoMsg]
    _ready_cls: type[ReadyMsg]
    _cert_cls: type[CertMsg]
    #: ``(origin, round, digest) -> bytes`` statements the signatures cover.
    _val_statement: Callable[[NodeId, Round, bytes], bytes]
    _echo_statement: Callable[[NodeId, Round, bytes], bytes]

    def _clan_of(self, origin: NodeId, round_: Round) -> frozenset[NodeId] | None:
        raise NotImplementedError

    def dispatch_table(self) -> dict:
        """Exact-class ``{message class: handler}`` table of this module."""
        raise NotImplementedError

    def _payload_want(
        self, origin: NodeId, round_: Round, state: Instance, digest_: bytes
    ) -> bytes | None:
        """The digest of the clan-only payload this node must hold once
        ``digest_`` is certified (None: it owes none, or cannot tell yet)."""
        raise NotImplementedError

    def _certified(
        self, origin: NodeId, round_: Round, digest_: bytes, state: Instance,
        cert: QuorumCertificate | None,
    ) -> None:
        """The completion rule certified ``digest_``."""
        self._settle(origin, round_, state, cert.signers if cert is not None else 0)

    def _head_certified(self, state: Instance) -> bool:
        """Does this node hold the certified tribe-wide part?"""
        return True

    def _deliver_head(self, origin: NodeId, round_: Round, state: Instance) -> None:
        raise NotImplementedError

    def _deliver_payload(self, origin: NodeId, round_: Round, state: Instance) -> None:
        raise NotImplementedError

    def _on_retire(self, origin: NodeId, round_: Round, state: Instance) -> tuple:
        """The instance leaves the table: what the pull servers answer for it
        from now on, ``(tribe-wide part, payload)`` (see
        :meth:`retired_payload`)."""
        return None, state.payload

    # -- construction ----------------------------------------------------------

    def __init__(
        self,
        node_id: NodeId,
        committee,
        network: Network,
        sim: Simulator,
        pki: Pki | None,
        completion: str,
        verify_signatures: bool = True,
        fallback_timeout: float = 0.5,
        tracer=None,
    ) -> None:
        """``committee`` supplies ``n``, ``quorum`` and ``ready_amplify``
        (a :class:`~repro.rbc.base.Membership` or a ``ClanConfig``)."""
        if completion not in COMPLETIONS:
            raise BroadcastError(f"unknown RBC completion {completion!r}")
        if committee.n > MAX_PARTIES:
            raise BroadcastError(
                f"RBC tallies record party ids in one byte: n={committee.n} "
                f"exceeds {MAX_PARTIES}"
            )
        self.node_id = node_id
        self.n = committee.n
        self.network = network
        self.sim = sim
        #: Defaults to the network's tracer so RBC spans and net.hop records
        #: land in the same trace without extra wiring.
        self.tracer = tracer if tracer is not None else network.tracer
        self.pki = pki
        self._signed = completion == "two-round"
        self._optimistic = completion == "optimistic"
        self._key = pki.key(node_id) if pki is not None else None
        self.verify = verify_signatures
        #: How long an optimistic instance waits for the all-to-all ECHO
        #: agreement before switching to the READY path.  Pick it above one
        #: retransmission round-trip of the underlying transport so transient
        #: loss the reliable channel can mask does not force a fallback.
        self.fallback_timeout = fallback_timeout
        self._quorum = committee.quorum
        self._amplify = committee.ready_amplify
        #: Live instances, ``{round: {origin: Instance}}``.
        self.instances: dict[Round, dict[NodeId, Instance]] = {}
        #: Retired instances, ``{round: {origin: payload}}``: their keys, and
        #: what the policy's pull servers still answer for them (see
        #: :meth:`gc_below`).
        self._retired: dict[Round, dict[NodeId, Any]] = {}
        #: The GC floor so far, the keys below it whose instances were not
        #: finished when it passed them, and the count of those keys at which
        #: they are looked at again.
        self._floor: Round = 0
        self._lingering: list[InstanceKey] = []
        self._recheck = 0
        #: Members -> the clan record every instance of the clan shares.
        self._clans: dict[frozenset[NodeId], Clan] = {}
        # Optimistic-completion statistics: deliveries through each path and
        # fallback-trigger counts by reason ("conflict"/"timeout"/"ready").
        self.fast_deliveries = 0
        self.fallback_deliveries = 0
        self.fallbacks: dict[str, int] = {}
        #: Forensics hook fired when a conflicting digest for an (origin,
        #: round) instance is first observed: (origin, round, n_conflicting).
        self.on_equivocation: Callable[[NodeId, Round, int], None] | None = None
        #: Every pull loop this module runs, in creation order: crash
        #: suspend and recovery walk this one list.
        self._loops: list[Retriever] = []
        #: Payload planes by channel: (loop, server, on_payload).
        self._pulls: dict[str, tuple[Retriever, Responder, Callable]] = {}
        # ECHO/READY are the n²-per-round fan-out messages and the handlers
        # below retain only field values (supporter bits, signatures, digests),
        # never the message object — so both classes satisfy the arena's
        # pooling contract.  CERT does not: _on_cert rebroadcasts the object.
        self._arena = getattr(network, "arena", None)
        if self._arena is not None:
            self._arena.register(self._echo_cls)
            self._arena.register(self._ready_cls)
        self._dispatch = self.dispatch_table()

    # -- plumbing ----------------------------------------------------------------

    def instance(self, origin: NodeId, round_: Round) -> Instance:
        row = self.instances.get(round_)
        if row is None:
            row = self.instances[round_] = {}
        state = row.get(origin)
        if state is None:
            state = row[origin] = self._instance_cls()
            if round_ < self._floor:
                self._lingering.append((origin, round_))
            members = self._clan_of(origin, round_)
            if members is not None:
                clan = self._clans.get(members)
                if clan is None:
                    clan = self._clans[members] = Clan(
                        members, clan_response_quorum(len(members)),
                        sum(1 << p for p in members),
                    )
                state.clan = clan
        return state

    def _live(self, origin: NodeId, round_: Round) -> Instance | None:
        """The live instance at ``(origin, round_)``, or None."""
        row = self.instances.get(round_)
        return row.get(origin) if row is not None else None

    def _open(self, origin: NodeId, round_: Round) -> Instance | None:
        """The miss path of the voting handlers: the instance, created now,
        or None when it was retired (the message is then dropped)."""
        retired = self._retired.get(round_)
        if retired is not None and origin in retired:
            return None
        return self.instance(origin, round_)

    def retired_payload(self, origin: NodeId, round_: Round) -> Any | None:
        """What the policy kept of a retired instance (None unless the
        instance at ``(origin, round_)`` retired)."""
        retired = self._retired.get(round_)
        return retired.get(origin) if retired is not None else None

    def on_message(self, src: NodeId, msg: object) -> bool:
        """Dispatch a network message; returns False if it isn't ours."""
        handler = self._dispatch.get(msg.__class__)
        if handler is None:
            return False
        handler(src, msg)
        return True

    def _pull_loop(self, request: RequestFn) -> Retriever:
        """Open a pull loop whose attempts ``request`` sends."""
        loop = Retriever(self.sim, request)
        self._loops.append(loop)
        return loop

    def _pull_plane(
        self,
        channel: str,
        on_payload: Callable[[NodeId, Round, Any, int], None],
        lookup: Callable[[NodeId, Round], Any | None],
    ) -> Retriever:
        """Open a payload plane (§3: download a missing value from its
        holders); its fetches ``want`` the payload digest, and ``on_payload``
        gets the signer mask the fetch carried."""
        node_id, send = self.node_id, self.network.send

        def request(key: InstanceKey, target: NodeId, digest_: bytes) -> bool:
            send(node_id, target, PayloadRequest(key[0], key[1], digest_, channel))
            return True

        loop = self._pull_loop(request)
        responder = Responder(self.node_id, self.network, lookup, channel=channel)
        self._pulls[channel] = (loop, responder, on_payload)
        return loop

    def _on_payload_request(self, src: NodeId, msg: PayloadRequest) -> None:
        plane = self._pulls.get(msg.channel)
        if plane is not None:
            plane[1].on_request(src, msg)

    def _on_payload_response(self, src: NodeId, msg: PayloadResponse) -> None:
        plane = self._pulls.get(msg.channel)
        if plane is None:
            return
        loop, _, on_payload = plane
        key = (msg.origin, msg.round)
        want = loop.wanted(key)
        if want is None or payload_digest(msg.payload) != want:
            return  # unsolicited, or corrupted/adversarial: keep retrying
        on_payload(msg.origin, msg.round, msg.payload, loop.done(key))

    def send_val_parts(self, parts: ValParts) -> None:
        """Transmit an honest sender's VALs (and chunks) in protocol order."""
        net = self.network
        if parts.holders:
            net.multicast(self.node_id, parts.holders, parts.full)
        if parts.others:
            net.multicast(self.node_id, parts.others, parts.bare)
        for chunk in parts.chunks:
            net.multicast(self.node_id, parts.holders, chunk)

    # -- VAL: admission and the vote ----------------------------------------------

    def _admit_val(
        self, origin: NodeId, round_: Round, digest_: bytes, msg: Message
    ) -> Instance | None:
        """Common VAL admission: sender signature, instance, timers.

        The policy has already checked ``src == origin`` (authenticated
        channels) and its own well-formedness rules.  Returns the instance,
        or None when the VAL must be ignored.
        """
        if self._signed:
            signature = msg.signature
            # The signer is checked even when signatures are not: a VAL
            # signed by another party is malformed whatever the setting.
            if signature is None or signature.signer != origin:
                return None
            if self.verify:
                if not self.pki.verify(signature):
                    return None
                if signature.message_digest != self._val_statement(origin, round_, digest_):
                    return None
        state = self._live(origin, round_)
        if state is None:
            state = self._open(origin, round_)
            if state is None:
                return None
        if self.tracer.enabled:
            if state.val_at is None:
                state.val_at = self.sim.now
            if state.ctx is None:
                state.ctx = getattr(msg, "trace_ctx", None)
        if self._optimistic and not state.pessimistic and not state.delivered:
            self._arm_fallback(origin, round_, state)
        return state

    def _follow_val(
        self, origin: NodeId, round_: Round, state: Instance, digest_: bytes
    ) -> bool:
        """Honour the first VAL only: True when ``digest_`` is its digest.  A
        VAL for a second digest is recorded, never followed."""
        if state.val_digest is None:
            state.val_digest = digest_
            return True
        if state.val_digest == digest_:
            return True
        state.conflicting |= {digest_}
        if self.on_equivocation is not None:
            self.on_equivocation(origin, round_, len(state.conflicting))
        if self._optimistic and not state.pessimistic:
            self._fall_back(origin, round_, state, "conflict")
        return False

    def _vote(self, origin: NodeId, round_: Round, state: Instance) -> None:
        """Multicast this node's one ECHO for ``state.val_digest``."""
        state.echoed = True
        tracer = self.tracer
        if tracer.enabled:
            now = state.echo_at = self.sim.now
            start = state.val_at if state.val_at is not None else now
            self._phase_span("rbc.val_to_echo", start, origin, round_, state)
        digest_ = state.val_digest
        signature = None
        if self._signed:
            signature = self._key.sign(self._echo_statement(origin, round_, digest_))
        echo = self._arena.acquire(self._echo_cls) if self._arena is not None else None
        if echo is None:
            echo = self._echo_cls(origin, round_, digest_, signature)
        else:
            echo.origin = origin
            echo.round = round_
            echo.digest = digest_
            echo.signature = signature
        # Quorum-phase broadcasts are stamped only at sample=1.0: in sampled
        # mode each stamp would route an n-wide broadcast down the traced
        # slow path per sampled instance, and the causal tree is already
        # complete via the VAL/chunk propagation plus local phase spans.
        if state.ctx is not None and tracer.verbose:
            echo.trace_ctx = state.ctx
        self.network.broadcast(self.node_id, echo)

    # -- ECHO: tally and the echo-quorum rule ---------------------------------------

    def _on_echo(self, src: NodeId, msg: EchoMsg) -> None:
        digest_ = msg.digest
        if self._signed:
            signature = msg.signature
            if signature is None or signature.signer != src:
                return
            if self.verify:
                expected = self._echo_statement(msg.origin, msg.round, digest_)
                if signature.message_digest != expected:
                    return
                if not self.pki.verify(signature):
                    return
        # Inlined _live(): ECHOes are the n²-per-round traffic, and after
        # the first one the instance always exists.
        try:
            state = self.instances[msg.round][msg.origin]
        except KeyError:
            state = self._open(msg.origin, msg.round)
            if state is None:
                return
        # An int mask and a bytearray, no container: ECHOes are n³ per round
        # and every instance lives at least until the GC floor passes its
        # round.  The hit path is the instance's own inline tally.
        tally = state if state.tally_digest == digest_ else _claim(state, digest_)
        bit = 1 << src
        supporters = tally.echo_mask
        if supporters & bit:
            return
        supporters = tally.echo_mask = supporters | bit
        order = tally.echo_order
        # The arrival record lasts until the quorum, quorum_size(n)
        # supporters; echoers walks the mask from there on.
        if order is not None:
            if len(order) + 1 < self._quorum:
                order.append(src)
            else:
                tally.echo_order = None
        elif supporters == bit and self._quorum > 1:
            tally.echo_order = bytearray((src,))
        if self._signed:
            if state.cert_sent:
                # The quorum already acted, but a member still missing the
                # certified payload learns one more holder.
                if not state.payload_done and state.quorum_digest == digest_:
                    self._settle(msg.origin, msg.round, state)
                return
            sigs = tally.echo_sigs
            if sigs is None:
                tally.echo_sigs = [signature]
            else:
                sigs.append(signature)
        elif self._optimistic and not state.pessimistic:
            if not state.delivered and state.fallback_timer is None:
                self._arm_fallback(msg.origin, msg.round, state)
            if state.conflicting or (
                state.others is not None and len(_echoed(state)) > 1
            ):
                # _fall_back replays the quorum rule per digest.
                self._fall_back(msg.origin, msg.round, state, "conflict")
            elif supporters.bit_count() == self.n and not state.delivered:
                # Fast path: all n parties echoed one digest.  Every clan
                # member echoed only after holding the payload, and the all-n
                # set includes this node, so delivery needs no pull.
                self._complete(msg.origin, msg.round, digest_, state)
            return
        self._check_echo_quorum(msg.origin, msg.round, digest_, state, tally)

    def _check_echo_quorum(
        self, origin: NodeId, round_: Round, digest_: bytes, state: Instance,
        tally: Instance | Tally,
    ) -> None:
        """The echo-quorum rule on ``digest_``'s ``tally``: 2f+1 ECHOes,
        ≥ f_c+1 of them from the clan — so an honest clan member provably
        holds the payload."""
        supporters = tally.echo_mask
        if supporters.bit_count() < self._quorum:
            return
        clan = state.clan
        if clan is not None and (supporters & clan.mask).bit_count() < clan.quorum:
            return
        if self._signed:
            if state.cert_sent:
                return
            state.cert_sent = True
            cert = build_certificate(tally.echo_sigs)
            _drop_sigs(state)
            cert_msg = self._cert_cls(origin, round_, digest_, cert, self.n)
            if state.ctx is not None and self.tracer.verbose:
                cert_msg.trace_ctx = state.ctx
            self.network.broadcast(self.node_id, cert_msg)
            self._complete(origin, round_, digest_, state, cert)
        else:
            if state.ready_digest is None:
                self._send_ready(origin, round_, digest_, state)
            self._holder_certified(origin, round_, digest_, state)

    # -- CERT and READY -----------------------------------------------------------

    def _on_cert(self, src: NodeId, msg: CertMsg) -> None:
        if not self._signed:
            return
        # Inlined _live(): every party forwards the certificate once, so
        # CERTs are n² per round too.
        try:
            state = self.instances[msg.round][msg.origin]
        except KeyError:
            state = self._open(msg.origin, msg.round)
            if state is None:
                return
        if state.quorum_digest is not None:
            return
        if self.verify:
            clan = state.clan
            members, needed = (clan.members, clan.quorum) if clan else (None, 0)
            if not verify_certificate(self.pki, msg.cert, self._quorum, members, needed):
                return
            expected = self._echo_statement(msg.origin, msg.round, msg.digest)
            if msg.cert.message_digest != expected:
                return
        # Forward the certificate once so every honest party eventually holds
        # it even if the original quorum-former was the only honest multicaster.
        if not state.cert_sent:
            state.cert_sent = True
            _drop_sigs(state)
            self.network.broadcast(self.node_id, msg)
        self._complete(msg.origin, msg.round, msg.digest, state, msg.cert)

    def _send_ready(
        self, origin: NodeId, round_: Round, digest_: bytes, state: Instance
    ) -> None:
        """Multicast this node's one READY."""
        state.ready_digest = digest_
        tracer = self.tracer
        if tracer.enabled and not state.delivered:
            now = state.ready_at = self.sim.now
            start = state.echo_at
            if start is None:
                start = state.val_at if state.val_at is not None else now
            self._phase_span("rbc.echo_to_ready", start, origin, round_, state)
        ready = self._arena.acquire(self._ready_cls) if self._arena is not None else None
        if ready is None:
            ready = self._ready_cls(origin, round_, digest_)
        else:
            ready.origin = origin
            ready.round = round_
            ready.digest = digest_
        if state.ctx is not None and tracer.verbose:
            ready.trace_ctx = state.ctx
        self.network.broadcast(self.node_id, ready)

    def _on_ready(self, src: NodeId, msg: ReadyMsg) -> None:
        if self._signed:
            return
        state = self._live(msg.origin, msg.round)
        if state is None:
            state = self._open(msg.origin, msg.round)
            if state is None:
                return
        if self._optimistic:
            if not state.pessimistic and not state.delivered:
                # Someone already fell back; join its pessimistic quorum now
                # instead of waiting out the local fallback timer.
                self._fall_back(msg.origin, msg.round, state, "ready")
            if (
                state.delivered
                and state.ready_digest is None
                and state.quorum_digest is not None
            ):
                # Totality: this node delivered on the fast path (no READY
                # phase) but a peer fell back and needs 2f+1 READYs.  Answer
                # with the delivered digest — every fast-path deliverer does,
                # so the laggard completes even if it was the only one to
                # fall back.
                self._send_ready(msg.origin, msg.round, state.quorum_digest, state)
        digest_ = msg.digest
        tally = state if state.tally_digest == digest_ else _claim(state, digest_)
        bit = 1 << src
        supporters = tally.ready_mask
        if supporters & bit:
            return
        supporters = tally.ready_mask = supporters | bit
        count = supporters.bit_count()
        if count >= self._amplify and state.ready_digest is None:
            self._send_ready(msg.origin, msg.round, digest_, state)
        if count >= self._quorum:
            self._complete(msg.origin, msg.round, digest_, state)

    # -- completion ---------------------------------------------------------------

    def _complete(
        self, origin: NodeId, round_: Round, digest_: bytes, state: Instance,
        cert: QuorumCertificate | None = None,
    ) -> None:
        """The completion rule certified ``digest_``; the policy takes over."""
        if state.quorum_digest is None:
            state.quorum_digest = digest_
        self._certified(origin, round_, digest_, state, cert)

    # -- the clan payload (PROTOCOLS.md, "Payload rules") -------------------------

    def _holds_payload(self, origin: NodeId, round_: Round, state: Instance) -> bool:
        """May this node vouch for its first VAL?  A member of the instance's
        clan only once it holds the payload (Fig. 2 step 2)."""
        return state.payload is not None or (
            self._payload_want(origin, round_, state, state.val_digest) is None
        )

    def _maybe_echo(self, origin: NodeId, round_: Round, state: Instance) -> None:
        if not state.echoed and state.val_digest is not None and (
            self._holds_payload(origin, round_, state)
        ):
            self._vote(origin, round_, state)

    def _take_payload(
        self, origin: NodeId, round_: Round, state: Instance, payload: Any
    ) -> None:
        """The first VAL is in with ``payload``, its clan-only part (None: it
        carried none): keep it, vote if this node now may, and settle — a VAL
        that arrives after the certificate delivers at once."""
        if payload is not None and state.payload is None:
            state.payload = payload
        self._maybe_echo(origin, round_, state)
        self._settle(origin, round_, state)

    def _on_pulled_payload(
        self, origin: NodeId, round_: Round, payload: Any, _signers: int
    ) -> None:
        """A pulled payload matches the digest it was asked for: it replaces
        what the node held, and it counts as the VAL's (ECHO after pull)."""
        state = self.instance(origin, round_)
        state.payload = payload
        self._take_payload(origin, round_, state, None)

    def _settle(
        self, origin: NodeId, round_: Round, state: Instance, signers: int = 0,
    ) -> None:
        """Deliver what the certified instance owes this node: the tribe-wide
        part, then — on a member of its clan — the payload, pulled while the
        node holds none that matches."""
        if state.payload_done or state.quorum_digest is None:
            return
        if not self._head_certified(state):
            return
        if not state.delivered:
            self._deliver_head(origin, round_, state)
        want = self._payload_want(origin, round_, state, state.quorum_digest)
        if want is not None:
            payload = state.payload
            if payload is None or payload_digest(payload) != want:
                self._pull(origin, round_, state, state.quorum_digest, want, signers)
                return
        state.payload_done = True
        if want is not None:
            self._deliver_payload(origin, round_, state)

    def _holder_certified(
        self, origin: NodeId, round_: Round, digest_: bytes, state: Instance
    ) -> None:
        """§5: the ECHO quorum on ``digest_`` proves that an honest clan
        member holds its payload, so a member missing it pulls now, ahead of
        the READY quorum."""
        if state.payload is None and not state.payload_done:
            want = self._payload_want(origin, round_, state, digest_)
            if want is not None:
                self._pull(origin, round_, state, digest_, want)

    def _pull(
        self, origin: NodeId, round_: Round, state: Instance, digest_: bytes,
        want: bytes, signers: int = 0,
    ) -> None:
        """Pull payload ``want`` from the clan members that vouched for
        ``digest_``: the clan part of the certificate's ``signers``, else the
        clan echoers.  With no holder known yet, a later ECHO names one."""
        clan = state.clan
        if signers:
            vouchers = parties_of(signers & clan.mask)
        else:
            vouchers = [p for p in echoers(state, digest_) if p in clan.members]
        holders = [p for p in vouchers if p != self.node_id]
        if holders:
            self._payload_pull.fetch((origin, round_), holders, want)

    def _lookup_payload(self, origin: NodeId, round_: Round) -> Any | None:
        """What the payload server answers for ``(origin, round_)``."""
        state = self._live(origin, round_)
        if state is not None:
            return state.payload
        retired = self.retired_payload(origin, round_)
        return retired[1] if retired is not None else None

    def _mark_delivered(self, origin: NodeId, round_: Round, state: Instance):
        """The policy is delivering: close the instance's timers and spans.

        Returns the trace context of the ``rbc.e2e`` span (None when the
        instance is unsampled), for downstream stages to parent under.
        """
        state.delivered = True
        if self._optimistic:
            self._cancel_fallback(state)
            if state.pessimistic:
                self.fallback_deliveries += 1
            else:
                self.fast_deliveries += 1
        if not self.tracer.enabled:
            return None
        # READY completions close with ready→deliver, certificate and
        # fast-path completions with echo→deliver; rbc.e2e spans the first
        # VAL (or delivery itself when this node never saw one) to delivery.
        now = self.sim.now
        e2e_start = state.val_at if state.val_at is not None else now
        if state.ready_at is not None:
            tail, start = "rbc.ready_to_deliver", state.ready_at
        else:
            tail = "rbc.echo_to_deliver"
            start = state.echo_at if state.echo_at is not None else e2e_start
        self._phase_span(tail, start, origin, round_, state)
        return self._phase_span("rbc.e2e", e2e_start, origin, round_, state)

    def _phase_span(
        self, name: str, start: float, origin: NodeId, round_: Round, state: Instance
    ):
        """Emit one phase span ending now: under the instance's trace context
        when it is sampled, flat at sample=1.0, not at all otherwise.  Returns
        the span's context (None unless sampled)."""
        tracer = self.tracer
        if state.ctx is not None:
            return tracer.ctx_span(
                name, start=start, ctx=state.ctx, end=self.sim.now,
                node=self.node_id, origin=origin, round=round_,
            )
        if tracer.verbose:
            tracer.span(name, start=start, end=self.sim.now,
                        node=self.node_id, origin=origin, round=round_)
        return None

    # -- optimistic fallback ----------------------------------------------------------

    def _arm_fallback(self, origin: NodeId, round_: Round, state: Instance) -> None:
        if state.fallback_timer is None:
            state.fallback_timer = self.sim.schedule(
                self.fallback_timeout, self._on_fallback_timeout, origin, round_
            )

    def _cancel_fallback(self, state: Instance) -> None:
        handle = state.fallback_timer
        if handle is not None:
            handle.cancel()
            state.fallback_timer = None

    def _on_fallback_timeout(self, origin: NodeId, round_: Round) -> None:
        state = self._live(origin, round_)
        if state is None:
            return
        state.fallback_timer = None
        self._fall_back(origin, round_, state, "timeout")

    def _fall_back(
        self, origin: NodeId, round_: Round, state: Instance, reason: str
    ) -> None:
        """Abandon the fast path for one instance; finish via READY quorum."""
        if state.pessimistic or state.delivered:
            return
        state.pessimistic = True
        self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1
        self._cancel_fallback(state)
        if self.tracer.enabled:
            self.tracer.counter(
                "rbc.fallback", node=self.node_id, origin=origin,
                round=round_, reason=reason, time=self.sim.now,
            )
        # Replay the quorum rule per digest: 2f+1 may long be met while the
        # fast path was holding out for all n.
        for digest_, tally in sorted(_echoed(state)):
            self._check_echo_quorum(origin, round_, digest_, state, tally)

    # -- housekeeping ---------------------------------------------------------------

    def gc_below(self, round_: Round) -> None:
        """Garbage-collect instances with round < ``round_``.

        Called as the owner's commit frontier advances; pull-client entries
        (with their retry timers) and pull-server rate-limit records for
        long-committed rounds would otherwise accumulate forever.  A loop
        that is not a plane is its owner's to close, fetch by fetch.

        Then every *finished* instance below the floor retires: it leaves
        the table, the policy keeps what its pull servers answer, and a late
        VAL/ECHO/READY/CERT for its key is dropped where it would have
        recreated the instance.  The walk covers the rounds the floor just
        passed, and the unfinished keys it left behind each time their number
        has doubled — never the whole table."""
        for loop, responder, _ in self._pulls.values():
            loop.gc_below(round_)
            responder.gc_below(round_)
        if round_ <= self._floor:
            return
        lingering = self._lingering
        if len(lingering) >= self._recheck:
            lingering[:] = [key for key in lingering if not self._retire(*key)]
            self._recheck = 2 * len(lingering)
        instances = self.instances
        for passed in range(self._floor, round_):
            row = instances.get(passed)
            if row is None:
                continue
            for origin in range(self.n):
                if origin in row and not self._retire(origin, passed):
                    lingering.append((origin, passed))
        self._floor = round_

    def _finished(self, origin: NodeId, round_: Round, state: Instance) -> bool:
        """Would the instance stay silent whatever it still receives?

        It delivered and echoed (a late VAL makes a non-echoer echo), its
        fallback timer is off, and its completion is done: the certificate
        sent, or its own READY (an optimistic fast-path deliverer answers a
        late READY with one) — and so is its payload, so that a late VAL or
        ECHO starts no pull."""
        if not state.delivered or not state.echoed or state.fallback_timer is not None:
            return False
        if not (state.cert_sent if self._signed else state.ready_digest is not None):
            return False
        return state.payload_done

    def _retire(self, origin: NodeId, round_: Round) -> bool:
        """Retire the instance at ``(origin, round_)`` if it is finished."""
        row = self.instances[round_]
        state = row[origin]
        if not self._finished(origin, round_, state):
            return False
        del row[origin]
        if not row:
            del self.instances[round_]
        retired = self._retired.get(round_)
        if retired is None:
            retired = self._retired[round_] = {}
        retired[origin] = self._on_retire(origin, round_, state)
        return True

    def suspend_timers(self) -> None:
        """Crash: stop all local timers (no requests from the grave)."""
        for loop in self._loops:
            loop.suspend()
        if self._optimistic:
            for row in self.instances.values():
                for state in row.values():
                    self._cancel_fallback(state)

    def resume_timers(self) -> None:
        """Recovery: restart suspended pulls."""
        for loop in self._loops:
            loop.resume()
        if self._optimistic:
            # A recovering node has no idea how long it was down; give up on
            # the fast path for every instance that was in flight.
            keys = sorted((o, r) for r, row in self.instances.items() for o in row)
            for origin, round_ in keys:
                state = self.instances[round_][origin]
                if state.val_digest is not None or _echoed(state):
                    self._fall_back(origin, round_, state, "timeout")


__all__ = [
    "COMPLETIONS", "MAX_PARTIES", "Clan", "Instance", "RbcCore", "Tally", "ValParts",
    "echoers", "tallies", "tally_of",
]
