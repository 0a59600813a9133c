"""Reliable channels implemented over a faulty physical network.

The paper (like most BFT literature) *assumes* reliable authenticated links.
:class:`ReliableTransport` implements that abstraction the way deployed
systems do — over a wire that may drop and duplicate packets
(:mod:`repro.net.faults`):

* **Sequence numbers** — every directed channel ``src -> dst`` stamps outgoing
  messages with a monotonically increasing sequence number.
* **Acks + retransmission** — the receiver acks every data message; the
  sender retransmits unacked messages on a timer with capped exponential
  backoff, so a message sent before a partition is delivered after it heals
  (the GST argument made concrete).
* **Duplicate suppression** — the receiver tracks delivered sequence numbers
  per channel in a :class:`SeqWindow` (contiguous watermark + sparse
  out-of-order set) and delivers each message exactly once.  While no
  sender crashes, the set holds at most the reorder window.  A crash breaks
  that bound: the crashed sender's unacked buffer is discarded, so a lost
  message in it leaves its receiver a permanent hole in the seqs, and every
  later seq on that channel stays in the set for the rest of the run.

The class mirrors the :class:`~repro.net.network.Network` API (``register`` /
``send`` / ``multicast`` / ``broadcast`` / ``crash`` / ``recover`` / stats /
tracer), so every protocol layer above runs unchanged on either.

Crash semantics are fail-stop with persisted state: on ``crash`` the node's
retransmission timers are cancelled and its unacked buffer is discarded
(in-flight messages die with the process); sequence counters and receive
windows survive to ``recover``, so channels resume consistently.  Messages
lost *while* a node is down are intentionally not replayed — recovering the
content is the job of the DAG catch-up protocol
(:mod:`repro.consensus.sync`), not the transport.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import NetworkError
from ..types import NodeId
from . import sizes
from .message import Message
from .network import Handler, Network

#: Directed channel identifier.
Channel = tuple[NodeId, NodeId]


@dataclass(slots=True)
class DataMsg(Message):
    """A payload message stamped with a per-channel sequence number."""

    seq: int
    payload: Message

    def wire_size(self) -> int:
        # The shared payload's size is memoized, so the per-destination
        # DataMsg wrappers of one multicast compute it exactly once.
        return self.payload.wire_size_cached() + 8  # 8-byte sequence number

    def kind(self) -> str:
        # Report the inner kind so per-kind traffic stats stay meaningful
        # (retransmissions count as extra traffic of the wrapped kind).
        return self.payload.kind()

    @property
    def signed(self) -> bool:
        return bool(getattr(self.payload, "signed", False))


@dataclass(slots=True)
class AckMsg(Message):
    """Acknowledges receipt of one sequence number on a channel."""

    seq: int

    def wire_size(self) -> int:
        return sizes.HEADER_SIZE


@dataclass(slots=True)
class _SendState:
    """Sender side of one directed channel."""

    next_seq: int = 1
    #: seq -> [payload, timer handle, current timeout]
    unacked: dict[int, list] = field(default_factory=dict)


@dataclass(slots=True)
class SeqWindow:
    """Exactly-once filter over sequence numbers 1, 2, 3, ...

    A watermark plus the accepted seqs above it, so memory follows the
    numbers accepted out of order rather than every number ever accepted.
    The one dedup window of the stack: receive channels here, per-client
    transaction ids in :class:`~repro.smr.state_machine.ReplayGuard`.
    """

    #: Every seq <= contiguous has been accepted.
    contiguous: int = 0
    #: Accepted seqs above the watermark (the reorder window).
    sparse: set[int] = field(default_factory=set)

    def accept(self, seq: int) -> bool:
        """Record ``seq``; returns False if it was already accepted."""
        sparse = self.sparse
        if seq == self.contiguous + 1 and not sparse:
            self.contiguous = seq  # in order: no set touched
            return True
        if seq <= self.contiguous or seq in sparse:
            return False
        if seq != self.contiguous + 1:
            sparse.add(seq)
            return True
        # ``seq`` fills the gap at the watermark: advance over the run above.
        while seq + 1 in sparse:
            seq += 1
            sparse.discard(seq)
        self.contiguous = seq
        if not sparse:
            # A set never shrinks its table; drop the one the gap grew.
            self.sparse = set()
        return True


class ReliableTransport:
    """Network-compatible facade that restores the reliable-link abstraction.

    Args:
        network: the (possibly lossy) physical network underneath.
        ack_timeout: initial retransmission timeout in seconds.
        backoff: multiplicative backoff factor per retransmission.
        max_timeout: retransmission interval cap (prevents unbounded silence
            but also flooding while a peer is partitioned or down).
    """

    def __init__(
        self,
        network: Network,
        ack_timeout: float = 0.25,
        backoff: float = 2.0,
        max_timeout: float = 8.0,
    ) -> None:
        if ack_timeout <= 0:
            raise NetworkError("ack_timeout must be positive")
        if backoff < 1.0:
            raise NetworkError("backoff factor must be >= 1")
        if max_timeout < ack_timeout:
            raise NetworkError("max_timeout must be >= ack_timeout")
        self.net = network
        self.sim = network.sim
        self.ack_timeout = ack_timeout
        self.backoff = backoff
        self.max_timeout = max_timeout
        self._handlers: list[Handler | None] = [None] * network.n
        self._send: dict[Channel, _SendState] = {}
        self._recv: dict[Channel, SeqWindow] = {}
        #: Retransmission counter (observability + tests).
        self.retransmissions = 0
        #: Duplicates suppressed at the receiver.
        self.duplicates_suppressed = 0
        for node_id in range(network.n):
            network.on_lifecycle(
                node_id,
                on_crash=lambda node_id=node_id: self._on_node_crash(node_id),
            )

    # -- Network API parity -------------------------------------------------------

    @property
    def n(self) -> int:
        return self.net.n

    @property
    def stats(self):
        return self.net.stats

    @property
    def tracer(self):
        return self.net.tracer

    @property
    def track_kinds(self) -> bool:
        return self.net.track_kinds

    @property
    def latency(self):
        return self.net.latency

    def register(self, node_id: NodeId, handler: Handler) -> None:
        """Register the (reliable) message handler for ``node_id``."""
        if not 0 <= node_id < self.net.n:
            raise NetworkError(f"node id {node_id} out of range (n={self.net.n})")
        self._handlers[node_id] = handler
        self.net.register(node_id, lambda src, msg: self._on_raw(node_id, src, msg))

    def on_lifecycle(self, node_id: NodeId, on_crash=None, on_recover=None) -> None:
        self.net.on_lifecycle(node_id, on_crash, on_recover)

    def crash(self, node_id: NodeId) -> None:
        self.net.crash(node_id)

    def recover(self, node_id: NodeId) -> None:
        self.net.recover(node_id)

    def is_crashed(self, node_id: NodeId) -> bool:
        return self.net.is_crashed(node_id)

    # -- sending ------------------------------------------------------------------

    def send(self, src: NodeId, dst: NodeId, msg: Message) -> None:
        """Send one message with at-least-once wire delivery, exactly-once
        handler delivery."""
        if self.net.is_crashed(src):
            return
        if dst == src:
            # Loopback never touches the wire: no loss, no seq/ack overhead.
            self.net.send(src, dst, msg)
            return
        state = self._send_state(src, dst)
        seq = state.next_seq
        state.next_seq += 1
        data = DataMsg(seq, msg)
        timer = self.sim.schedule(
            self.ack_timeout, self._retransmit, src, dst, seq
        )
        state.unacked[seq] = [data, timer, self.ack_timeout]
        self.net.send(src, dst, data)

    def multicast(self, src: NodeId, dsts, msg: Message) -> None:
        for dst in dsts:
            self.send(src, dst, msg)

    def broadcast(self, src: NodeId, msg: Message) -> None:
        self.multicast(src, range(self.net.n), msg)

    def _send_state(self, src: NodeId, dst: NodeId) -> _SendState:
        state = self._send.get((src, dst))
        if state is None:
            state = self._send[(src, dst)] = _SendState()
        return state

    def _retransmit(self, src: NodeId, dst: NodeId, seq: int) -> None:
        state = self._send.get((src, dst))
        if state is None:
            return
        entry = state.unacked.get(seq)
        if entry is None:
            return  # acked in the meantime
        if self.net.is_crashed(src):
            # Defensive: crash cancels these timers; an in-flight firing must
            # still not transmit from beyond the grave.
            return
        data, _old_timer, timeout = entry
        self.retransmissions += 1
        if self.net.tracer.enabled:
            self.net.tracer.counter(
                "transport.retransmit", node=src, dst=dst, kind=data.kind(),
            )
        timeout = min(timeout * self.backoff, self.max_timeout)
        entry[1] = self.sim.schedule(timeout, self._retransmit, src, dst, seq)
        entry[2] = timeout
        self.net.send(src, dst, data)

    # -- receiving ----------------------------------------------------------------

    def _on_raw(self, dst: NodeId, src: NodeId, msg: Message) -> None:
        if isinstance(msg, AckMsg):
            self._on_ack(dst, src, msg.seq)
            return
        if not isinstance(msg, DataMsg):
            # Untracked traffic (e.g. loopback or pre-wrap messages): pass up.
            handler = self._handlers[dst]
            if handler is not None:
                handler(src, msg)
            return
        # Always (re-)ack, even duplicates: the original ack may have been
        # lost, and the sender retransmits until one gets through.
        self.net.send(dst, src, AckMsg(msg.seq))
        recv = self._recv.get((src, dst))
        if recv is None:
            recv = self._recv[(src, dst)] = SeqWindow()
        if not recv.accept(msg.seq):
            self.duplicates_suppressed += 1
            return
        handler = self._handlers[dst]
        if handler is not None:
            handler(src, msg.payload)

    def _on_ack(self, sender: NodeId, acker: NodeId, seq: int) -> None:
        state = self._send.get((sender, acker))
        if state is None:
            return
        entry = state.unacked.pop(seq, None)
        if entry is not None:
            entry[1].cancel()

    # -- lifecycle ----------------------------------------------------------------

    def _on_node_crash(self, node_id: NodeId) -> None:
        """Fail-stop: the crashing node's in-flight sends die with it."""
        for (src, _dst), state in self._send.items():
            if src != node_id:
                continue
            for entry in state.unacked.values():
                entry[1].cancel()
            state.unacked.clear()

    # -- inspection ---------------------------------------------------------------

    def unacked_count(self, src: NodeId | None = None) -> int:
        """Outstanding unacked messages (optionally for one sender)."""
        return sum(
            len(state.unacked)
            for (s, _), state in self._send.items()
            if src is None or s == src
        )
