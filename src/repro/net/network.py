"""The simulated network: NIC serialization + propagation + CPU queueing.

Delivery time of a message from ``src`` to ``dst``::

    start    = max(now, nic_free_at[src])          # outbound FIFO queue
    tx       = wire_size / bandwidth               # serialization
    arrive   = start + tx + latency(src, dst) + adversarial_extra
    handled  = max(arrive, cpu_free_at[dst]) + cpu_cost   # receive queue

The outbound NIC queue is the effect the paper's clan technique exploits: a
Sailfish proposer multicasting an ℓ-byte block to ``n-1`` peers holds its NIC
for ``(n-1)·ℓ/B`` seconds, whereas a clan proposer holds it for only
``(n_c-1)·ℓ/B``.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from math import inf
from typing import Callable, Iterable

from ..analysis import sanitizers as _sanitizers
from ..errors import NetworkError
from ..obs.tracer import NULL_TRACER
from ..sim.scheduler import Simulator
from ..types import NodeId
from .adversary import DelayAdversary
from .cpu import CpuModel
from .faults import LinkFault
from .latency import LatencyModel, UniformLatencyModel
from .message import Message, MessageArena

Handler = Callable[[NodeId, Message], None]

#: ``hop`` marker of a delivery re-posted after its wait in the CPU queue.
_QUEUED = object()


class NetworkStats:
    """Aggregate traffic counters, per node and per message kind."""

    __slots__ = (
        "bytes_sent",
        "bytes_received",
        "messages_sent",
        "messages_dropped",
        "messages_duplicated",
        "bytes_by_kind",
        "messages_by_kind",
    )

    def __init__(self, n: int) -> None:
        self.bytes_sent = [0] * n
        self.bytes_received = [0] * n
        self.messages_sent = [0] * n
        #: Copies discarded by the link fault model (wire loss, partitions).
        self.messages_dropped = 0
        #: Extra copies injected by the link fault model.
        self.messages_duplicated = 0
        self.bytes_by_kind: dict[str, int] = defaultdict(int)
        self.messages_by_kind: dict[str, int] = defaultdict(int)

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_sent)

    @property
    def total_messages(self) -> int:
        return sum(self.messages_sent)


class Network:
    """Point-to-point simulated network connecting ``n`` registered nodes."""

    def __init__(
        self,
        sim: Simulator,
        n: int,
        latency: LatencyModel | None = None,
        bandwidth_bps: float | None = None,
        adversary: DelayAdversary | None = None,
        cpu: CpuModel | None = None,
        faults: LinkFault | None = None,
        track_kinds: bool = False,
        tracer=None,
    ) -> None:
        if n < 1:
            raise NetworkError(f"network needs at least one node, got n={n}")
        if bandwidth_bps is not None and not 0.0 < bandwidth_bps <= inf:
            raise NetworkError(f"bandwidth must be positive, got {bandwidth_bps}")
        self.sim = sim
        self.n = n
        self.latency = latency if latency is not None else UniformLatencyModel(0.05)
        # The model's delay expression, which the transmit loop inlines (one
        # RNG draw per jittered delivery, identical float math — see
        # LatencyModel.delay_spec).
        self._delay_spec = kind, data, jit, _ = self.latency.delay_spec(n)
        rows = [[data]] if kind == "add" else data
        if not all(0.0 <= d < inf for row in rows for d in (*row, jit)):
            raise NetworkError("latency model produced a negative or non-finite delay")
        # Convert bits/s to bytes/s once; None means infinite bandwidth.
        self._bytes_per_sec = bandwidth_bps / 8.0 if bandwidth_bps else None
        self.adversary = adversary if adversary is not None else DelayAdversary()
        # The base DelayAdversary never adds delay: skip the call entirely.
        self._null_adversary = type(self.adversary) is DelayAdversary
        self.cpu = cpu
        #: Link fault model (loss/duplication/partitions); None = perfect wire.
        self.faults = faults
        self.stats = NetworkStats(n)
        self._track_kinds = track_kinds
        self._tracer = tracer if tracer is not None else NULL_TRACER
        # At full sampling every message's hops are traced (the pre-sampling
        # behaviour).  Below 1.0 only messages stamped with a trace_ctx are;
        # the rest carry no trace tail and emit nothing, which is what makes
        # 1/k head sampling affordable at benchmark event rates.
        self._trace_all = self._tracer.enabled and self._tracer.sample >= 1.0
        self._handlers: list[Handler | None] = [None] * n
        self._nic_free_at = [0.0] * n
        self._cpu_free_at = [0.0] * n
        self._crashed = [False] * n
        #: Per-node (on_crash, on_recover) callback pairs.
        self._lifecycle: dict[NodeId, list[tuple]] = defaultdict(list)
        # Freeze-after-send sanitizer (REPRO_SANITIZE=1): digests messages at
        # send, re-checks at delivery.  None (the default) costs one None
        # check per transmit.
        self._freeze = _sanitizers.FreezeGuard() if _sanitizers.enabled() else None
        #: Per-node {message class: handler} tables (see :meth:`set_dispatch`).
        self._dispatch: list[dict | None] = [None] * n
        # _deliver's arrival stages (CPU queue, freeze re-check, hop span)
        # sit behind one test; this is its precomputed half, the other being
        # whether the record carries a trace tail.
        self._staged = cpu is not None or self._freeze is not None
        # Delivery records can be handed straight to the simulator's
        # insertion routine — skipping `post`'s checks per delivery — when
        # the arrival time is provably never in the past (delays were checked
        # non-negative above; no adversarial extra delay) and the tie-order
        # auditor doesn't need to observe insertions.
        self._inline = self._null_adversary and sim.tie_audit is None
        # Message arena: only when the arrival-time upper bound per transmit
        # is computable (no adversarial delay) and nothing observes message
        # identity across deliveries (no freeze sanitizer, no CPU-queue
        # requeue).  `_retire` is a min-heap of (retire_at, seq, msg): once
        # sim time passes retire_at, every copy of msg has been delivered and
        # the object returns to the pool.
        self.arena: MessageArena | None = None
        self._retire: list | None = None
        self._retire_seq = 0
        self._max_delay: list[float] | None = None
        if self._inline and cpu is None and self._freeze is None:
            if kind == "add":
                self._max_delay = [data + jit + 1e-9] * n
            else:
                self._max_delay = [max(row) * (1.0 + jit) + 1e-9 for row in data]
            self.arena = MessageArena()
            self._retire = []

    @property
    def freeze_guard(self):
        """The ``REPRO_SANITIZE=1`` freeze-after-send guard (None when off)."""
        return self._freeze

    def _node(self, node_id: NodeId) -> NodeId:
        """``node_id``, once checked to name a node of this network (a
        negative id would otherwise index from the end).

        :meth:`send` checks its one destination; :meth:`multicast`'s
        destinations are not checked, since that would cost a call per copy
        on the hot path."""
        if not 0 <= node_id < self.n:
            raise NetworkError(f"node id {node_id} out of range (n={self.n})")
        return node_id

    def register(self, node_id: NodeId, handler: Handler) -> None:
        """Register the message handler for ``node_id``."""
        self._handlers[self._node(node_id)] = handler
        # A new handler invalidates any fast-dispatch table installed for the
        # old one; set_dispatch must be called after register.
        self._dispatch[node_id] = None

    def set_dispatch(self, node_id: NodeId, table: dict[type, Handler]) -> None:
        """Install a per-message-class fast dispatch table for ``node_id``.

        Optional: nodes that know their full message vocabulary map each
        concrete message class to its handler so the hot delivery path jumps
        straight there, skipping the catch-all handler's isinstance chain.
        Keys are exact classes (no subclass matching); messages of any other
        type fall back to the handler from :meth:`register`.  Call after
        :meth:`register` — re-registering clears the table.
        """
        self._dispatch[self._node(node_id)] = dict(table)

    def on_lifecycle(
        self,
        node_id: NodeId,
        on_crash: Callable[[], None] | None = None,
        on_recover: Callable[[], None] | None = None,
    ) -> None:
        """Register callbacks fired when ``node_id`` crashes / recovers.

        Crash semantics are fail-stop with *persisted* state: the process
        stops (its timers must stop firing — that is what ``on_crash`` hooks
        implement) but durable state (the DAG store) survives to ``recover``.
        """
        self._lifecycle[self._node(node_id)].append((on_crash, on_recover))

    def crash(self, node_id: NodeId) -> None:
        """Crash a node: it stops sending and receiving from now on.

        Idempotent; fires registered ``on_crash`` callbacks exactly once per
        transition so node-local timers are suppressed (a crashed node must
        not keep proposing or voting from beyond the grave).
        """
        if self._crashed[self._node(node_id)]:
            return
        self._crashed[node_id] = True
        for on_crash, _ in self._lifecycle.get(node_id, ()):
            if on_crash is not None:
                on_crash()

    def recover(self, node_id: NodeId) -> None:
        """Undo :meth:`crash`; fires ``on_recover`` callbacks (catch-up)."""
        if not self._crashed[self._node(node_id)]:
            return
        self._crashed[node_id] = False
        for _, on_recover in self._lifecycle.get(node_id, ()):
            if on_recover is not None:
                on_recover()

    def is_crashed(self, node_id: NodeId) -> bool:
        return self._crashed[self._node(node_id)]

    @property
    def track_kinds(self) -> bool:
        """Whether per-message-kind stats are being collected."""
        return self._track_kinds

    @property
    def tracer(self):
        return self._tracer

    def send(self, src: NodeId, dst: NodeId, msg: Message) -> None:
        """Send one message; delivery is scheduled on the simulator."""
        self._transmit(src, (self._node(dst),), msg)

    def multicast(self, src: NodeId, dsts: Iterable[NodeId], msg: Message) -> None:
        """Send ``msg`` to every destination; each copy occupies the NIC.

        Matches the paper's practical-RBC assumption: the sender multicasts a
        full copy to each recipient (no erasure coding), so NIC time scales
        with the recipient count.
        """
        self._transmit(src, tuple(dsts), msg)

    def broadcast(self, src: NodeId, msg: Message) -> None:
        """Multicast to all nodes, including ``src`` itself (self-delivery)."""
        self._transmit(src, range(self.n), msg)

    def _transmit(self, src: NodeId, dsts: Iterable[NodeId], msg: Message) -> None:
        # The benchmark-critical loop of the whole simulator, and the only
        # place a send becomes calendar events: every broadcast/multicast
        # lands here, and every iteration schedules one delivery event.
        # Three layers are flattened away: per-destination stats increments
        # are batched into one update at the end, the latency model's delay
        # expression is inlined (identical float math and RNG draw order —
        # see LatencyModel.delay_spec), and the call builds one record
        # `(deliver, src, msg, size)` that all its copies share: each copy is
        # handed straight to the simulator's insertion routine as the three
        # calendar slots `arrive, record, dst`, allocating no object of its
        # own, instead of going through `sim.post`.
        if self._crashed[self._node(src)]:
            return
        if self._freeze is not None:
            self._freeze.on_send(msg)
        sim = self.sim
        now = sim.now
        tracer = self._tracer
        # Hop tracing is decided once per message.  It only adds a tail to the
        # records built below; arrival times, RNG draws and insertion order
        # are computed by the same statements either way, so RunMetrics is
        # bit-identical at any sample rate.
        traced = tracer.enabled and (
            self._trace_all or getattr(msg, "trace_ctx", None) is not None
        )
        retire = self._retire
        if retire and retire[0][0] < now:
            # Every copy of these messages has an arrival bound strictly in
            # the past: all deliveries ran, the objects are free to reuse.
            release = self.arena.release
            pop = heapq.heappop
            while retire and retire[0][0] < now:
                release(pop(retire)[2])
        size = msg.wire_size_cached()
        stats = self.stats
        # Serialization time of one copy; 0.0 models infinite bandwidth.
        per_byte = self._bytes_per_sec
        tx = size / per_byte if per_byte is not None else 0.0
        faults = self.faults
        n = self.n
        kind, data, jit, rand = self._delay_spec
        crow = jrow = None
        if kind == "table":
            crow = data[src]
        elif kind == "mul":
            jrow = data[src]
        deliver = self._deliver
        record = (deliver, src, msg, size)
        extra_delay = None if self._null_adversary else self.adversary.extra_delay
        # An inline network (see __init__) has proved that its arrivals are
        # never in the past and that no tie auditor listens — all `post`
        # adds to the simulator's insertion routine.
        insert = sim._insert if self._inline else None
        nic_free = self._nic_free_at[src]
        clock = now if now > nic_free else nic_free
        count = 0
        for dst in dsts:
            copies = 1
            if dst != src:
                if dst < 0 or dst >= n:
                    raise NetworkError(f"destination {dst} out of range (n={n})")
                if traced:
                    nic_wait = clock - now
                # The NIC serializes the copy whether or not the wire then
                # loses it — loss happens in the network, not at the sender.
                clock += tx
                if faults is not None:
                    copies = faults.copies(src, dst, msg, now)
                    if copies > 1:
                        stats.messages_duplicated += copies - 1
                    elif copies == 0:
                        stats.messages_dropped += 1
                        if traced:
                            # `traced` implies tracer.enabled.
                            tracer.counter(
                                "net.drop", node=src, dst=dst, kind=msg.kind(), size=size,
                            )
            count += 1
            while copies:
                copies -= 1
                if dst == src:
                    # Loopback: no NIC or propagation cost (and no wire
                    # faults), but still event-driven so ordering semantics
                    # match remote deliveries.
                    arrive = now
                else:
                    # The one arrival-time expression.  Its association is
                    # part of the simulation's definition (float addition
                    # does not re-associate): per delay_spec shape, then
                    # + extra.  `prop` is only what the hop span reports.
                    if crow is not None:
                        prop = crow[dst]
                        arrive = clock + prop
                    elif jrow is not None:
                        prop = jrow[dst] * (1.0 + rand() * jit)
                        arrive = clock + prop
                    else:  # "add": data is the base delay
                        jitter = rand() * jit
                        arrive = clock + data + jitter
                        prop = data + jitter
                    if extra_delay is not None:
                        extra = extra_delay(src, dst, msg, now)
                        arrive += extra
                        prop += extra
                # A traced hop's latency decomposition is per copy: it rides
                # as the tail of a `post`-shaped tuple of its own.
                if traced:
                    hop = (now, 0.0, 0.0, 0.0) if dst == src else (now, nic_wait, tx, prop)
                    if insert is not None:
                        insert(arrive, (arrive, deliver, src, dst, msg, size, hop), -1)
                    else:
                        sim.post(arrive, deliver, (src, dst, msg, size, hop))
                elif insert is not None:
                    insert(arrive, record, dst)
                else:
                    sim.post(arrive, deliver, (src, dst, msg, size))
        if count:
            stats.bytes_sent[src] += size * count
            stats.messages_sent[src] += count
            if self._track_kinds:
                kind = msg.kind()
                stats.bytes_by_kind[kind] += size * count
                stats.messages_by_kind[kind] += count
            if retire is not None and msg.__class__ in self.arena.pools:
                # Last copy leaves the NIC at `clock`; the slowest link adds
                # at most _max_delay[src].  Past that instant the object is
                # unreachable from the event queue.
                self._retire_seq += 1
                heapq.heappush(
                    retire, (clock + self._max_delay[src], self._retire_seq, msg)
                )
        self._nic_free_at[src] = clock

    def _deliver(
        self, src: NodeId, dst: NodeId, msg: Message, size: int, hop=None
    ) -> None:
        """Turn an arrival into a handler call — the only place that happens.

        ``hop`` is the record's trace tail ``(sent_at, nic_wait, tx, prop)``,
        None on untraced records, or ``_QUEUED`` when this is the second
        visit of a delivery that waited in the destination's CPU queue.
        Crashed destinations drop silently, and a node with no handler
        receives nothing (no stats recorded).  Nodes that installed a
        dispatch table (:meth:`set_dispatch`) skip their catch-all handler's
        isinstance chain.
        """
        if self._crashed[dst]:
            return
        table = self._dispatch[dst]
        handler = table.get(msg.__class__) if table is not None else None
        if handler is None:
            handler = self._handlers[dst]
            if handler is None:
                return
        if hop is not None or self._staged:
            if hop is not _QUEUED:
                # Arrival: module docstring's receive queue, then the span
                # closing the hop's NIC-queue wait → serialization →
                # propagation → CPU-queue wait → CPU decomposition.
                cpu_wait = cost = 0.0
                done = None
                if self.cpu is not None:
                    cost = self.cpu.cost(msg)
                    if cost > 0.0:
                        now = self.sim.now
                        start = self._cpu_free_at[dst]
                        if start < now:
                            start = now
                        cpu_wait = start - now
                        done = start + cost
                        self._cpu_free_at[dst] = done
                if hop is not None:
                    sent_at, nic_wait, tx, prop = hop
                    span = dict(
                        end=done if done is not None else self.sim.now,
                        node=dst, src=src, kind=msg.kind(), size=size,
                        nic_wait=nic_wait, tx=tx, prop=prop, cpu_wait=cpu_wait, cpu=cost,
                    )
                    ctx = getattr(msg, "trace_ctx", None)
                    if ctx is not None:
                        self._tracer.ctx_span("net.hop", sent_at, ctx, **span)
                    else:
                        self._tracer.span("net.hop", sent_at, **span)
                if done is not None:
                    self.sim.post(done, self._deliver, (src, dst, msg, size, _QUEUED))
                    return
            if self._freeze is not None:
                self._freeze.on_deliver(msg)
        self.stats.bytes_received[dst] += size
        handler(src, msg)
