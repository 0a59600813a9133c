"""Frozen reference kernel: the unit of host cost (``ku``).

One execution is a few milliseconds of a toy echo-broadcast simulation: a
calendar-bucket scheduler (dict of lists + ``heapq`` of floats), slotted
message objects, per-node dispatch tables of bound methods, tuple-keyed
dicts and bitmask tallies — the interpreter work the real simulator's hot
paths are made of, in miniature and with no dependency on them.  Each rep
runs it between simulator slices and prices every slice in kernel
executions, which cancels the host-speed swings that hit both.

It looks like a simulator on purpose.  A pure-arithmetic loop tracked this
VM's contention poorly: it is cache-resident, so noise that slows object-
heavy code more than arithmetic went uncorrected (24 identical
``multiclan_mid`` reps: normalised cost IQR 5.8%, range 21%, rising with
wall time, against 4.7% / 9% for this kernel).

NEVER EDIT: every committed cost number is a multiple of this exact work.
``test_perf.py`` pins the file by digest; a different kernel is a new
version string and a re-measured baseline, never an in-place change.
"""

import heapq
import time

KERNEL_VERSION = "ku-1"

_N = 7
_QUORUM = 5
_EVENTS = 1400


class _Msg:
    __slots__ = ("kind", "origin", "round", "digest")

    def __init__(self, kind, origin, round_, digest):
        self.kind = kind
        self.origin = origin
        self.round = round_
        self.digest = digest


class _Net:
    __slots__ = ("now", "times", "buckets", "nodes", "seed")

    def __init__(self):
        self.now = 0.0
        self.times = []
        self.buckets = {}
        self.nodes = []
        self.seed = 12345

    def multicast(self, src, msg):
        buckets = self.buckets
        seed = self.seed
        now = self.now
        for node in self.nodes:
            seed = (seed * 1103515245 + 12345) & 0x7FFFFFFF
            delay = 0.01 * (1 + ((src + node.nid) % 5)) * (1.0 + (seed & 1023) / 20480.0)
            when = now + delay
            bucket = buckets.get(when)
            if bucket is None:
                buckets[when] = [(node.handlers[msg.kind], src, msg)]
                heapq.heappush(self.times, when)
            else:
                bucket.append((node.handlers[msg.kind], src, msg))
        self.seed = seed


class _Node:
    __slots__ = ("nid", "net", "round", "echoes", "delivered", "log", "handlers")

    def __init__(self, nid, net):
        self.nid = nid
        self.net = net
        self.round = 0
        self.echoes = {}
        self.delivered = {}
        self.log = []
        self.handlers = {"val": self.on_val, "echo": self.on_echo}

    def propose(self):
        self.round += 1
        digest = (self.nid * 1000003 + self.round * 7919) & 0xFFFFFFFF
        self.net.multicast(self.nid, _Msg("val", self.nid, self.round, digest))

    def on_val(self, src, msg):
        if src == msg.origin:
            self.net.multicast(self.nid, _Msg("echo", msg.origin, msg.round, msg.digest))

    def on_echo(self, src, msg):
        key = (msg.origin, msg.round)
        if key in self.delivered:
            return
        seen = self.echoes.get(key, 0) | (1 << src)
        self.echoes[key] = seen
        if seen.bit_count() >= _QUORUM:
            del self.echoes[key]
            self.delivered[key] = msg.digest
            self.log.append(key)
            if msg.round == self.round and len(
                [k for k in self.log[-_N:] if k[1] == self.round]
            ) >= _QUORUM:
                self.propose()


def run_kernel():
    """Run the kernel once; returns its wall time in seconds."""
    start = time.perf_counter()
    net = _Net()
    net.nodes = [_Node(i, net) for i in range(_N)]
    for node in net.nodes:
        node.propose()
    times = net.times
    buckets = net.buckets
    pop = heapq.heappop
    executed = 0
    while times and executed < _EVENTS:
        when = pop(times)
        net.now = when
        for fn, src, msg in buckets.pop(when):
            fn(src, msg)
            executed += 1
    elapsed = time.perf_counter() - start
    if executed < _EVENTS or not all(node.log for node in net.nodes):
        raise AssertionError("kernel did no work")
    # Break the node <-> net and bound-method cycles so reference counting
    # frees everything now and no garbage is left for the measured run's GC.
    for node in net.nodes:
        node.net = node.handlers = None
    return elapsed
