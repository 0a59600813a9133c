"""Deterministic discrete-event scheduler (calendar queue, one object per event).

A dict maps each distinct simulated time to its *slot* and a binary heap of
plain floats orders the timestamps themselves, so the heap compares raw
floats instead of ``[time, seq, ...]`` lists.  An event is a single object:

* ``post`` (and the network's inline producer) queues one flat tuple
  ``(fn, *args)``, invoked as ``ev[0](*ev[1:])`` — no handle, no cancellation;
* ``schedule_at`` queues the :class:`EventHandle` it returns, which carries
  ``fn``/``args`` itself; ``cancel()`` clears them in place.

A slot holds the event itself while it is alone at its timestamp (jittered
links make nearly every timestamp unique) and is promoted to a plain ``list``
of events on the second insertion at that instant; a list is dispatched as one
batch — a single heap pop + dict pop — so multicast bursts that land together
(loopback deliveries, jitter-free links) bypass the heap.  The cyclic collector
traces every queued container on each pass it survives, and an event lives
~100k events before it fires; one tracked object per in-flight event instead of
three (slot list, entry, argument tuple) is what keeps the collector off the
hot path — see docs/PERFORMANCE.md.

Determinism is preserved without a sequence counter: within a slot events
run in insertion order, which is exactly the order the old monotonically
increasing tie-breaker produced (promotion puts the first event first).
Events scheduled *at the current instant* from inside a callback go into a
fresh slot that is drained immediately after the active one — again matching
the old heap's behaviour, where such events carried higher sequence numbers
than everything already queued.

The hot path (``post`` + ``run``) is deliberately lean — benchmark runs push
millions of message-delivery events through it.  Tracing adds no per-event
work: the run loop is wrapped (not instrumented inside), and the per-run
``sim.run`` span carries event counts and wall-clock per simulated second.

Cancelled events stay in their slot (O(1) cancellation) but are *compacted*
away once they dominate: timer-heavy workloads (one leader timer per node per
round, almost always cancelled) would otherwise pay a per-dead-entry skip in
the run loop and hold the dead args alive.
"""

from __future__ import annotations

import heapq
import time as _time
from typing import Any, Callable

from ..analysis import sanitizers as _sanitizers
from ..errors import SimulationError
from ..obs.tracer import NULL_TRACER


_INF = float("inf")


def _is_live(event) -> bool:
    """Flat tuples cannot be cancelled; a handle is dead once ``fn`` is cleared."""
    return event.__class__ is tuple or event.fn is not None


class EventHandle:
    """A cancellable scheduled event; the handle *is* the queued entry.

    Cancellation is O(1): the handle stays in its slot but its callback is
    cleared, and the run loop skips it.  The owning simulator counts
    cancellations so it can compact the calendar when dead entries dominate.
    """

    __slots__ = ("_when", "fn", "args", "_sim")

    def __init__(
        self, when: float, fn: Callable[..., Any], args: tuple, sim: "Simulator | None" = None
    ) -> None:
        self._when = when
        self.fn = fn
        self.args = args
        self._sim = sim

    @property
    def time(self) -> float:
        """Simulated time at which the event fires (or would have fired)."""
        return self._when

    @property
    def cancelled(self) -> bool:
        return self.fn is None

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self.fn is None:
            return
        self.fn = None
        self.args = ()
        if self._sim is not None:
            self._sim._note_cancelled()


class Simulator:
    """A deterministic discrete-event simulator.

    Args:
        tracer: optional :class:`repro.obs.Tracer`; when enabled, each
            ``run()`` call emits a ``sim.run`` span with event counts and
            wall-clock attribution.  Disabled cost: one attribute check per
            ``run()`` call (never per event).
        compact_threshold: once at least this many cancelled entries are
            pending *and* they make up half the calendar, the slots are
            rebuilt without them.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "a")
    >>> _ = sim.schedule(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    1.5
    """

    __slots__ = (
        "_now",
        "_times",
        "_buckets",
        "_compact_check",
        "_stopped",
        "_processed",
        "_cancelled",
        "_compact_threshold",
        "_compactions",
        "_tracer",
        "_audit",
    )

    def __init__(self, tracer=None, compact_threshold: int = 1024) -> None:
        self._now = 0.0
        #: Min-heap of distinct timestamps; exactly one heap entry per slot.
        self._times: list[float] = []
        #: timestamp -> slot: the event itself while it is alone at that
        #: instant, else a ``list`` of events in insertion order.  An event is
        #: a flat ``(fn, *args)`` tuple (``post``, network deliveries) or a
        #: cancellable :class:`EventHandle` (``schedule_at``).
        self._buckets: dict[float, Any] = {}
        self._stopped = False
        self._processed = 0
        self._cancelled = 0
        self._compact_threshold = compact_threshold
        # Next _cancelled value at which the compaction heuristic re-checks;
        # doubled on every failed check so counting pending entries (an
        # O(slots) sum — there is deliberately no per-insert counter on the
        # hot path) stays amortized O(1) per cancellation.
        self._compact_check = compact_threshold
        self._compactions = 0
        self._tracer = tracer if tracer is not None else NULL_TRACER
        # One simulator = one run: creating it is the sanitizer run boundary.
        # Off (the default), _audit is None and scheduling pays one None
        # check; on, every (time, callback) insertion feeds the tie auditor.
        if _sanitizers.enabled():
            _sanitizers.begin_run()
            self._audit = _sanitizers.TieAudit()
        else:
            self._audit = None

    @property
    def tie_audit(self):
        """The ``REPRO_SANITIZE=1`` tie-order auditor (None when off)."""
        return self._audit

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def tracer(self):
        return self._tracer

    @property
    def processed_events(self) -> int:
        """Number of events executed so far (for diagnostics)."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of queued (possibly cancelled) events.

        Computed on demand: the insertion path deliberately maintains no
        counter (millions of inserts per run, rare reads of this property).
        """
        return sum(
            len(slot) if slot.__class__ is list else 1 for slot in self._buckets.values()
        )

    @property
    def cancelled_pending(self) -> int:
        """Cancelled entries still occupying their slots."""
        return self._cancelled

    @property
    def compactions(self) -> int:
        """Times the calendar was rebuilt to shed cancelled entries."""
        return self._compactions

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, when: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute simulated time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at t={when} before current time t={self._now}"
            )
        event = EventHandle(when, fn, args, self)
        slot = self._buckets.get(when)
        if slot is None:
            self._buckets[when] = event
            heapq.heappush(self._times, when)
        elif slot.__class__ is list:
            slot.append(event)
        else:
            self._buckets[when] = [slot, event]
        if self._audit is not None:
            self._audit.note(when, fn)
        return event

    def post(self, when: float, fn: Callable[..., Any], args: tuple) -> None:
        """Hot-path variant of :meth:`schedule_at`: no handle, no cancellation.

        Used by the network for message deliveries (millions per run): the
        queued event is the one flat tuple ``(fn, *args)``.
        """
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at t={when} before current time t={self._now}"
            )
        slot = self._buckets.get(when)
        if slot is None:
            self._buckets[when] = (fn, *args)
            heapq.heappush(self._times, when)
        elif slot.__class__ is list:
            slot.append((fn, *args))
        else:
            self._buckets[when] = [slot, (fn, *args)]
        if self._audit is not None:
            self._audit.note(when, fn)

    def stop(self) -> None:
        """Make :meth:`run` return after the current event finishes."""
        self._stopped = True

    def _note_cancelled(self) -> None:
        """Called by :class:`EventHandle` when an entry is cancelled."""
        self._cancelled += 1
        if self._cancelled < self._compact_check:
            return
        # Compact once dead entries make up at least half the calendar;
        # otherwise double the re-check point so the pending count (an
        # O(slots) sum) is amortized O(1) per cancellation.
        if self._cancelled * 2 >= self.pending_events:
            self._compact()
        else:
            self._compact_check = self._cancelled * 2

    def _compact(self) -> None:
        """Drop cancelled entries from every queued slot (O(live) instead
        of O(dead) skips in the run loop).

        Mutates ``_times`` in place (slice assignment) on purpose: the run
        loop holds a local alias, and cancellations — hence compactions —
        can happen inside an event callback while the loop is mid-iteration.
        The slot currently being drained is *not* in the dict (the loop
        pops it first), so it is never touched here; its dead entries are
        skipped by the loop itself.
        """
        buckets = self._buckets
        emptied = []
        for when, slot in buckets.items():
            if slot.__class__ is list:
                live = [event for event in slot if _is_live(event)]
                if len(live) != len(slot):
                    if live:
                        slot[:] = live
                    else:
                        emptied.append(when)
            elif not _is_live(slot):
                emptied.append(when)
        for when in emptied:
            del buckets[when]
        if emptied:
            self._times[:] = list(buckets)
            heapq.heapify(self._times)
        self._cancelled = 0
        self._compact_check = self._compact_threshold
        self._compactions += 1

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run events in time order.

        Args:
            until: stop once simulated time would exceed this instant; the
                clock is advanced to ``until`` exactly.  Events at ``until``
                itself are executed.
            max_events: safety valve — raise :class:`SimulationError` if more
                than this many events execute (runaway-protocol guard).
        """
        tracer = self._tracer
        if not tracer.enabled:
            self._run_loop(until, max_events)
            return
        wall_start = _time.perf_counter()
        sim_start = self._now
        processed_before = self._processed
        try:
            self._run_loop(until, max_events)
        finally:
            wall = _time.perf_counter() - wall_start
            executed = self._processed - processed_before
            advanced = self._now - sim_start
            tracer.span(
                "sim.run",
                start=sim_start,
                end=self._now,
                events=executed,
                wall_s=round(wall, 6),
                wall_per_sim_s=round(wall / advanced, 6) if advanced > 0 else None,
                events_per_wall_s=round(executed / wall) if wall > 0 else None,
                pending=self.pending_events,
            )

    def _requeue(self, when: float, rest: list) -> None:
        """Return the unexecuted tail of the active slot to the calendar.

        Called when :meth:`stop` or the ``max_events`` valve interrupts a
        slot mid-drain.  Events the callbacks scheduled at ``when`` while
        the slot was being drained live in a *newer* slot (the active one
        was popped from the dict first); the tail goes in front of them so
        the overall order — old entries before new — survives the
        interruption.
        """
        if not rest:
            return
        newer = self._buckets.get(when)
        if newer is None:
            heapq.heappush(self._times, when)
        elif newer.__class__ is list:
            rest += newer
        else:
            rest.append(newer)
        self._buckets[when] = rest

    def _run_loop(self, until: float | None, max_events: int | None) -> None:
        # One loop body serves every (until, max_events) combination: absent
        # limits become +inf, which costs two compares per event — nothing
        # next to the call itself.  A slot is dispatched on its exact class:
        # a tuple or a handle is the lone event at its instant (jittered
        # links spread arrivals, so that is nearly every slot), a list is
        # several in insertion order.  The active slot is popped from the
        # dict before draining, so same-instant events scheduled by its
        # callbacks land in a fresh slot drained right after — keeping
        # insertion order global.
        self._stopped = False
        times = self._times
        buckets = self._buckets
        pop = heapq.heappop
        limit = _INF if until is None else until
        cap = _INF if max_events is None else max_events
        executed = 0
        try:
            while times:
                when = times[0]
                if when > limit:
                    self._now = until
                    return
                pop(times)
                slot = buckets.pop(when)
                self._now = when
                cls = slot.__class__
                if cls is tuple:
                    slot[0](*slot[1:])
                    executed += 1
                elif cls is list:
                    tail = iter(slot)
                    for event in tail:
                        if event.__class__ is tuple:
                            event[0](*event[1:])
                        else:
                            fn = event.fn
                            if fn is None:
                                if self._cancelled > 0:
                                    self._cancelled -= 1
                                continue
                            fn(*event.args)
                        executed += 1
                        if self._stopped or executed > cap:
                            self._requeue(when, list(tail))
                            break
                else:
                    fn = slot.fn
                    if fn is None:
                        if self._cancelled > 0:
                            self._cancelled -= 1
                        continue
                    fn(*slot.args)
                    executed += 1
                if self._stopped:
                    return
                if executed > cap:
                    raise SimulationError(f"exceeded max_events={max_events}")
            if until is not None and self._now < until:
                self._now = until
        finally:
            # Batched: per-event `self._processed += 1` is measurable, and no
            # caller observes the counter while an event callback is running.
            self._processed += executed

    def run_until_idle(self, max_events: int | None = None) -> None:
        """Run until no events remain (alias of ``run()`` with a guard)."""
        self.run(until=None, max_events=max_events)
