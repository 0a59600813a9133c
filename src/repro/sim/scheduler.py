"""Deterministic discrete-event scheduler: a lazily sorted epoch calendar.

**An event** is three consecutive slots ``when, item, dst`` of a flat list —
it has no object of its own:

* a network delivery copy is ``(arrive, record, dst)``.  ``record`` is the
  ``(deliver, src, msg, size)`` tuple that ``Network._transmit`` builds
  *once per send* and shares among all of that send's copies; the copy runs
  as ``deliver(src, dst, msg, size)``.  A pending copy therefore allocates
  nothing the cyclic collector tracks;
* every other event has ``dst = -1`` and an ``item`` shaped ``(when, fn,
  *args)``, run as ``item[1](*item[2:])``.  ``post`` queues a flat tuple —
  no handle, no cancellation; a traced delivery's ``hop`` tuple rides last,
  as the callback's final argument.  ``schedule_at`` queues and returns an
  :class:`EventHandle`, a ``list`` of the same shape; ``cancel()`` clears
  ``fn`` in place and the run loop skips the entry.  Such an event is one
  GC-tracked object.

(docs/PERFORMANCE.md, "Sharing per-copy state (ninth round)": the per-copy
delivery tuple was ~85 % of every young generation the collector scanned.)

**The calendar** buckets events by time and orders a bucket only when the
clock reaches it (Brown's calendar queue, CACM 1988, with one sort per
bucket instead of one heap operation per event).  Simulated time is cut into
epochs of ``1 / EPOCHS_PER_S`` seconds.  Inserting is ``k = int(when *
EPOCHS_PER_S)`` and an append of the three slots to the unsorted list
``_epochs[k]``; the first event of an epoch also pushes ``k`` on a small
heap of ints.  The run loop takes the earliest occupied epoch as ``_run``,
sorts its slot indices once by instant into ``_order`` and walks that with a
cursor.  An event that falls into the epoch being walked (loopback
deliveries at ``now``, sub-millisecond links) is appended to ``_run`` and its
index placed into ``_order`` with ``bisect.insort``.  Per event that is O(1)
plus its share of one sort of a few hundred floats, where a heap of every
pending timestamp paid a log-n, cache-missing sift over ~44k entries at n=40
(docs/PERFORMANCE.md, "Sixth round").

**Insertion order needs no counter.**  ``sorted`` is stable and ``insort``
bisects right — over the consumed prefix of ``_order`` too — so two events
at one instant fire in the order they were inserted, deliveries, posts and
timers alike: exactly the ``(time, seq)`` order of a textbook event heap,
with nothing to maintain.  tests/sim/test_scheduler_properties.py holds the
calendar equal to that heap on generated programs.

Three rules keep it that way:

1. The loop never sorts an epoch later than the one ``until`` falls in; it
   returns with ``now = until`` instead.  So the epoch being walked is never
   ahead of the clock, and events inserted between two ``run(until=...)``
   calls while only a far timer is pending land in O(1) appends, not in
   ``insort``s into that timer's sorted epoch.
2. ``EPOCHS_PER_S`` is a module constant and a power of two: the product
   ``when * EPOCHS_PER_S`` is then exact, so ``when -> k`` is monotone and an
   event can never land in an epoch earlier than one holding an earlier
   event.  Swept across 64x (docs/PERFORMANCE.md): 1024 reads best on both
   the densest and the sparsest benchmark workload (~600 and ~20 events per
   epoch), so no caller needs another value and it is not a constructor
   argument.
3. ``pending_events``, ``cancelled_pending`` and ``_compact`` are exact from
   inside a callback: the cursor is stored before each event runs, so they
   see precisely the entries not yet consumed.

Tracing adds no per-event work: the run loop is wrapped (not instrumented
inside), and the per-run ``sim.run`` span carries event and epoch counts and
wall-clock per simulated second.

Cancelled events stay queued (O(1) cancellation) but are *compacted* away
once they dominate: timer-heavy workloads (one leader timer per node per
round, almost always cancelled) would otherwise pay a per-dead-entry skip in
the run loop and hold the dead args alive.
"""

from __future__ import annotations

import heapq
import time as _time
from bisect import insort
from typing import Any, Callable

from ..analysis import sanitizers as _sanitizers
from ..errors import EventBudgetExceeded, SimulationError
from ..obs.tracer import NULL_TRACER


_INF = float("inf")

#: Epochs per simulated second (rule 2 of the module docstring).  At 1024 an
#: epoch holds ~600 events on the n=40 benchmark workload and ~20 on n=12.
EPOCHS_PER_S = 1024


class EventHandle(list):
    """A cancellable scheduled event; the handle *is* the queued entry.

    It is the list ``[when, fn, *args]`` — the shape of a ``post`` tuple, so
    the run loop fires both the same way, and a ``list`` so that ``cancel()``
    can clear it in place: a pending timer is one GC-tracked object, not a
    handle plus the entry that reaches it (docs/PERFORMANCE.md, "Sixth
    round": a second object per timer cost ``smr_lossy`` +0.45 s of
    collector time in 8 s).  Use only ``time``, ``cancelled`` and
    ``cancel()``.

    Cancellation is O(1): the entry stays queued but its callback is cleared
    and its arguments dropped, and the run loop skips it.  The owning
    simulator counts cancellations so it can compact the calendar when dead
    entries dominate; a handle that has fired detaches from it, so a late
    ``cancel()`` counts nothing.
    """

    #: The owning simulator until the event fires, then None.
    __slots__ = ("_sim",)

    # A handle names one scheduled event: it compares and hashes by identity,
    # like any object, not by list contents.
    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    @property
    def time(self) -> float:
        """Simulated time at which the event fires (or would have fired)."""
        return self[0]

    @property
    def cancelled(self) -> bool:
        """Whether the event was cancelled before it fired."""
        return self[1] is None

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent; no-op once fired."""
        sim = self._sim
        if sim is None or self[1] is None:
            return
        self[1:] = (None,)
        sim._note_cancelled()


class Simulator:
    """A deterministic discrete-event simulator.

    Args:
        tracer: optional :class:`repro.obs.Tracer`; when enabled, each
            ``run()`` call emits a ``sim.run`` span with event counts and
            wall-clock attribution.  Disabled cost: one attribute check per
            ``run()`` call (never per event).
        compact_threshold: once at least this many cancelled entries are
            pending *and* they make up half the calendar, the epochs are
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
        "_epochs",
        "_occupied",
        "_run",
        "_order",
        "_run_epoch",
        "_cursor",
        "_epochs_turned",
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
        #: epoch number -> its events' ``when, item, dst`` slots, unsorted, in
        #: insertion order.
        self._epochs: dict[int, list] = {}
        #: Min-heap of the keys of ``_epochs``: one entry per occupied epoch.
        self._occupied: list[int] = []
        #: The epoch being walked (its slots) and the index of each of its
        #: events' first slot, sorted by instant; ``_order[:_cursor]`` is
        #: consumed, and ``_run_epoch`` is its number (never ahead of
        #: ``now``'s epoch — rule 1 of the module docstring).
        self._run: list = []
        self._order: list[int] = []
        self._run_epoch = -1
        self._cursor = 0
        self._epochs_turned = 0
        self._stopped = False
        self._processed = 0
        self._cancelled = 0
        self._compact_threshold = compact_threshold
        # Next _cancelled value at which the compaction heuristic re-checks;
        # doubled on every failed check so counting pending entries (an
        # O(epochs) sum — there is deliberately no per-insert counter on the
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
        return sum(map(len, self._epochs.values())) // 3 + len(self._order) - self._cursor

    @property
    def cancelled_pending(self) -> int:
        """Cancelled entries still queued."""
        return self._cancelled

    @property
    def compactions(self) -> int:
        """Times the calendar was rebuilt to shed cancelled entries."""
        return self._compactions

    @property
    def epochs_turned(self) -> int:
        """Epochs sorted and walked so far; ``processed_events`` over this is
        the occupancy ``EPOCHS_PER_S`` was sized for."""
        return self._epochs_turned

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, when: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute simulated time ``when``."""
        if not self._now <= when < _INF:  # NaN fails both comparisons
            raise self._refused(when)
        handle = EventHandle((when, fn, *args))
        handle._sim = self
        self._insert(when, handle, -1)
        if self._audit is not None:
            self._audit.note(when, fn)
        return handle

    def post(self, when: float, fn: Callable[..., Any], args: tuple) -> None:
        """Hot-path variant of :meth:`schedule_at`: no handle, no cancellation.

        The queued event is the one flat tuple ``(when, fn, *args)``.
        """
        if not self._now <= when < _INF:  # NaN fails both comparisons
            raise self._refused(when)
        self._insert(when, (when, fn, *args), -1)
        if self._audit is not None:
            self._audit.note(when, fn)

    def _refused(self, when: float) -> SimulationError:
        return SimulationError(
            f"cannot schedule at t={when}: not a finite time at or after t={self._now}"
        )

    def _insert(self, when: float, item: Any, dst: int) -> None:
        """Queue one event at the finite instant ``when >= now``: a shared
        delivery record for ``dst >= 0``, else a ``(when, fn, *args)``
        sequence with ``dst = -1`` (module docstring).

        The one place an event enters the calendar.  Everything after the
        epoch being walked is an append to an unsorted list; an event inside
        that epoch is appended to the run and its index bisected into the
        sorted order — to the right of every entry at or before its instant,
        the consumed ones (``<= now``) included.
        """
        k = int(when * EPOCHS_PER_S)
        if k > self._run_epoch:
            epoch = self._epochs.get(k)
            if epoch is None:
                self._epochs[k] = [when, item, dst]
                heapq.heappush(self._occupied, k)
            else:
                # Three appends beat `epoch += when, item, dst` (no tuple).
                epoch.append(when)
                epoch.append(item)
                epoch.append(dst)
        else:
            run = self._run
            run.append(when)
            run.append(item)
            run.append(dst)
            insort(self._order, len(run) - 3, key=run.__getitem__)

    def stop(self) -> None:
        """Make :meth:`run` return after the current event finishes."""
        self._stopped = True

    def _note_cancelled(self) -> None:
        """Called by :class:`EventHandle` when a pending entry is cancelled."""
        self._cancelled += 1
        if self._cancelled < self._compact_check:
            return
        # Compact once dead entries make up at least half the calendar;
        # otherwise double the re-check point so the pending count (an
        # O(epochs) sum) is amortized O(1) per cancellation.
        if self._cancelled * 2 >= self.pending_events:
            self._compact()
        else:
            self._compact_check = self._cancelled * 2

    def _compact(self) -> None:
        """Drop cancelled entries from every unconsumed part of the calendar
        (O(live) instead of O(dead) skips in the run loop).

        Mutates ``_epochs``, ``_occupied`` and ``_order`` in place on
        purpose: the run loop holds local aliases, and cancellations — hence
        compactions — can happen inside an event callback while the loop is
        mid-epoch.  The consumed prefix of the order stays, so the loop's
        cursor remains valid; the walked epoch's dead slots are left to the
        release at the end of ``run()``.
        """
        epochs = self._epochs
        emptied = []
        for k, epoch in epochs.items():
            live = _live(epoch, range(0, len(epoch), 3))
            if not live:
                emptied.append(k)
            elif len(live) * 3 < len(epoch):
                epoch[:] = [slot for j in live for slot in epoch[j : j + 3]]
        if emptied:
            for k in emptied:
                del epochs[k]
            self._occupied[:] = epochs
            heapq.heapify(self._occupied)
        cursor = self._cursor
        order = self._order
        order[cursor:] = _live(self._run, order[cursor:])
        self._cancelled = 0
        self._compact_check = self._compact_threshold
        self._compactions += 1

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run events in time order.

        Args:
            until: stop once simulated time would exceed this instant; the
                clock is advanced to ``until`` exactly.  Events at ``until``
                itself are executed.
            max_events: safety valve — raise :class:`EventBudgetExceeded` (a
                :class:`SimulationError`) if more than this many events
                execute (runaway-protocol guard).
        """
        tracer = self._tracer
        if not tracer.enabled:
            self._run_loop(until, max_events)
            return
        wall_start = _time.perf_counter()
        sim_start = self._now
        processed_before = self._processed
        turned_before = self._epochs_turned
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
                epochs=self._epochs_turned - turned_before,
                wall_s=round(wall, 6),
                wall_per_sim_s=round(wall / advanced, 6) if advanced > 0 else None,
                events_per_wall_s=round(executed / wall) if wall > 0 else None,
                pending=self.pending_events,
            )

    def _run_loop(self, until: float | None, max_events: int | None) -> None:
        # One loop body serves every (until, max_events) combination: absent
        # limits become +inf, which costs two compares per event — nothing
        # next to the call itself.  `i` is the cursor into `order`; it is
        # stored before the event runs so that insertions, compaction and the
        # pending count made by the callback see exactly the unconsumed
        # entries (rule 3), and `len(order)` is re-read because they may
        # change it.
        self._stopped = False
        epochs = self._epochs
        occupied = self._occupied
        limit = _INF if until is None else until
        # Rule 1: the last epoch this call may sort.
        last_epoch = _INF if limit == _INF else int(limit * EPOCHS_PER_S)
        cap = _INF if max_events is None else max_events
        run = self._run
        order = self._order
        i = 0  # every exit leaves the cursor at 0
        executed = 0
        try:
            while True:
                if i < len(order):
                    j = order[i]
                    when = run[j]
                    if when > limit:
                        break
                    i += 1
                    self._cursor = i
                    self._now = when
                    item = run[j + 1]
                    dst = run[j + 2]
                    if dst >= 0:  # a delivery copy of a shared record
                        deliver, src, msg, size = item
                        deliver(src, dst, msg, size)
                    else:
                        fn = item[1]
                        if item.__class__ is not tuple:  # an EventHandle
                            if fn is None:
                                self._cancelled -= 1
                                continue
                            item._sim = None
                        fn(*item[2:])
                    executed += 1
                    if self._stopped:
                        return
                    if executed > cap:
                        raise EventBudgetExceeded(f"exceeded max_events={max_events}")
                elif occupied and occupied[0] <= last_epoch:
                    k = self._run_epoch = heapq.heappop(occupied)
                    run = self._run = epochs.pop(k)
                    order = self._order = (
                        sorted(range(0, len(run), 3), key=run.__getitem__)
                        if len(run) > 3
                        else [0]
                    )
                    i = self._cursor = 0
                    self._epochs_turned += 1
                else:
                    break
            if until is not None and self._now < until:
                self._now = until
        finally:
            # Release the consumed entries now rather than when the epoch
            # turns: they pin the fired callbacks' arguments (whole messages).
            self._release()
            # Batched: per-event `self._processed += 1` is measurable, and no
            # caller observes the counter while an event callback is running.
            self._processed += executed

    def _release(self) -> None:
        """Rebuild the walked epoch from its unconsumed events, in order, so
        that consumed entries stop pinning their callbacks' arguments."""
        cursor = self._cursor
        if cursor:
            run = self._run
            kept = []
            for j in self._order[cursor:]:
                kept += run[j : j + 3]
            self._run = kept
            self._order = list(range(0, len(kept), 3))
        self._cursor = 0


def _live(slots: list, indices) -> list[int]:
    """The ``indices`` (first slots) of ``slots``' events that are not
    cancelled handles; only ``dst = -1`` items can be."""
    return [j for j in indices if slots[j + 2] >= 0 or slots[j + 1][1] is not None]
