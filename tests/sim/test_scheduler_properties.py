"""Property tests for the scheduler: ordering, determinism, cancellation."""

import heapq

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Simulator
from repro.sim.scheduler import EPOCHS_PER_S


@settings(max_examples=60, deadline=None)
@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=50
    )
)
def test_events_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append((sim.now, d)))
    sim.run()
    times = [t for t, _ in fired]
    assert times == sorted(times)
    assert len(fired) == len(delays)
    for now, delay in fired:
        assert now == delay


@settings(max_examples=40, deadline=None)
@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=30
    ),
    cancel_indices=st.sets(st.integers(min_value=0, max_value=29)),
)
def test_cancelled_events_never_fire(delays, cancel_indices):
    sim = Simulator()
    fired = []
    handles = [
        sim.schedule(delay, fired.append, idx) for idx, delay in enumerate(delays)
    ]
    cancelled = {i for i in cancel_indices if i < len(handles)}
    for idx in cancelled:
        handles[idx].cancel()
    sim.run()
    assert set(fired) == set(range(len(delays))) - cancelled


@settings(max_examples=30, deadline=None)
@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=30
    ),
    split=st.floats(min_value=0.0, max_value=10.0),
)
def test_run_until_is_a_clean_partition(delays, split):
    """run(until=t) then run() fires the same sequence as one run()."""
    def collect(two_phase):
        sim = Simulator()
        fired = []
        for idx, delay in enumerate(delays):
            sim.schedule(delay, fired.append, idx)
        if two_phase:
            sim.run(until=split)
            sim.run()
        else:
            sim.run()
        return fired

    assert collect(True) == collect(False)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_cascading_schedules_deterministic(seed):
    """Events that schedule further events replay identically."""
    import random

    def run():
        rng = random.Random(seed)
        sim = Simulator()
        trace = []

        def step(depth):
            trace.append((round(sim.now, 9), depth))
            if depth < 3:
                for _ in range(rng.randint(1, 3)):
                    sim.schedule(rng.random(), step, depth + 1)

        sim.schedule(0.0, step, 0)
        sim.run(max_events=10_000)
        return trace

    assert run() == run()


# ---------------------------------------------------------------------------
# Model test: the lazily sorted epoch calendar against the textbook
# (time, seq) event heap.
#
# A *program* is a list of top-level ops plus a table of callback scripts.
# Every event gets a fresh id at creation and logs (id, now) when it fires;
# its script may insert more events (only scripts with a higher index, so
# programs terminate), cancel handles (pending, cancelled or already fired),
# stop the run or compact the calendar.  Both backends run the same program;
# everything observable must agree.
#
# An "inline" op is a send: like Network._transmit, the calendar gets one
# shared record and one (when, record, dst) slot triple per copy, each copy
# at its own delay — so one record's copies straddle epochs, land in the
# epoch being walked, and sit beside posts and handles when _compact runs.
# The model sees each copy as an independent event.
# ---------------------------------------------------------------------------

_EPOCH = 1.0 / EPOCHS_PER_S
# Few distinct instants, so events collide — at one instant, inside one
# epoch (sub-epoch and mid-epoch steps), and on either side of an epoch
# boundary (an exact multiple of the width, and a hair short of it).
_DELAYS = (0.0, 0.0, 1e-4, _EPOCH - 1e-12, _EPOCH, 1.5 * _EPOCH, 0.5, 1.0, 1.5)
_KINDS = ("post", "sched", "inline")

_insert = st.one_of(
    st.tuples(
        st.sampled_from(("post", "sched")), st.sampled_from(_DELAYS), st.integers(0, 7)
    ),
    st.tuples(
        st.just("inline"),
        st.lists(st.sampled_from(_DELAYS), min_size=1, max_size=4).map(tuple),
        st.integers(0, 7),
    ),
)
_cancel = st.tuples(st.just("cancel"), st.integers(0, 63))
_compact = st.tuples(st.just("compact"))
_action = st.one_of(_insert, _insert, _cancel, st.tuples(st.just("stop")), _compact)
_run = st.tuples(
    st.just("run"),
    st.sampled_from((None, 0.0, 1e-4, _EPOCH, 1.5 * _EPOCH, 0.5, 1.0, 5.0)),
    st.sampled_from((None, None, 0, 1, 3)),
)
_op = st.one_of(_insert, _insert, _insert, _cancel, _compact, _run)


class _HeapModel:
    """Reference: one ``[time, seq, fn, args]`` heap entry per event, popped
    one at a time.  A popped entry's ``seq`` is cleared, which is how
    ``cancel`` tells a fired handle from a pending one."""

    def __init__(self):
        self.now = 0.0
        self.heap = []
        self.seq = 0
        self.processed = 0
        self.cancelled = 0
        self.stopped = False

    @property
    def pending(self):
        return len(self.heap)

    def insert(self, kind, when, fn, args):
        entry = [when, self.seq, fn, args]
        self.seq += 1
        heapq.heappush(self.heap, entry)
        return entry

    def transmit(self, whens, fire, first_id, script):
        for copy, when in enumerate(whens):
            self.insert("inline", when, fire, (first_id + copy, script))

    def cancel(self, entry):
        if entry[1] is not None and entry[2] is not None:
            entry[2] = None
            self.cancelled += 1

    def stop(self):
        self.stopped = True

    def compact(self):
        self.heap = [entry for entry in self.heap if entry[2] is not None]
        heapq.heapify(self.heap)
        self.cancelled = 0

    def run(self, until, max_events):
        self.stopped = False
        executed = 0
        try:
            while self.heap and (until is None or self.heap[0][0] <= until):
                entry = heapq.heappop(self.heap)
                entry[1] = None
                self.now = entry[0]
                if entry[2] is None:
                    self.cancelled -= 1
                    continue
                entry[2](*entry[3])
                executed += 1
                if self.stopped:
                    return
                if max_events is not None and executed > max_events:
                    raise SimulationError("exceeded max_events")
            if until is not None and self.now < until:
                self.now = until
        finally:
            self.processed += executed


def _deliver_copy(first_id, dst, fire, script):
    fire(first_id + dst, script)


class _Calendar:
    """The real :class:`Simulator` behind the model's interface."""

    def __init__(self):
        # Compaction only when the program asks: the automatic heuristic is
        # test_compaction.py's subject.
        self.sim = Simulator(compact_threshold=10**9)

    now = property(lambda self: self.sim.now)
    processed = property(lambda self: self.sim.processed_events)
    pending = property(lambda self: self.sim.pending_events)
    cancelled = property(lambda self: self.sim.cancelled_pending)

    def insert(self, kind, when, fn, args):
        sim = self.sim
        if kind == "sched":
            return sim.schedule_at(when, fn, *args)
        sim.post(when, fn, args)
        return None

    def transmit(self, whens, fire, first_id, script):
        # What Network._transmit's inline producer does: one record shared
        # by every copy, run as record[0](record[1], dst, *record[2:]).
        record = (_deliver_copy, first_id, fire, script)
        for dst, when in enumerate(whens):
            self.sim._insert(when, record, dst)

    def cancel(self, handle):
        handle.cancel()

    def stop(self):
        self.sim.stop()

    def compact(self):
        self.sim._compact()

    def run(self, until, max_events):
        self.sim.run(until=until, max_events=max_events)


#: Event budget of an uncapped "run" op, on both backends.  No generated
#: program comes near it; a calendar that fires a consumed entry again (an
#: insertion bisected into the consumed prefix shifts it under the cursor)
#: loops forever, and the budget turns that into a failed comparison.
_RUNAWAY = 10_000


def _execute(backend, ops, scripts):
    """Run a program; returns the firing log and the state after each op,
    sampled from inside every callback as well (rule 3 of the scheduler's
    module docstring: the counts are exact mid-epoch)."""
    log = []
    handles = []  # backend handle of every "sched" insertion
    next_id = [0]

    def insert(kind, delay, script):
        eid = next_id[0]
        if kind == "inline":
            next_id[0] += len(delay)
            backend.transmit([backend.now + d for d in delay], fire, eid, script)
            return
        next_id[0] += 1
        handle = backend.insert(kind, backend.now + delay, fire, (eid, script))
        if kind == "sched":
            handles.append(handle)

    def apply(action, base):
        if action[0] in _KINDS:
            insert(action[0], action[1], base + action[2])
        elif action[0] == "cancel":
            if handles:
                backend.cancel(handles[action[1] % len(handles)])
        elif action[0] == "stop":
            backend.stop()
        elif action[0] == "compact":
            backend.compact()

    def fire(eid, script):
        if script < len(scripts):
            for action in scripts[script]:
                apply(action, script + 1)
        log.append((eid, backend.now, backend.pending, backend.cancelled))

    states = []
    for op in ops:
        if op[0] == "run":
            try:
                cap = _RUNAWAY if op[2] is None else op[2]
                backend.run(None if op[1] is None else backend.now + op[1], cap)
                outcome = "ok"
            except SimulationError:
                outcome = "max_events"
        else:
            apply(op, 0)
            outcome = None
        states.append(
            (outcome, backend.now, backend.processed, backend.pending, backend.cancelled)
        )
    return log, states


_DRAIN = ("run", None, None)


@settings(max_examples=300, deadline=None)
@given(
    ops=st.lists(_op, min_size=1, max_size=25),
    scripts=st.lists(st.lists(_action, max_size=4), min_size=1, max_size=8),
)
# one instant through each producer, fired in insertion order
@example(ops=[("inline", (1.0,), 9), ("sched", 1.0, 9), ("post", 1.0, 9), _DRAIN], scripts=[[]])
# insertion at `now` from a callback: behind what is already queued there
@example(
    ops=[("post", 1.0, 0), ("post", 1.0, 1), _DRAIN],
    scripts=[[("inline", (0.0,), 9), ("sched", 0.0, 9)], [("post", 0.0, 9)]],
)
# insertion into the epoch being drained, ahead of and behind a queued entry
@example(
    ops=[("post", 1.0, 0), ("post", 1.0008, 9), _DRAIN],
    scripts=[[("sched", 0.0009, 9), ("inline", (0.0003,), 9), ("post", 0.0003, 9)]],
)
# run(until) stops mid-epoch, then an external insertion earlier in that epoch
@example(
    ops=[("post", 1.0008, 9), ("run", 1.0004, None), ("post", 0.0002, 9),
         ("sched", 0.0, 9), ("inline", (0.0006,), 9), _DRAIN],
    scripts=[[]],
)
# cancelled entry: skipped by the loop, and dropped by _compact
@example(ops=[("sched", 1.0, 9), ("cancel", 0), _DRAIN], scripts=[[]])
@example(
    ops=[("sched", 1.0, 9), ("post", 0.5, 9), ("cancel", 0), ("compact",), _DRAIN],
    scripts=[[]],
)
# cancel() of a handle that already fired counts nothing
@example(ops=[("sched", 0.5, 9), _DRAIN, ("cancel", 0), ("sched", 0.5, 9)], scripts=[[]])
# stop() mid-epoch, with an insertion between the stop and the resume point
@example(
    ops=[("post", 1.0, 0), ("post", 1.0002, 9), ("sched", 1.0004, 9), _DRAIN,
         ("post", 0.0001, 9), _DRAIN],
    scripts=[[("inline", (0.0001,), 9), ("stop",)]],
)
# max_events mid-epoch, one of the entries left behind cancelled, then resume
@example(
    ops=[("post", 0.5, 0), ("sched", 0.5001, 9), ("post", 0.5002, 9), ("run", None, 0), _DRAIN],
    scripts=[[("post", 0.0, 9), ("post", 0.0001, 9), ("cancel", 0)]],
)
# _compact from inside a callback reaches the rest of the epoch being drained
@example(
    ops=[("post", 1.0, 0), ("sched", 1.0, 9), ("sched", 1.0002, 9), ("sched", 2.0, 9), _DRAIN],
    scripts=[[("cancel", 0), ("cancel", 1), ("compact",), ("stop",)]],
)
# ... and empties a future epoch, which leaves the calendar altogether
@example(
    ops=[("post", 1.0, 0), ("sched", 2.0, 9), ("sched", 2.0, 9), ("post", 3.0, 9), _DRAIN],
    scripts=[[("cancel", 0), ("cancel", 1), ("compact",)]],
)
# one record, four copies: two in the epoch being walked (one at `now`),
# one later in it, one in a future epoch — between posts and handles
@example(
    ops=[("post", 1.0, 0), ("sched", 1.0, 9), ("post", 1.0003, 9), _DRAIN],
    scripts=[[("inline", (0.0, 0.5, 0.0002, 0.0), 9), ("post", 0.0, 9)]],
)
# _compact over an epoch of mixed slots: copies, posts and cancelled handles
@example(
    ops=[("inline", (1.0, 1.0, 2.0), 9), ("sched", 1.0, 9), ("post", 1.0, 9),
         ("sched", 2.0, 9), ("cancel", 0), ("cancel", 1), ("compact",), _DRAIN],
    scripts=[[]],
)
# ... and over the epoch being walked, from inside a callback
@example(
    ops=[("post", 1.0, 0), ("sched", 1.0001, 9), ("sched", 1.0002, 9), _DRAIN],
    scripts=[[("inline", (0.0001, 0.0, 0.0003), 9), ("cancel", 1), ("compact",)]],
)
def test_calendar_matches_heap_model(ops, scripts):
    expected = _execute(_HeapModel(), ops, scripts)
    actual = _execute(_Calendar(), ops, scripts)
    assert actual == expected


def test_bounded_run_never_sorts_an_epoch_beyond_until():
    """Rule 1: with only a far timer pending, run(until) must not turn the
    timer's epoch into the sorted run — or every later insertion before it
    would be an O(n) insort instead of an append."""
    sim = Simulator()
    fired = []
    sim.schedule_at(4.0, fired.append, "timer")
    sim.run(until=1.0)
    turned = sim.epochs_turned
    for i in range(10_000):
        # 7919 is coprime to 10^4: every instant in [1.0, 3.9) is distinct.
        sim.post(1.0 + 2.9 * ((i * 7919) % 10_000) / 10_000, fired.append, (i,))
    assert len(sim._run) <= 1
    assert sim.epochs_turned == turned
    assert sim.pending_events == 10_001
    sim.run()
    assert fired.pop() == "timer"
    assert fired == sorted(range(10_000), key=lambda i: (i * 7919) % 10_000)
