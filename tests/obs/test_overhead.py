"""Disabled-tracer overhead: the instrumented scheduler must match bare code.

The contract (docs/OBSERVABILITY.md): with no tracer attached, every
instrumented component pays at most one attribute check per *call site*, and
the scheduler's run loop pays nothing per event.  This test replicates the
scheduler's epoch-calendar hot path — stripped of the tracer wrapper, the
sanitizer audit check and the body of the loop's timer arm — and times both
on the same 10k-event microbench; the instrumented one must stay within 5%.

The microbench is the calendar's degenerate case, a chain with one pending
event: every epoch holds one entry, so each event pays a list and a heap
operation of its own (docs/PERFORMANCE.md, "Sixth round").
"""

import heapq
import time
from bisect import insort

from repro.sim.scheduler import EPOCHS_PER_S, Simulator


class _SeedSimulator:
    """The scheduler's hot path (``post`` -> ``_insert``, ``run``) with no
    instrumentation: no tracer wrapper around the run loop, no tie-audit
    check in ``post``."""

    def __init__(self):
        self._now = 0.0
        self._epochs = {}
        self._occupied = []
        self._run = []
        self._order = []
        self._run_epoch = -1
        self._cursor = 0
        self._epochs_turned = 0
        self._stopped = False
        self._processed = 0

    def post(self, when, fn, args):
        if not self._now <= when < float("inf"):
            raise ValueError(f"cannot schedule at t={when} from t={self._now}")
        self._insert(when, (when, fn, *args), -1)

    def _insert(self, when, item, dst):
        k = int(when * EPOCHS_PER_S)
        if k > self._run_epoch:
            epoch = self._epochs.get(k)
            if epoch is None:
                self._epochs[k] = [when, item, dst]
                heapq.heappush(self._occupied, k)
            else:
                epoch.append(when)
                epoch.append(item)
                epoch.append(dst)
        else:
            run = self._run
            run.append(when)
            run.append(item)
            run.append(dst)
            insort(self._order, len(run) - 3, key=run.__getitem__)

    def run(self, until=None, max_events=None):
        self._stopped = False
        epochs = self._epochs
        occupied = self._occupied
        limit = float("inf") if until is None else until
        last_epoch = limit if until is None else int(limit * EPOCHS_PER_S)
        cap = float("inf") if max_events is None else max_events
        run = self._run
        order = self._order
        i = 0
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
                    if dst >= 0:
                        raise AssertionError("the microbench queues no deliveries")
                    fn = item[1]
                    if item.__class__ is not tuple:
                        raise AssertionError("the microbench queues no timers")
                    fn(*item[2:])
                    executed += 1
                    if self._stopped:
                        return
                    if executed > cap:
                        raise ValueError(f"exceeded max_events={max_events}")
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
            if self._cursor:
                kept = []
                for j in self._order[self._cursor :]:
                    kept += self._run[j : j + 3]
                self._run = kept
                self._order = list(range(0, len(kept), 3))
            self._cursor = 0
            self._processed += executed


def _microbench(sim, events=10_000):
    """Chain of `events` self-rescheduling callbacks; returns wall seconds."""
    count = [0]

    def tick(step):
        count[0] += 1
        if count[0] < events:
            sim.post(sim._now + step, tick, (step,))

    sim.post(0.0, tick, (0.001,))
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    assert count[0] == events
    return elapsed


def _best_of(factory, repeats=9):
    return min(_microbench(factory()) for _ in range(repeats))


def test_disabled_tracer_overhead_under_5_percent():
    # Warm both paths first so neither pays one-time setup costs.
    _microbench(_SeedSimulator(), events=1_000)
    _microbench(Simulator(), events=1_000)
    # Timing comparisons are noisy; take best-of-N and allow a few retries
    # before declaring a real regression.
    for attempt in range(4):
        seed = _best_of(_SeedSimulator)
        instrumented = _best_of(Simulator)
        if instrumented <= seed * 1.05:
            return
    raise AssertionError(
        f"disabled-tracer scheduler {instrumented:.6f}s vs seed {seed:.6f}s "
        f"({instrumented / seed - 1.0:+.1%} > +5%)"
    )


def test_traced_run_does_not_change_event_order():
    from repro.obs import Tracer

    def record(log, label):
        log.append(label)

    logs = ([], [])
    for log, tracer in ((logs[0], None), (logs[1], Tracer())):
        sim = Simulator(tracer=tracer)
        sim.post(0.2, record, (log, "b"))
        sim.post(0.1, record, (log, "a"))
        sim.post(0.2, record, (log, "c"))  # same instant: seq breaks the tie
        sim.run()
    assert logs[0] == logs[1] == ["a", "b", "c"]
