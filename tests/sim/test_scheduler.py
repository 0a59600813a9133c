"""Unit tests for the discrete-event scheduler."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, order.append, "c")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(2.0, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_events_run_in_schedule_order():
    sim = Simulator()
    order = []
    for tag in range(10):
        sim.schedule(1.0, order.append, tag)
    sim.run()
    assert order == list(range(10))


def test_schedule_from_within_event():
    sim = Simulator()
    seen = []

    def first():
        seen.append(("first", sim.now))
        sim.schedule(0.5, second)

    def second():
        seen.append(("second", sim.now))

    sim.schedule(1.0, first)
    sim.run()
    assert seen == [("first", 1.0), ("second", 1.5)]


def test_zero_delay_event_runs_at_current_time():
    sim = Simulator()
    times = []
    sim.schedule(1.0, lambda: sim.schedule(0.0, lambda: times.append(sim.now)))
    # Two events; the guard turns a calendar that fires the first one again
    # (it would reschedule forever) into a failure instead of a hang.
    sim.run(max_events=10)
    assert times == [1.0]


def test_run_until_stops_clock_exactly():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(5.0, fired.append, 5)
    sim.run(until=2.0)
    assert fired == [1]
    assert sim.now == 2.0
    sim.run()
    assert fired == [1, 5]


def test_run_until_in_the_past_does_not_rewind_the_clock():
    sim = Simulator()
    sim.schedule(3.0, lambda: None)
    sim.run(until=2.0)
    sim.run(until=1.0)
    assert sim.now == 2.0 and sim.pending_events == 1


def test_run_until_includes_boundary_events():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "x")
    sim.run(until=2.0)
    assert fired == ["x"]


def test_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    handle.cancel()
    assert handle.cancelled
    sim.run()
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()


def test_handles_are_distinct_by_identity():
    """A handle is the queued ``[when, fn, *args]`` list, but it names one
    scheduled event: equal contents must not make two timers equal."""
    sim = Simulator()
    fired = []
    first = sim.schedule(1.0, fired.append, "x")
    second = sim.schedule(1.0, fired.append, "x")
    assert first != second and first == first
    assert len({first, second}) == 2 and second not in [first]
    second.cancel()
    assert (first.cancelled, second.cancelled) == (False, True)
    assert first.time == second.time == 1.0
    sim.run()
    assert fired == ["x"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


@pytest.mark.parametrize("entry", ["schedule", "schedule_at", "post"])
@pytest.mark.parametrize("when", [float("nan"), float("inf"), -0.1])
def test_non_finite_or_past_instant_rejected(entry, when):
    """A NaN would void the calendar's order and an inf never fires; both are
    refused with the typed error, like an instant in the past."""
    sim = Simulator()
    with pytest.raises(SimulationError):
        if entry == "post":
            sim.post(when, lambda: None, ())
        else:
            getattr(sim, entry)(when, lambda: None)
    assert sim.pending_events == 0


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_stop_halts_run():
    sim = Simulator()
    fired = []

    def first():
        fired.append(1)
        sim.stop()

    sim.schedule(1.0, first)
    sim.schedule(2.0, fired.append, 2)
    sim.run()
    assert fired == [1]
    # After stop, the second event is still pending and runs on the next run().
    assert sim.pending_events == 1
    sim.run()
    assert fired == [1, 2]


def test_max_events_guard():
    sim = Simulator()

    def loop():
        sim.schedule(0.1, loop)

    sim.schedule(0.1, loop)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_processed_events_counter():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.processed_events == 5


def test_advance_clock_with_no_events():
    sim = Simulator()
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_epochs_turned_counts_epochs_not_events():
    """One increment per occupied epoch, reported per run() on the span."""
    from repro.obs import Tracer
    from repro.sim.scheduler import EPOCHS_PER_S

    tracer = Tracer()
    sim = Simulator(tracer=tracer)
    width = 1.0 / EPOCHS_PER_S
    for epoch in (3, 4, 9):
        for i in range(5):  # five events inside each of three epochs
            sim.post((epoch + i / 8) * width, lambda: None, ())
    sim.run(until=5 * width)
    assert (sim.processed_events, sim.epochs_turned) == (10, 2)
    sim.run()
    assert (sim.processed_events, sim.epochs_turned) == (15, 3)
    spans = [r.attrs for r in tracer.records() if r.name == "sim.run"]
    assert [(a["events"], a["epochs"]) for a in spans] == [(10, 2), (5, 1)]
