"""Heap compaction: cancelled entries must not accumulate unboundedly.

Timer-heavy workloads (a leader timer per node per round, almost always
cancelled before firing) used to leave every dead entry in the heap until the
run loop popped it.  Compaction rebuilds the heap once cancelled entries pass
the threshold AND make up at least half the queue.
"""

from repro.sim import Simulator
from repro.sim.timers import Timer


def test_10k_cancelled_timers_are_compacted():
    sim = Simulator(compact_threshold=1024)
    handles = [sim.schedule(100.0 + i * 1e-6, lambda: None) for i in range(10_000)]
    assert sim.pending_events == 10_000
    for handle in handles:
        handle.cancel()
    # Compaction ran (several times) and emptied the heap of dead entries.
    assert sim.compactions >= 1
    assert sim.pending_events < 1024
    assert sim.cancelled_pending < 1024
    sim.run()
    assert sim.processed_events == 0


def test_compaction_respects_threshold():
    sim = Simulator(compact_threshold=1024)
    handles = [sim.schedule(1.0, lambda: None) for i in range(1000)]
    for handle in handles:
        handle.cancel()
    # Under the threshold: no compaction yet, dead entries still queued.
    assert sim.compactions == 0
    assert sim.pending_events == 1000


def test_compaction_preserves_live_events():
    sim = Simulator(compact_threshold=64)
    fired = []
    live = [sim.schedule(float(i + 1), fired.append, i) for i in range(50)]
    dead = [sim.schedule(1000.0, fired.append, "never") for _ in range(200)]
    for handle in dead:
        handle.cancel()
    assert sim.compactions >= 1
    sim.run()
    assert fired == list(range(50))
    assert all(not h.cancelled for h in live)


def test_compaction_mid_run_keeps_loop_consistent():
    """Cancellations from inside callbacks trigger compaction while the run
    loop holds its local alias to the heap; the rebuild must be in-place."""
    sim = Simulator(compact_threshold=128)
    fired = []
    pending = []

    def cancel_batch_and_schedule(i):
        fired.append(i)
        for handle in pending:
            handle.cancel()
        pending.clear()
        if i < 20:
            # Re-arm a fresh batch of soon-to-be-cancelled timers, like a
            # node resetting its leader timeout each round.
            for _ in range(100):
                pending.append(sim.schedule(500.0, fired.append, "never"))
            sim.schedule(0.1, cancel_batch_and_schedule, i + 1)

    sim.schedule(0.1, cancel_batch_and_schedule, 0)
    sim.run()
    assert fired == list(range(21))
    assert sim.compactions >= 1


def test_cancel_is_idempotent_in_accounting():
    sim = Simulator(compact_threshold=1024)
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    handle.cancel()
    assert sim.cancelled_pending == 1


def test_cancelling_fired_handles_counts_nothing():
    """Timers, transports and pull loops cancel handles that already fired;
    those must not feed the half-dead heuristic phantom entries."""
    sim = Simulator()
    handles = [sim.schedule(0.1 * i, lambda: None) for i in range(5)]
    sim.run()
    for handle in handles:
        handle.cancel()
    assert sim.pending_events == 0
    assert sim.cancelled_pending == 0
    assert not any(handle.cancelled for handle in handles)


def test_timers_feed_compaction():
    sim = Simulator(compact_threshold=256)
    timers = [Timer(sim, 100.0, lambda: None) for _ in range(2000)]
    for timer in timers:
        timer.start()
    for timer in timers:
        timer.cancel()
    assert sim.compactions >= 1
    sim.run()
    assert sim.processed_events == 0
