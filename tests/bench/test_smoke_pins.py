"""Bit-identical pins on the smoke configuration, serial and fanned out.

``SMOKE_CONFIG`` (single-clan n=12/6, load 250, 6 simulated s) is the
default ``repro profile`` target.  Its simulated results are deterministic,
so they are pinned exactly: any drift is a behavioural change of the
protocol stack, never host noise.  The grid runs once at ``jobs=2`` (with a
second point, so the shared executor really fans out) and once serially;
both must read the pinned figures.
"""

from __future__ import annotations

from dataclasses import replace

from repro.bench import parallel
from repro.bench.parallel import clear_memory_cache, run_grid
from repro.bench.profiling import SMOKE_CONFIG

PINNED_SIM_EVENTS = 126_475
PINNED_THROUGHPUT_TPS = 8_562.5
PINNED_COMMITTED_TXNS = 34_250


def _assert_pinned(metrics) -> None:
    assert metrics.sim_events == PINNED_SIM_EVENTS
    assert metrics.throughput_tps == PINNED_THROUGHPUT_TPS
    assert metrics.committed_txns == PINNED_COMMITTED_TXNS


def test_smoke_pins_hold_serial_and_fanned_out():
    neighbour = replace(SMOKE_CONFIG, seed=SMOKE_CONFIG.seed + 1)
    clear_memory_cache()
    try:
        fanned = run_grid([SMOKE_CONFIG, neighbour], jobs=2, cache=False)
        assert parallel._POOL is not None  # went through the executor
        clear_memory_cache()
        serial = run_grid([SMOKE_CONFIG], jobs=1, cache=False)
    finally:
        clear_memory_cache()
    _assert_pinned(fanned[0])
    _assert_pinned(serial[0])
    assert fanned[0] == serial[0]
