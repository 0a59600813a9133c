"""The network's delivery shortcuts must be pure optimizations.

``Network`` has one pipeline — ``_transmit`` turns a send into calendar
events, ``_deliver`` turns an arrival into a handler call — with three
shortcuts on it, each gated by eligibility computed in ``Network.__init__``
or installed by the node: per-class dispatch tables (``set_dispatch``),
inline calendar-slot insertion instead of ``Simulator.post``, and the message
arena.  These tests switch the shortcuts off, all at once and through each
configuration that disables them for real, and assert the resulting
:class:`RunMetrics` are **bit-identical** to the default run: a shortcut may
change how events are scheduled and objects allocated, never what the
simulation computes.  Both insertion producers (inline, ``post``), both
record shapes (bare, with a trace tail — alone and interleaved) and both
``_deliver`` visits (arrival, CPU-queue re-entry) are on one side of some
comparison.
"""

from __future__ import annotations

from dataclasses import asdict, replace
from functools import lru_cache

import pytest

import repro.net.network as netmod
from repro.bench.runner import ExperimentConfig, _simulate
from repro.net.adversary import DelayAdversary
from repro.obs import Tracer

#: Jittered geo latency (RNG draw per delivery), a lossy/duplicating point so
#: the fault-copies branch is exercised on both paths, and baseline Sailfish
#: with sparse edges (the n³ ECHO fan-out the flat delivery records serve).
CONFIGS = [
    ExperimentConfig(
        protocol="sailfish", n=7, txns_per_proposal=50, duration=1.5,
        warmup=0.5, seed=11,
    ),
    ExperimentConfig(
        protocol="single-clan", n=8, clan_size=4, txns_per_proposal=50,
        duration=1.5, warmup=0.5, seed=12, drop_rate=0.05,
        duplicate_rate=0.02, reliable=True,
    ),
    ExperimentConfig(
        protocol="sailfish", n=10, txns_per_proposal=20, duration=1.2,
        warmup=0.4, seed=13, edge_mode="sparse",
    ),
]


class _ZeroDelayAdversary(DelayAdversary):
    """Adds 0.0 s, but not being the base class it forces every delivery
    through ``extra_delay`` and ``Simulator.post``."""


def _patched_network(mp: pytest.MonkeyPatch, before=None, after=None) -> None:
    real_init = netmod.Network.__init__

    def init(self, *args, **kwargs):
        if before is not None:
            before(kwargs)
        real_init(self, *args, **kwargs)
        if after is not None:
            after(self)

    mp.setattr(netmod.Network, "__init__", init)


def _all_shortcuts_off(net) -> None:
    net.set_dispatch = None  # nodes probe for it: every message via the catch-all
    net._inline = False
    net.arena = None
    net._retire = None


#: Receive-side cost for the ``cpu`` variant: every delivery visits
#: ``_deliver`` twice, with the CPU queue fed by the inline producer on one
#: side and by ``post`` on the other.
CPU_PER_MESSAGE = 2e-5


@lru_cache(maxsize=None)
def _inline_run(index: int, cpu_per_message: float = 0.0) -> dict:
    return asdict(_simulate(replace(CONFIGS[index], cpu_per_message=cpu_per_message)))


@pytest.mark.parametrize("index", range(len(CONFIGS)))
@pytest.mark.parametrize(
    "variant", ["all-off", "tie-audit", "adversary", "traced", "sampled", "cpu"]
)
def test_non_inline_producers_match_inline_run(index, variant):
    """Explicit A/B: the default (inline) run vs one variant."""
    config = CONFIGS[index]
    if variant == "cpu":
        config = replace(config, cpu_per_message=CPU_PER_MESSAGE)
    fast = _inline_run(index, config.cpu_per_message)
    tracer = None
    with pytest.MonkeyPatch.context() as mp:
        if variant in ("all-off", "cpu"):
            _patched_network(mp, after=_all_shortcuts_off)
        elif variant == "tie-audit":
            # Sanitizers on: every insertion goes through `post` (the tie
            # auditor observes it) and every delivery through the freeze
            # re-check stage.
            mp.setenv("REPRO_SANITIZE", "1")
        elif variant == "adversary":
            _patched_network(
                mp, before=lambda kw: kw.update(adversary=_ZeroDelayAdversary())
            )
        elif variant == "traced":
            tracer = Tracer(sample=1.0)  # every record carries a trace tail
        else:
            # Traced and untraced records interleaved inside one loop.
            tracer = Tracer(sample=1 / 4)
        slow = asdict(_simulate(config, tracer=tracer))
    assert fast == slow, f"{variant} diverged from the inline run ({config.protocol})"


def test_arena_disabled_under_sanitizers(monkeypatch):
    """REPRO_SANITIZE installs the freeze guard, which keys on message
    identity — pooling must switch off."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    from repro.sim.scheduler import Simulator

    sim = Simulator()
    net = netmod.Network(sim, 4)
    assert net.freeze_guard is not None
    assert net.arena is None


def test_arena_active_on_plain_runs():
    from repro.sim.scheduler import Simulator

    sim = Simulator()
    net = netmod.Network(sim, 4)
    if net.freeze_guard is not None:  # suite running under REPRO_SANITIZE=1
        assert net.arena is None
        return
    assert net.arena is not None
    assert net._max_delay is not None and len(net._max_delay) == 4
