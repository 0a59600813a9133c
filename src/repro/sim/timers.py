"""Restartable one-shot timers on top of the simulator.

Consensus nodes use these for round/leader timeouts: set when entering a
round, cancelled when the leader vertex arrives, restarted on round change.
"""

from __future__ import annotations

from typing import Any, Callable

from .scheduler import EventHandle, Simulator

#: Simulated-time instants closer than this are the same instant.  Event
#: times are sums of float delays well below 10⁴ seconds, so a nanosecond
#: of slack absorbs accumulated ulp error without ever merging two events
#: the latency model meant to separate (its minimum delay is ≥ 1 µs).
TIME_TOLERANCE = 1e-9


def times_close(a: float, b: float, tol: float = TIME_TOLERANCE) -> bool:
    """Whether two simulated-time values denote the same instant.

    Two paths to "the same" time differ in the last ulp (float addition is
    not associative), so ``==``/``!=`` on event times encodes a coincidence
    of rounding.  Compare simulated times through this, not with ``==``.
    """
    return abs(a - b) <= tol


class Timer:
    """A one-shot timer that can be (re)started and cancelled.

    >>> sim = Simulator()
    >>> fired = []
    >>> t = Timer(sim, 2.0, lambda: fired.append(sim.now))
    >>> t.start()
    >>> sim.run()
    >>> fired
    [2.0]
    """

    __slots__ = ("_sim", "_duration", "_fn", "_args", "_handle")

    def __init__(
        self,
        sim: Simulator,
        duration: float,
        fn: Callable[..., Any],
        *args: Any,
    ) -> None:
        self._sim = sim
        self._duration = duration
        self._fn = fn
        self._args = args
        self._handle: EventHandle | None = None

    @property
    def duration(self) -> float:
        return self._duration

    @property
    def running(self) -> bool:
        return self._handle is not None and not self._handle.cancelled

    def start(self, duration: float | None = None) -> None:
        """Start (or restart) the timer; a running instance is cancelled first."""
        self.cancel()
        if duration is not None:
            self._duration = duration
        self._handle = self._sim.schedule(self._duration, self._fire)

    def cancel(self) -> None:
        """Stop the timer without firing.  Idempotent."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        self._handle = None
        self._fn(*self._args)
