"""Opt-in runtime sanitizers (``REPRO_SANITIZE=1``): freeze-after-send,
RNG stream-collision detection and the scheduler tie-order audit
(:mod:`repro.analysis.sanitizers`, ``docs/ANALYSIS.md``).

This package init stays import-light on purpose: the scheduler, network,
and RNG layers import :mod:`~repro.analysis.sanitizers` on their hot
construction paths.
"""

from . import sanitizers

__all__ = ["sanitizers"]
