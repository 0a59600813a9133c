"""Exception hierarchy for the repro library.

Every error raised by this package derives from :class:`ReproError`, so callers
can catch one type at an API boundary without masking unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """A configuration value is inconsistent or out of range."""


class SimulationError(ReproError):
    """The discrete-event simulator was driven into an invalid state."""


class EventBudgetExceeded(SimulationError):
    """A run executed more events than its ``max_events`` budget allowed."""


class NetworkError(ReproError):
    """Invalid use of the simulated network (unknown node, bad size, ...)."""


class CryptoError(ReproError):
    """Signature/certificate construction or verification failure."""


class CommitteeError(ReproError):
    """Clan election or committee-statistics parameters are invalid."""


class BroadcastError(ReproError):
    """Invalid use of a reliable-broadcast instance."""


class DagError(ReproError):
    """DAG structural invariant violated (missing parents, duplicates, ...)."""


class ConsensusError(ReproError):
    """Consensus protocol invariant violated."""


class ExecutionError(ReproError):
    """State-machine execution failed (bad transaction, missing block, ...)."""


class SanitizerError(ReproError):
    """A runtime sanitizer (``REPRO_SANITIZE=1``) caught an invariant
    violation: a message mutated after send, an RNG stream collision, or a
    misuse of the sanitizer API itself."""
