"""Protocol parameters."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError


@dataclass(frozen=True)
class ProtocolParams:
    """Tunables of the consensus protocol.

    Args:
        rbc_mode: ``"two-round"`` (signed ECHOs + certificates, as in the
            paper's evaluation), ``"bracha"`` (signature-free, 3 rounds),
            ``"optimistic"`` (signature-free 2-round fast path on all-to-all
            ECHO agreement, Bracha fallback on conflict/timeout/READY), or
            ``"prefix"`` (Raptr-style chunked blocks with certified-prefix
            commits; Bracha-style vertex certification).
        leader_timeout: seconds a node waits for the round leader's vertex
            before multicasting a no-vote.
        verify_signatures: verify every signature structurally.  Disabling
            this is a benchmark-only shortcut for all-honest runs; the CPU
            cost model still charges verification time in simulated time.
        max_rounds: stop proposing after this round (0 = unlimited); the
            benchmark harness uses it to bound runs.
        catchup: enable the crash-recovery/lagging-node DAG synchronizer
            (:mod:`repro.consensus.sync`).
        sync_gap_threshold: how many rounds behind the observed frontier a
            node may fall before it enters catch-up mode.
        sync_batch_rounds: rounds of vertices requested per sync pull.
        sync_retry_timeout: initial retry interval for sync pulls (backs off
            exponentially, capped, like payload pulls).
        gc_depth: rounds of retrieval state kept behind the commit frontier
            before garbage collection (0 disables GC).
        fallback_timeout: (optimistic mode) how long an RBC instance waits
            for all-to-all ECHO agreement before switching to the
            pessimistic READY path.
        block_chunks: (prefix mode) chunks a block is split into; voters
            attest the prefix they hold and the commit rule orders the
            certified prefix.
        edge_mode: ``"full"`` (every vertex strong-references all delivered
            previous-round vertices, as in the paper) or ``"sparse"``
            (Clownfish-style reduced fan-out: non-leader vertices reference
            the previous leader plus ``edge_fanout - 1`` targets drawn from
            the shared leader-schedule RNG stream; leader vertices keep full
            edges and indirect commits use any-edge reachability — the
            compensating commit rule, see DESIGN.md).
        edge_fanout: strong edges per non-leader vertex in sparse mode
            (0 = auto: ``max(3, bit_length(n))``, i.e. ~log2 n).
    """

    rbc_mode: str = "two-round"
    leader_timeout: float = 1.5
    verify_signatures: bool = True
    max_rounds: int = 0
    catchup: bool = True
    sync_gap_threshold: int = 5
    sync_batch_rounds: int = 20
    sync_retry_timeout: float = 0.5
    gc_depth: int = 8
    fallback_timeout: float = 0.5
    block_chunks: int = 4
    edge_mode: str = "full"
    edge_fanout: int = 0

    def fanout_for(self, n: int) -> int:
        """The effective sparse fan-out for a tribe of ``n`` parties."""
        return self.edge_fanout if self.edge_fanout else max(3, n.bit_length())

    def __post_init__(self) -> None:
        if self.rbc_mode not in ("two-round", "bracha", "optimistic", "prefix"):
            raise ConfigError(f"unknown rbc_mode {self.rbc_mode!r}")
        if self.edge_mode not in ("full", "sparse"):
            raise ConfigError(f"unknown edge_mode {self.edge_mode!r}")
        if self.edge_fanout < 0:
            raise ConfigError("edge_fanout cannot be negative")
        if self.leader_timeout <= 0:
            raise ConfigError("leader_timeout must be positive")
        if self.max_rounds < 0:
            raise ConfigError("max_rounds cannot be negative")
        if self.sync_gap_threshold < 1:
            raise ConfigError("sync_gap_threshold must be at least 1")
        if self.sync_batch_rounds < 1:
            raise ConfigError("sync_batch_rounds must be at least 1")
        if self.sync_retry_timeout <= 0:
            raise ConfigError("sync_retry_timeout must be positive")
        if self.gc_depth < 0:
            raise ConfigError("gc_depth cannot be negative")
        if self.fallback_timeout <= 0:
            raise ConfigError("fallback_timeout must be positive")
        if self.block_chunks < 1:
            raise ConfigError("block_chunks must be at least 1")
