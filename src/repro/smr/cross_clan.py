"""Cross-clan transactions via two-phase commit (§6.1, state-sharded mode).

The multi-clan protocol orders everything globally but executes each block
only inside its proposer's clan.  A transaction touching keys owned by two
clans therefore needs coordination.  Following the state-sharding literature
the paper cites (and leaves as future work), we implement the standard
ordered-2PC pattern on top of the global total order:

1. The client submits a ``prepare`` transaction to *each* involved clan; the
   global order fixes one position for every prepare.
2. Executing a prepare locks the local keys and records the read-set digest;
   clan members report the vote (prepared / aborted) to the coordinating
   client, which needs f_c+1 matching votes per clan.
3. The client submits ``commit`` (or ``abort``) transactions to the involved
   clans; executing them applies (or discards) the staged writes and releases
   the locks.

Because every step is itself a globally-ordered transaction, all replicas of
a clan take identical lock/commit decisions — no extra consensus is needed,
exactly the property the multi-clan design provides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..errors import ExecutionError
from .state_machine import ReplayGuard

#: Cross-clan operation tags understood by :class:`ShardedStateMachine`.
PREPARE = "xc-prepare"
COMMIT = "xc-commit"
ABORT = "xc-abort"


@dataclass(slots=True)
class _Staged:
    """A prepared-but-undecided cross-clan write set on one shard."""

    xid: str
    writes: dict[Any, Any]
    locked: frozenset


class ShardedStateMachine:
    """A KV shard with 2PC support, deterministic given the ordered log.

    Local operations are plain ``("set" | "get" | "del" | "incr", ...)``
    tuples (same as :class:`~repro.smr.state_machine.KvStateMachine`); the
    cross-clan ops are::

        (PREPARE, xid, {key: value, ...})   -> "prepared" | "aborted"
        (COMMIT, xid)                        -> "committed" | "unknown"
        (ABORT, xid)                         -> "aborted" | "unknown"

    A prepare aborts deterministically when any of its keys is locked by an
    earlier (globally-ordered) prepare.
    """

    def __init__(self) -> None:
        self._data: dict[Any, Any] = {}
        self._locks: dict[Any, str] = {}
        self._staged: dict[str, _Staged] = {}
        self._applied = ReplayGuard()

    # -- plain operations --------------------------------------------------

    def _apply_local(self, op: tuple) -> Any:
        kind = op[0]
        if kind == "noop":
            return None
        if kind == "set":
            _, key, value = op
            if key in self._locks:
                raise ExecutionError(f"key {key!r} locked by {self._locks[key]}")
            self._data[key] = value
            return value
        if kind == "get":
            return self._data.get(op[1])
        if kind == "del":
            return self._data.pop(op[1], None) is not None
        if kind == "incr":
            _, key, amount = op
            if key in self._locks:
                raise ExecutionError(f"key {key!r} locked by {self._locks[key]}")
            value = self._data.get(key, 0) + amount
            self._data[key] = value
            return value
        raise ExecutionError(f"unknown operation {kind!r}")

    # -- 2PC operations -----------------------------------------------------

    def apply(self, txn_id: str, op: tuple | None) -> Any:
        """Apply one ordered transaction (replay-protected by txn id)."""
        if not self._applied.first(txn_id):
            return None
        if op is None:
            return None
        kind = op[0]
        if kind == PREPARE:
            return self._prepare(op[1], op[2])
        if kind == COMMIT:
            return self._commit(op[1])
        if kind == ABORT:
            return self._abort(op[1])
        return self._apply_local(op)

    def _prepare(self, xid: str, writes: dict) -> str:
        if xid in self._staged:
            return "prepared"  # idempotent
        conflict = any(key in self._locks for key in writes)
        if conflict:
            return "aborted"
        self._staged[xid] = _Staged(
            xid=xid, writes=dict(writes), locked=frozenset(writes)
        )
        for key in writes:
            self._locks[key] = xid
        return "prepared"

    def _commit(self, xid: str) -> str:
        staged = self._staged.pop(xid, None)
        if staged is None:
            return "unknown"
        for key, value in sorted(staged.writes.items(), key=lambda kv: repr(kv[0])):
            self._data[key] = value
        for key in staged.locked:
            if self._locks.get(key) == xid:
                del self._locks[key]
        return "committed"

    def _abort(self, xid: str) -> str:
        staged = self._staged.pop(xid, None)
        if staged is None:
            return "unknown"
        for key in staged.locked:
            if self._locks.get(key) == xid:
                del self._locks[key]
        return "aborted"

    def apply_txn(self, txn) -> Any:
        """Uniform executor entry point (mirrors KvStateMachine)."""
        return self.apply(txn.txn_id, txn.op)

    # -- inspection ------------------------------------------------------------

    def get(self, key: Any) -> Any:
        return self._data.get(key)

    def is_locked(self, key: Any) -> bool:
        return key in self._locks

    def pending_transactions(self) -> set[str]:
        return set(self._staged)

    def state_digest(self) -> bytes:
        from ..crypto.hashing import digest

        items = sorted((repr(k), repr(v)) for k, v in self._data.items())
        locks = sorted((repr(k), x) for k, x in self._locks.items())
        return digest(
            b"sharded-state",
            *[f"{k}={v}" for k, v in items],
            b"locks",
            *[f"{k}:{x}" for k, x in locks],
        )


class CrossClanCoordinator:
    """Client-side 2PC driver over an :class:`~repro.smr.runtime.SmrRuntime`.

    Drives prepare/commit across clans using ordinary per-clan clients; the
    runtime must have been built with ``SmrRuntime(..., sharded=True)``."""

    def __init__(self, runtime, clients_by_clan: dict[int, Any]) -> None:
        self.runtime = runtime
        self.clients = dict(clients_by_clan)
        self._seq = 0

    def begin(self, writes_by_clan: dict[int, dict]) -> "CrossClanTransaction":
        """Submit prepares for a cross-clan write set; returns a handle."""
        self._seq += 1
        xid = f"xc-{self._seq}"
        prepares = {}
        for clan_idx, writes in writes_by_clan.items():
            client = self.clients[clan_idx]
            txn = self.runtime.submit(client, (PREPARE, xid, dict(writes)))
            prepares[clan_idx] = txn
        return CrossClanTransaction(self, xid, prepares)


@dataclass
class CrossClanTransaction:
    """Handle tracking one cross-clan transaction through 2PC."""

    coordinator: CrossClanCoordinator
    xid: str
    prepares: dict[int, Any]
    decision_txns: dict[int, Any] = field(default_factory=dict)
    decision: str | None = None

    def try_decide(self) -> str | None:
        """Once every clan's prepare is accepted, submit commit/abort."""
        if self.decision is not None:
            return self.decision
        votes = {}
        for clan_idx, txn in self.prepares.items():
            client = self.coordinator.clients[clan_idx]
            if not client.is_accepted(txn.txn_id):
                return None  # still waiting on f_c+1 replies
            votes[clan_idx] = client.result_of(txn.txn_id)
        self.decision = (
            "commit" if all(v == "prepared" for v in votes.values()) else "abort"
        )
        op = COMMIT if self.decision == "commit" else ABORT
        for clan_idx in self.prepares:
            client = self.coordinator.clients[clan_idx]
            self.decision_txns[clan_idx] = self.coordinator.runtime.submit(
                client, (op, self.xid)
            )
        return self.decision

    def is_finished(self) -> bool:
        if self.decision is None:
            return False
        return all(
            self.coordinator.clients[ci].is_accepted(t.txn_id)
            for ci, t in self.decision_txns.items()
        )
