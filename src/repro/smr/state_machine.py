"""A deterministic key-value state machine.

Transactions carry operation tuples; applying the same ordered log to two
instances yields byte-identical states (checked via :meth:`state_digest`).
Supported operations::

    ("set",  key, value)   -> returns value
    ("get",  key)          -> returns current value (or None)
    ("del",  key)          -> returns True if the key existed
    ("incr", key, amount)  -> returns the new counter value
    ("noop",)              -> returns None
"""

from __future__ import annotations

from typing import Any

from ..crypto.hashing import digest
from ..dag.transaction import Transaction
from ..errors import ExecutionError
from ..net.transport import SeqWindow


class ReplayGuard:
    """Replay protection for transaction ids, bounded by the reorder window.

    An id ``<head>:<n>`` with ``n`` a canonical positive decimal (ASCII
    digits, no leading zero, at most 18 of them) -- what
    :meth:`~repro.smr.client.Client.create_txn` issues -- is deduped in the
    :class:`~repro.net.transport.SeqWindow` of its ``head``, so a client's
    ids cost a watermark plus those applied out of order.  Every other id
    goes to one exact set.  The home of an id depends on its string alone,
    never on a window's state: an id that could change homes as a
    watermark advances could be applied twice.
    """

    __slots__ = ("_windows", "_others")

    def __init__(self) -> None:
        self._windows: dict[str, SeqWindow] = {}
        self._others: set[str] = set()

    def first(self, txn_id: str) -> bool:
        """Record ``txn_id``; True the first time it is seen, else False."""
        head, sep, n = txn_id.rpartition(":")
        if sep and n.isascii() and n.isdigit() and n[0] != "0" and len(n) <= 18:
            window = self._windows.get(head)
            if window is None:
                window = self._windows[head] = SeqWindow()
            return window.accept(int(n))
        if txn_id in self._others:
            return False
        self._others.add(txn_id)
        return True


class KvStateMachine:
    """Deterministic in-memory KV store with replay protection."""

    def __init__(self) -> None:
        self._data: dict[Any, Any] = {}
        self._applied = ReplayGuard()
        self.applied_count = 0

    def apply(self, txn: Transaction) -> Any:
        """Execute one transaction; duplicates (same txn_id) are no-ops."""
        if not self._applied.first(txn.txn_id):
            return None
        self.applied_count += 1
        op = txn.op
        if op is None:
            return None
        kind = op[0]
        if kind == "noop":
            return None
        if kind == "set":
            _, key, value = op
            self._data[key] = value
            return value
        if kind == "get":
            return self._data.get(op[1])
        if kind == "del":
            return self._data.pop(op[1], None) is not None
        if kind == "incr":
            _, key, amount = op
            value = self._data.get(key, 0) + amount
            self._data[key] = value
            return value
        raise ExecutionError(f"unknown operation {kind!r}")

    def apply_txn(self, txn: Transaction) -> Any:
        """Uniform executor entry point (see also ShardedStateMachine)."""
        return self.apply(txn)

    def get(self, key: Any) -> Any:
        return self._data.get(key)

    def state_digest(self) -> bytes:
        """Digest of the full state — equal on replicas that agree."""
        items = sorted((repr(k), repr(v)) for k, v in self._data.items())
        return digest(b"kv-state", *[f"{k}={v}" for k, v in items])

    def __len__(self) -> int:
        return len(self._data)
