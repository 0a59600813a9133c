"""Opt-in runtime sanitizers: determinism and message invariants, checked
while the protocol runs.

Enabled by ``REPRO_SANITIZE=1`` in the environment; when the variable is
unset nothing here is instantiated — the hooks in the scheduler, network,
and RNG layers reduce to a single ``is None`` check, so production and
benchmark runs pay nothing.

Three sanitizers ship:

* **Freeze-after-send** (:class:`FreezeGuard`) — the network digests every
  message as it is handed over and re-checks the digest at each delivery
  (and at every retransmission of the same object).  Because delivery is
  zero-copy by reference, a post-send mutation would silently rewrite what
  recipients observe; the guard turns that into a hard
  :class:`~repro.errors.SanitizerError` at the exact delivery that would
  have seen torn state.
* **RNG stream-collision detection** (:func:`note_stream`) — errors when two
  components derive :func:`repro.sim.rng.make_rng` streams with identical
  ``(master_seed, labels)`` in the same run: shared streams mean one
  component's draws perturb another's, the exact coupling named streams
  exist to prevent.  Streams that are *intentionally* common knowledge
  (e.g. the leader-schedule beacon every node re-derives) are declared with
  ``make_rng(..., shared=True)`` and exempted — but deriving the same labels
  both shared and exclusive is still an error.
* **Scheduler tie-order audit** (:class:`TieAudit`) — records events
  scheduled at identical simulated times.  Ties are broken by insertion
  sequence number, which is deterministic only because insertion order is;
  the audit surfaces *mixed* ties (different callbacks racing at one
  instant) and a running order digest so two runs can be compared.

Run scoping: :func:`begin_run` is called by ``Simulator.__init__`` (one
simulator = one run), clearing the stream registry so sequential runs in one
process don't cross-talk.
"""

from __future__ import annotations

import hashlib
import os
from collections import OrderedDict

from ..errors import SanitizerError


def enabled() -> bool:
    """Whether runtime sanitizers are switched on (``REPRO_SANITIZE=1``).

    Read at object-construction time (Simulator/Network creation), not
    process start, so tests can toggle it with ``monkeypatch.setenv``.
    """
    return os.environ.get("REPRO_SANITIZE") == "1"


# -- freeze-after-send --------------------------------------------------------


def message_digest(msg: object) -> bytes:
    """Content digest of a message.

    Every message class is a ``slots`` dataclass, so ``repr`` covers exactly
    the declared fields (recursively, through wrapped payloads) and excludes
    bookkeeping like the memoized wire size — which is the one attribute the
    network itself writes after send.
    """
    return hashlib.sha256(repr(msg).encode("utf-8", "backslashreplace")).digest()


class FreezeGuard:
    """Digests messages at send; re-checks at delivery and retransmission.

    Entries are keyed by object identity *and* hold a strong reference to
    the message, so an id can never be reused while its entry is alive.  The
    table is an LRU capped at ``cap`` entries: messages whose deliveries all
    happened ages ago (or were dropped by the fault model) age out instead
    of leaking.
    """

    __slots__ = ("_entries", "_cap", "checks", "violations_seen")

    def __init__(self, cap: int = 65536) -> None:
        #: id(msg) → (msg, digest-at-send)
        self._entries: OrderedDict[int, tuple[object, bytes]] = OrderedDict()
        self._cap = cap
        #: Digest re-checks performed (observability for tests/reports).
        self.checks = 0
        #: Violations raised (sticky count, survives the raised exception).
        self.violations_seen = 0

    def __len__(self) -> int:
        return len(self._entries)

    def on_send(self, msg: object) -> None:
        """Record (or re-verify) a message as it is handed to the network."""
        key = id(msg)
        entry = self._entries.get(key)
        if entry is not None and entry[0] is msg:
            # Same object sent again (multicast fan-out or retransmission):
            # it must not have changed since the first send.
            self._check(msg, entry[1], "retransmission/fan-out")
            self._entries.move_to_end(key)
            return
        self._entries[key] = (msg, message_digest(msg))
        self._entries.move_to_end(key)
        if len(self._entries) > self._cap:
            self._entries.popitem(last=False)

    def on_deliver(self, msg: object) -> None:
        """Re-verify a message as it reaches a handler."""
        entry = self._entries.get(id(msg))
        if entry is None or entry[0] is not msg:
            return  # aged out of the LRU, or a loopback the network skipped
        self._check(msg, entry[1], "delivery")

    def _check(self, msg: object, expect: bytes, stage: str) -> None:
        self.checks += 1
        if message_digest(msg) != expect:
            self.violations_seen += 1
            raise SanitizerError(
                f"freeze-after-send violation at {stage}: "
                f"{type(msg).__name__} was mutated after being handed to the "
                f"network (current state: {msg!r})"
            )


# -- RNG stream-collision detection -------------------------------------------

#: Streams derived since the last :func:`begin_run`, exclusive vs shared.
_exclusive_streams: set[tuple] = set()
_shared_streams: set[tuple] = set()


def _stream_key(master_seed: int, labels: tuple) -> tuple:
    return (master_seed, tuple(str(label) for label in labels))


def note_stream(master_seed: int, labels: tuple, shared: bool = False) -> None:
    """Record a stream derivation; raise on a collision.

    A *collision* is two derivations of the same ``(master_seed, labels)``
    in one run without ``shared=True`` — two components would then consume
    the same deterministic sequence, coupling their behaviour.
    """
    key = _stream_key(master_seed, labels)
    if shared:
        if key in _exclusive_streams:
            raise SanitizerError(
                f"RNG stream {key[1]} (seed {master_seed}) derived both "
                "shared and exclusive; pick one contract for the label"
            )
        _shared_streams.add(key)
        return
    if key in _shared_streams:
        raise SanitizerError(
            f"RNG stream {key[1]} (seed {master_seed}) derived both "
            "shared and exclusive; pick one contract for the label"
        )
    if key in _exclusive_streams:
        raise SanitizerError(
            f"RNG stream collision: {key[1]} (seed {master_seed}) derived "
            "twice in one run — two components are consuming the same "
            "stream; add a distinguishing label, or pass shared=True if the "
            "stream is intentionally common knowledge"
        )
    _exclusive_streams.add(key)


def begin_run() -> None:
    """Reset the stream registry at a run boundary (new ``Simulator``)."""
    _exclusive_streams.clear()
    _shared_streams.clear()


def stream_count() -> int:
    """Streams registered since the last run boundary (for tests)."""
    return len(_exclusive_streams) + len(_shared_streams)


# -- scheduler tie-order audit ------------------------------------------------


class TieAudit:
    """Records events scheduled at identical simulated instants.

    The scheduler breaks (time) ties with a monotone sequence number, i.e.
    insertion order.  That is deterministic *only because* everything that
    inserts is; this audit makes the dependency visible.  ``mixed_ties``
    lists instants where *different* callbacks were scheduled at the same
    time — the cases whose relative order is purely insertion-dependent —
    and :meth:`order_digest` folds every (time, callback) pair into a hash
    two runs can compare for bit-identical schedules.

    Memory is bounded: the per-instant table is an LRU over ``max_groups``
    distinct times (ties land close together, old instants can't gain new
    members once simulated time has passed them).
    """

    __slots__ = ("_groups", "_max_groups", "_max_examples", "tie_events", "mixed_ties", "_digest")

    def __init__(self, max_groups: int = 4096, max_examples: int = 32) -> None:
        #: when → callback names scheduled at that instant, insertion order.
        self._groups: OrderedDict[float, list[str]] = OrderedDict()
        self._max_groups = max_groups
        self._max_examples = max_examples
        #: Events that landed on an already-used instant.
        self.tie_events = 0
        #: Example (when, callbacks) tuples with ≥ 2 distinct callbacks.
        self.mixed_ties: list[tuple[float, tuple[str, ...]]] = []
        self._digest = hashlib.sha256()

    def note(self, when: float, fn: object) -> None:
        name = getattr(fn, "__qualname__", None) or type(fn).__name__
        self._digest.update(f"{when!r}:{name}\n".encode())
        group = self._groups.get(when)
        if group is None:
            self._groups[when] = [name]
            if len(self._groups) > self._max_groups:
                self._groups.popitem(last=False)
            return
        group.append(name)
        self.tie_events += 1
        if name != group[0] and len(self.mixed_ties) < self._max_examples:
            self.mixed_ties.append((when, tuple(group)))

    def order_digest(self) -> str:
        """Hex digest over every (time, callback) scheduled so far; equal
        digests ⇒ the two runs scheduled identical events in identical
        order."""
        return self._digest.hexdigest()

    def report(self) -> dict:
        return {
            "tie_events": self.tie_events,
            "mixed_tie_examples": [
                {"time": when, "callbacks": list(names)}
                for when, names in self.mixed_ties
            ],
            "order_digest": self.order_digest(),
        }
