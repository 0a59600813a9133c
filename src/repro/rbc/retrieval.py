"""Retrieval ("download value m from parties in P_c").

When a clan member reaches the delivery condition without having received the
payload (possible under a Byzantine sender), it pulls the payload from clan
members that provably hold it — any clan member that sent an ECHO claims to
have received ``m`` (Fig. 2 step 2).  Requests go to one holder at a time
with a retry timer; responders answer each requester at most once per
instance (the paper's rate-limiting remark).  :class:`Retriever` is the one
pull loop of the RBC layer: every plane (payload, vertex, block, chunks)
differs only in the ``request`` callback that sends one attempt.
"""

from __future__ import annotations

from typing import Any, Callable

from ..errors import BroadcastError
from ..net.network import Network
from ..sim.scheduler import Simulator
from ..types import NodeId, Round
from .base import InstanceKey
from .messages import PayloadRequest, PayloadResponse

#: First retry interval of every RBC pull.  Capped exponential backoff
#: between attempts: retries persist for eventual delivery without flooding
#: the network when every holder is slow or faulty.
RETRY_TIMEOUT = 0.25
BACKOFF = 1.5
MAX_RETRY_TIMEOUT = 30.0

#: ``request(key, target, want)`` sends one attempt to ``target``; False
#: means nothing is left to ask, and the loop drops the fetch.
RequestFn = Callable[[InstanceKey, NodeId, Any], bool]


class Retriever:
    """Per-node pull loop: rotates over known holders until the owner calls
    :meth:`done`."""

    def __init__(self, sim: Simulator, request: RequestFn) -> None:
        self.sim = sim
        self.request = request
        self._pending: dict[InstanceKey, dict] = {}

    def fetch(
        self, key: InstanceKey, holders: list[NodeId], want: Any = None,
        signers: int = 0,
    ) -> None:
        """Start pulling ``want`` for instance ``key`` from ``holders``.

        ``signers`` is the signer mask of the certificate that made the node
        pull, if one did: :meth:`done` hands it back with the data.
        Idempotent: a second call for the same instance refreshes the holder
        list and the mask but does not restart an in-flight request.
        """
        state = self._pending.get(key)
        if state is not None:
            for holder in holders:
                if holder not in state["holders"]:
                    state["holders"].append(holder)
            state["signers"] |= signers
            return
        if not holders:
            raise BroadcastError(f"no holders known for instance {key}")
        self._pending[key] = {
            "want": want,
            "holders": list(holders),
            "next": 0,
            "timer": None,
            "timeout": RETRY_TIMEOUT,
            "signers": signers,
        }
        self._request(key)

    def wanted(self, key: InstanceKey) -> Any | None:
        """What the pending fetch for ``key`` asks for (None when none is)."""
        state = self._pending.get(key)
        return state["want"] if state is not None else None

    def done(self, key: InstanceKey) -> int:
        """The data for ``key`` is in: stop retrying.  Returns the signer
        mask the fetch carried (0: none)."""
        state = self._pending.pop(key, None)
        if state is None:
            return 0
        if state["timer"] is not None:
            state["timer"].cancel()
        return state["signers"]

    @property
    def pending(self) -> set[InstanceKey]:
        return set(self._pending)

    def gc_below(self, round_: Round) -> int:
        """Drop (and stop retrying) fetches for instances older than
        ``round_`` — their rounds have been committed/garbage-collected and
        the payload can no longer matter.  Returns the number of entries
        collected; without this, ``_pending`` (and its retry timers) grows
        without bound when holders stay unresponsive forever."""
        stale = [key for key in self._pending if key[1] < round_]
        for key in stale:
            self.done(key)
        return len(stale)

    def suspend(self) -> None:
        """Cancel all retry timers (crash: a dead node must not keep
        requesting).  Pending state survives for :meth:`resume`."""
        for state in self._pending.values():
            if state["timer"] is not None:
                state["timer"].cancel()
                state["timer"] = None

    def resume(self) -> None:
        """Re-issue every suspended fetch (recovery), in insertion order."""
        for key in list(self._pending):
            self._request(key)

    def _request(self, key: InstanceKey) -> None:
        state = self._pending.get(key)
        if state is None:
            return
        holders = state["holders"]
        target = holders[state["next"] % len(holders)]
        state["next"] += 1
        if not self.request(key, target, state["want"]):
            del self._pending[key]
            return
        state["timer"] = self.sim.schedule(state["timeout"], self._request, key)
        state["timeout"] = min(state["timeout"] * BACKOFF, MAX_RETRY_TIMEOUT)


class Responder:
    """Per-node pull server: each requester is answered once per instance."""

    def __init__(
        self,
        node_id: NodeId,
        network: Network,
        lookup: Callable[[NodeId, Round], Any | None],
        channel: str = "payload",
    ) -> None:
        self.node_id = node_id
        self.network = network
        self.lookup = lookup
        self.channel = channel
        self._served: set[tuple[InstanceKey, NodeId]] = set()

    def gc_below(self, round_: Round) -> int:
        """Forget rate-limit records for instances older than ``round_``.

        The records exist only to stop Byzantine requesters amplifying
        traffic *within* an instance's lifetime; once the instance's round is
        committed and garbage-collected they are dead weight.  Returns the
        number of entries collected."""
        stale = {key for key in self._served if key[0][1] < round_}
        self._served -= stale
        return len(stale)

    def on_request(self, src: NodeId, msg: PayloadRequest) -> None:
        key = ((msg.origin, msg.round), src)
        if key in self._served:
            return  # rate-limited: Byzantine requesters cannot amplify traffic
        payload = self.lookup(msg.origin, msg.round)
        if payload is None:
            return
        self._served.add(key)
        self.network.send(
            self.node_id,
            src,
            PayloadResponse(msg.origin, msg.round, msg.digest, payload, self.channel),
        )
