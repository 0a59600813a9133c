"""Clients: submit to a clan, accept on f_c+1 matching replies (§1 key idea).

A client needs ``f_c + 1`` consistent responses from clan members to be sure
at least one honest party executed its transaction.  Inconsistent minority
responses (from Byzantine executors) are outvoted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..committees.config import ClanConfig
from ..dag.transaction import Transaction
from ..errors import ExecutionError
from ..obs.tracer import NULL_TRACER
from ..types import NodeId


@dataclass(slots=True)
class _PendingRequest:
    txn: Transaction
    clan_idx: int
    #: responses received: node -> result (None once accepted: later
    #: replies are ignored, so the tally is released)
    responses: dict[NodeId, Any] | None = field(default_factory=dict)
    accepted: bool = False
    result: Any = None
    accepted_at: float | None = None


class Client:
    """A client of one clan (in multi-clan: of the application's clan)."""

    def __init__(
        self,
        client_id: str,
        clan_cfg: ClanConfig,
        clan_idx: int = 0,
        tracer=None,
    ) -> None:
        if not 0 <= clan_idx < clan_cfg.num_clans:
            raise ExecutionError(f"clan index {clan_idx} out of range")
        self.client_id = client_id
        self.cfg = clan_cfg
        self.clan_idx = clan_idx
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._seq = 0
        self._pending: dict[str, _PendingRequest] = {}

    # -- submission ----------------------------------------------------------

    def create_txn(self, op: tuple, now: float = 0.0) -> Transaction:
        """Create a transaction addressed to this client's clan."""
        self._seq += 1
        txn = Transaction(
            txn_id=f"{self.client_id}:{self._seq}", op=op, created_at=now
        )
        self._pending[txn.txn_id] = _PendingRequest(txn, self.clan_idx)
        return txn

    # -- responses -----------------------------------------------------------

    def on_response(self, node_id: NodeId, txn_id: str, result: Any, now: float) -> None:
        """Record a reply from a clan member; accept on f_c+1 matching."""
        request = self._pending.get(txn_id)
        if request is None or request.accepted:
            return
        if node_id not in self.cfg.clan(request.clan_idx):
            return  # only clan members may answer for this transaction
        request.responses[node_id] = result
        quorum = self.cfg.clan_client_quorum(request.clan_idx)
        tally: dict[str, int] = {}
        for value in request.responses.values():
            key = repr(value)
            tally[key] = tally.get(key, 0) + 1
            if tally[key] >= quorum:
                request.accepted = True
                request.result = value
                request.accepted_at = now
                request.responses = None
                if self.tracer.enabled:
                    # Client-observed latency: creation → f_c+1 matching replies.
                    self.tracer.counter(
                        "smr.client_latency",
                        value=now - request.txn.created_at,
                        time=now,
                        client=self.client_id,
                        clan=request.clan_idx,
                        txn=txn_id,
                        quorum=quorum,
                    )
                    ctx = self.tracer.ctx(("txn", txn_id))
                    if ctx is not None:
                        # Close the per-txn trace root: submission → accept.
                        # The span id is the root ctx opened at submit time,
                        # so every stage in between parents under it.
                        self.tracer.span(
                            "smr.txn",
                            start=request.txn.created_at, end=now,
                            txn=txn_id, client=self.client_id,
                            clan=request.clan_idx,
                            trace=ctx.trace_id, span=ctx.span_id,
                        )
                        self.tracer.unbind(("txn", txn_id))
                return

    # -- inspection -----------------------------------------------------------

    def is_accepted(self, txn_id: str) -> bool:
        request = self._pending.get(txn_id)
        return bool(request and request.accepted)

    def result_of(self, txn_id: str) -> Any:
        request = self._pending.get(txn_id)
        if request is None or not request.accepted:
            raise ExecutionError(f"transaction {txn_id} not accepted yet")
        return request.result

    def accepted_count(self) -> int:
        return sum(1 for r in self._pending.values() if r.accepted)

    def pending_count(self) -> int:
        return sum(1 for r in self._pending.values() if not r.accepted)
