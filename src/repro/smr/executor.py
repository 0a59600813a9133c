"""Per-node transaction execution (§5: only clan members execute).

The executor consumes the node's total order.  For each ordered vertex
carrying a block digest it checks whether this node belongs to the proposer's
clan; if so, the block's transactions are applied in order once the block
body is available (block delivery can lag vertex ordering — the paper's
"execution lags behind consensus").  Vertices whose blocks belong to other
clans are skipped: that clan executes and answers its own clients.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from ..committees.config import ClanConfig
from ..dag.block import Block
from ..dag.vertex import Vertex
from ..obs.tracer import NULL_TRACER
from ..types import NodeId
from .state_machine import KvStateMachine

#: Response callback: (executing node, txn_id, result, executed_at).
ResponseFn = Callable[[NodeId, str, Any, float], None]


class Executor:
    """Deterministic execution engine of one clan member."""

    def __init__(
        self,
        node_id: NodeId,
        clan_cfg: ClanConfig,
        respond: ResponseFn | None = None,
        machine: object | None = None,
        tracer=None,
    ) -> None:
        self.node_id = node_id
        self.cfg = clan_cfg
        self.respond = respond
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Any object exposing ``apply_txn(txn)`` and ``state_digest()``.
        self.machine = machine if machine is not None else KvStateMachine()
        self._my_clan = clan_cfg.clan_index_of(node_id)
        #: Ordered vertices whose blocks this node must execute, FIFO.
        self._queue: deque[Vertex] = deque()
        #: Blocks available locally, by digest.
        self._blocks: dict[bytes, Block] = {}
        self.executed_blocks = 0
        self.executed_txns = 0
        self.skipped_vertices = 0
        #: Forensics hook fired after each executed block:
        #: (node_id, block, time).  Never scheduled — purely synchronous.
        self.on_executed = None

    def on_ordered(self, vertex: Vertex, now: float) -> None:
        """Feed one newly ordered vertex (call in total order)."""
        if vertex.block_digest is None:
            self.skipped_vertices += 1
            return
        proposer_clan = self.cfg.clan_index_of(vertex.source)
        if self._my_clan is None or proposer_clan != self._my_clan:
            self.skipped_vertices += 1
            return
        self._queue.append(vertex)
        self._drain(now)

    def on_block(self, block: Block, now: float, key: bytes | None = None) -> None:
        """Feed a delivered block body.

        ``key`` overrides the indexing digest: in prefix mode the executed
        block is the *decided prefix*, whose own digest differs from the
        ``vertex.block_digest`` the ordered vertex points at."""
        self._blocks[key if key is not None else block.payload_digest()] = block
        self._drain(now)

    def _drain(self, now: float) -> None:
        # Blocks must execute in total order: stop at the first gap.
        while self._queue:
            vertex = self._queue[0]
            block = self._blocks.get(vertex.block_digest)
            if block is None:
                return
            self._queue.popleft()
            self._execute(block, now, vertex.block_digest)

    def _execute(self, block: Block, now: float, key: bytes | None = None) -> None:
        self.executed_blocks += 1
        if self.tracer.enabled:
            self.tracer.counter(
                "smr.execute", value=block.txn_count, node=self.node_id,
                time=now, digest=block.payload_digest().hex(),
            )
            # ``key`` is the consensus-visible digest the trace was opened
            # under (in prefix mode the executed prefix's own digest can
            # differ); the span's digest attr uses it so offline joins line
            # up with the smr.block manifest.
            ctx = self.tracer.ctx(("block", key if key is not None else
                                   block.payload_digest()))
            if ctx is not None:
                self.tracer.ctx_span(
                    "smr.execute", start=now, ctx=ctx, end=now,
                    node=self.node_id,
                    digest=(key if key is not None else
                            block.payload_digest()).hex(),
                    txns=block.txn_count,
                )
        if block.is_synthetic:
            self.executed_txns += block.txn_count
        else:
            for txn in block.iter_txns():
                result = self.machine.apply_txn(txn)
                self.executed_txns += 1
                if self.respond is not None:
                    self.respond(self.node_id, txn.txn_id, result, now)
        if self.on_executed is not None:
            self.on_executed(self.node_id, block, now)

    @property
    def pending_blocks(self) -> int:
        return len(self._queue)

    def state_digest(self) -> bytes:
        return self.machine.state_digest()
