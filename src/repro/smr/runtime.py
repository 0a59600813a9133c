"""End-to-end SMR runtime: consensus + execution + clients.

Wires a :class:`~repro.consensus.Deployment` to per-node
:class:`~repro.smr.executor.Executor` instances and routes execution replies
back to :class:`~repro.smr.client.Client` objects with a simulated reply
delay.  This is the full client-visible system of the paper: submit to a
clan, transactions get globally ordered, the clan executes, and the client
accepts on ``f_c + 1`` matching replies.
"""

from __future__ import annotations

from ..committees.config import ClanConfig
from ..consensus.deployment import Deployment
from ..consensus.oracle import clan_states
from ..consensus.params import ProtocolParams
from ..dag.transaction import Transaction
from ..errors import ExecutionError
from ..net.latency import LatencyModel
from ..obs.ctx import txn_trace_key
from ..obs.tracer import ensure_tracer
from ..types import NodeId
from .client import Client
from .executor import Executor
from .mempool import Mempool


class SmrRuntime:
    """A runnable SMR system over the simulated network."""

    def __init__(
        self,
        clan_cfg: ClanConfig,
        params: ProtocolParams | None = None,
        latency: LatencyModel | None = None,
        reply_delay: float = 0.05,
        max_txns_per_block: int = 500,
        seed: int = 0,
        sharded: bool = False,
        tracer=None,
        **deployment_kwargs,
    ) -> None:
        self.cfg = clan_cfg
        self.reply_delay = reply_delay
        self.sharded = sharded
        self.tracer = ensure_tracer(tracer)
        self.mempools: dict[NodeId, Mempool] = {
            p: Mempool(max_txns_per_block) for p in clan_cfg.block_proposers
        }
        self.deployment = Deployment(
            clan_cfg,
            params,
            latency=latency,
            make_block=self._make_block,
            seed=seed,
            tracer=tracer,
            **deployment_kwargs,
        )
        self.sim = self.deployment.sim
        self.clients: dict[str, Client] = {}
        self.executors: dict[NodeId, Executor] = {}
        for node in self.deployment.nodes:
            if not clan_cfg.executes(node.node_id):
                continue
            machine = None
            if sharded:
                from .cross_clan import ShardedStateMachine

                machine = ShardedStateMachine()
            executor = Executor(
                node.node_id, clan_cfg, respond=self._respond, machine=machine,
                tracer=self.tracer,
            )
            self.executors[node.node_id] = executor
            node.on_ordered = (
                lambda _node, vertex, now, ex=executor: ex.on_ordered(vertex, now)
            )
            if node.params.rbc_mode == "prefix":
                # Blocks reach execution only as decided prefixes, keyed by
                # the ordered vertex's block digest (see SailfishNode).
                node.on_commit_block = (
                    lambda _node, key, block, ex=executor: ex.on_block(
                        block, self.sim.now, key=key
                    )
                )
            else:
                node.on_block_ready = (
                    lambda _node, block, ex=executor: ex.on_block(block, self.sim.now)
                )

    def _make_block(self, proposer: NodeId, round_: int, now: float):
        block = self.mempools[proposer].make_block(proposer, round_, now)
        if block is not None and self.tracer.enabled:
            if self.tracer.sample < 1.0:
                # Head sampling keys off txn identity: if any txn in this
                # block is sampled, force-sample the block's dissemination
                # trace too, so the txn's root-to-commit tree stays complete
                # at 1/k rates (VertexRbc._broadcast_ctx reads the binding).
                for txn in block.iter_txns():
                    if self.tracer.ctx(("txn", txn.txn_id)) is not None:
                        self.tracer.bind(
                            ("blkforce", block.payload_digest()), True
                        )
                        break
            # Block manifest: the txn → block mapping the forensics critical
            # path hangs every later stage (ordering, execution, reply) off.
            self.tracer.counter(
                "smr.block", value=block.txn_count, node=proposer, time=now,
                digest=block.payload_digest().hex(), round=round_,
                txns=[txn.txn_id for txn in block.iter_txns()],
            )
        return block

    # -- clients -----------------------------------------------------------

    def new_client(self, client_id: str, clan_idx: int = 0) -> Client:
        if client_id in self.clients:
            raise ExecutionError(f"duplicate client id {client_id}")
        client = Client(client_id, self.cfg, clan_idx, tracer=self.tracer)
        self.clients[client_id] = client
        return client

    def submit(self, client: Client, op: tuple) -> Transaction:
        """Create a transaction and hand it to one proposer of the clan."""
        txn = client.create_txn(op, now=self.sim.now)
        clan = sorted(self.cfg.clan(client.clan_idx) & self.cfg.block_proposers)
        if not clan:
            raise ExecutionError(f"clan {client.clan_idx} has no block proposers")
        proposer = clan[hash(txn.txn_id) % len(clan)]
        self.mempools[proposer].submit(txn)
        if self.tracer.enabled:
            # Trace roots open at submission: the id derives from the txn
            # identity, and the client closes the root span at quorum accept.
            tctx = self.tracer.root_ctx(txn_trace_key(txn.txn_id))
            ids = {}
            if tctx is not None:
                self.tracer.bind(("txn", txn.txn_id), tctx)
                ids = {"trace": tctx.trace_id, "span": tctx.span_id}
            self.tracer.counter(
                "smr.submit", node=proposer, time=txn.created_at,
                txn=txn.txn_id, clan=client.clan_idx, **ids,
            )
        return txn

    def _respond(self, node_id: NodeId, txn_id: str, result, executed_at: float) -> None:
        client_id = txn_id.rsplit(":", 1)[0]
        client = self.clients.get(client_id)
        if client is None:
            return
        self.sim.schedule(
            self.reply_delay, client.on_response, node_id, txn_id, result, executed_at
        )

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        self.deployment.start()

    def run(self, until: float, max_events: int | None = None) -> None:
        self.deployment.run(until=until, max_events=max_events)

    def check_execution_consistency(self, clan_idx: int = 0) -> None:
        """Raise unless the clan's honest members up at the end agree on state."""
        states = clan_states(self, clan_idx)
        if len(states) > 1:
            raise ExecutionError(f"clan {clan_idx} replicas diverged: {len(states)} states")
