"""The plain payload policy under the READY completions.

* :class:`TribeBrachaRbc` — the paper's Fig. 2: signature-free
  tribe-assisted RBC, three rounds in the good case.  READY on 2f+1 ECHOes
  with at least f_c+1 from the clan, f+1 READYs amplify, 2f+1 READYs deliver.
* :class:`BrachaRbc` — classic Bracha RBC, the special case where the clan is
  the whole tribe: every party receives the full payload and the "f_c+1 from
  the clan" condition collapses into the plain 2f+1 ECHO quorum.  This is the
  primitive existing DAG-based BFT SMR protocols build on, and the baseline
  the paper compares against.
* :class:`OptimisticRbc` — the optimistic fast path: when *all n* parties
  ECHO the same digest — so every party provably saw the same VAL and every
  clan member holds the payload — the instance delivers after just VAL + ECHO
  (2δ), one message delay ahead of the 3δ Bracha path it falls back to on
  conflict, timeout, or any READY.
"""

from __future__ import annotations

from ..net.network import Network
from ..sim.scheduler import Simulator
from ..types import NodeId
from .base import DeliverFn, Membership
from .plain import PlainRbc


class TribeBrachaRbc(PlainRbc):
    """Per-node module for the Fig. 2 protocol."""

    def __init__(
        self,
        node_id: NodeId,
        membership: Membership,
        network: Network,
        sim: Simulator,
        on_deliver: DeliverFn,
        retry_timeout: float = 0.5,
        tracer=None,
    ) -> None:
        super().__init__(
            node_id, membership, network, sim, None, on_deliver, "bracha",
            retry_timeout, tracer=tracer,
        )


class BrachaRbc(TribeBrachaRbc):
    """Per-node classic Bracha RBC module over a tribe of ``n`` parties."""

    def __init__(
        self,
        node_id: NodeId,
        n: int,
        network: Network,
        sim: Simulator,
        on_deliver: DeliverFn,
        tracer=None,
    ) -> None:
        super().__init__(
            node_id, Membership.whole_tribe(n), network, sim, on_deliver, tracer=tracer
        )


class OptimisticRbc(PlainRbc):
    """Per-node module for the optimistic fast-path protocol.

    Args:
        fallback_timeout: how long an instance waits for the all-to-all ECHO
            agreement (armed on its first VAL or ECHO) before switching to
            the pessimistic READY path.
    """

    def __init__(
        self,
        node_id: NodeId,
        membership: Membership,
        network: Network,
        sim: Simulator,
        on_deliver: DeliverFn,
        retry_timeout: float = 0.5,
        fallback_timeout: float = 0.5,
        tracer=None,
    ) -> None:
        super().__init__(
            node_id, membership, network, sim, None, on_deliver, "optimistic",
            retry_timeout, fallback_timeout, tracer=tracer,
        )
