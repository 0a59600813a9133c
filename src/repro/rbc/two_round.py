"""The plain payload policy under the two-round (certificate) completion.

* :class:`TribeTwoRoundRbc` — the paper's Fig. 3: good-case optimal, two
  message delays from sender to delivery.  Signed VALs, signed ECHOes, and
  the certificate EC_r(m) of 2f+1 ECHO signatures with at least f_c+1 from
  the clan; clan members missing m pull it from a clan signer of the
  certificate.
* :class:`TwoRoundRbc` — Abraham et al.'s round-optimal RBC, the special case
  where the clan is the whole tribe.  This is the RBC the paper's Sailfish
  implementation uses for vertex propagation.
"""

from __future__ import annotations

from ..crypto.signatures import Pki
from ..net.network import Network
from ..sim.scheduler import Simulator
from ..types import NodeId
from .base import DeliverFn, Membership
from .plain import PlainRbc


class TribeTwoRoundRbc(PlainRbc):
    """Per-node module for the Fig. 3 protocol."""

    def __init__(
        self,
        node_id: NodeId,
        membership: Membership,
        network: Network,
        sim: Simulator,
        pki: Pki,
        on_deliver: DeliverFn,
        retry_timeout: float = 0.5,
        tracer=None,
    ) -> None:
        super().__init__(
            node_id, membership, network, sim, pki, on_deliver, "two-round",
            retry_timeout, tracer=tracer,
        )


class TwoRoundRbc(TribeTwoRoundRbc):
    """Per-node round-optimal RBC module over a tribe of ``n`` parties."""

    def __init__(
        self,
        node_id: NodeId,
        n: int,
        network: Network,
        sim: Simulator,
        pki: Pki,
        on_deliver: DeliverFn,
        tracer=None,
    ) -> None:
        super().__init__(
            node_id, Membership.whole_tribe(n), network, sim, pki, on_deliver,
            tracer=tracer,
        )
