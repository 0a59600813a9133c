"""A Jolteon-style leader-based BFT SMR for ordering PoAs.

Two-chain commit over a linear chain of proposals:

* the view-``v`` leader proposes a batch of pending PoAs together with a
  quorum certificate for the view-``v-1`` proposal;
* replicas vote (signed digests) to the view-``v+1`` leader;
* a proposal is committed once it has a QC *and* its direct successor (the
  next consecutive view) has a QC — observed by replicas when the view-
  ``v+2`` proposal arrives carrying QC(v+1).

Good-case commit latency at replicas is 5δ from the proposal, matching the
paper's accounting for Jolteon in the Arete comparison (§8).  View timeouts
rotate past crashed leaders (simplified: on timeout replicas send a signed
new-view to the next leader, who proposes re-using the highest known QC).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..crypto.certificates import QuorumCertificate, build_certificate, verify_certificate
from ..crypto.hashing import digest as compute_digest
from ..crypto.signatures import Pki, Signature
from ..errors import ConsensusError
from ..net import sizes
from ..net.message import Message
from ..net.network import Network
from ..sim.scheduler import Simulator
from ..sim.timers import Timer
from ..types import NodeId, max_faults, quorum_size
from .poa import PoA


def proposal_statement(view: int, digest_: bytes) -> bytes:
    return compute_digest(b"JOLTEON-PROP", view, digest_)


def vote_statement(view: int, digest_: bytes) -> bytes:
    return compute_digest(b"JOLTEON-VOTE", view, digest_)


def new_view_statement(view: int) -> bytes:
    return compute_digest(b"JOLTEON-NV", view)


@dataclass(frozen=True)
class Proposal:
    """A chained proposal carrying a batch of PoAs.

    ``tc`` (a certificate over 2f+1 new-view complaints for ``view - 1``)
    justifies a proposal whose parent is not the immediately preceding view —
    the fallback path after a failed leader.
    """

    view: int
    leader: NodeId
    batch: tuple[PoA, ...]
    parent_digest: bytes | None
    parent_qc: QuorumCertificate | None
    tc: QuorumCertificate | None = None

    def digest(self) -> bytes:
        return compute_digest(
            b"JOLTEON-BLOCK",
            self.view,
            self.leader,
            self.parent_digest if self.parent_digest is not None else b"",
            *[p.block_digest for p in self.batch],
        )

    def wire_size(self) -> int:
        size = sizes.HEADER_SIZE + sizes.HASH_SIZE
        size += sum(p.wire_size() for p in self.batch)
        if self.parent_qc is not None:
            size += sizes.BLS_SIGNATURE_SIZE + 32
        if self.tc is not None:
            size += sizes.BLS_SIGNATURE_SIZE + 32
        return size


@dataclass(slots=True)
class ProposalMsg(Message):
    proposal: Proposal
    signature: Signature

    signed = True

    def wire_size(self) -> int:
        return self.proposal.wire_size() + sizes.SIGNATURE_SIZE


@dataclass(slots=True)
class VoteMsg(Message):
    view: int
    digest: bytes
    signature: Signature

    signed = True

    def wire_size(self) -> int:
        return sizes.HEADER_SIZE + sizes.HASH_SIZE + sizes.SIGNATURE_SIZE


@dataclass(slots=True)
class NewViewMsg(Message):
    """Timeout complaint; carries the sender's highest QC so the next leader
    can extend the freshest certified proposal (standard Jolteon)."""

    view: int  # the view being abandoned
    signature: Signature
    high_digest: bytes | None = None
    high_qc: QuorumCertificate | None = None

    signed = True

    def wire_size(self) -> int:
        size = sizes.HEADER_SIZE + sizes.SIGNATURE_SIZE
        if self.high_qc is not None:
            size += sizes.HASH_SIZE + sizes.BLS_SIGNATURE_SIZE + 32
        return size


@dataclass(frozen=True)
class JolteonParams:
    view_timeout: float = 2.0
    max_batch: int = 256

    def __post_init__(self) -> None:
        if self.view_timeout <= 0:
            raise ConsensusError("view timeout must be positive")
        if self.max_batch < 1:
            raise ConsensusError("max batch must be positive")


class JolteonNode:
    """One replica of the leader-based SMR."""

    def __init__(
        self,
        node_id: NodeId,
        n: int,
        network: Network,
        sim: Simulator,
        pki: Pki,
        params: JolteonParams | None = None,
        on_commit: Callable[[Proposal, float], None] | None = None,
    ) -> None:
        self.node_id = node_id
        self.n = n
        self.f = max_faults(n)
        self.quorum = quorum_size(n)
        self.network = network
        self.sim = sim
        self.pki = pki
        self._key = pki.key(node_id)
        self.params = params if params is not None else JolteonParams()
        self.on_commit = on_commit
        self.view = 1
        self.mempool: list[PoA] = []
        self.proposals: dict[bytes, Proposal] = {}
        self.proposal_of_view: dict[int, bytes] = {}
        #: Votes being collected for a digest (next-leader role).
        self._votes: dict[bytes, dict[NodeId, Signature]] = {}
        self._qcs: dict[bytes, QuorumCertificate] = {}
        self._new_views: dict[int, dict[NodeId, Signature]] = {}
        self._tcs: dict[int, QuorumCertificate] = {}
        self.committed: list[tuple[Proposal, float]] = []
        self._committed_views: set[int] = set()
        self._high_qc: tuple[bytes, QuorumCertificate] | None = None
        self._voted_views: set[int] = set()
        self._proposed_views: set[int] = set()
        #: PoA block digests already included in some chained proposal —
        #: leaders must not re-propose them.
        self._included: set[bytes] = set()
        self._timer = Timer(sim, self.params.view_timeout, self._on_timeout)
        self.started = False

    # -- lifecycle --------------------------------------------------------------

    def leader_of(self, view: int) -> NodeId:
        return (view - 1) % self.n

    def start(self) -> None:
        self.started = True
        self._timer.start()
        if self.leader_of(self.view) == self.node_id:
            self._propose()

    def submit(self, poa: PoA) -> None:
        """Queue a PoA for inclusion (any replica; leaders drain their queue)."""
        self.mempool.append(poa)
        if (
            self.started
            and self.leader_of(self.view) == self.node_id
            and self.view not in self._proposed_views
        ):
            self._propose()

    # -- proposing ----------------------------------------------------------------

    def _propose(self, force: bool = False) -> None:
        view = self.view
        if view in self._proposed_views:
            return
        parent_digest, parent_qc = (None, None)
        if self._high_qc is not None:
            parent_digest, parent_qc = self._high_qc
        tc = self._tcs.get(view - 1)
        if view > 1 and force and tc is None:
            return  # a forced proposal must carry the TC justifying the gap
        if view > 1 and not force:
            # Good case: extend only a *consecutive* parent — propose once
            # QC(view-1) is in hand (it arrives as this leader collects the
            # previous view's votes).  The new-view timeout path forces a
            # proposal over whatever the highest QC is.
            parent = self.proposals.get(parent_digest) if parent_digest else None
            if parent is None or parent.view != view - 1:
                return
        pending = [p for p in self.mempool if p.block_digest not in self._included]
        batch = tuple(pending[: self.params.max_batch])
        self.mempool = [p for p in pending[len(batch):]]
        for poa in batch:
            self._included.add(poa.block_digest)
        proposal = Proposal(
            view, self.node_id, batch, parent_digest, parent_qc,
            tc=tc if force else None,
        )
        self._proposed_views.add(view)
        signature = self._key.sign(proposal_statement(view, proposal.digest()))
        self.network.broadcast(self.node_id, ProposalMsg(proposal, signature))

    # -- message handling -------------------------------------------------------------

    def on_message(self, src: NodeId, msg: Message) -> bool:
        if isinstance(msg, ProposalMsg):
            self._on_proposal(src, msg)
        elif isinstance(msg, VoteMsg):
            self._on_vote(src, msg)
        elif isinstance(msg, NewViewMsg):
            self._on_new_view(src, msg)
        else:
            return False
        return True

    def _on_proposal(self, src: NodeId, msg: ProposalMsg) -> None:
        proposal = msg.proposal
        if proposal.leader != src or self.leader_of(proposal.view) != src:
            return
        digest_ = proposal.digest()
        if msg.signature.message_digest != proposal_statement(proposal.view, digest_):
            return
        if not self.pki.verify(msg.signature):
            return
        if proposal.view > 1:
            has_tc = proposal.tc is not None and self._verify_tc(
                proposal.view - 1, proposal.tc
            )
            if proposal.parent_qc is None or proposal.parent_digest is None:
                if not has_tc:
                    return  # a chain gap needs a timeout certificate
            elif not verify_certificate(self.pki, proposal.parent_qc, self.quorum):
                return
            else:
                parent = self.proposals.get(proposal.parent_digest)
                if parent is not None and parent.view != proposal.view - 1 and not has_tc:
                    return  # non-consecutive parent also needs a TC
            expected = (
                vote_statement(
                    self.proposals[proposal.parent_digest].view
                    if proposal.parent_digest in self.proposals
                    else -1,
                    proposal.parent_digest,
                )
                if proposal.parent_digest is not None
                else None
            )
            # If we do not know the parent yet, accept the QC at face value
            # (its statement binds the digest; the view binding is checked
            # when the parent arrives).
            if (
                proposal.parent_qc is not None
                and proposal.parent_digest in self.proposals
                and proposal.parent_qc.message_digest != expected
            ):
                return
            if proposal.parent_qc is not None and proposal.parent_digest is not None:
                self._update_high_qc(proposal.parent_digest, proposal.parent_qc)
        self.proposals[digest_] = proposal
        self.proposal_of_view.setdefault(proposal.view, digest_)
        for poa in proposal.batch:
            self._included.add(poa.block_digest)
        # Vote once per view, to the *next* leader.
        if proposal.view >= self.view and proposal.view not in self._voted_views:
            self._voted_views.add(proposal.view)
            vote = VoteMsg(
                proposal.view,
                digest_,
                self._key.sign(vote_statement(proposal.view, digest_)),
            )
            self.network.send(self.node_id, self.leader_of(proposal.view + 1), vote)
        self._advance_to(proposal.view + 1)
        self._try_commit(proposal)

    def _on_vote(self, src: NodeId, msg: VoteMsg) -> None:
        if msg.signature.signer != src:
            return
        if msg.signature.message_digest != vote_statement(msg.view, msg.digest):
            return
        if not self.pki.verify(msg.signature):
            return
        votes = self._votes.setdefault(msg.digest, {})
        if src in votes:
            return
        votes[src] = msg.signature
        if len(votes) >= self.quorum and msg.digest not in self._qcs:
            qc = build_certificate(list(votes.values())[: self.quorum])
            self._qcs[msg.digest] = qc
            self._update_high_qc(msg.digest, qc)
            # As the (likely) next leader, extend the chain.
            if self.leader_of(self.view) == self.node_id:
                self._propose()

    def _on_new_view(self, src: NodeId, msg: NewViewMsg) -> None:
        if msg.signature.signer != src:
            return
        if msg.signature.message_digest != new_view_statement(msg.view):
            return
        if not self.pki.verify(msg.signature):
            return
        if (
            msg.high_qc is not None
            and msg.high_digest is not None
            and verify_certificate(self.pki, msg.high_qc, self.quorum)
        ):
            self._update_high_qc(msg.high_digest, msg.high_qc)
        supporters = self._new_views.setdefault(msg.view, {})
        supporters[src] = msg.signature
        if len(supporters) >= self.quorum:
            if msg.view not in self._tcs:
                self._tcs[msg.view] = build_certificate(
                    list(supporters.values())[: self.quorum]
                )
            self._advance_to(msg.view + 1, force=True)
            if (
                self.leader_of(self.view) == self.node_id
                and self.view == msg.view + 1
            ):
                self._propose(force=True)

    def _verify_tc(self, view: int, tc: QuorumCertificate) -> bool:
        return (
            tc.message_digest == new_view_statement(view)
            and verify_certificate(self.pki, tc, self.quorum)
        )

    # -- view/commit machinery ------------------------------------------------------

    def _advance_to(self, view: int, force: bool = False) -> None:
        if view <= self.view:
            return
        self.view = view
        self._timer.start()
        if self.leader_of(view) == self.node_id:
            self._propose(force=force)

    def _on_timeout(self) -> None:
        view = self.view
        signature = self._key.sign(new_view_statement(view))
        high_digest, high_qc = (None, None)
        if self._high_qc is not None:
            high_digest, high_qc = self._high_qc
        self.network.broadcast(
            self.node_id, NewViewMsg(view, signature, high_digest, high_qc)
        )
        self._timer.start()

    def _update_high_qc(self, digest_: bytes, qc: QuorumCertificate) -> None:
        proposal = self.proposals.get(digest_)
        if self._high_qc is None:
            self._high_qc = (digest_, qc)
        else:
            current = self.proposals.get(self._high_qc[0])
            if proposal is not None and (
                current is None or proposal.view > current.view
            ):
                self._high_qc = (digest_, qc)
        if proposal is not None:
            self._try_commit_two_chain(proposal)

    def _try_commit(self, proposal: Proposal) -> None:
        """On a new proposal: its parent_qc may complete a two-chain."""
        if proposal.parent_digest is None:
            return
        parent = self.proposals.get(proposal.parent_digest)
        if parent is not None:
            self._try_commit_two_chain(parent)

    def _try_commit_two_chain(self, child: Proposal) -> None:
        """Commit ``child``'s parent when QC(parent) and QC(child) exist on
        consecutive views."""
        if child.parent_digest is None:
            return
        parent = self.proposals.get(child.parent_digest)
        if parent is None or parent.view in self._committed_views:
            return
        if child.view != parent.view + 1:
            return  # two-chain needs consecutive views
        if child.digest() not in self._qcs and not self._child_qc_known(child):
            return
        self._commit_chain(parent)

    def _child_qc_known(self, child: Proposal) -> bool:
        """A QC over ``child`` is known if some stored proposal carries it."""
        digest_ = child.digest()
        return any(
            p.parent_digest == digest_ and p.parent_qc is not None
            for p in self.proposals.values()
        )

    def _commit_chain(self, proposal: Proposal) -> None:
        chain = []
        cursor: Proposal | None = proposal
        while cursor is not None and cursor.view not in self._committed_views:
            chain.append(cursor)
            if cursor.parent_digest is None:
                break
            cursor = self.proposals.get(cursor.parent_digest)
        now = self.sim.now
        for item in reversed(chain):
            self._committed_views.add(item.view)
            self.committed.append((item, now))
            if self.on_commit is not None:
                self.on_commit(item, now)
