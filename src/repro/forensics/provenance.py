"""Commit provenance: rebuild the critical path of every committed block.

One streaming pass over a trace collects, per ``(round, proposer)`` commit:

* ``proposed_at`` — block creation / vertex broadcast (``smr.block`` or
  ``consensus.propose``),
* per-node vertex delivery (``rbc.e2e`` span ends) and block availability
  (``rbc.block_e2e``),
* per-node total-order placement (``consensus.ordered``),
* per-node execution (``smr.execute``),

plus the per-transaction endpoints: submission (``smr.submit``) and client
acceptance (``smr.client_latency``).  From these the module derives the
**critical path**: the client accepts on the ``f_c + 1``-th matching reply,
so the commit's effective latency is set by the quorum-th *fastest* executor
— the *critical replica*.  Anchoring every stage at that replica makes the
five segments telescope exactly:

``mempool + dissemination + ordering + execution + reply  ==  client latency``

which :func:`reconcile` checks per transaction.  Traces without clients
(synthetic workloads) still yield per-commit attribution over the
consensus-level segments (dissemination / ordering, commit-by-all-honest).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

#: Absolute tolerance for waterfall-vs-client-latency reconciliation: sums of
#: a handful of float subtractions that telescope algebraically.
RECONCILE_TOL = 1e-9

#: Critical-path segment names, in causal order.
CLIENT_SEGMENTS = ("mempool", "dissemination", "ordering", "execution", "reply")
CONSENSUS_SEGMENTS = ("dissemination", "ordering")


@dataclass
class Commit:
    """Everything the trace says about one committed block."""

    round: int
    proposer: int
    digest: str | None = None
    proposed_at: float | None = None
    txns: tuple[str, ...] = ()
    #: node → time the vertex RBC-delivered there.
    delivered: dict[int, float] = field(default_factory=dict)
    #: node → time the block body became available there.
    block_at: dict[int, float] = field(default_factory=dict)
    #: node → time the node placed the block in its total order.
    ordered: dict[int, float] = field(default_factory=dict)
    #: node → time the node executed the block (clan members only).
    executed: dict[int, float] = field(default_factory=dict)

    @property
    def key(self) -> tuple[int, int]:
        return (self.round, self.proposer)

    @property
    def label(self) -> str:
        if self.digest:
            return self.digest[:12]
        return f"r{self.round}:n{self.proposer}"

    def matches(self, ident: str) -> bool:
        """Does a CLI identifier (digest prefix or ``round:proposer``) name us?"""
        if self.digest and self.digest.startswith(ident):
            return True
        return ident in (f"{self.round}:{self.proposer}", f"r{self.round}:n{self.proposer}")

    def critical_replica(self, quorum: int) -> tuple[int, float] | None:
        """The quorum-th fastest executor: ``(node, executed_at)``."""
        if len(self.executed) < quorum or quorum < 1:
            return None
        ranked = sorted((t, n) for n, t in self.executed.items())
        t, n = ranked[quorum - 1]
        return n, t

    def segments(self, quorum: int | None = None) -> dict[str, float] | None:
        """Commit-level segment durations along the critical path.

        With a client quorum the path is anchored at the critical replica;
        without one it spans commit-by-all (max delivery / max ordering).
        Returns ``None`` when the trace lacks the needed records.
        """
        if self.proposed_at is None:
            return None
        if quorum is not None:
            crit = self.critical_replica(quorum)
            if crit is None:
                return None
            node, executed_at = crit
            ordered_at = self.ordered.get(node, executed_at)
            delivered_at = self.delivered.get(node, ordered_at)
            return {
                "dissemination": delivered_at - self.proposed_at,
                "ordering": ordered_at - delivered_at,
                "execution": executed_at - ordered_at,
            }
        if not self.ordered:
            return None
        last_ordered = max(self.ordered.values())
        last_delivered = (
            max(self.delivered.values()) if self.delivered else last_ordered
        )
        last_delivered = min(last_delivered, last_ordered)
        return {
            "dissemination": last_delivered - self.proposed_at,
            "ordering": last_ordered - last_delivered,
        }

    def slowest_node(self, quorum: int | None = None) -> int | None:
        """The replica that set the pace for this commit."""
        if quorum is not None:
            crit = self.critical_replica(quorum)
            return crit[0] if crit else None
        if not self.ordered:
            return None
        return max(self.ordered.items(), key=lambda kv: (kv[1], kv[0]))[0]


@dataclass
class TxnPath:
    """Per-transaction endpoints tied to the commit that carried it."""

    txn_id: str
    submitted_at: float | None = None
    accepted_at: float | None = None
    client_latency: float | None = None
    quorum: int | None = None
    commit_key: tuple[int, int] | None = None


class ProvenanceIndex:
    """All commits and transaction paths recovered from one trace."""

    def __init__(self) -> None:
        self.commits: dict[tuple[int, int], Commit] = {}
        self.txns: dict[str, TxnPath] = {}
        #: digest hex → commit key (filled as ordering records arrive).
        self._by_digest: dict[str, tuple[int, int]] = {}

    # -- construction helpers (one per record kind) -------------------------

    def _commit(self, round_: int, proposer: int) -> Commit:
        key = (round_, proposer)
        commit = self.commits.get(key)
        if commit is None:
            commit = self.commits[key] = Commit(round=round_, proposer=proposer)
        return commit

    def _txn(self, txn_id: str) -> TxnPath:
        txn = self.txns.get(txn_id)
        if txn is None:
            txn = self.txns[txn_id] = TxnPath(txn_id)
        return txn

    def _link_digest(self, digest: str, key: tuple[int, int]) -> None:
        self._by_digest.setdefault(digest, key)

    # -- queries ------------------------------------------------------------

    @property
    def has_clients(self) -> bool:
        return any(t.client_latency is not None for t in self.txns.values())

    def ordered_commits(self) -> list[Commit]:
        """Commits that at least one node placed in its total order."""
        return [
            self.commits[key]
            for key in sorted(self.commits)
            if self.commits[key].ordered
        ]

    def find(self, ident: str) -> Commit | None:
        for key in sorted(self.commits):
            if self.commits[key].matches(ident):
                return self.commits[key]
        return None


def build_provenance(rows: Iterable[dict[str, Any]]) -> ProvenanceIndex:
    """One streaming pass over raw record dicts → a provenance index."""
    index = ProvenanceIndex()
    for row in rows:
        rtype = row.get("type")
        name = row.get("name")
        attrs = row.get("attrs") or {}
        if rtype == "counter":
            if name == "smr.block":
                commit = index._commit(attrs["round"], row["node"])
                commit.proposed_at = row["time"]
                commit.digest = attrs.get("digest")
                commit.txns = tuple(attrs.get("txns") or ())
                if commit.digest:
                    index._link_digest(commit.digest, commit.key)
                for txn_id in commit.txns:
                    index._txn(txn_id).commit_key = commit.key
            elif name == "consensus.propose" and attrs.get("has_block"):
                commit = index._commit(attrs["round"], row["node"])
                if commit.proposed_at is None:
                    commit.proposed_at = row["time"]
            elif name == "consensus.ordered":
                commit = index._commit(attrs["round"], attrs["source"])
                commit.ordered.setdefault(row["node"], row["time"])
                digest = attrs.get("digest")
                if digest:
                    commit.digest = commit.digest or digest
                    index._link_digest(digest, commit.key)
            elif name == "smr.execute":
                key = index._by_digest.get(attrs.get("digest"))
                if key is not None:
                    index.commits[key].executed.setdefault(
                        row["node"], row["time"]
                    )
            elif name == "smr.submit":
                index._txn(attrs["txn"]).submitted_at = row["time"]
            elif name == "smr.client_latency":
                txn = index._txn(attrs.get("txn", ""))
                txn.accepted_at = row["time"]
                txn.client_latency = row.get("value")
                txn.quorum = attrs.get("quorum")
        elif rtype == "span":
            if name == "rbc.e2e":
                commit = index._commit(attrs["round"], attrs["origin"])
                commit.delivered.setdefault(row["node"], row["end"])
            elif name == "rbc.block_e2e":
                commit = index._commit(attrs["round"], attrs["origin"])
                commit.block_at.setdefault(row["node"], row["end"])
    # Drop bookkeeping entries for vertices that never carried a block or
    # were never ordered (pure-DAG rounds, evicted heads of the ring).
    index.commits = {
        key: c
        for key, c in index.commits.items()
        if c.ordered and (c.digest or c.proposed_at is not None)
    }
    return index


# -- per-transaction waterfalls ----------------------------------------------


def txn_waterfall(index: ProvenanceIndex, txn: TxnPath) -> dict[str, Any] | None:
    """The five-segment critical path of one accepted transaction."""
    if txn.commit_key is None or txn.client_latency is None:
        return None
    commit = index.commits.get(txn.commit_key)
    if commit is None or txn.quorum is None or txn.submitted_at is None:
        return None
    crit = commit.critical_replica(txn.quorum)
    if crit is None or commit.proposed_at is None or txn.accepted_at is None:
        return None
    node, executed_at = crit
    ordered_at = commit.ordered.get(node, executed_at)
    delivered_at = commit.delivered.get(node, ordered_at)
    segments = {
        "mempool": commit.proposed_at - txn.submitted_at,
        "dissemination": delivered_at - commit.proposed_at,
        "ordering": ordered_at - delivered_at,
        "execution": executed_at - ordered_at,
        "reply": txn.accepted_at - executed_at,
    }
    total = sum(segments.values())
    return {
        "txn": txn.txn_id,
        "commit": commit.label,
        "critical_node": node,
        "segments": segments,
        "total": total,
        "client_latency": txn.client_latency,
        "residual": total - txn.client_latency,
    }


def reconcile(index: ProvenanceIndex) -> dict[str, Any]:
    """Check every accepted transaction's waterfall against client latency."""
    checked = 0
    failures: list[dict[str, Any]] = []
    skipped = 0
    for txn_id in sorted(index.txns):
        txn = index.txns[txn_id]
        if txn.client_latency is None:
            continue  # never accepted (run ended first): nothing to reconcile
        waterfall = txn_waterfall(index, txn)
        if waterfall is None:
            skipped += 1  # records evicted or incomplete
            continue
        checked += 1
        if abs(waterfall["residual"]) > RECONCILE_TOL:
            failures.append(waterfall)
    return {
        "checked": checked,
        "skipped": skipped,
        "failures": failures,
        "ok": not failures and (checked > 0 or skipped == 0),
    }


# -- aggregate attribution ----------------------------------------------------


def attribution_rows(index: ProvenanceIndex) -> list[dict[str, Any]]:
    """Per-segment latency statistics across all commits (or transactions).

    With clients in the trace, samples are per accepted transaction (the
    mempool segment is per-transaction by nature); without, per ordered
    commit over the consensus-level segments.  Each segment aggregates into
    a fixed-size log-bucket histogram: count/sum/mean/max stay exact while
    quantiles are bucket estimates, and memory no longer grows with the
    number of commits in the trace.
    """
    from ..obs.metrics import Histogram

    samples: dict[str, Histogram] = {}
    if index.has_clients:
        names = CLIENT_SEGMENTS
        for txn_id in sorted(index.txns):
            waterfall = txn_waterfall(index, index.txns[txn_id])
            if waterfall is None:
                continue
            for seg, dur in waterfall["segments"].items():
                samples.setdefault(seg, Histogram()).record(dur)
    else:
        names = CONSENSUS_SEGMENTS
        for commit in index.ordered_commits():
            segs = commit.segments()
            if segs is None:
                continue
            for seg, dur in segs.items():
                samples.setdefault(seg, Histogram()).record(dur)
    grand_total = sum(h.sum for h in samples.values()) or 1.0
    rows = []
    for seg in names:
        hist = samples.get(seg)
        if hist is None or not hist.count:
            rows.append(
                {
                    "segment": seg, "count": 0, "mean": 0.0, "p50": 0.0,
                    "p99": 0.0, "max": 0.0, "share": 0.0,
                }
            )
            continue
        rows.append(
            {
                "segment": seg,
                "count": hist.count,
                "mean": hist.sum / hist.count,
                "p50": hist.quantile(0.50),
                "p99": hist.quantile(0.99),
                "max": hist.max,
                "share": hist.sum / grand_total,
            }
        )
    return rows


def slowest_replicas(index: ProvenanceIndex) -> list[tuple[int, int]]:
    """``(node, commits-paced)`` — how often each replica set a commit's pace."""
    quorum = None
    if index.has_clients:
        quorums = [
            t.quorum for t in index.txns.values() if t.quorum is not None
        ]
        quorum = quorums[0] if quorums else None
    counts: dict[int, int] = {}
    for commit in index.ordered_commits():
        node = commit.slowest_node(quorum)
        if node is not None:
            counts[node] = counts.get(node, 0) + 1
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
