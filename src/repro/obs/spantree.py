"""Span-tree reconstruction and root-to-commit completeness checks.

Causal context turns the flat record stream into trees; this module rebuilds
them offline and answers the acceptance question for a traced run: *what
fraction of committed transactions have a complete root-to-commit span tree*
(client submit → RBC delivery → DAG attach → ordering → execution)?

The join works without any run-specific state:

* ``smr.txn`` spans are per-transaction roots (their ``txn`` attr is the id);
* ``smr.block`` counters are block manifests mapping a block digest to the
  transaction ids it carries;
* block-trace spans (``rbc.e2e``, ``dag.attach``, ``consensus.order``,
  ``smr.execute``) share one trace id per block, and ``smr.execute`` carries
  the block digest, linking digest → trace id.
"""

from __future__ import annotations

from typing import Any

from .tracer import record_dicts

#: Span names that must appear in a block's trace for the commit path to be
#: considered complete, in pipeline order.
COMMIT_STAGES = ("rbc.e2e", "dag.attach", "consensus.order", "smr.execute")


def span_trees(source: Any) -> dict[int, list[dict[str, Any]]]:
    """Group context-carrying spans into trees, one per trace id.

    Returns ``{trace_id: [root_node, ...]}`` where each node is
    ``{"span": record_dict, "children": [node, ...]}``.  Spans whose parent
    id is not present in the same trace become roots (the registry makes no
    completeness promise — that is :func:`txn_completeness`'s job).
    """
    by_trace: dict[int, list[dict[str, Any]]] = {}
    for rec in record_dicts(source):
        if rec.get("type") != "span":
            continue
        attrs = rec.get("attrs") or {}
        trace = attrs.get("trace")
        if trace is None:
            continue
        by_trace.setdefault(int(trace), []).append(rec)

    trees: dict[int, list[dict[str, Any]]] = {}
    for trace, spans in by_trace.items():
        nodes = {
            attrs["span"]: {"span": rec, "children": []}
            for rec in spans
            if (attrs := rec.get("attrs") or {}).get("span") is not None
        }
        roots = []
        for rec in spans:
            attrs = rec.get("attrs") or {}
            sid = attrs.get("span")
            node = nodes.get(sid) if sid is not None else {"span": rec, "children": []}
            parent = nodes.get(attrs.get("parent"))
            if parent is not None and parent["span"] is not rec:
                parent["children"].append(node)
            else:
                roots.append(node)
        trees[trace] = roots
    return trees


def txn_completeness(source: Any, max_examples: int = 10) -> dict[str, Any]:
    """Fraction of committed txns with a complete root-to-commit tree.

    A transaction counts as *committed* when it appears in the manifest of a
    block that was executed; it counts as *complete* when its own trace has
    an ``smr.txn`` root span **and** its block's trace contains every stage
    in :data:`COMMIT_STAGES`.
    """
    txn_roots: set[str] = set()
    manifests: dict[str, list[str]] = {}   # block digest -> txn ids
    executed: set[str] = set()             # executed block digests
    digest_trace: dict[str, int] = {}      # block digest -> trace id
    stages_by_trace: dict[int, set[str]] = {}

    for rec in record_dicts(source):
        rtype = rec.get("type")
        name = rec.get("name")
        attrs = rec.get("attrs") or {}
        if rtype == "span":
            trace = attrs.get("trace")
            if name == "smr.txn" and attrs.get("txn") is not None:
                txn_roots.add(attrs["txn"])
            elif trace is not None and name in COMMIT_STAGES:
                stages_by_trace.setdefault(int(trace), set()).add(name)
                if name == "smr.execute" and attrs.get("digest") is not None:
                    digest_trace[attrs["digest"]] = int(trace)
                    executed.add(attrs["digest"])
        elif rtype == "counter":
            if name == "smr.block" and attrs.get("digest") is not None:
                manifests[attrs["digest"]] = list(attrs.get("txns") or ())
            elif name == "smr.execute" and attrs.get("digest") is not None:
                executed.add(attrs["digest"])

    committed = 0
    complete = 0
    missing: dict[str, list[str]] = {}
    for digest in sorted(executed):
        trace = digest_trace.get(digest)
        stages = stages_by_trace.get(trace, set()) if trace is not None else set()
        absent = [s for s in COMMIT_STAGES if s not in stages]
        for txn in manifests.get(digest, ()):
            committed += 1
            gaps = list(absent)
            if txn not in txn_roots:
                gaps.insert(0, "smr.txn")
            if gaps:
                if len(missing) < max_examples:
                    missing[txn] = gaps
            else:
                complete += 1

    return {
        "committed": committed,
        "complete": complete,
        "ratio": complete / committed if committed else 0.0,
        "missing": missing,
    }
