"""Guard: the RBC voting state machine, its clan-payload rules and its pull
loop are written once.

The Fig. 2/3 family and the §5 merged vertex RBC are payload policies over
``repro.rbc.core``; a second definition of a voting handler or a payload
rule anywhere under ``src/repro`` means a copy has crept back in.  Likewise every RBC pull —
payload, block, vertex, chunks — runs on ``repro.rbc.retrieval.Retriever``:
a retry timer or a capped backoff in the merged RBC or the node is a second
pull loop.  (``consensus/sync.py`` keeps its own: it pulls one moving round
window from any peer and resets its backoff on progress.)
"""

import ast
import os

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src", "repro",
)
HANDLERS = ("_on_echo", "_on_ready", "_on_cert", "_fall_back")


def test_voting_handlers_are_defined_once_in_the_core():
    defined = {name: [] for name in HANDLERS}
    for folder, _, files in os.walk(SRC):
        for filename in files:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(folder, filename)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name in defined:
                    where = os.path.relpath(path, SRC).replace(os.sep, "/")
                    defined[node.name].append(where)
    assert defined == {name: ["rbc/core.py"] for name in HANDLERS}


#: The clan-payload rules: when a clan member may ECHO, what a VAL's or a
#: pulled payload does, when the payload is delivered and whom it is pulled
#: from, and when a delivered instance retires.
PAYLOAD_RULES = (
    "_maybe_echo", "_holds_payload", "_take_payload", "_on_pulled_payload",
    "_settle", "_holder_certified", "_pull", "_lookup_payload", "_finished",
)


def test_payload_rules_are_defined_once_in_the_core():
    # Only the chunked prefix, whose blocks reach the node through the
    # certified-prefix commit path, vouches on its manifest and keeps its
    # instances.
    defined = {name: [] for name in PAYLOAD_RULES}
    for folder, _, files in os.walk(SRC):
        for filename in files:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(folder, filename)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
            where = os.path.relpath(path, SRC).replace(os.sep, "/")
            for cls in ast.walk(tree):
                if not isinstance(cls, ast.ClassDef):
                    continue
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef) and node.name in defined:
                        defined[node.name].append(f"{where}::{cls.name}")
    prefix = "consensus/vertex_rbc.py::ChunkedPrefixRbc"
    expected = {name: ["rbc/core.py::RbcCore"] for name in PAYLOAD_RULES}
    expected["_holds_payload"] = expected["_finished"] = [prefix, "rbc/core.py::RbcCore"]
    assert {name: sorted(found) for name, found in defined.items()} == expected


def _trees(*folders):
    for folder in folders:
        for filename in sorted(os.listdir(os.path.join(SRC, folder))):
            if filename.endswith(".py"):
                path = os.path.join(SRC, folder, filename)
                with open(path, encoding="utf-8") as fh:
                    yield f"{folder}/{filename}", ast.parse(fh.read(), filename=path)


def test_merged_rbc_and_node_schedule_no_timers():
    for where, tree in _trees("consensus"):
        if where not in ("consensus/vertex_rbc.py", "consensus/node.py"):
            continue
        calls = [
            node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("schedule", "schedule_at", "post")
        ]
        assert calls == [], where


def test_backoff_lives_in_the_pull_loops():
    # The capped-backoff step `min(timeout * growth, cap)` runs in the two
    # pull loops; the 30 s cap is defined once and sync imports it.
    steps, caps = set(), set()
    for where, tree in _trees("rbc", "consensus"):
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "min"
                and node.args
                and isinstance(node.args[0], ast.BinOp)
                and isinstance(node.args[0].op, ast.Mult)
            ):
                steps.add(where)
            if isinstance(node, ast.Constant) and node.value == 30.0:
                caps.add(where)
    assert steps == {"rbc/retrieval.py", "consensus/sync.py"}
    assert caps == {"rbc/retrieval.py"}
