"""Guard: the safety checks are written once, in ``repro.consensus.oracle``,
and the total order is kept once, in the deployment's commit record.

Comparing executors' end states or honest nodes' orders anywhere else
under ``src/repro`` means a second safety oracle has crept back in — and two
of the four earlier copies were wrong (a pairwise prefix check a short log
could fool; a state check that counted a node which stayed down).  Keeping
an order history anywhere else means n copies of it again: every node
records into the one :class:`~repro.consensus.oracle.PrefixOracle` its
deployment builds (``commits``), and ``SailfishNode.ordered_log`` is a
read-only view of it that nothing under ``src/repro`` reads.
"""

import ast
import os

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src", "repro",
)
ORACLE = "consensus/oracle.py"
#: Modules whose safety checks run on the oracle.
CALLERS = (
    "consensus/deployment.py",
    "forensics/monitors.py",
    "smr/runtime.py",
)
#: The commit record's readers: ``commits.<accessor>`` outside the oracle.
RECORD_READERS = {
    ("bench/metrics.py", "measure_run"),
    ("chaos/runner.py", "run_scenario"),
    ("consensus/deployment.py", "check_total_order_consistency"),
    ("consensus/deployment.py", "min_ordered"),
    ("consensus/deployment.py", "ordered_vertices_everywhere"),
    ("consensus/node.py", "ordered_log"),
}
#: What a commit record (a PrefixOracle) offers.
RECORD_API = {"record", "on_divergence", "entries", "count", "last_time",
              "shared_prefix", "canonical", "position", "times"}
#: The per-node order copies and the post-hoc checks the record replaced.
RETIRED = {"ordered_vertices", "ordered_keys", "ordered_logs", "order_prefix",
           "common_prefix"}


def _modules():
    for folder, _, files in os.walk(SRC):
        for filename in sorted(files):
            if filename.endswith(".py"):
                path = os.path.join(folder, filename)
                with open(path, encoding="utf-8") as fh:
                    tree = ast.parse(fh.read(), filename=path)
                yield os.path.relpath(path, SRC).replace(os.sep, "/"), tree


def _walk(tree):
    """``(enclosing function, node)`` for every AST node."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((function, child))
                visit(child, child.name)
                continue
            found.append((function, child))
            visit(child, function)

    visit(tree, None)
    return found


def _name(node):
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _calls(tree, name):
    """``(enclosing function, lineno)`` of every ``name(...)`` or
    ``<expr>.name(...)`` call."""
    return [
        (function, node.lineno)
        for function, node in _walk(tree)
        if isinstance(node, ast.Call) and _name(node.func) == name
    ]


def _record_uses(tree):
    """``(enclosing function, attribute)`` of every use of the commit
    record's API on a ``commits`` receiver."""
    return [
        (function, node.attr)
        for function, node in _walk(tree)
        if isinstance(node, ast.Attribute)
        and _name(node.value) == "commits"
        and node.attr in RECORD_API
    ]


def test_only_the_oracle_reads_executor_states():
    # A state machine's own ``state_digest`` may delegate to the machine it
    # wraps; any other caller is comparing replicas.
    readers = {
        where
        for where, tree in _modules()
        for function, _ in _calls(tree, "state_digest")
        if function != "state_digest"
    }
    assert readers == {ORACLE}


def test_nothing_reads_ordered_log():
    readers = [
        (where, node.lineno)
        for where, tree in _modules()
        for _, node in _walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "ordered_log"
    ]
    assert readers == []
    definitions = {
        where
        for where, tree in _modules()
        for _, node in _walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "ordered_log"
    }
    assert definitions == {"consensus/node.py"}


def test_no_second_order_history_or_prefix_check():
    found = {
        (where, name)
        for where, tree in _modules()
        for _, node in _walk(tree)
        for name in [
            node.name if isinstance(node, ast.FunctionDef) else _name(node)
        ]
        if name in RETIRED
    }
    assert found == set()


def test_one_commit_record_per_deployment():
    # The deployment builds the record; every other oracle is the monitors'
    # per-clan executor oracle.
    builders = {
        (where, function)
        for where, tree in _modules()
        for function, _ in _calls(tree, "PrefixOracle")
    }
    assert builders == {
        ("consensus/deployment.py", "__init__"),
        ("forensics/monitors.py", "attach_runtime"),
    }


def test_only_the_commit_path_feeds_the_record():
    feeders = {
        (where, function)
        for where, tree in _modules()
        for function, attr in _record_uses(tree)
        if attr == "record"
    }
    assert feeders == {("consensus/node.py", "_commit_chain")}


def test_the_record_has_a_fixed_set_of_readers():
    readers = {
        (where, function)
        for where, tree in _modules()
        if where != ORACLE
        for function, attr in _record_uses(tree)
        if attr not in ("record", "on_divergence")
    }
    assert readers == RECORD_READERS
    listeners = {
        where
        for where, tree in _modules()
        for _, attr in _record_uses(tree)
        if attr == "on_divergence"
    }
    assert listeners == {"forensics/monitors.py"}


def test_every_safety_check_imports_the_oracle():
    importers = set()
    for where, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith(
                "oracle"
            ):
                importers.add(where)
    assert importers == set(CALLERS)
