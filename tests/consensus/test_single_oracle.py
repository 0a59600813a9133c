"""Guard: the safety checks are written once, in ``repro.consensus.oracle``.

Comparing executors' end states or honest nodes' ordered logs anywhere else
under ``src/repro`` means a second safety oracle has crept back in — and two
of the four earlier copies were wrong (a pairwise prefix check a short log
could fool; a state check that counted a node which stayed down).
``Deployment.ordered_logs`` may still collect the logs for callers to read.
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
    "chaos/runner.py",
    "forensics/monitors.py",
    "smr/runtime.py",
)


def _modules():
    for folder, _, files in os.walk(SRC):
        for filename in sorted(files):
            if filename.endswith(".py"):
                path = os.path.join(folder, filename)
                with open(path, encoding="utf-8") as fh:
                    tree = ast.parse(fh.read(), filename=path)
                yield os.path.relpath(path, SRC).replace(os.sep, "/"), tree


def _calls(tree, attr):
    """``(enclosing function, lineno)`` of every ``<expr>.attr(...)`` call."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == attr
            ):
                found.append((function, child.lineno))
            visit(child, function)

    visit(tree, None)
    return found


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


def test_only_deployment_ordered_logs_collects_ordered_keys():
    collectors = {
        (where, function)
        for where, tree in _modules()
        for function, _ in _calls(tree, "ordered_keys")
    }
    assert collectors == {("consensus/deployment.py", "ordered_logs")}
    readers = {
        where for where, tree in _modules() if _calls(tree, "ordered_logs")
    }
    assert readers == set()


def test_every_safety_check_imports_the_oracle():
    importers = set()
    for where, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith(
                "oracle"
            ):
                importers.add(where)
    assert importers == set(CALLERS)
