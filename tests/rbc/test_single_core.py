"""Guard: the RBC voting state machine is written exactly once.

The Fig. 2/3 family and the §5 merged vertex RBC are payload policies over
``repro.rbc.core``; a second definition of a voting handler anywhere under
``src/repro`` means a copy has crept back in.
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
