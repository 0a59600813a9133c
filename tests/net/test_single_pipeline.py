"""Guard: ``Network`` has one transmit and one deliver.

``_transmit`` is the only function that turns a send into calendar events and
``_deliver`` the only one that turns an arrival into a handler call.  A second
function doing either job — a traced, fused or otherwise specialised twin —
is a second place every cross-cutting feature (faults, sanitizer, tracing,
CPU model, stats) has to be written, and the copies drift: the last pair
differed in how they associated the arrival-time sum.
"""

import ast
import os
import re
from functools import lru_cache

NETWORK_PY = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src", "repro", "net", "network.py",
)


@lru_cache(maxsize=None)
def _functions() -> list[ast.FunctionDef]:
    with open(NETWORK_PY, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=NETWORK_PY)
    return [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]


def _attribute_users(attr: str) -> list[str]:
    return [
        fn.name for fn in _functions()
        if any(isinstance(node, ast.Attribute) and node.attr == attr for node in ast.walk(fn))
    ]


def _handler_readers() -> list[str]:
    """Functions that look a handler up: a load of ``_handlers[...]`` or of a
    ``_dispatch[...]`` table (``register``/``set_dispatch`` only store)."""
    return [
        fn.name for fn in _functions()
        if any(
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr in ("_handlers", "_dispatch")
            for node in ast.walk(fn)
        )
    ]


def test_one_function_inserts_into_the_calendar():
    # That function is Simulator._insert; _transmit calls it (or `post`), and
    # nothing in this module reaches into the calendar's own containers.
    for private in ("_epochs", "_occupied", "_run", "_run_epoch", "_cursor"):
        assert _attribute_users(private) == [], private
    assert _attribute_users("_insert") == ["_transmit"]


def test_one_function_calls_handlers():
    assert _handler_readers() == ["_deliver"]


def test_no_specialised_twin_is_defined():
    twins = [
        fn.name for fn in _functions()
        if re.fullmatch(r"_transmit_.+|_deliver_.+|_handle", fn.name)
    ]
    assert twins == []
