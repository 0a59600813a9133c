"""Guard: protocol code calls its quorum thresholds, never re-derives them.

``quorum_size(n)`` and ``f_c + 1`` live in ``types.py``, ``committees/config.py``
and ``rbc/base.py``; a hand-written ``f + 1``, ``2*f + 1``, ``n - f`` or
``(x + 1) // 2`` in ``rbc/``, ``consensus/`` or ``dag/`` can drift from them.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
FOLDERS = ("rbc", "consensus", "dag")
CANONICAL = ("rbc/base.py",)  # the other two helpers live outside FOLDERS
FAULT_NAMES = ("f", "f_c", "t", "faults")


def _int(node, value):
    return isinstance(node, ast.Constant) and type(node.value) is int and node.value == value


def _faulty(node):
    """A fault count: a FAULT_NAMES name, ``max_faults(...)``, or twice one."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        pair = (node.left, node.right)
        return any(_int(a, 2) for a in pair) and any(_faulty(a) for a in pair)
    name = getattr(node, "func", node)
    name = getattr(name, "id", getattr(name, "attr", None))
    return name == "max_faults" if isinstance(node, ast.Call) else name in FAULT_NAMES


def _rederives(node):
    """``x + 1``, ``2*x + 1``, ``n - x`` over a fault count x, or ``(… + 1) // 2``."""
    left, right = node.left, node.right
    if isinstance(node.op, ast.Add):
        return (_int(right, 1) and _faulty(left)) or (_int(left, 1) and _faulty(right))
    if isinstance(node.op, ast.Sub):
        return _faulty(right)
    inner = left if isinstance(node.op, ast.FloorDiv) and _int(right, 2) else None
    return isinstance(inner, ast.BinOp) and isinstance(inner.op, ast.Add) and (
        _int(inner.left, 1) or _int(inner.right, 1)
    )


def quorum_sites(root):
    """``path:line`` of every re-derived threshold under ``root``'s FOLDERS."""
    sites = set()
    for folder in FOLDERS:
        for path in sorted(pathlib.Path(root, folder).rglob("*.py")):
            where = path.relative_to(root).as_posix()
            if where not in CANONICAL:
                tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
                sites.update(
                    f"{where}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.BinOp) and _rederives(node)
                )
    return sorted(sites)


def test_protocol_code_does_not_rederive_quorums():
    assert quorum_sites(SRC) == []


def test_the_guard_flags_hand_derived_clan_thresholds(tmp_path):
    # The three thresholds the merged vertex RBC once derived by hand, next
    # to structural arithmetic the guard must leave alone.
    (tmp_path / "consensus").mkdir()
    (tmp_path / "consensus" / "vertex_rbc.py").write_text(
        "self._amplify = clan_cfg.f + 1\n"
        "clan_quorum = (len(clan) + 1) // 2  # f_c + 1\n"
        "clan_quorum = (len(clan) + 1) // 2 if clan is not None else 0\n"
        "next_round, last, mid = round_ + 1, n - 1, (lo + hi) // 2\n"
    )
    assert quorum_sites(tmp_path) == [f"consensus/vertex_rbc.py:{i}" for i in (1, 2, 3)]


def test_the_guard_fails_a_majority_written_into_the_core(tmp_path):
    (tmp_path / "rbc").mkdir()
    core = (SRC / "rbc" / "core.py").read_text(encoding="utf-8")
    core += "clan_quorum = (len(clan) + 1) // 2\n"
    (tmp_path / "rbc" / "core.py").write_text(core)
    last = core.count("\n")
    assert quorum_sites(tmp_path) == [f"rbc/core.py:{last}"]
