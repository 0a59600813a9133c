"""Package-level API surface tests."""

import os

import repro


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_public_subpackages_importable():
    import importlib

    for name in repro.__all__:
        module = importlib.import_module(f"repro.{name}")
        assert module.__doc__, f"repro.{name} lacks a module docstring"


def test_membership_from_clan_config():
    from repro.committees import ClanConfig
    from repro.rbc.base import Membership

    cfg = ClanConfig.multi_clan(12, 2, seed=1)
    membership = Membership.from_clan_config(cfg, 1)
    assert membership.n == 12
    assert membership.clan == cfg.clan(1)
    assert membership.clan_quorum == cfg.clan_echo_quorum(1)


def test_every_public_module_has_docstrings():
    """Spot-check that core public classes carry documentation."""
    from repro.consensus import Deployment, SailfishNode
    from repro.rbc import PlainRbc
    from repro.smr import Client, Executor, SmrRuntime

    for obj in (Deployment, SailfishNode, PlainRbc, Client, Executor, SmrRuntime):
        assert obj.__doc__, obj


def test_gitignore_covers_pycache():
    # scripts/ and benchmarks/ byte-compiled caches must never be committed.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, ".gitignore"), encoding="utf-8") as fh:
        patterns = [line.strip() for line in fh]
    assert "__pycache__/" in patterns
