"""Smoke tests: every example script runs to completion and prints its story.

Run as subprocesses so the examples stay honest standalone programs.
"""

import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

EXAMPLES = {
    "quickstart.py": [
        "replica states: consistent", "accepted=True", "vertices ordered: ",
    ],
    "single_clan_scaling.py": ["of baseline", "outsiders order digests only"],
    "shared_sequencer.py": ["global order interleaves clans"],
    "byzantine_resilience.py": [
        "safety: honest total orders are consistent",
        "no-vote certificates embedded in leader vertices",
        "pull path",
        "equivocation: at most one version per (round, source) was ordered",
    ],
    "committee_planner.py": ["projected peak stable throughput"],
    "sharded_blockchain.py": ["decision=commit", "consistent on both shards"],
}


@pytest.mark.parametrize("script", sorted(EXAMPLES))
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "examples", script)],
        capture_output=True,
        text=True,
        timeout=240,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    for marker in EXAMPLES[script]:
        assert marker in result.stdout, (
            f"{script}: expected {marker!r} in output:\n{result.stdout[-2000:]}"
        )


def test_committee_planner_accepts_arguments():
    result = subprocess.run(
        [
            sys.executable,
            os.path.join(REPO_ROOT, "examples", "committee_planner.py"),
            "300",
            "9",
        ],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0
    assert "n=300" in result.stdout
