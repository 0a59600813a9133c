"""Importing the simulation stack must not load the process machinery.

``repro.bench`` is pulled in by every benchmark workload, and the import is
part of the repo benchmark's ``setup_s``.  The parallel engine imports
``multiprocessing`` and ``concurrent.futures`` only when a grid fans out, so
a fresh interpreter that imports the stack holds neither.
"""

from __future__ import annotations

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")

PROBE = (
    "import sys, repro.bench, repro.smr.runtime; "
    "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') "
    "if m in sys.modules))"
)


def test_stack_import_loads_no_process_machinery():
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
