"""The checked-in tree must satisfy its own analyzer (satellite guarantee)."""

import json
import os

from repro.analysis.engine import Analyzer, apply_baseline, load_baseline
from repro.analysis.project import ProjectContext

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))


def test_src_tree_has_no_unbaselined_findings():
    # The project context makes the interprocedural rules (QRM001, RNG001,
    # MSG003, DET005) run here too — the full pack, exactly as CI runs it.
    project = ProjectContext.build(["src/repro"], root=REPO_ROOT)
    analyzer = Analyzer(project=project)
    findings = analyzer.run(["src/repro"], root=REPO_ROOT)
    baseline_path = os.path.join(REPO_ROOT, "analysis_baseline.json")
    baseline = load_baseline(baseline_path) if os.path.exists(baseline_path) else {}
    split = apply_baseline(findings, baseline)
    assert analyzer.parse_errors == []
    assert split.new == (), "\n".join(f.format() for f in split.new)


def test_committed_baseline_is_empty():
    # The whole-program rules shipped with their violations *fixed*, not
    # grandfathered: the committed baseline must stay empty.
    with open(os.path.join(REPO_ROOT, "analysis_baseline.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["findings"] == []


def test_new_rbc_message_modules_are_in_msg001_scope():
    # The RBC message modules carry the wire vocabulary (BlockChunkMsg,
    # ChunkRequestMsg, ChunkResponseMsg, manifest-bearing VALs); MSG001 must
    # see them — and find nothing — with no baseline entries grandfathering
    # them in.
    analyzer = Analyzer()
    targets = [
        "src/repro/rbc/messages.py",
        "src/repro/rbc/prefix.py",
        "src/repro/consensus/messages.py",
    ]
    findings = analyzer.run(targets, root=REPO_ROOT)
    assert analyzer.files_analyzed == len(targets)
    assert [f for f in findings if f.rule == "MSG001"] == []
    baseline_path = os.path.join(REPO_ROOT, "analysis_baseline.json")
    baseline = load_baseline(baseline_path) if os.path.exists(baseline_path) else {}
    assert not any("rbc/prefix" in path or "rbc/messages" in path
                   for _, path, _ in baseline)


def test_gitignore_covers_pycache():
    # scripts/ and benchmarks/ byte-compiled caches must never be committed
    # (or analyzed — the engine prunes them, see SKIP_DIRS).
    with open(os.path.join(REPO_ROOT, ".gitignore"), encoding="utf-8") as fh:
        patterns = [line.strip() for line in fh]
    assert "__pycache__/" in patterns
