"""The QRM001 fixtures, kept against the quorum guard that replaced the rule.

Each case writes one snippet into a tmp source tree and asks
``tests/test_quorum_guard.py::quorum_sites`` which of its lines re-derive a
threshold instead of calling ``quorum_size``/``f_c + 1`` from their homes.
"""

import textwrap

from tests.test_quorum_guard import quorum_sites

CONS = "consensus/quorums.py"


def flagged(tmp_path, source, path=CONS):
    """Line numbers of ``source`` (written at ``path``) that the guard flags."""
    target = tmp_path / path
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return [int(site.rsplit(":", 1)[1]) for site in quorum_sites(tmp_path)]


def test_qrm001_flags_2f_plus_1(tmp_path):
    assert flagged(tmp_path, """\
        def decide(votes, f):
            return len(votes) >= 2 * f + 1
        """) == [2]


def test_qrm001_flags_f_plus_1_and_n_minus_f(tmp_path):
    assert flagged(tmp_path, """\
        def thresholds(n, f):
            amplify = f + 1
            available = n - f
            return amplify, available
        """) == [2, 3]


def test_qrm001_flags_clan_majority_rederivation(tmp_path):
    # The exact bug class once fixed in vertex_rbc: (len(clan)+1)//2 by hand.
    assert flagged(tmp_path, """\
        def clan_quorum_met(clan, count):
            return count >= (len(clan) + 1) // 2
        """) == [2]


def test_qrm001_canonical_helper_call_is_clean(tmp_path):
    assert flagged(tmp_path, """\
        def decide(self, votes):
            return len(votes) >= self.membership.quorum
        """) == []


def test_qrm001_canonical_definition_site_is_exempt(tmp_path):
    # The guard exempts the helpers' home by path, not by function name.
    assert flagged(tmp_path, """\
        def clan_quorum(f_c):
            return f_c + 1
        """, path="rbc/base.py") == []


def test_qrm001_out_of_scope_path_is_clean(tmp_path):
    assert flagged(tmp_path, """\
        def majority(n_c):
            return (n_c + 1) // 2
        """, path="committees/sampling.py") == []


def test_qrm001_non_threshold_arithmetic_is_clean(tmp_path):
    assert flagged(tmp_path, """\
        def shapes(round_, n, lo, hi, chunk_index):
            return round_ + 1, n - 1, (lo + hi) // 2, chunk_index + 1
        """) == []


def test_qrm001_structural_comparisons_are_clean(tmp_path):
    # "non-empty" / pair checks on count names are structure, not quorums.
    assert flagged(tmp_path, """\
        def structural(votes):
            return len(votes) >= 1 and len(votes) == 0
        """) == []
