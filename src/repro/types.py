"""Shared primitive types and quorum arithmetic.

The whole library identifies parties by small integers (``NodeId``) and
protocol rounds by non-negative integers (``Round``).  Quorum arithmetic for
the tribe (``f < n/3``) and for clans (``f_c < n_c/2``) lives here so that
every protocol module uses the same thresholds.
"""

from __future__ import annotations

from .errors import ConfigError

NodeId = int
Round = int

#: Round number used for the synthetic genesis vertices every node starts from.
GENESIS_ROUND: Round = 0


def max_faults(n: int) -> int:
    """Maximum Byzantine faults ``f = floor((n-1)/3)`` tolerated by a tribe of ``n``.

    >>> max_faults(4)
    1
    >>> max_faults(100)
    33
    """
    if n < 1:
        raise ConfigError(f"tribe size must be positive, got {n}")
    return (n - 1) // 3


def quorum_size(n: int) -> int:
    """Byzantine quorum for a tribe of ``n`` parties: ``ceil((n+f+1)/2)``.

    Equals the familiar ``2f + 1`` when ``n = 3f + 1``, and grows for tribe
    sizes between the 3f+1 steps so that any two quorums intersect in at
    least ``f + 1`` parties (the property every safety argument rests on —
    with a plain ``2f + 1`` at e.g. ``n = 12, f = 3``, two quorums can
    intersect in only 2 parties, all of them possibly Byzantine).

    >>> quorum_size(4), quorum_size(7), quorum_size(100)
    (3, 5, 67)
    >>> quorum_size(12)  # 2f+1 would be 7 and would NOT intersect safely
    8
    """
    n = int(n)
    f = max_faults(n)
    return (n + f) // 2 + 1


def clan_max_faults(n_c: int) -> int:
    """Maximum faults ``f_c`` a clan of ``n_c`` tolerates with honest majority.

    Honest majority requires strictly more honest than faulty members, i.e.
    ``f_c <= ceil(n_c / 2) - 1``.

    >>> clan_max_faults(5)
    2
    >>> clan_max_faults(6)
    2
    """
    if n_c < 1:
        raise ConfigError(f"clan size must be positive, got {n_c}")
    return (n_c + 1) // 2 - 1


def parties_of(mask: int) -> list[NodeId]:
    """The parties of a supporter mask (bit p is party p), ascending.

    >>> parties_of(0b10110)
    [1, 2, 4]
    """
    parties = []
    while mask:
        low = mask & -mask
        parties.append(low.bit_length() - 1)
        mask ^= low
    return parties


def clan_response_quorum(n_c: int) -> int:
    """Replies a client needs from a clan: ``f_c + 1`` matching responses."""
    return clan_max_faults(n_c) + 1


def validate_tribe(n: int, f: int | None = None) -> int:
    """Validate ``(n, f)`` for the tribe; return the effective ``f``.

    ``f`` defaults to the maximum tolerated.  Raises :class:`ConfigError` when
    ``f >= n/3``.
    """
    limit = max_faults(n)
    if f is None:
        return limit
    if not 0 <= f <= limit:
        raise ConfigError(f"f={f} out of range for n={n} (max {limit})")
    return f
