"""Linear algebra over F_2 with rows stored as Python int bitmasks."""

from __future__ import annotations


def rank(rows) -> int:
    """Rank of the rows, by elimination on their highest set bits."""
    pivots = {}
    for r in rows:
        while r:
            top = r.bit_length() - 1
            if top not in pivots:
                pivots[top] = r
                break
            r ^= pivots[top]
    return len(pivots)
