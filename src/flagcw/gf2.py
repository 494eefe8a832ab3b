"""Linear algebra over F_2 with rows stored as Python int bitmasks.

Only row spaces and ranks are computed; no coordinates over the inserted
vectors are kept.
"""

from __future__ import annotations


class GF2Basis:
    """Row space over F_2 in echelon form, built incrementally."""

    def __init__(self):
        self.rows = []      # bitmasks, each zero at the pivots of earlier rows
        self.pivots = []    # highest set bit of each row

    def reduce(self, vec: int) -> int:
        """Residue of vec against the basis; 0 iff vec lies in the span."""
        for row, piv in zip(self.rows, self.pivots):
            if vec >> piv & 1:
                vec ^= row
        return vec

    def insert(self, vec: int) -> bool:
        """Insert vec; returns True if it enlarged the space."""
        residue = self.reduce(vec)
        if residue == 0:
            return False
        self.rows.append(residue)
        self.pivots.append(residue.bit_length() - 1)
        return True

    def __len__(self):
        return len(self.rows)


def rank(rows) -> int:
    basis = GF2Basis()
    for r in rows:
        basis.insert(r)
    return len(basis)
