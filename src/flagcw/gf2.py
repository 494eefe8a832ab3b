"""Linear algebra over F_2 with rows stored as Python int bitmasks."""

from __future__ import annotations


class GF2Basis:
    """Row space over F_2 in reduced echelon form, built incrementally."""

    def __init__(self):
        self.rows = []      # echelon rows (bitmasks), decreasing pivot bit
        self.pivots = []    # pivot bit index of each row
        self.history = []   # combination of inserted vectors giving each row

    def reduce(self, vec: int, track: int = 0):
        """Reduce vec against the basis; returns (residue, combination)."""
        comb = track
        for row, piv, h in zip(self.rows, self.pivots, self.history):
            if vec >> piv & 1:
                vec ^= row
                comb ^= h
        return vec, comb

    def insert(self, vec: int, track: int = 0) -> bool:
        """Insert vec; returns True if it enlarged the space."""
        residue, comb = self.reduce(vec, track)
        if residue == 0:
            return False
        piv = residue.bit_length() - 1
        self.rows.append(residue)
        self.pivots.append(piv)
        self.history.append(comb)
        return True

    def __len__(self):
        return len(self.rows)

    def coordinates(self, vec: int):
        """Expression of vec over the *inserted* vectors; None if outside."""
        residue, comb = self.reduce(vec)
        return comb if residue == 0 else None


def rank(rows) -> int:
    basis = GF2Basis()
    for r in rows:
        basis.insert(r)
    return len(basis)
