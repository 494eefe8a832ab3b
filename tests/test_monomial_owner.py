"""Ownership of the monomial layout: only ``poly.py`` packs monomials.

Every polynomial term in the package is keyed by one int, its
``PolyRing`` key: ``PolyRing.key`` packs an exponent tuple and
``PolyRing.exponents`` unpacks one.  No other module turns ints into
bytes or back, or adds or subtracts exponent tuples entry by entry, and
``ChowRingPresentation`` keeps no packer of its own.  So a change to the
layout touches one file.
"""

import re
from pathlib import Path

from flagcw.flagchow import ChowRingPresentation, FlagShape

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "flagcw"

# int <-> bytes, and entrywise sums and differences of exponent tuples
PACKING = re.compile(r"\b(?:to_bytes|from_bytes)\b|tuple\(map\(add\b|\bmap\(sub\b")


def packing(text):
    return [line.strip() for line in text.splitlines() if PACKING.search(line)]


def test_the_scan_sees_packing():
    for line in ("raw = key.to_bytes(n, 'little')",
                 "key = int.from_bytes(raw, 'little')",
                 "m = tuple(map(add, m1, m2))", "f = tuple(map(sub, mon, lead))",
                 "d = list(map(sub, a, b))"):
        assert packing(line) == [line]
    assert packing("key = m1 + m2\nexps = ring.exponents(key)\nn = len(to_bytes_)") == []


def test_only_poly_packs_monomials():
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "poly.py" in sources
    assert packing((PACKAGE / "poly.py").read_text()) != []
    found = {
        path.name: lines
        for path in sources
        if path.name != "poly.py"
        for lines in [packing(path.read_text())]
        if lines
    }
    assert found == {}


def test_the_chow_ring_keeps_no_packer():
    pres = ChowRingPresentation(FlagShape([2, 1]))
    for name in ("_pack", "_unpack", "_key_bytes"):
        assert not hasattr(ChowRingPresentation, name)
        assert not hasattr(pres, name)
