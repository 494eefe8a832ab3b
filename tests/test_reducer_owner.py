"""Ownership of the Chow reducer: only ``flagchow.py`` knows its memo.

Every other module reads normal forms through the two readers of
``ChowRingPresentation`` (``reduce_sums`` and ``reduce_mod2``), so a
change to the memo or the rules touches one file.
"""

import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "flagcw"

# the memo, the rules and the block table by name, or any private
# attribute of a presentation (pres._..., self.A._...)
PRIVATE = re.compile(r"_monomial_nf|_nf_memo|_rules|_spans|\b(?:pres|A)\._[A-Za-z]")


def private_reads(text):
    return [line.strip() for line in text.splitlines() if PRIVATE.search(line)]


def test_the_scan_sees_a_private_read():
    assert private_reads("nf = self.A._monomial_nf\nok = pres.rank(d)") == [
        "nf = self.A._monomial_nf"
    ]
    assert private_reads("for span in self.pres._blocks:") != []
    assert private_reads("self._blocks = []\nA.reduce_mod2(ms)") == []


def test_only_flagchow_reads_the_reducer_memo():
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "flagchow.py" in sources
    found = {
        path.name: reads
        for path in sources
        if path.name != "flagchow.py"
        for reads in [private_reads(path.read_text())]
        if reads
    }
    assert found == {}
