"""Ownership of the Chow reducer: only ``flagchow.py`` knows its memo.

Every other module reads normal forms through the readers of
``ChowRingPresentation``: ``reduce_sums`` (integer normal forms) and
``reduce_mod2_mask`` (a bitmask over the standard monomials), with
monomials as the keys of the ring.  So a change to either memo, to the
rule table or to the block-count layout of the lead test touches one
file; the key layout itself belongs to ``poly.py``.
"""

import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "flagcw"

# the integer and mod-2 memos and their recursions (_monomial_nf also
# matches _monomial_nf2), the rule table and its builders, the key layout
# (_key_...), its packing and lead test and the keyed reader, and the
# block table by name, or any private attribute of a presentation
# (pres._..., self.A._...)
PRIVATE = re.compile(
    r"_monomial_nf|_nf_memo|_nf2_memo|_rule_memo|\._rule\b|\._tails\b"
    r"|_key_|\._pack\b|\._unpack\b|\._lead\b|_keyed\b|_spans"
    r"|\b(?:pres|A)\._[A-Za-z]")


def private_reads(text):
    return [line.strip() for line in text.splitlines() if PRIVATE.search(line)]


def test_the_scan_sees_a_private_read():
    assert private_reads("nf = self.A._monomial_nf\nok = pres.rank(d)") == [
        "nf = self.A._monomial_nf"
    ]
    assert private_reads("for span in self.pres._blocks:") != []
    assert private_reads("memo = ring._nf2_memo") != []
    assert private_reads("mask = ring._monomial_nf2(mon, index)") != []
    for read in ("rule = ring._rule_memo[lead]", "pairs, odd = ring._rule(k)",
                 "tails = ring._tails(lead)", "w = ring._key_width",
                 "g = ring._key_gather", "key = ring._pack(mon)",
                 "mon = ring._unpack(key)", "lead = ring._lead(key)",
                 "cols = ring._reduce_keyed(sums)", "it = ring._keyed(terms)"):
        assert private_reads(read) == [read]
    assert private_reads("self._blocks = []\nA.reduce_sums(ms)") == []
    assert private_reads("mask = pres.reduce_mod2_mask(ms, d)") == []
    assert private_reads("x = self._rules_of(t)\nk = unpack(b)\nkey = mon") == []


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
