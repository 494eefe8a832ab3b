"""Every cache in the package is on one list, with the hits it earns.

A cache is either a function decorated with ``lru_cache`` (or
``functools.cache``) or an attribute whose name ends in ``_cache`` or
``_memo``.  Each one kept is re-read on the measured jobs; a new one has
to join the list with its own count.
"""

import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "flagcw"

# hits / builds of each cache, counted on one CLI command in-process
ALLOWED = {
    # CH^*(Fl(D)) per shape: 16 hits / 4 builds on verify --suite piqp,
    # 3 / 7 on verify --suite annihilator
    "chow_ring",
    # Sq^2 ranks per (shape, twist), read for the torsion and the
    # Bockstein ranks: 1 hit / 1 build on each partial-shape torsion job
    "_sq2_ranks",
    # W_D presentation per shape: 12 hits / 6 builds on verify --suite
    # annihilator, 1 / 1 on each annihilator job
    "build_sigma",
    # integer reducer memo: 16549 hits / 1080 misses on annihilator
    # 2,2,2,2,2 --block 1, 7380 / 2028 on verify --suite piqp
    "_nf_memo",
    # mod-2 reducer memo: 22833 hits / 3333 misses on the Fl(6) Sq^2
    # torsion, 5540 / 1544 on torsion of (1,1,1,1,2)
    "_nf2_memo",
    # rule per leading key, as key deltas: 2614 hits / 5 builds on the
    # Fl(6) Sq^2 torsion, 415 / 5 on annihilator 2,2,2,2,2 --block 1
    "_rule_memo",
    # W_D quotient record per (I, Chow degree): 1346 hits / 352 builds
    # on annihilator 2,2,2,2,2 --block 1
    "_quotient_cache",
    # p_{I^c} per I: 773 hits / 31 builds on annihilator 2,2,2,2,2 --block 1
    "_p_top_cache",
}

DECORATED = re.compile(
    r"^[ \t]*@(?:functools\.)?(?:lru_cache|cache)\b[^\n]*\n"
    r"(?:[ \t]*@[^\n]*\n)*[ \t]*def[ \t]+(\w+)",
    re.MULTILINE,
)
ATTRIBUTE = re.compile(r"\.(\w+_(?:cache|memo))\b")


def caches(text):
    return set(DECORATED.findall(text)) | set(ATTRIBUTE.findall(text))


def test_the_scan_sees_both_kinds_of_cache():
    assert caches("@lru_cache(maxsize=None)\ndef f(x):\n    return x") == {"f"}
    assert caches("@functools.cache\n@other\ndef g():\n    pass") == {"g"}
    assert caches("    @lru_cache\n    def h(self):") == {"h"}
    assert caches("self._mult_cache = {}") == {"_mult_cache"}
    assert caches("memo = self._nf_memo\nx = pres.A._p_top_cache.get(k)") == {
        "_nf_memo", "_p_top_cache"}


def test_the_scan_leaves_other_names_alone():
    assert caches("def lru_cache_size():\n    cache = {}\n    memo = []") == set()
    assert caches("from functools import lru_cache\nx = self._cached") == set()
    assert caches("self._memoize(x)\ny = obj.cache_info()") == set()


def test_every_cache_is_on_the_allow_list():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= caches(path.read_text())
    assert found == ALLOWED
