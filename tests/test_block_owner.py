"""Block numbers have one owner: ``FlagShape``.

Every public method that takes a 1-based block number reads it through
``FlagShape.size``, so 0, -1 and m + 1 are refused instead of being read
by Python's negative indexing, and no other module turns a block number
into a size or a generator span on its own.
"""

import re
from pathlib import Path

import pytest

from flagcw.flagchow import ChowRingPresentation, FlagShape
from flagcw.wdring import WDPresentation, ann_euler, annihilator_generator

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "flagcw"

# (shape, call with block number i); each shape makes the old indexing
# return an answer, not raise, for at least one of 0 and -1
BLOCK_METHODS = {
    "FlagShape.size": ((1, 2, 3), lambda sh, i: sh.size(i)),
    "generator": ((1, 2, 3), lambda sh, i: ChowRingPresentation(sh).generator(i, 1)),
    "top_chern": ((1, 2, 3), lambda sh, i: ChowRingPresentation(sh).top_chern(i)),
    "euler": ((2, 2, 2), lambda sh, i: WDPresentation(sh).euler(i)),
    "slot": ((2, 4, 2), lambda sh, i: WDPresentation(sh).slot({i}, (), 0)),
    "p_top_product": (
        (2, 4, 2), lambda sh, i: WDPresentation(sh).p_top_product(frozenset([i]))
    ),
    "annihilator_generator": ((2, 2, 2), annihilator_generator),
    "ann_euler": ((2, 2, 2), ann_euler),
}


@pytest.mark.parametrize("name", sorted(BLOCK_METHODS))
def test_block_number_outside_the_shape_is_refused(name):
    parts, call = BLOCK_METHODS[name]
    shape = FlagShape(parts)
    for i in (0, -1, shape.m + 1):
        with pytest.raises(ValueError, match=rf"out of range 1\.\.{shape.m}\b"):
            call(shape, i)
    assert call(shape, shape.m) is not None


def test_size_names_the_block_and_the_shape():
    with pytest.raises(ValueError) as info:
        FlagShape([1, 2, 3]).size(0)
    assert str(info.value) == "block 0 out of range 1..3 for shape 1,2,3"
    assert [FlagShape([1, 2, 3]).size(i) for i in (1, 2, 3)] == [1, 2, 3]


def test_layout_is_computed_once_from_the_parts():
    sh = FlagShape([2, 1, 3])
    assert (sh.N, sh.m, sh.dim) == (6, 3, 2 * 1 + 2 * 3 + 1 * 3)
    assert sh.spans == ((0, 2), (2, 3), (3, 6))


# a block number turned into a size by hand, or the removed span helpers
HAND_INDEXING = re.compile(r"d\[[a-z.]+ - 1\]|block_span|\b_blocks\b|euler_degree")


def hand_indexing(text):
    return [line.strip() for line in text.splitlines() if HAND_INDEXING.search(line)]


def test_the_scan_sees_hand_indexing():
    assert hand_indexing("k = shape.d[i - 1] // 2\nok = shape.size(i)") == [
        "k = shape.d[i - 1] // 2"
    ]
    assert hand_indexing("for span in self._blocks:") != []
    assert hand_indexing("span = shape.block_span(i)") != []
    assert hand_indexing("TwistClass.from_blocks(m, [i])") == []


def test_only_flagshape_size_reads_a_block_number():
    found = {
        (path.name, line)
        for path in sorted(PACKAGE.glob("*.py"))
        for line in hand_indexing(path.read_text())
    }
    assert found == {("flagchow.py", "return self.d[i - 1]")}
    source = (PACKAGE / "flagchow.py").read_text()
    size = source[source.index("    def size(self"):]
    assert size[: size.index("\n    def ", 1)].count("return self.d[i - 1]") == 1
