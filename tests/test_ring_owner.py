"""Ownership of the Chow ring: only ``flagchow.chow_ring`` builds one.

CH, Ch^* with Sq^2, the Pontryagin ring of W_D and the ideal checks all
read CH^*(Fl(D)) through ``chow_ring(shape)``, so the ring of a shape is
chosen in one place and built once.  A source scan pins the constructor
calls, and identity checks pin what each reader holds.
"""

import ast
from pathlib import Path

from flagcw import flagchow, steenrod
from flagcw.flagchow import (
    FlagShape,
    FullFlagRing,
    TwistClass,
    ann_top_chern,
    chow_ring,
    verify_piqp_fln,
)
from flagcw.steenrod import Mod2Chow, _sq2_ranks, bockstein_cohomology_ranks
from flagcw.wdring import build_sigma

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "flagcw"
CONSTRUCTORS = {"ChowRingPresentation", "FullFlagRing"}


def constructor_calls(text):
    """(enclosing function, constructor) for every call of a Chow ring
    constructor in the source text; None outside any function."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in CONSTRUCTORS:
                found.append((owner, name))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(text), None)
    return found


def test_the_scan_sees_a_constructor_call():
    text = (
        "def f(shape):\n    return ChowRingPresentation(shape)\n"
        "class W:\n    def __init__(self):\n"
        "        self.A = flagchow.FullFlagRing(3)\n"
        "ring = FullFlagRing(2)\n"
        "class FullFlagRing(ChowRingPresentation):\n    pass\n"
    )
    assert constructor_calls(text) == [
        ("f", "ChowRingPresentation"),
        ("__init__", "FullFlagRing"),
        (None, "FullFlagRing"),
    ]


def test_only_chow_ring_constructs_a_chow_ring():
    calls = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        for found in [constructor_calls(path.read_text())]
        if found
    }
    assert calls == {
        "flagchow.py": [("chow_ring", "FullFlagRing"),
                        ("chow_ring", "ChowRingPresentation")],
    }


def test_the_retired_constructors_are_gone():
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        assert "full_flag_ring" not in text, path.name
        assert "mod2_chow" not in text, path.name
    assert not hasattr(flagchow, "full_flag_ring")
    assert not hasattr(steenrod, "mod2_chow")


def test_chow_ring_is_built_once_per_shape():
    assert chow_ring(FlagShape([2, 1])) is chow_ring(FlagShape((2, 1)))
    assert type(chow_ring(FlagShape([2, 1]))) is flagchow.ChowRingPresentation
    full = chow_ring(FlagShape([1, 1, 1]))
    assert isinstance(full, FullFlagRing) and full.shape == FlagShape([1, 1, 1])


def test_the_pontryagin_ring_of_w_d_is_the_shared_chow_ring():
    assert build_sigma(FlagShape([2] * 5)).A is chow_ring(FlagShape([1] * 5))
    assert build_sigma(FlagShape([2, 4])).A is chow_ring(FlagShape([1, 2]))


def test_sq2_ranks_read_the_shared_chow_ring(monkeypatch):
    seen = []
    rows = Mod2Chow.sq2_matrix_rows

    def spy(self, d, twist):
        seen.append(self.pres)
        return rows(self, d, twist)

    monkeypatch.setattr(Mod2Chow, "sq2_matrix_rows", spy)
    for parts in ([1, 1, 1], [2, 2], [1, 2, 1]):
        shape = FlagShape(parts)
        seen.clear()
        # past the per-(shape, twist) cache, which another test may fill
        _sq2_ranks.__wrapped__(shape, TwistClass.trivial(shape.m))
        assert seen and all(pres is chow_ring(shape) for pres in seen), parts
    assert Mod2Chow(chow_ring(FlagShape([2, 2]))).shape == FlagShape([2, 2])


def test_bockstein_ranks_read_the_shared_chow_ring(monkeypatch):
    shape = FlagShape([2, 1])
    seen = []
    rank = type(chow_ring(shape)).rank

    def spy(self, d):
        seen.append(self)
        return rank(self, d)

    monkeypatch.setattr(type(chow_ring(shape)), "rank", spy)
    bockstein_cohomology_ranks(shape, TwistClass.trivial(2))
    assert seen and all(pres is chow_ring(shape) for pres in seen)


def test_ideal_checks_read_the_shared_chow_ring(monkeypatch):
    seen = []
    check = flagchow._check_quotient

    def spy(pres, *args):
        seen.append(pres)
        return check(pres, *args)

    monkeypatch.setattr(flagchow, "_check_quotient", spy)
    for parts in ([1, 2], [2, 2], [1, 1, 1]):
        ann_top_chern(FlagShape(parts))
        assert seen.pop() is chow_ring(FlagShape(parts)), parts
    verify_piqp_fln(4, 3, 1)
    assert seen.pop() is chow_ring(FlagShape([1] * 4))
    assert isinstance(chow_ring(FlagShape([1] * 4)), FullFlagRing)


def test_a_shape_of_lines_has_the_empty_half_shape():
    # every block of size 1: the Pontryagin ring is Fl(0), a complete flag
    pres = build_sigma(FlagShape([1, 1, 1]))
    assert pres.half_shape == FlagShape(())
    assert pres.A is chow_ring(FlagShape(()))
    assert isinstance(pres.A, FullFlagRing)
    assert pres.A.dim == 0 and pres.A.standard_monomials(0) == [pres.A.ring.unit]
