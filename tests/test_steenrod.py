import random
from operator import add

from flag_oracle import compositions, pullback

from flagcw import gf2, series
from flagcw.flagchow import FlagShape, chow_poincare
from flagcw.steenrod import (
    Mod2Chow,
    bockstein_cohomology_ranks,
    mod2_chow,
    torsion_poincare_closed,
    torsion_poincare_from_sq2,
    w_poincare_closed,
)
from flagcw.wdring import TwistClass, all_twist_classes, wd_poincare


def test_sq2_on_line_classes():
    ring = mod2_chow((1, 1, 1))
    # Sq^2(x_i) = x_i^2, reduced mod the relations
    got = ring.sq2(ring.nf2([(1,)]))
    assert got == ring.nf2([(2,)])


def test_sq2_chern_class_formula_on_blocks():
    # Sq^2(c_2(D_1)) = c_1 c_2 + 3 c_3 = c_1 c_2 + c_3 on a rank-3 block
    ring = mod2_chow((3, 1))
    pres = ring.pres
    c1, c2, c3 = (pres.generator(1, j) for j in (1, 2, 3))
    assert ring.sq2(ring.nf2(c2)) == ring.nf2(c1 * c2 + c3)

    # On Fl(3,1) both sides vanish, so the shape (3,3) is what tells a
    # wrong Sq^2 apart; the odd coefficient 3 must reduce to 1, and the
    # pullback to Fl(6) must agree with Sq^2(x_i) = x_i^2 there.
    ring = mod2_chow((3, 3))
    pres = ring.pres
    c1, c2, c3 = (pres.generator(1, j) for j in (1, 2, 3))
    got = ring.sq2(ring.nf2(c2))
    assert got == ring.nf2(c1 * c2 + 3 * c3)
    assert got != ring.nf2(c1 * c2)
    assert got != ring.nf2(c3)
    fl6 = mod2_chow((1,) * 6)
    assert pull2(fl6, ring, got) == sq2_reference(
        fl6, pull2(fl6, ring, ring.nf2(c2)), TwistClass.trivial(6)
    )


def test_nf2_reduces_coefficients_mod_2():
    ring = mod2_chow((3, 1))
    mon = (0, 0, 0, 3)
    assert ring.nf2({mon: -2}) == frozenset()
    assert ring.nf2({mon: -1}) == frozenset({mon})
    pres = ring.pres
    poly = pres.normal_form(pres.generator(1, 1) * pres.generator(1, 2))
    assert ring.nf2(poly) == ring.nf2(poly.terms)
    # a plain iterable keeps its symmetric-set meaning: repeats cancel
    assert ring.nf2([mon, mon]) == frozenset()

    # random integer polynomials: nf2 is the odd part of the integer normal
    # form, for every accepted input type
    rng = random.Random(1618)
    for parts in [(1, 1, 1, 1), (2, 2)]:
        ring = mod2_chow(parts)
        pres = ring.pres
        for _ in range(20):
            poly = pres.ring.from_terms(
                {
                    tuple(rng.randint(0, 4) for _ in range(4)): rng.randint(-3, 3)
                    for _ in range(rng.randint(1, 6))
                }
            )
            nf = pres.normal_form(poly)
            odd = frozenset(m for m, c in nf.terms.items() if c % 2)
            assert ring.nf2(poly) == odd
            assert ring.nf2(poly.terms) == odd
            repeated = [m for m, c in poly.terms.items() for _ in range(abs(c))]
            assert ring.nf2(repeated) == odd


def test_sq2_squares_to_zero_randomized():
    rng = random.Random(2718)
    ring = mod2_chow((1, 1, 1, 1))
    for twist in all_twist_classes(4):
        for _ in range(25):
            d = rng.randint(0, ring.top_degree() - 2)
            mons = ring.pres.standard_monomials(d)
            elt = ring.nf2(
                [m for m in mons if rng.random() < 0.5] or [mons[0]]
            )
            once = ring.sq2(elt, twist)
            assert ring.sq2(once, twist) == frozenset()


def test_twisted_sq2_of_unit_is_ell():
    ring = mod2_chow((1, 1, 1))
    twist = TwistClass.from_blocks(3, [1])
    unit = ring.nf2([()])
    # l = c_1(D_1) = x_1, the line class of the one twisted block
    assert ring.sq2(unit, twist) == ring.nf2([(1, 0, 0)])
    assert ring.sq2(unit, TwistClass.trivial(3)) == frozenset()


def test_sq2_is_one_nf2_call_on_a_list(monkeypatch):
    # every element, of one monomial or several, costs exactly one mod-2
    # normal form, and its bumped monomials arrive as a list
    ring = Mod2Chow(FlagShape([1, 2, 2]))
    nf2, calls = ring.nf2, []

    def spy(monomials):
        calls.append(monomials)
        return nf2(monomials)

    monkeypatch.setattr(ring, "nf2", spy)
    for twist in all_twist_classes(3):
        for d in range(ring.top_degree() + 1):
            mons = ring.pres.standard_monomials(d)
            for elt in [frozenset([m]) for m in mons] + [frozenset(mons)]:
                calls.clear()
                got = ring.sq2(elt, twist)
                assert len(calls) == 1 and type(calls[0]) is list
                assert got == nf2(calls[0])


def sq2_reference(ring, elt, twist):
    """Sq^2_L on a complete flag ring, term by term: the derivation
    Sq^2(x_i) = x_i^2 on each monomial, plus the product with l = the sum
    of the line classes of the twisted blocks, every piece through nf2."""
    N = ring.shape.N
    out = set()
    for mon in elt:
        for i, e in enumerate(mon):
            if e % 2:
                out ^= ring.nf2([mon[:i] + (e + 1,) + mon[i + 1 :]])
    lines = [
        tuple(int(k == j) for k in range(N))
        for block, bit in enumerate(twist.bits, start=1)
        if bit
        for j in ring.shape.block_span(block)
    ]
    ell = ring.nf2(lines)
    out ^= ring.nf2([tuple(map(add, m1, m2)) for m1 in elt for m2 in ell])
    return frozenset(out)


def pull2(full, ring, elt):
    """A mod-2 element of ring, pulled back to the complete flag ring full."""
    return full.nf2(pullback(ring.pres, ring.pres.ring.from_terms(dict.fromkeys(elt, 1))))


def test_sq2_matches_termwise_reference():
    # Sq^2_L by the Chern-class formula, pulled back to Fl(N), against the
    # line derivation there; the twist of block i twists its lines
    rng = random.Random(5772)
    for parts in [(1, 1, 1, 1), (2, 2), (3, 1), (1, 2, 2), (3, 3), (2, 3)]:
        ring = mod2_chow(parts)
        full = mod2_chow((1,) * ring.shape.N)
        for twist in all_twist_classes(len(parts)):
            lines = TwistClass(
                [bit for bit, d in zip(twist.bits, parts) for _ in range(d)]
            )
            for d in range(ring.top_degree() + 1):
                mons = ring.pres.standard_monomials(d)
                for _ in range(3):
                    elt = frozenset(m for m in mons if rng.random() < 0.5)
                    assert pull2(full, ring, ring.sq2(elt, twist)) == sq2_reference(
                        full, pull2(full, ring, elt), lines
                    ), (parts, twist, d)


def test_rank_nullity_per_degree():
    # on Fl(4), dim ker Sq^2_d - rank Sq^2_(d-1) is the Bockstein
    # cohomology, whose Poincare polynomial is the closed form P_0(Fl(4))
    ring = mod2_chow((1, 1, 1, 1))
    twist = TwistClass.trivial(4)
    ranks = [
        gf2.rank(ring.sq2_matrix_rows(d, twist))
        for d in range(ring.top_degree() + 1)
    ]
    expected = w_poincare_closed(4)
    for d, r in enumerate(ranks):
        kernel_dim = ring.rank(d) - r
        image_below = ranks[d - 1] if d else 0
        assert kernel_dim - image_below == (expected[d] if d < len(expected) else 0)
    assert ring.sq2_matrix_rows(0, twist) == [0]


def test_torsion_closed_paper_values():
    assert torsion_poincare_closed(3, TwistClass.trivial(3)) == [0, 0, 2]
    assert torsion_poincare_closed(4, TwistClass.trivial(4)) == [0, 0, 3, 2, 2, 3]
    assert torsion_poincare_closed(3, TwistClass.from_blocks(3, [1])) == [
        0,
        1,
        1,
        1,
    ]
    assert torsion_poincare_closed(4, TwistClass.from_blocks(4, [2])) == [
        0,
        1,
        2,
        3,
        3,
        2,
        1,
    ]


def test_w_poincare_closed_forms():
    assert w_poincare_closed(3) == [1, 0, 0, 1]
    assert w_poincare_closed(4) == [1, 0, 0, 2, 0, 0, 1]
    assert w_poincare_closed(5) == series.mul(
        [1, 0, 0, 1], [1, 0, 0, 0, 0, 0, 0, 1]
    )


def test_from_sq2_matches_closed_small():
    for N in (3, 4):
        shape = FlagShape([1] * N)
        for twist in all_twist_classes(N):
            assert torsion_poincare_from_sq2(
                shape, twist
            ) == torsion_poincare_closed(N, twist)


def test_bockstein_matches_wd_poincare():
    # every composition of N <= 6 and every twist
    shapes = [parts for N in range(1, 7) for parts in compositions(N)]
    slots = 0
    for parts in shapes:
        shape = FlagShape(parts)
        for twist in all_twist_classes(shape.m):
            assert bockstein_cohomology_ranks(shape, twist) == wd_poincare(
                shape, twist
            ), (parts, twist)
            slots += 1
    assert (len(shapes), slots) == (63, 364)


def test_p2_reassembly():
    # P_2 = P_HSq2 + (1+t)/t * P_Tor, for every twist
    for parts in [(1, 1, 1), (1, 1, 1, 1), (2, 2), (2, 1)]:
        shape = FlagShape(parts)
        p2 = chow_poincare(shape)
        for twist in all_twist_classes(shape.m):
            h = bockstein_cohomology_ranks(shape, twist)
            tor = torsion_poincare_from_sq2(shape, twist)
            recombined = series.add(
                h, series.exact_div(series.mul([1, 1], tor), [0, 1])
            )
            assert recombined == p2


def test_torsion_closed_divisibility_guard():
    # the closed forms divide exactly by (1 + t) for every N
    for N in range(2, 8):
        for twist in [TwistClass.trivial(N), TwistClass.from_blocks(N, [1])]:
            torsion_poincare_closed(N, twist)  # raises if not exact


def test_partial_shape_torsion_from_sq2():
    # Gr(2,4): real cohomology has torsion ranks t^2 + ... matching
    # P_2 - P_0 folding; check internal consistency against bockstein
    shape = FlagShape([2, 2])
    p2 = chow_poincare(shape)
    for twist in all_twist_classes(2):
        tor = torsion_poincare_from_sq2(shape, twist)
        h = bockstein_cohomology_ranks(shape, twist)
        assert series.add(
            h, series.exact_div(series.mul([1, 1], tor), [0, 1])
        ) == p2
