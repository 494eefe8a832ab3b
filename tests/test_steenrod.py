import random
from pathlib import Path

from flag_oracle import (
    compositions,
    mask_monomials,
    monomials_of_degree,
    pullback,
    reference_sq2_rows,
)

from flagcw import gf2, series, steenrod
from flagcw.poly import GradedPolynomial
from flagcw.flagchow import (
    ChowRingPresentation,
    FlagShape,
    TwistClass,
    all_twist_classes,
    chow_poincare,
    chow_ring,
)
from flagcw.steenrod import (
    Mod2Chow,
    bockstein_cohomology_ranks,
    torsion_poincare_closed,
    torsion_poincare_from_sq2,
    w_poincare_closed,
)
from flagcw.wdring import wd_poincare


def odd(poly):
    """The monomial keys of a polynomial with odd coefficient: its mod-2
    reduction as an nf2 input."""
    return [mon for mon, c in poly.terms.items() if c % 2]


def test_sq2_on_line_classes():
    ring = Mod2Chow(chow_ring(FlagShape((1, 1, 1))))
    key = ring.pres.ring.key
    # Sq^2(x_i) = x_i^2, reduced mod the relations
    trivial = TwistClass.trivial(3)
    for i in range(3):
        x = tuple(int(k == i) for k in range(3))
        assert ring.sq2([key(x)], 1, trivial) == ring.nf2([key(2 * e for e in x)], 2)
    assert ring.sq2([key((1, 0, 0))], 1, trivial) != 0


def test_sq2_chern_class_formula_on_blocks():
    # Sq^2(c_2(D_1)) = c_1 c_2 + 3 c_3 = c_1 c_2 + c_3 on a rank-3 block
    trivial = TwistClass.trivial(2)
    ring = Mod2Chow(chow_ring(FlagShape((3, 1))))
    pres = ring.pres
    c1, c2, c3 = (pres.generator(1, j) for j in (1, 2, 3))
    assert ring.sq2(odd(c2), 2, trivial) == ring.nf2(odd(c1 * c2 + c3), 3)

    # On Fl(3,1) both sides vanish, so the shape (3,3) is what tells a
    # wrong Sq^2 apart; the odd coefficient 3 must reduce to 1, and the
    # pullback to Fl(6) must agree with Sq^2(x_i) = x_i^2 there.
    ring = Mod2Chow(chow_ring(FlagShape((3, 3))))
    pres = ring.pres
    c1, c2, c3 = (pres.generator(1, j) for j in (1, 2, 3))
    got = ring.sq2(odd(c2), 2, trivial)
    assert got == ring.nf2(odd(c1 * c2 + 3 * c3), 3)
    assert got != ring.nf2(odd(c1 * c2), 3)
    assert got != ring.nf2(odd(c3), 3)
    fl6 = Mod2Chow(chow_ring(FlagShape((1,) * 6)))
    assert pull2(fl6, ring, got, 3) == sq2_reference(
        fl6, pull2(fl6, ring, ring.nf2(odd(c2), 2), 2), 2, TwistClass.trivial(6)
    )


def test_nf2_reduces_coefficients_mod_2():
    ring = Mod2Chow(chow_ring(FlagShape((3, 1))))
    mon = ring.pres.ring.key((0, 0, 0, 3))
    index = ring.pres.standard_index(3)
    assert ring.nf2([mon], 3) == 1 << index[mon]
    # repeats cancel: a coefficient counts by its parity
    assert ring.nf2([mon, mon], 3) == 0
    assert ring.nf2([mon, mon, mon], 3) == ring.nf2([mon], 3)

    # random homogeneous integer polynomials, degree by degree: nf2 of the
    # monomials repeated |c| times is the odd part of the integer normal
    # form; above the top degree both are 0
    rng = random.Random(1618)
    for parts in [(1, 1, 1, 1), (2, 2)]:
        ring = Mod2Chow(chow_ring(FlagShape(parts)))
        pres = ring.pres
        for d in range(pres.shape.dim + 2):
            mons = monomials_of_degree(pres.ring, d)
            index = pres.standard_index(d)
            for _ in range(5):
                sample = rng.sample(mons, min(len(mons), rng.randint(1, 6)))
                poly = pres.ring.from_terms(
                    {m: rng.randint(-3, 3) for m in sample})
                nf = pres.normal_form(poly)
                want = sum(1 << index[m] for m in odd(nf))
                repeated = [m for m, c in poly.terms.items() for _ in range(abs(c))]
                assert ring.nf2(repeated, d) == want, (parts, d)
                assert ring.nf2(odd(poly), d) == want, (parts, d)


def test_sq2_squares_to_zero_randomized():
    rng = random.Random(2718)
    ring = Mod2Chow(chow_ring(FlagShape((1, 1, 1, 1))))
    pres = ring.pres
    for twist in all_twist_classes(4):
        for _ in range(25):
            d = rng.randint(0, ring.shape.dim - 2)
            mons = pres.standard_monomials(d)
            elt = [m for m in mons if rng.random() < 0.5] or [mons[0]]
            once = ring.sq2(elt, d, twist)
            twice = ring.sq2(mask_monomials(pres, once, d + 1), d + 1, twist)
            assert twice == 0


def test_twisted_sq2_of_unit_is_ell():
    ring = Mod2Chow(chow_ring(FlagShape((1, 1, 1))))
    twist = TwistClass.from_blocks(3, [1])
    unit = [ring.pres.ring.unit]
    assert ring.nf2(unit, 0) == 1
    # l = c_1(D_1) = x_1, the line class of the one twisted block
    assert ring.sq2(unit, 0, twist) == ring.nf2([ring.pres.ring.key((1, 0, 0))], 1)
    assert ring.sq2(unit, 0, TwistClass.trivial(3)) == 0


def test_sq2_is_one_nf2_call_on_a_list(monkeypatch):
    # every Sq^2 row is one sq2 call on its standard monomial, and that
    # is one nf2 call on the list of its bumped monomials, one degree up
    for N in range(1, 5):
        for parts in compositions(N):
            ring = Mod2Chow(ChowRingPresentation(FlagShape(parts)))
            sq2, nf2, calls = ring.sq2, ring.nf2, []

            def spy_sq2(monomials, d, twist):
                calls.append(("sq2", monomials, d))
                return sq2(monomials, d, twist)

            def spy_nf2(monomials, d):
                calls.append(("nf2", monomials, d))
                return nf2(monomials, d)

            monkeypatch.setattr(ring, "sq2", spy_sq2)
            monkeypatch.setattr(ring, "nf2", spy_nf2)
            for twist in all_twist_classes(len(parts)):
                for d in range(ring.shape.dim + 1):
                    calls.clear()
                    rows = ring.sq2_matrix_rows(d, twist)
                    mons = ring.pres.standard_monomials(d)
                    bumped = [ring._bumped([mon], twist.bits) for mon in mons]
                    assert calls[0::2] == [("sq2", [mon], d) for mon in mons]
                    assert calls[1::2] == [("nf2", b, d + 1) for b in bumped]
                    assert all(type(c[1]) is list for c in calls)
                    assert rows == [nf2(b, d + 1) for b in bumped]


def sq2_reference(ring, elt, d, twist):
    """Sq^2_L on a degree-d mask of a complete flag ring, term by term:
    the derivation Sq^2(x_i) = x_i^2 on each monomial, plus the product
    with l = the sum of the line classes of the twisted blocks, every
    piece through nf2."""
    poly_ring = ring.pres.ring
    mons = mask_monomials(ring.pres, elt, d)
    out = 0
    for mon in mons:
        for i, e in enumerate(poly_ring.exponents(mon)):
            if e % 2:
                out ^= ring.nf2([mon + poly_ring.var_keys[i]], d + 1)
    lines = [
        poly_ring.var_keys[j]
        for block, bit in enumerate(twist.bits, start=1)
        if bit
        for j in range(*ring.shape.spans[block - 1])
    ]
    ell = mask_monomials(ring.pres, ring.nf2(lines, 1), 1)
    out ^= ring.nf2([m1 + m2 for m1 in mons for m2 in ell], d + 1)
    return out


def pull2(full, ring, elt, d):
    """A degree-d mod-2 element of ring, pulled back to the complete flag
    ring full."""
    mons = mask_monomials(ring.pres, elt, d)
    poly = pullback(ring.pres, GradedPolynomial(ring.pres.ring, dict.fromkeys(mons, 1)))
    return full.nf2(odd(poly), d)


def test_sq2_matches_termwise_reference():
    # Sq^2_L by the Chern-class formula, pulled back to Fl(N), against the
    # line derivation there; the twist of block i twists its lines
    rng = random.Random(5772)
    for parts in [(1, 1, 1, 1), (2, 2), (3, 1), (1, 2, 2), (3, 3), (2, 3)]:
        ring = Mod2Chow(chow_ring(FlagShape(parts)))
        full = Mod2Chow(chow_ring(FlagShape((1,) * ring.shape.N)))
        for twist in all_twist_classes(len(parts)):
            lines = TwistClass(
                [bit for bit, d in zip(twist.bits, parts) for _ in range(d)]
            )
            for d in range(ring.shape.dim + 1):
                mons = ring.pres.standard_monomials(d)
                for _ in range(3):
                    elt = [m for m in mons if rng.random() < 0.5]
                    got = ring.sq2(elt, d, twist)
                    assert pull2(full, ring, got, d + 1) == sq2_reference(
                        full, pull2(full, ring, ring.nf2(elt, d), d), d, lines
                    ), (parts, twist, d)


def test_sq2_rows_match_the_integer_normal_form():
    # the mod-2 bitmask rows against the odd support of the integer normal
    # forms, on every composition of N <= 5 and every twist, and on Fl(6);
    # the degrees are read top down on a fresh ring, so each degree's memo
    # entries are made after those of the degrees above it
    cases = [(parts, twist) for N in range(1, 6) for parts in compositions(N)
             for twist in all_twist_classes(len(parts))]
    cases.append(((1,) * 6, TwistClass.trivial(6)))
    for parts, twist in cases:
        ring = Mod2Chow(ChowRingPresentation(FlagShape(parts)))
        top = ring.shape.dim
        rows = {d: ring.sq2_matrix_rows(d, twist) for d in range(top, -1, -1)}
        assert rows[top] == [0]
        for d, got in rows.items():
            assert got == reference_sq2_rows(ring, d, twist), (parts, twist, d)
    assert len(cases) == 122


def test_trivial_sq2_on_all_even_shapes_builds_no_rule():
    # with every block even and no twist, a standard monomial with n_i
    # factors from block i gains c_{i,1} only when n_i is odd, so
    # n_i < s_{i-1} and it stays standard; the other bumps keep n_i
    shapes = [parts for N in range(2, 9, 2) for parts in compositions(N)
              if not any(d % 2 for d in parts)]
    assert len(shapes) == 15
    cases = [(parts, []) for parts in shapes]
    # a twist or an odd block does need rules
    cases += [((2, 2), [1]), ((1, 3), [])]
    for parts, blocks in cases:
        ring = Mod2Chow(ChowRingPresentation(FlagShape(parts)))
        twist = TwistClass.from_blocks(len(parts), blocks)
        for d in range(ring.shape.dim + 1):
            ring.sq2_matrix_rows(d, twist)
        assert (ring.pres._rule_memo == {}) == (parts in shapes and not blocks), parts


def test_rank_nullity_per_degree():
    # on Fl(4), dim ker Sq^2_d - rank Sq^2_(d-1) is the Bockstein
    # cohomology, whose Poincare polynomial is the closed form P_0(Fl(4))
    ring = Mod2Chow(chow_ring(FlagShape((1, 1, 1, 1))))
    twist = TwistClass.trivial(4)
    ranks = [
        gf2.rank(ring.sq2_matrix_rows(d, twist))
        for d in range(ring.shape.dim + 1)
    ]
    expected = w_poincare_closed(4)
    for d, r in enumerate(ranks):
        kernel_dim = ring.pres.rank(d) - r
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


def test_sq2_ranks_are_reversal_invariant_and_dual():
    # Fl(D) and Fl(D reversed) are the same variety with the blocks read
    # backwards, and Poincare duality pairs Sq^2_L on Ch^d with
    # Sq^2_(L+v) on Ch^(dim-d-1), v_k = (N - d_k) mod 2 the twist of the
    # canonical bundle; every composition of N <= 6 and every twist
    pairs = 0
    for N in range(1, 7):
        for parts in compositions(N):
            shape = FlagShape(parts)
            flipped = FlagShape(parts[::-1])
            v = TwistClass((N - d) % 2 for d in parts)
            for twist in all_twist_classes(shape.m):
                ranks = steenrod._sq2_ranks(shape, twist)
                assert ranks == steenrod._sq2_ranks(
                    flipped, TwistClass(twist.bits[::-1])), (parts, twist)
                dual = steenrod._sq2_ranks(shape, twist + v)
                assert ranks == tuple(
                    dual[shape.dim - d - 1] if d < shape.dim else 0
                    for d in range(shape.dim + 1)), (parts, twist)
                pairs += 1
    assert pairs == 364


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


def test_sq2_ranks_of_3331_are_pinned():
    # rank of Sq^2 on Ch^d of Fl(3,3,3,1), untwisted, as the tuple-keyed
    # reducer computed it (16800 standard monomials, 47 rules); the ranks
    # are symmetric under d -> dim - 1 - d (the tangent twist is trivial)
    ranks = (0, 3, 5, 13, 20, 42, 61, 98, 133, 192, 243, 315, 374, 446,
             501, 555, 586, 607, 607, 586, 555, 501, 446, 374, 315, 243,
             192, 133, 98, 61, 42, 20, 13, 5, 3, 0, 0)
    shape = FlagShape([3, 3, 3, 1])
    ring = Mod2Chow(ChowRingPresentation(shape))
    twist = TwistClass.trivial(4)
    got = tuple(gf2.rank(ring.sq2_matrix_rows(d, twist))
                for d in range(shape.dim + 1))
    assert got == ranks


def test_steenrod_imports_nothing_from_the_witt_layer():
    # TwistClass lives beside FlagShape, so Sq^2 needs no W_D code
    source = Path(steenrod.__file__).read_text()
    imports = [line for line in source.splitlines()
               if line.startswith(("from ", "import "))]
    assert any("flagchow" in line for line in imports)
    assert [line for line in imports if "wdring" in line] == []
