import math
import random
import time

import pytest
from flag_oracle import (
    TupleReducer,
    block_elementary,
    class_of_point,
    compositions,
    identity,
    integrate_fln,
    inverse_chern_series,
    monomials_of_degree,
    pullback,
    pullback_nf,
    quotient_chow_poincare,
    standard_coords,
)

from flagcw import intlinalg
from flagcw.flagchow import (
    ChowRingPresentation,
    FlagShape,
    FullFlagRing,
    _check_quotient,
    ann_top_chern,
    chow_poincare,
    chow_ring,
    ideal_lattice,
    ideal_quotient_degreewise,
    verify_piqp_fln,
)
from flagcw.poly import ExponentOverflow, GradedPolynomial
from flagcw.symfunc import jacobi_trudi_delta, partitions_in_box


def relation_ideal_lattice(N, d):
    """Independent oracle: degree-d span of the ideal (e_1, ..., e_N),
    built from raw monomial multiples, no normal form involved."""
    fl = chow_ring(FlagShape([1] * N))
    ring = fl.ring
    monomials = monomials_of_degree(ring, d)
    index = {m: i for i, m in enumerate(monomials)}
    vectors = []
    for j in range(1, N + 1):
        if j > d:
            continue
        ej = block_elementary(fl, range(N), j)
        for mon in monomials_of_degree(ring, d - j):
            prod = ring.monomial(mon) * ej
            vec = [0] * len(monomials)
            for m2, c in prod.terms.items():
                vec[index[ring.exponents(m2)]] = c
            vectors.append(vec)
    return intlinalg.hnf(vectors), monomials


def in_relation_ideal(N, p):
    d = p.degree()
    rows, monomials = relation_ideal_lattice(N, d)
    index = {m: i for i, m in enumerate(monomials)}
    v = [0] * len(monomials)
    for mon, c in p.terms.items():
        v[index[p.ring.exponents(mon)]] = c
    pivots = [next(j for j, c in enumerate(r) if c) for r in rows]
    return intlinalg.lattice_coords(rows, pivots, v) is not None


# -- shapes --------------------------------------------------------------


def test_shape_basics():
    sh = FlagShape([2, 2, 14])
    assert sh.N == 18 and sh.m == 3
    assert sh.dim == 2 * 2 + 2 * 14 + 2 * 14
    assert str(sh) == "2,2,14"


def test_shape_refuses_zero_parts():
    with pytest.raises(ValueError, match="block 2 has size 0"):
        FlagShape([2, 0, 1])


# -- Poincare polynomials -------------------------------------------------


def test_chow_poincare_examples():
    assert chow_poincare(FlagShape([1, 1, 1])) == [1, 2, 2, 1]
    assert chow_poincare(FlagShape([1, 1, 1, 1])) == [1, 3, 5, 6, 5, 3, 1]
    for n in range(2, 7):
        assert chow_poincare(FlagShape([1, n - 1])) == [1] * n


def test_chow_poincare_is_the_quotient_formula():
    shapes = [FlagShape(c) for N in range(1, 11) for c in compositions(N)]
    assert len(shapes) == 1023
    # a long block over a short span: the fibre series takes 3 factors, not 120
    for shape in shapes + [FlagShape([3, 120])]:
        assert chow_poincare(shape) == quotient_chow_poincare(shape), shape


def test_chow_poincare_of_a_long_tower_is_fast():
    # a dense quotient formula took 4-5 s on each of the first three;
    # the long blocks of P^4000 took 3.5 s when each fibre took d_i factors
    for parts in [(1, 127), (64, 64), (32, 32, 32, 32), (1, 4000), (4000, 1)]:
        shape = FlagShape(parts)
        start = time.perf_counter()
        poly = chow_poincare(shape)
        assert time.perf_counter() - start < 0.5, parts
        assert len(poly) == shape.dim + 1 and poly[0] == poly[-1] == 1, parts


# -- normal form ----------------------------------------------------------


def test_normal_form_small_examples():
    fl2 = chow_ring(FlagShape([1, 1]))
    assert fl2.normal_form(fl2.ring.var(0)) == -fl2.ring.var(1)
    fl3 = chow_ring(FlagShape([1, 1, 1]))
    assert fl3.normal_form(fl3.ring.monomial((1, 1, 1))).is_zero()


def test_normal_form_point_class_fl3_with_ideal_oracle():
    # -x1^2 x2 reduces to x2 x3^2; the difference must lie in the raw
    # relation ideal (independent lattice membership, no Groebner data)
    fl3 = chow_ring(FlagShape([1, 1, 1]))
    p = fl3.ring.monomial((2, 1), -1)
    nf = fl3.normal_form(p)
    expected = fl3.ring.monomial((0, 1, 2))
    assert nf == expected
    assert in_relation_ideal(3, p - expected)
    # and the result is standard: exponents a_k <= k-1
    for mon in nf.terms:
        assert all(e <= i for i, e in enumerate(fl3.ring.exponents(mon)))


def test_normal_form_kills_relations():
    for N in range(2, 6):
        fl = chow_ring(FlagShape([1] * N))
        for j in range(1, N + 1):
            assert fl.normal_form(block_elementary(fl, range(N), j)).is_zero()


def test_normal_form_idempotent_linear_ring_map():
    rng = random.Random(42)
    fl = chow_ring(FlagShape([1, 1, 1, 1]))
    ring = fl.ring

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 5)):
            mon = tuple(rng.randint(0, 2) for _ in range(4))
            terms[mon] = rng.randint(-4, 4)
        return ring.from_terms(terms)

    for _ in range(15):
        p, q = rand_poly(), rand_poly()
        nfp = fl.normal_form(p)
        assert fl.normal_form(nfp) == nfp
        assert fl.normal_form(p + q) == fl.normal_form(p) + fl.normal_form(q)
        assert fl.normal_form(p * q) == fl.normal_form(nfp * fl.normal_form(q))


def test_normal_form_against_relation_ideal_oracle():
    # random homogeneous polynomials, degrees up to one past the top on
    # Fl(3): the normal form is standard and differs from the input by an
    # element of the raw ideal (e_1, ..., e_N); a fresh ring with an empty
    # memo agrees with the shared, warmed one
    rng = random.Random(314)
    for N in (3, 4, 5):
        warm = chow_ring(FlagShape([1] * N))
        fresh = FullFlagRing(N)
        for _ in range(8):
            d = rng.randint(1, N + 1)
            mons = monomials_of_degree(warm.ring, d)
            sample = rng.sample(mons, min(4, len(mons)))
            p = warm.ring.from_terms({m: rng.randint(-5, 5) for m in sample})
            nf = warm.normal_form(p)
            assert all(e <= i for mon in nf.terms
                       for i, e in enumerate(warm.ring.exponents(mon)))
            assert in_relation_ideal(N, p - nf)
            assert fresh.normal_form(p) == nf


def test_normal_form_above_top_degree_is_zero_and_not_memoized():
    fl = FullFlagRing(5)
    for k in (1, 2, 12):
        assert fl.normal_form(fl.ring.monomial([fl.dim + k])).is_zero()
    above = fl.ring.from_terms(
        {m: 1 for m in monomials_of_degree(fl.ring, fl.dim + 1)}
    )
    assert fl.normal_form(above).is_zero()
    assert fl._nf_memo == {}
    # the mod-2 reader likewise gives 0 there and stores nothing
    assert fl.reduce_mod2_mask(list(above.terms), fl.dim + 1) == 0
    assert fl._nf2_memo == {}
    # a byte field holds the exponents 0..127: above the top degree such a
    # monomial gives a key that misses the memo, and the degree the ring
    # reads off it refuses it; a sum of two keys may set a flag but never
    # carries, so its degree reads true.  An exponent past 127 is refused
    # by the ring, and so is a product that leaves its field.
    cases = [
        ((1, 1, 1, 1), [[0, 0, 0, 7], [127, 0, 0, 0], [1, 1, 1, 127]],
         [[300, 0, 0, 0], [255, 0, 0, 0], [256, 0, 0, 0], [1, 1, 1, 1000]]),
        ((2, 2, 14), [[61] + [0] * 17, [127] * 18, [0] * 17 + [5]],
         [[255] * 18, [0, 256] + [0] * 16, [128] + [0] * 17]),
    ]
    for parts, fits, refused in cases:
        pres = ChowRingPresentation(FlagShape(parts))
        assert pres.ring.width == 8
        keys = [pres.ring.key(e) for e in fits]
        for e, key in zip(fits, keys):
            assert pres.ring.exponents(key) == tuple(e)
            assert pres.ring.monomial_degree(key) > pres.dim
            assert pres.normal_form(pres.ring.monomial(e)).is_zero()
        sums = [a + b for a in keys for b in keys]
        assert any(key & pres.ring.high for key in sums)
        assert pres.reduce_sums([[(key, 1) for key in keys + sums]]) == [{}]
        assert pres.reduce_mod2_mask(keys, pres.dim + 1) == 0
        assert pres._nf_memo == pres._nf2_memo == pres._rule_memo == {}
        for e in refused:
            with pytest.raises(ExponentOverflow):
                pres.ring.key(e)
            with pytest.raises(ExponentOverflow):
                pres.ring.monomial(e)
        big = pres.ring.monomial(fits[1])
        with pytest.raises(ExponentOverflow):
            big * big


def test_packed_reducer_matches_the_tuple_oracle():
    # every composition with N <= 6, on fresh rings: random monomials of
    # every degree up to dim, their integer normal forms, the mod-2 masks
    # of random sums (repeats cancel) and the leading term of each
    rng = random.Random(28)
    shapes = 0
    for N in range(1, 7):
        for parts in compositions(N):
            pres = ChowRingPresentation(FlagShape(parts))
            oracle = TupleReducer(pres)
            for d in range(pres.dim + 1):
                mons = monomials_of_degree(pres.ring, d)
                sample = rng.sample(mons, min(6, len(mons)))
                for mon in sample:
                    key = pres.ring.key(mon)
                    assert pres.ring.exponents(key) == mon
                    lead = oracle.leading(mon)
                    assert pres._lead(key) == (lead and pres.ring.key(lead))
                p = pres.ring.from_terms({m: rng.randint(-3, 3) for m in sample})
                nf = {pres.ring.exponents(m): c for m, c in pres.normal_form(p).terms.items()}
                assert nf == oracle.normal_form(p), (parts, d)
                summed = sample + rng.choices(sample, k=3)
                keys = list(map(pres.ring.key, summed))
                assert pres.reduce_mod2_mask(keys, d) == oracle.mask(summed, d)
            shapes += 1
    assert shapes == 63


@pytest.mark.parametrize("parts, width", [
    ((4, 3) + (1,) * 10, 8), ((1,) * 10 + (3, 4), 8),
    ((4, 2, 2) + (1,) * 9, 16), ((1,) * 9 + (2, 2, 4), 16),
])
def test_keys_at_a_field_width_boundary(parts, width):
    # dim < 2^(W-1) picks W: these shapes of N = 17 have dim 127 (byte
    # fields) and 128 (16-bit ones).  Their standard table and rules are
    # out of reach, so the keys are checked where neither is read: the
    # leading term of top-degree monomials whose block counts reach dim,
    # the top standard monomial, and monomials above the top degree
    pres = ChowRingPresentation(FlagShape(parts))
    dim, n, spans = pres.dim, pres.ring.nvars, pres.shape.spans
    assert dim == 127 + (width == 16) and pres.ring.width == width
    oracle = TupleReducer(pres)
    rng = random.Random(dim)

    def power(v, e):
        return tuple(e if u == v else 0 for u in range(n))

    # c_{i,1}^dim for every block, then random top-degree monomials
    # drawn from one or two blocks
    tops = [power(start, dim) for start, _ in spans]
    for _ in range(60):
        blocks = rng.sample(spans, rng.choice((1, 2)))
        exps, left = [0] * n, dim
        while left:
            start, stop = rng.choice(blocks)
            v = rng.randrange(start, min(stop, start + left))
            exps[v] += 1
            left -= pres.ring.weights[v]
        tops.append(tuple(exps))
    for mon in tops:
        assert pres.ring.monomial_degree(pres.ring.key(mon)) == dim
        lead = oracle.leading(mon)
        assert pres._lead(pres.ring.key(mon)) == (lead and pres.ring.key(lead)), mon
    # the top standard monomial prod_i c_{i,d_i}^{s_{i-1}}
    top = [0] * n
    for start, stop in spans:
        top[stop - 1] = start
    top = pres.ring.key(top)
    assert pres._lead(top) is None
    assert pres.normal_form(GradedPolynomial(pres.ring, {top: 3})).terms == {top: 3}
    # a field holds 0..room; keys above the top degree reduce to 0, a sum
    # of two of them included, and an exponent past room is refused
    room = (1 << width - 1) - 1
    above = [(room,) * n, tuple(room if v in (0, n - 1) else 0 for v in range(n))]
    keys = [pres.ring.key(mon) for mon in above]
    assert pres.reduce_sums([[(key, 1) for key in keys + [keys[0] + keys[1]]]]) == [{}]
    assert len(pres._nf_memo) == 1 and pres._rule_memo == {}
    for mon in [power(0, room + 1), (2 ** width - 1,) * n, power(n - 1, 2 ** width)]:
        with pytest.raises(ExponentOverflow):
            pres.ring.key(mon)
    with pytest.raises(ExponentOverflow):
        pres.ring.monomial(power(0, room)) * pres.ring.var(0)


def test_standard_monomial_count():
    for N in range(1, 7):
        fl = chow_ring(FlagShape([1] * N))
        total = sum(len(fl.standard_monomials(d)) for d in range(fl.dim + 1))
        assert total == math.factorial(N)


def test_graded_ranks_match_poincare():
    # the standard monomials in every degree, for every composition of
    # N <= 7 (standard_monomials raises on a count other than the
    # Poincare coefficient)
    shapes = 0
    for N in range(1, 8):
        for parts in compositions(N):
            shape = FlagShape(parts)
            pres = ChowRingPresentation(shape)
            expected = chow_poincare(shape)
            for d in range(shape.dim + 2):
                mons = pres.standard_monomials(d)
                assert len(mons) == (expected[d] if d < len(expected) else 0)
                assert all(pres.ring.monomial_degree(m) == d for m in mons)
                basis_sum = GradedPolynomial(pres.ring, dict.fromkeys(mons, 1))
                assert pres.normal_form(basis_sum) == basis_sum
            shapes += 1
    assert shapes == 127


def test_standard_monomials_are_the_bounded_monomials_in_descending_order():
    # the exact list: every monomial of degree d with at most s_{i-1}
    # factors from block i, descending, on every composition of N <= 6
    for N in range(1, 7):
        for parts in compositions(N):
            shape = FlagShape(parts)
            pres = ChowRingPresentation(shape)
            for d in range(shape.dim + 2):
                want = sorted(
                    (mon for mon in monomials_of_degree(pres.ring, d)
                     if all(sum(mon[start:stop]) <= start
                            for start, stop in shape.spans)),
                    reverse=True,
                )
                got = [pres.ring.exponents(m) for m in pres.standard_monomials(d)]
                assert got == want, (parts, d)


@pytest.mark.parametrize("parts", [(4, 4, 4), (2, 2, 2, 2, 2), (5, 5, 2), (2, 2, 14)])
def test_standard_basis_size_is_the_multinomial(parts):
    shape = FlagShape(parts)
    pres = ChowRingPresentation(shape)
    total = sum(len(pres.standard_monomials(d)) for d in range(shape.dim + 1))
    assert total == math.factorial(shape.N) // math.prod(map(math.factorial, parts))


def test_standard_monomial_count_mismatch_raises(monkeypatch):
    pres = ChowRingPresentation(FlagShape([2, 2]))
    monkeypatch.setattr(pres, "_poincare", [1, 1, 2, 1, 2])
    with pytest.raises(ArithmeticError):
        pres.standard_monomials(4)


def test_normal_form_matches_the_pullback_oracle():
    # seeded integer polynomials in the generators, on every composition of
    # N <= 6: the native normal form and the polynomial itself have the same
    # Fl(N) normal form after c_j(D_i) -> e_j(block variables)
    rng = random.Random(2302)
    checked = 0
    for N in range(1, 7):
        for parts in compositions(N):
            pres = ChowRingPresentation(FlagShape(parts))
            for _ in range(4):
                d = rng.randint(1, pres.dim + 1)
                mons = monomials_of_degree(pres.ring, d)
                sample = rng.sample(mons, min(4, len(mons)))
                p = pres.ring.from_terms({m: rng.randint(-5, 5) for m in sample})
                nf = pres.normal_form(p)
                for mon in nf.terms:
                    assert pres.standard_index(d)[mon] >= 0
                assert pullback_nf(pres, nf) == pullback_nf(pres, p), (parts, p)
                checked += 1
    assert checked == 4 * 63


def test_full_flag_rules_are_complete_homogeneous_tails():
    # on D = (1^N) the rule for x_k^k is -(h_k(x_k..x_N) - x_k^k); rules
    # are made only for monomials up to the top degree, and stored as
    # key deltas from the leading key, every coefficient odd
    for N in range(2, 8):
        fl = FullFlagRing(N)
        for k in range(1, min(N, fl.dim) + 1):
            key = fl.ring.key([0] * (k - 1) + [k])
            lead = fl.ring.exponents(key)
            h = {
                m: 1
                for m in monomials_of_degree(fl.ring, k)
                if not any(m[: k - 1]) and m != lead
            }
            pairs, odd = fl._rule(key)
            assert {fl.ring.exponents(key + delta): -c for delta, c in pairs} == h
            assert len(pairs) == len(h) and odd == [delta for delta, _ in pairs]


def test_both_jacobi_trudi_forms_give_the_same_relation():
    # every relation _tails builds from the complete classes,
    # lead - sum(tails), is up to the sign of its lead the dual
    # determinant det(sigma_{lam'_a - a + b}) over the inverse Chern
    # series: on every composition of N <= 6, on two shapes with a long
    # last block and on two with a long first block, whose h matrices are
    # banded
    shapes = [parts for N in range(1, 7) for parts in compositions(N)]
    shapes += [(1, 1, 7), (2, 5, 5), (9, 1, 1), (7, 2)]
    relations = 0
    for parts in shapes:
        pres = ChowRingPresentation(FlagShape(parts))
        ring = pres.ring
        for b, (start, stop) in enumerate(pres._spans):
            sigma = inverse_chern_series(pres, b)
            for lam in partitions_in_box(start + 1, stop - start):
                if len(lam) != start + 1 or lam.size > pres.dim:
                    continue
                exps = [0] * ring.nvars
                for p in lam:
                    exps[start + p - 1] += 1
                lead = ring.key(exps)
                terms = {tail: -k for tail, k in pres._tails(lead)}
                rel = GradedPolynomial(ring, {lead: 1, **terms})
                by_sigma = ring.zero() + jacobi_trudi_delta(lam.transpose(), sigma)
                assert by_sigma.terms[lead] in (1, -1)
                assert rel * by_sigma.terms[lead] == by_sigma, (parts, lam)
                relations += 1
    assert relations == 1093


def test_rule_leading_coefficient_must_be_a_unit(monkeypatch):
    pres = ChowRingPresentation(FlagShape([2, 2]))
    doubled = [2 * h for h in pres._complete(1)]
    monkeypatch.setattr(pres, "_complete", lambda b: doubled)
    with pytest.raises(ArithmeticError):
        pres.normal_form(pres.generator(2, 1) ** 3)


# -- pullbacks and the class of a point ----------------------------------


def test_pullback_chern_block_elementaries():
    pres = ChowRingPresentation(FlagShape([2, 1]))
    x1, x2 = chow_ring(FlagShape([1, 1, 1])).ring.gens()[:2]
    assert pullback(pres, pres.generator(1, 1)) == x1 + x2
    assert pullback(pres, pres.generator(1, 2)) == x1 * x2


def test_pullback_chern_full_flag():
    pres = ChowRingPresentation(FlagShape([1, 1, 1]))
    fl = chow_ring(FlagShape([1, 1, 1]))
    for i in range(1, 4):
        assert pullback(pres, pres.generator(i, 1)) == fl.ring.var(i - 1)
    prod = pres.ring.one()
    for i in range(1, 3):
        prod = prod * pres.generator(i, 1)
    assert pullback(pres, prod) == fl.ring.monomial((1, 1))


def test_class_of_point_examples():
    # the oracle's point class in Fl(N), and the native one, which pulls
    # back to it
    sh = FlagShape([1, 1])
    assert class_of_point(sh) == -chow_ring(FlagShape([1, 1])).ring.var(0)
    for n in (1, 2, 3):
        sh = FlagShape([1, 1, n])
        fl = chow_ring(FlagShape([1] * (n + 2)))
        expected = fl.ring.monomial((n + 1, n), -1)
        assert class_of_point(sh) == expected
        pres = ChowRingPresentation(sh)
        assert pullback(pres, pres.point_class()) == expected
    sh = FlagShape([1, 1, 1])
    fl = chow_ring(FlagShape([1, 1, 1]))
    assert fl.normal_form(class_of_point(sh)) == fl.ring.monomial((0, 1, 2))


def test_class_of_point_degree():
    for parts in [(1, 1), (2, 1), (2, 2), (1, 2, 2), (1, 1, 1, 1)]:
        sh = FlagShape(parts)
        for pt in (class_of_point(sh), ChowRingPresentation(sh).point_class()):
            assert pt.is_homogeneous() and pt.degree() == sh.dim


# -- integration ----------------------------------------------------------


def test_integrate_point_is_one():
    # the native point class integrates to 1 on its ring and in the
    # Fl(N) oracle, and normal-forms to +-t, t the top standard monomial
    for N in range(1, 6):
        for parts in compositions(N):
            pres = ChowRingPresentation(FlagShape(parts))
            pt = pres.point_class()
            assert pres.integrate(pt) == 1, parts
            assert integrate_fln(pres.shape, pullback(pres, pt)) == 1, parts
            (t,) = pres.standard_monomials(pres.dim)
            assert set(pres.normal_form(pt).terms) == {t}


def test_integrate_low_degree_is_zero():
    for parts in [(1, 1, 1), (2, 1), (2, 2)]:
        pres = ChowRingPresentation(FlagShape(parts))
        assert pres.integrate(pres.ring.one()) == 0
        assert pres.integrate(pres.generator(2, 1)) == 0
        assert pres.integrate(pres.generator(2, 1) ** (pres.dim - 1)) == 0
        # only the top-degree part counts
        pt = pres.point_class()
        assert pres.integrate(pt + 5 * pres.generator(2, 1) - 3) == 1


def test_integrate_fl3_standard_point():
    fl = chow_ring(FlagShape([1, 1, 1]))
    assert fl.integrate(fl.ring.monomial((0, 1, 2))) == 1
    assert fl.integrate(fl.ring.monomial((2, 1), -1)) == 1
    assert fl.integrate(7 * fl.ring.monomial((1, 1, 1))) == 0


def test_integrate_rejects_non_multiple():
    # in the oracle, x1^2 reduces to x2 x3, which is not in the image of
    # CH^2(Fl(2,1)); natively, a point class that does not normal-form to
    # +-t is refused
    sh = FlagShape([2, 1])
    fl = chow_ring(FlagShape([1, 1, 1]))
    with pytest.raises(ArithmeticError):
        integrate_fln(sh, fl.ring.monomial((2,)))
    pres = ChowRingPresentation(sh)
    doubled = 2 * pres.point_class()
    pres.point_class = lambda: doubled
    with pytest.raises(ArithmeticError):
        pres.integrate(pres.point_class())


def test_integrate_matches_the_oracle_on_complementary_pairs():
    # products of standard monomials of complementary degrees on every
    # composition of N <= 5: the native integral equals the Fl(N) ratio
    pairs = 0
    for N in range(1, 6):
        for parts in compositions(N):
            pres = ChowRingPresentation(FlagShape(parts))
            for d in range(pres.dim + 1):
                for a in pres.standard_monomials(d):
                    for b in pres.standard_monomials(pres.dim - d):
                        p = GradedPolynomial(pres.ring, {a + b: 1})
                        assert pres.integrate(p) == integrate_fln(
                            pres.shape, pullback(pres, p)
                        ), (parts, a, b)
                        pairs += 1
    assert pairs == 4749  # the sum of the squared Poincare coefficients


def test_poincare_duality_pairing_unimodular():
    # complementary-degree pairing on the standard basis has det +-1
    shapes = [(1,) * N for N in range(2, 5)]
    shapes += [(2, 1), (1, 2), (2, 2), (1, 2, 1), (2, 3), (3, 1, 2), (2, 2, 2)]
    for parts in shapes:
        pres = ChowRingPresentation(FlagShape(parts))
        for d in range(pres.dim + 1):
            rows = pres.standard_monomials(d)
            cols = pres.standard_monomials(pres.dim - d)
            assert len(rows) == len(cols)
            mat = [
                [
                    pres.integrate(GradedPolynomial(pres.ring, {a + b: 1}))
                    for b in cols
                ]
                for a in rows
            ]
            diag, _, _ = intlinalg.smith_normal_form(mat)
            assert diag == [1] * len(rows), (parts, d)


# -- ideals and annihilators ----------------------------------------------


def schubert_ideal_rank(N, i):
    fl = chow_ring(FlagShape([1] * N))
    g = fl.x_interval_product(i)
    return sum(len(ideal_lattice(fl, [g], d)) for d in range(fl.dim + 1))


def test_schubert_ideal_rank_formula():
    # the paper: (x_[i]) has rank (N - i)(N - 1)!
    assert schubert_ideal_rank(2, 1) == 1
    assert schubert_ideal_rank(3, 1) == 4
    assert schubert_ideal_rank(3, 2) == 2
    assert schubert_ideal_rank(4, 2) == 12
    for N in range(2, 6):
        for i in range(1, N + 1):
            assert schubert_ideal_rank(N, i) == (N - i) * math.factorial(N - 1)


def test_kernel_image_ranks_sum_to_order():
    # rank ker(.x_[i]) + rank im(.x_[i]) = N!
    for N in (3, 4):
        fl = chow_ring(FlagShape([1] * N))
        for i in range(1, N + 1):
            g = fl.x_interval_product(i)
            im = schubert_ideal_rank(N, i)
            ker = 0
            for d in range(fl.dim + 1):
                mat = fl.multiplication_matrix(g, d)
                ker += len(intlinalg.kernel_basis(mat, len(fl.standard_monomials(d))))
            assert ker + im == math.factorial(N)


def polynomial_multiplication_matrix(pres, g, d):
    """Multiplication by g on degree d through ring products and normal_form."""
    target = d + g.degree()
    cols = [
        standard_coords(pres, pres.normal_form(GradedPolynomial(pres.ring, {mon: 1}) * g),
                        target)
        for mon in pres.standard_monomials(d)
    ]
    return [[col[i] for col in cols] for i in range(pres.rank(target))]


def test_multiplication_matrix_matches_the_polynomial_route():
    # every composition with N <= 5; the multipliers include 0, 1, every
    # generator and a non-normal-form polynomial, and the degrees run
    # past the top so that some targets lie above it
    rng = random.Random(2718)
    for N in range(1, 6):
        for parts in compositions(N):
            pres = ChowRingPresentation(FlagShape(parts))
            gens = [pres.ring.zero(), pres.ring.one()]
            for i, size in enumerate(parts, start=1):
                gens.extend(pres.generator(i, j) for j in range(1, size + 1))
            top = pres.top_chern(len(parts))
            gens.append(rng.randint(1, 3) * top ** 2 - pres.generator(1, 1) ** (2 * parts[-1]))
            for g in gens:
                for d in range(pres.dim + 2):
                    expected = polynomial_multiplication_matrix(pres, g, d)
                    assert pres.multiplication_matrix(g, d) == expected, (parts, g, d)


def test_multiplication_matrix_rejects_foreign_and_inhomogeneous_multipliers():
    pres = ChowRingPresentation(FlagShape([2, 1]))
    other = ChowRingPresentation(FlagShape([1, 2]))
    with pytest.raises(ValueError, match="not in this Chow ring"):
        pres.multiplication_matrix(other.generator(1, 1), 0)
    with pytest.raises(ValueError, match="not homogeneous"):
        pres.multiplication_matrix(pres.ring.one() + pres.generator(1, 1), 0)


def test_multiplication_matrix_and_ideal_lattice_are_fresh_and_left_intact():
    fl = FullFlagRing(4)
    g, a = fl.x_interval_product(1), fl.x_interval_product(2)
    mats = {d: fl.multiplication_matrix(g, d) for d in range(fl.dim + 1)}
    lats = {d: ideal_lattice(fl, [a], d) for d in range(fl.dim + 1)}
    snapshot = [[list(r) for r in m] for m in mats.values()]
    lat_snapshot = [[list(r) for r in m] for m in lats.values()]
    for mat in mats.values():
        intlinalg.smith_normal_form(mat)
    ideal_quotient_degreewise(fl, [a], [g])
    _check_quotient(fl, [a], [g], fl.ring.var(1), "(x_[2] : x_[1]) = (x_2)")
    assert [fl.multiplication_matrix(g, d) for d in mats] == snapshot
    assert [ideal_lattice(fl, [a], d) for d in lats] == lat_snapshot
    # a caller owns what it gets: mutating it does not reach the next call
    for d in mats:
        for rows in (mats[d], lats[d]):
            for row in rows:
                row.append(7)
                row[0] += 1
            rows.append([5])
    assert [fl.multiplication_matrix(g, d) for d in mats] == snapshot
    assert [ideal_lattice(fl, [a], d) for d in lats] == lat_snapshot
    # a polynomial holds a mutable dict of terms, so it is not hashable
    with pytest.raises(TypeError):
        hash(g)


def test_ideal_quotient_by_unit():
    fl = chow_ring(FlagShape([1, 1, 1]))
    a = fl.x_interval_product(2)
    quotient = ideal_quotient_degreewise(fl, [a], [fl.ring.one()])
    for d, rows in quotient.items():
        assert rows == ideal_lattice(fl, [a], d)


def test_ideal_quotient_piqp_example():
    # (x_[2] : x_[1]) = (x_2) in Fl(3)
    fl = chow_ring(FlagShape([1, 1, 1]))
    quotient = ideal_quotient_degreewise(
        fl, [fl.x_interval_product(2)], [fl.x_interval_product(1)]
    )
    x2 = fl.ring.var(1)
    for d, rows in quotient.items():
        assert rows == ideal_lattice(fl, [x2], d)


def test_ideal_quotient_generator_lists():
    # (I : (g, g)) = (I : g); (I : (1, g)) = I, since I lies in (I : g)
    for N in (3, 4):
        fl = chow_ring(FlagShape([1] * N))
        one = fl.ring.one()
        for i in range(2, N + 1):
            a = fl.x_interval_product(i)
            unit = ideal_quotient_degreewise(fl, [a], [one])
            for d, rows in unit.items():
                assert rows == ideal_lattice(fl, [a], d)
            for j in range(1, i):
                g = fl.x_interval_product(j)
                single = ideal_quotient_degreewise(fl, [a], [g])
                assert ideal_quotient_degreewise(fl, [a], [g, g]) == single
                assert ideal_quotient_degreewise(fl, [a], [one, g]) == unit
                assert ideal_quotient_degreewise(fl, [a], [g, one]) == unit
                # g constrains nothing where d + deg g exceeds the top degree
                for d in range(fl.dim - j + 1, fl.dim + 1):
                    n = len(fl.standard_monomials(d))
                    assert single[d] == identity(n)


def test_annihilator_is_complementary_interval():
    # (0 : x_[i]) = (x_{[N]\[i]})
    for N in (3, 4):
        fl = chow_ring(FlagShape([1] * N))
        for i in range(1, N):
            quotient = ideal_quotient_degreewise(
                fl, [fl.ring.zero()], [fl.x_interval_product(i)]
            )
            gen = fl.ring.monomial([0] * i + [1] * (N - i))
            for d, rows in quotient.items():
                assert rows == ideal_lattice(fl, [gen], d)


def test_annihilator_of_each_generator_is_its_kernel():
    # (0 : g) read independently as the kernel of multiplication by g
    for N in range(1, 6):
        for parts in compositions(N):
            pres = ChowRingPresentation(FlagShape(parts))
            for i, size in enumerate(parts, start=1):
                for j in range(1, size + 1):
                    g = pres.generator(i, j)
                    ann = ideal_quotient_degreewise(pres, [], [g])
                    assert sorted(ann) == list(range(pres.dim + 1))
                    for d, rows in ann.items():
                        kern = intlinalg.kernel_basis(
                            pres.multiplication_matrix(g, d), pres.rank(d)
                        )
                        assert rows == intlinalg.hnf(kern), (parts, i, j, d)


def test_quotient_by_the_unit_ideal_on_every_shape():
    # (I : 1) = I for I = (c_top(D_1))
    for N in range(1, 6):
        for parts in compositions(N):
            pres = ChowRingPresentation(FlagShape(parts))
            c = pres.top_chern(1)
            quotient = ideal_quotient_degreewise(pres, [c], [pres.ring.one()])
            for d, rows in quotient.items():
                assert rows == ideal_lattice(pres, [c], d), (parts, d)


def test_wrong_generator_fails_at_the_first_differing_degree():
    # (x_[2] : x_[1]) = (x_2) on Fl(3), not (x_1)
    fl = chow_ring(FlagShape([1, 1, 1]))
    a, g = fl.x_interval_product(2), fl.x_interval_product(1)
    wrong = fl.ring.var(0)
    quotient = ideal_quotient_degreewise(fl, [a], [g])
    first = next(d for d, rows in quotient.items()
                 if rows != ideal_lattice(fl, [wrong], d))
    rep = _check_quotient(fl, [a], [g], wrong, "(x_[2] : x_[1]) = (x_1)")
    assert rep == {
        "shape": "1,1,1",
        "statement": "(x_[2] : x_[1]) = (x_1)",
        "degrees_checked": list(range(first)),
        "status": "fail",
        "failed_degree": first,
    }
    assert first == 1


def test_piqp_full_suite_small():
    for N in (2, 3, 4):
        for i in range(2, N + 1):
            for j in range(1, i):
                assert verify_piqp_fln(N, i, j)["status"] == "pass"


def test_ann_top_chern_examples():
    x, rep = ann_top_chern(FlagShape([1, 1]))
    assert rep["status"] == "pass"
    assert str(x) == "x1"
    x, rep = ann_top_chern(FlagShape([1, 2]))
    assert rep["status"] == "pass"
    assert str(x) == "c1_1"
    x, rep = ann_top_chern(FlagShape([2, 2]))
    assert rep["status"] == "pass"
    assert str(x) == "c1_2"
    # one block: the ring is ZZ in degree 0, c_top(D_1) = 0 and x = 1
    for parts in ([2], [3]):
        x, rep = ann_top_chern(FlagShape(parts))
        assert x == x.ring.one()
        assert rep["status"] == "pass"
        assert rep["degrees_checked"] == [0]


def test_ann_top_chern_sweep_up_to_n5():
    shapes = 0
    for N in range(2, 6):
        for parts in compositions(N, min_parts=2):
            _, rep = ann_top_chern(FlagShape(parts))
            assert rep["status"] == "pass", (parts, rep)
            assert rep["degrees_checked"] == list(range(FlagShape(parts).dim + 1))
            shapes += 1
    assert shapes == 26


def test_report_shape():
    _, rep = ann_top_chern(FlagShape([1, 2]))
    assert set(rep) == {"shape", "statement", "degrees_checked", "status"}
