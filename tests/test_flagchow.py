import math
import random

import pytest
from flag_oracle import (
    block_elementary,
    class_of_point,
    compositions,
    integrate_fln,
    monomials_of_degree,
    pullback,
    pullback_nf,
)

from flagcw import intlinalg
from flagcw.flagchow import (
    ChowRingPresentation,
    FlagShape,
    FullFlagRing,
    _check_quotient,
    ann_top_chern,
    chow_poincare,
    full_flag_ring,
    ideal_lattice,
    ideal_quotient_degreewise,
    verify_piqp_fln,
)
from flagcw.poly import PolyRing
from flagcw.symfunc import jacobi_trudi_delta, partitions_in_box


def relation_ideal_lattice(N, d):
    """Independent oracle: degree-d span of the ideal (e_1, ..., e_N),
    built from raw monomial multiples, no normal form involved."""
    fl = full_flag_ring(N)
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
                vec[index[m2]] = c
            vectors.append(vec)
    return intlinalg.hnf(vectors), monomials


def in_relation_ideal(N, p):
    d = p.degree()
    rows, monomials = relation_ideal_lattice(N, d)
    index = {m: i for i, m in enumerate(monomials)}
    v = [0] * len(monomials)
    for mon, c in p.terms.items():
        v[index[mon]] = c
    pivots = [next(j for j, c in enumerate(r) if c) for r in rows]
    return intlinalg.lattice_coords(rows, pivots, v) is not None


# -- shapes --------------------------------------------------------------


def test_shape_basics():
    sh = FlagShape([2, 2, 14])
    assert sh.N == 18 and sh.m == 3
    assert sh.dim == 2 * 2 + 2 * 14 + 2 * 14
    assert str(sh) == "2,2,14"


def test_shape_drops_zero_parts_with_notice():
    with pytest.warns(UserWarning):
        sh = FlagShape([2, 0, 1])
    assert sh.d == (2, 1)


# -- Poincare polynomials -------------------------------------------------


def test_chow_poincare_examples():
    assert chow_poincare(FlagShape([1, 1, 1])) == [1, 2, 2, 1]
    assert chow_poincare(FlagShape([1, 1, 1, 1])) == [1, 3, 5, 6, 5, 3, 1]
    for n in range(2, 7):
        assert chow_poincare(FlagShape([1, n - 1])) == [1] * n


# -- normal form ----------------------------------------------------------


def test_normal_form_small_examples():
    fl2 = full_flag_ring(2)
    assert fl2.normal_form(fl2.ring.var(0)) == -fl2.ring.var(1)
    fl3 = full_flag_ring(3)
    assert fl3.normal_form(fl3.ring.monomial((1, 1, 1))).is_zero()


def test_normal_form_point_class_fl3_with_ideal_oracle():
    # -x1^2 x2 reduces to x2 x3^2; the difference must lie in the raw
    # relation ideal (independent lattice membership, no Groebner data)
    fl3 = full_flag_ring(3)
    p = fl3.ring.monomial((2, 1), -1)
    nf = fl3.normal_form(p)
    expected = fl3.ring.monomial((0, 1, 2))
    assert nf == expected
    assert in_relation_ideal(3, p - expected)
    # and the result is standard: exponents a_k <= k-1
    for mon in nf.terms:
        assert all(e <= i for i, e in enumerate(mon))


def test_normal_form_kills_relations():
    for N in range(2, 6):
        fl = full_flag_ring(N)
        for j in range(1, N + 1):
            assert fl.normal_form(block_elementary(fl, range(N), j)).is_zero()


def test_normal_form_idempotent_linear_ring_map():
    rng = random.Random(42)
    fl = full_flag_ring(4)
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
        warm = full_flag_ring(N)
        fresh = FullFlagRing(N)
        for _ in range(8):
            d = rng.randint(1, N + 1)
            mons = monomials_of_degree(warm.ring, d)
            sample = rng.sample(mons, min(4, len(mons)))
            p = warm.ring.from_terms({m: rng.randint(-5, 5) for m in sample})
            nf = warm.normal_form(p)
            assert all(e <= i for mon in nf.terms for i, e in enumerate(mon))
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


def test_standard_monomial_count():
    for N in range(1, 7):
        fl = full_flag_ring(N)
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
                assert pres.normal_form(pres.ring.from_terms(dict.fromkeys(mons, 1))) \
                    == pres.ring.from_terms(dict.fromkeys(mons, 1))
            shapes += 1
    assert shapes == 127


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
    # are made only for monomials up to the top degree
    for N in range(2, 8):
        fl = FullFlagRing(N)
        for k in range(1, min(N, fl.dim) + 1):
            lead = fl.ring.key([0] * (k - 1) + [k])
            h = {
                m: 1
                for m in monomials_of_degree(fl.ring, k)
                if not any(m[: k - 1]) and m != lead
            }
            assert {m: -c for m, c in fl._rule(lead)} == h


def test_both_jacobi_trudi_forms_give_the_same_relation():
    # det(h_{lam_a - a + b}), which _rule takes when lam has fewer parts
    # than columns, is the polynomial det(sigma_{lam'_a - a + b}) for each
    # such relation up to the top degree: on every composition of N <= 6
    # and on two shapes with a long last block
    shapes = [parts for N in range(1, 7) for parts in compositions(N)]
    shapes += [(1, 1, 7), (2, 5, 5)]
    relations = 0
    for parts in shapes:
        pres = ChowRingPresentation(FlagShape(parts))
        for b, (start, stop) in enumerate(pres._spans):
            for lam in partitions_in_box(start + 1, stop - start):
                if len(lam) != start + 1 or len(lam) >= lam[0]:
                    continue
                if lam.size > pres.dim:
                    continue
                by_h = jacobi_trudi_delta(lam, pres._complete(b))
                by_sigma = jacobi_trudi_delta(lam.transpose(), pres._sigma(b))
                assert pres.ring.zero() + by_h == pres.ring.zero() + by_sigma
                relations += 1
    assert relations == 156


def test_rule_leading_coefficient_must_be_a_unit(monkeypatch):
    pres = ChowRingPresentation(FlagShape([2, 2]))
    doubled = [2 * s for s in pres._sigma(1)]
    monkeypatch.setattr(pres, "_sigma", lambda b: doubled)
    with pytest.raises(ArithmeticError):
        pres.normal_form(pres.generator(2, 1) ** 3)


# -- pullbacks and the class of a point ----------------------------------


def test_pullback_chern_block_elementaries():
    pres = ChowRingPresentation(FlagShape([2, 1]))
    x1, x2 = full_flag_ring(3).ring.gens()[:2]
    assert pullback(pres, pres.generator(1, 1)) == x1 + x2
    assert pullback(pres, pres.generator(1, 2)) == x1 * x2


def test_pullback_chern_full_flag():
    pres = ChowRingPresentation(FlagShape([1, 1, 1]))
    fl = full_flag_ring(3)
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
    assert class_of_point(sh) == -full_flag_ring(2).ring.var(0)
    for n in (1, 2, 3):
        sh = FlagShape([1, 1, n])
        fl = full_flag_ring(n + 2)
        expected = fl.ring.monomial((n + 1, n), -1)
        assert class_of_point(sh) == expected
        pres = ChowRingPresentation(sh)
        assert pullback(pres, pres.point_class()) == expected
    sh = FlagShape([1, 1, 1])
    fl = full_flag_ring(3)
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
    fl = full_flag_ring(3)
    assert fl.integrate(fl.ring.monomial((0, 1, 2))) == 1
    assert fl.integrate(fl.ring.monomial((2, 1), -1)) == 1
    assert fl.integrate(7 * fl.ring.monomial((1, 1, 1))) == 0


def test_integrate_rejects_non_multiple():
    # in the oracle, x1^2 reduces to x2 x3, which is not in the image of
    # CH^2(Fl(2,1)); natively, a point class that does not normal-form to
    # +-t is refused
    sh = FlagShape([2, 1])
    fl = full_flag_ring(3)
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
                        p = pres.ring.monomial(a) * pres.ring.monomial(b)
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
                    pres.integrate(pres.ring.monomial(a) * pres.ring.monomial(b))
                    for b in cols
                ]
                for a in rows
            ]
            diag, _, _ = intlinalg.smith_normal_form(mat)
            assert diag == [1] * len(rows), (parts, d)


# -- ideals and annihilators ----------------------------------------------


def schubert_ideal_rank(N, i):
    fl = full_flag_ring(N)
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
        fl = full_flag_ring(N)
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
        pres.coords(pres.normal_form(pres.ring.monomial(mon) * g), target)
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


def test_multiplication_matrix_and_ideal_lattice_are_shared_and_left_intact():
    fl = FullFlagRing(4)
    g, a = fl.x_interval_product(1), fl.x_interval_product(2)
    mats = {d: fl.multiplication_matrix(g, d) for d in range(fl.dim + 1)}
    lats = {d: ideal_lattice(fl, [a], d) for d in range(fl.dim + 1)}
    snapshot = [[list(r) for r in m] for m in mats.values()]
    lat_snapshot = [[list(r) for r in m] for m in lats.values()]
    for d, mat in mats.items():
        assert fl.multiplication_matrix(g, d) is mat
        assert ideal_lattice(fl, [a], d) is lats[d]
        intlinalg.smith_normal_form(mat)
    ideal_quotient_degreewise(fl, [a], [g])
    _check_quotient(fl, [a], [g], fl.ring.var(1), "(x_[2] : x_[1]) = (x_2)")
    assert [fl.multiplication_matrix(g, d) for d in mats] == snapshot
    assert [ideal_lattice(fl, [a], d) for d in lats] == lat_snapshot


def test_ideal_quotient_by_unit():
    fl = full_flag_ring(3)
    a = fl.x_interval_product(2)
    quotient = ideal_quotient_degreewise(fl, [a], [fl.ring.one()])
    for d, rows in quotient.items():
        assert rows == ideal_lattice(fl, [a], d)


def test_ideal_quotient_piqp_example():
    # (x_[2] : x_[1]) = (x_2) in Fl(3)
    fl = full_flag_ring(3)
    quotient = ideal_quotient_degreewise(
        fl, [fl.x_interval_product(2)], [fl.x_interval_product(1)]
    )
    x2 = fl.ring.var(1)
    for d, rows in quotient.items():
        assert rows == ideal_lattice(fl, [x2], d)


def test_ideal_quotient_generator_lists():
    # (I : (g, g)) = (I : g); (I : (1, g)) = I, since I lies in (I : g)
    for N in (3, 4):
        fl = full_flag_ring(N)
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
                    assert single[d] == intlinalg.identity(n)


def test_annihilator_is_complementary_interval():
    # (0 : x_[i]) = (x_{[N]\[i]})
    for N in (3, 4):
        fl = full_flag_ring(N)
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
    fl = full_flag_ring(3)
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
