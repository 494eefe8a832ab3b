import itertools
import random

import pytest
from flag_oracle import compositions, reference_smith_normal_form, standard_coords

from flagcw import intlinalg, series
from flagcw.flagchow import FlagShape, all_twist_classes, chow_poincare
from flagcw.poly import GradedPolynomial
from flagcw.wdring import (
    TwistClass,
    WDElement,
    WDPresentation,
    ann_euler,
    annihilator_generator,
    build_sigma,
    wd_basis,
    wd_poincare,
)


# -- twists ----------------------------------------------------------------


def test_twist_canonical_representative():
    t = TwistClass((1, 1, 0))
    assert t.bits == (0, 0, 1)  # lexicographically smaller coset member
    assert TwistClass((0, 0, 1)) == t


def test_twist_addition_and_relation():
    m = 3
    t1 = TwistClass.from_blocks(m, [1])
    t2 = TwistClass.from_blocks(m, [2])
    t3 = TwistClass.from_blocks(m, [3])
    assert (t1 + t2 + t3).is_trivial()  # sum of all l_i is the relation
    assert t1 + t1 == TwistClass.trivial(m)


def test_twist_class_count():
    for m in range(1, 5):
        assert len(all_twist_classes(m)) == 2 ** (m - 1)


# -- presentations ----------------------------------------------------------


def test_sigma_single_even_block_is_coefficients():
    pres = build_sigma(FlagShape([2]))
    triv = TwistClass.trivial(1)
    assert pres.poincare(triv) == [1]
    assert (pres.euler(1) * pres.euler(1)).is_zero()  # p_2 = 0 forces e^2 = 0
    assert pres.euler(1).is_zero()  # all-even relation kills e_1 itself


def test_sigma_12_is_dual_numbers():
    pres = build_sigma(FlagShape([1, 2]))
    e2 = pres.euler(2)
    assert not e2.is_zero()
    assert (e2 * e2).is_zero()  # e_2^2 = p_2(D_2) = 0
    assert pres.parity == "mixed"
    tw = TwistClass.from_blocks(2, [2])
    assert pres.poincare(tw) == [0, 0, 1]
    assert pres.poincare(TwistClass.trivial(2)) == [1]


def pontryagin(pres, i, j):
    """p_{2j}(D_i) = c_j of the half block, as an element of W_D; on the
    shapes below every block is even, so half block i is block i."""
    return WDElement(pres, {(frozenset(), frozenset()): pres.A.generator(i, j)})


def test_sigma_22_relations():
    pres = build_sigma(FlagShape([2, 2]))
    e1, e2 = pres.euler(1), pres.euler(2)
    p1 = pontryagin(pres, 1, 1)
    p2 = pontryagin(pres, 2, 1)
    assert (e1 * e2).is_zero()  # all-even product relation
    assert e1 * e1 == p1  # e_i^2 = p_top(D_i)
    assert e2 * e2 == p2
    zero = p1 + p2  # prod p(D_i) = 1 forces p_2(D_2) = -p_2(D_1)
    assert zero.is_zero()


def test_wd_basis_examples():
    sh = FlagShape([2, 2])
    triv = TwistClass.trivial(2)
    assert wd_poincare(sh, triv) == [1, 0, 0, 0, 1]
    tw = TwistClass.from_blocks(2, [1])
    assert wd_poincare(sh, tw) == [0, 0, 2]
    total = sum(wd_poincare(sh, t) and sum(wd_poincare(sh, t)) for t in all_twist_classes(2))
    assert total == 4  # even-cell count of Gr(2,4)

    sh = FlagShape([1, 1, 1])
    assert wd_poincare(sh, TwistClass.trivial(3)) == [1, 0, 0, 1]
    for parts in [(2, 2), (1, 2), (1, 1, 1), (3, 2)]:
        sh = FlagShape(parts)
        assert len(wd_basis(sh, 0, TwistClass.trivial(sh.m))) == 1


def test_wd_poincare_full_flags():
    assert wd_poincare(FlagShape([1, 1, 1]), TwistClass.trivial(3)) == [1, 0, 0, 1]
    p4 = wd_poincare(FlagShape([1] * 4), TwistClass.trivial(4))
    assert p4 == [1, 0, 0, 2, 0, 0, 1]  # (1+t^3)^2
    for N in (3, 4, 5):
        for tw in all_twist_classes(N):
            if not tw.is_trivial():
                assert wd_poincare(FlagShape([1] * N), tw) == []


def test_wd_normal_form_relations():
    pres = build_sigma(FlagShape([2, 2]))
    assert (pres.euler(1) * pres.euler(2)).is_zero()
    assert pres.euler(1) * pres.euler(1) == pontryagin(pres, 1, 1)
    pres3 = build_sigma(FlagShape([1, 1, 1]))
    r = pres3.exterior(1)
    assert (r * r).is_zero()
    # idempotence of the normal form
    x = pres.euler(1) + pontryagin(pres, 1, 1)
    assert WDElement(x.pres, dict(x.components)) == x


def test_products_add_twists():
    pres = build_sigma(FlagShape([2, 2, 2]))
    e1, e2 = pres.euler(1), pres.euler(2)
    prod = e1 * e2
    twists = {pres.slot(I, S, 0)[1] for (I, S) in prod.components}
    assert twists == {TwistClass.from_blocks(3, [1]) + TwistClass.from_blocks(3, [2])}


def test_elements_of_another_shape_are_refused():
    # (2,2) and (2,3) share the A-ring of (1,1), and (2,4) has an e_2
    a, b = build_sigma(FlagShape([2, 2])), build_sigma(FlagShape([2, 3]))
    with pytest.raises(ValueError, match="shape 2,3, not 2,2"):
        a.euler(1) * b.euler(1)
    with pytest.raises(ValueError, match="shape 2,3, not 2,2"):
        a.integrate(b.euler(1) * b.euler(1))
    with pytest.raises(ValueError, match="shape 2,4, not 2,2"):
        a.euler(1) + build_sigma(FlagShape([2, 4])).euler(2)
    slot = (0, TwistClass.trivial(2))
    with pytest.raises(ValueError, match="shape 2,3, not 2,2"):
        a.coords(b.one(), *slot)
    with pytest.raises(ValueError, match="shape 2,3, not 2,2"):
        a.product_columns(slot, b.one(), slot)


def test_elements_compare_by_shape():
    # (2,2) and (2,3) share the A-ring of (1,1), so only the shape tells
    # their units apart; a fresh presentation of (2,2) has the same ones
    fresh, cached = WDPresentation(FlagShape([2, 2])), build_sigma(FlagShape([2, 2]))
    assert fresh.one() == cached.one()
    assert fresh.euler(2) == cached.euler(2)
    assert fresh.one() != cached.euler(2)
    assert build_sigma(FlagShape([2, 3])).one() != cached.one()


def test_maximal_rank_matches_half_chow():
    # untwisted rank in degree 4k of Fl(2D') equals rank CH^k(Fl(D'))
    for half in [(1, 1), (1, 2), (1, 1, 1)]:
        doubled = FlagShape([2 * d for d in half])
        pres = build_sigma(doubled)
        expected = chow_poincare(FlagShape(half))
        got = pres.poincare(TwistClass.trivial(doubled.m))
        for k, c in enumerate(expected):
            assert (got[4 * k] if 4 * k < len(got) else 0) == c
        for d, c in enumerate(got):
            if d % 4:
                assert c == 0


def test_exterior_generator_degrees():
    # degree of R_l is 4l-1 except N even makes the last one N-1
    pres = build_sigma(FlagShape([1] * 5))
    assert [pres.r_degree(l) for l in pres.r_labels] == [3, 7]
    pres = build_sigma(FlagShape([1] * 4))
    assert [pres.r_degree(l) for l in pres.r_labels] == [3, 3]
    pres = build_sigma(FlagShape([1, 2, 1]))  # q = 1, n = 2, N = 4 even
    assert [pres.r_degree(l) for l in pres.r_labels] == [3]


def test_exterior_anticommute():
    pres = build_sigma(FlagShape([1] * 5))
    r1, r2 = pres.exterior(1), pres.exterior(2)
    assert r1 * r2 == -(r2 * r1)
    assert (r1 * r1).is_zero()


# -- annihilators -----------------------------------------------------------


def test_ann_euler_22():
    x, rep = ann_euler(FlagShape([2, 2]), 2)
    assert rep["status"] == "pass"
    assert set(x.components) == {(frozenset([1]), frozenset())}


def test_ann_euler_12():
    x, rep = ann_euler(FlagShape([1, 2]), 2)
    assert rep["status"] == "pass"
    # odd case with empty p-product: generator is e_2 itself
    assert set(x.components) == {(frozenset([2]), frozenset())}


def test_ann_euler_14():
    x, rep = ann_euler(FlagShape([1, 4]), 2)
    assert rep["status"] == "pass"
    # p_top of the rank-1 block is 1, so x = e_2
    assert set(x.components) == {(frozenset([2]), frozenset())}
    comp = x.components[(frozenset([2]), frozenset())]
    assert comp == comp.ring.one()


def test_ann_euler_rejects_odd_block():
    with pytest.raises(ValueError):
        ann_euler(FlagShape([1, 2]), 1)
    with pytest.raises(ValueError):
        annihilator_generator(FlagShape([1, 2]), 1)


def test_ann_generator_even_case_degree():
    sh = FlagShape([2, 2, 2])
    x = annihilator_generator(sh, 3)
    assert x.homogeneous_degrees() == [sh.N - sh.d[2]]


def test_freeness_quotients_are_unimodular():
    # the SNF assertion inside the quotient machinery raises on any
    # nontrivial invariant factor; touch every component and degree
    for parts in [(2, 2), (2, 4), (2, 2, 2)]:
        pres = build_sigma(FlagShape(parts))
        assert pres.parity == "all-even"
        for I in pres._euler_subsets():
            for dchow in range(pres.half_shape.dim + 1):
                pres._quotient_data(I, dchow)


# -- cached presentation data ------------------------------------------------

CACHE_SHAPES = [(2, 2), (2, 4), (2, 2, 2), (2, 2, 2, 2), (1, 2, 2), (1, 4), (1, 2, 3)]


def reference_basis(pres, degree, twist):
    """basis() enumerated straight from the subsets, with no grouping."""
    out = []
    for I in pres._euler_subsets():
        if TwistClass.from_blocks(pres.shape.m, I) != twist:
            continue
        for S in pres._exterior_subsets():
            rem = degree - sum(pres.shape.size(i) for i in I)
            rem -= sum(pres.r_degree(l) for l in S)
            if rem < 0 or rem % 4:
                continue
            for idx in range(pres.component_rank(I, rem // 4)):
                out.append((I, S, rem // 4, idx))
    return out


@pytest.mark.parametrize("parts", CACHE_SHAPES)
def test_component_basis_polys_are_reduced(parts):
    # basis_element skips the reduction on the strength of this identity
    pres = build_sigma(FlagShape(parts))
    for I in pres._euler_subsets():
        for k in range(pres.half_shape.dim + 1):
            polys = pres.component_basis_polys(I, k)
            assert len(polys) == pres.component_rank(I, k)
            for p in polys:
                assert pres.reduce_component(I, p) == p


def basis_element(pres, key):
    """The element of a basis key: its component basis polynomial on e_I
    R_S, which is its own quotient normal form."""
    I, S, chow_deg, idx = key
    poly = pres.component_basis_polys(I, chow_deg)[idx]
    return WDElement(pres, {(I, S): poly}, reduce=False)


@pytest.mark.parametrize("parts", CACHE_SHAPES)
def test_basis_elements_have_unit_coords(parts):
    pres = build_sigma(FlagShape(parts))
    for twist in all_twist_classes(pres.shape.m):
        for deg in range(pres.max_degree() + 1):
            keys = pres.basis(deg, twist)
            assert keys == reference_basis(pres, deg, twist)
            for pos, key in enumerate(keys):
                unit = [0] * len(keys)
                unit[pos] = 1
                assert pres.coords(basis_element(pres, key), deg, twist) == unit


@pytest.mark.parametrize("parts", CACHE_SHAPES)
def test_p_top_image_matches_fresh_pullback(parts):
    pres = build_sigma(FlagShape(parts))
    A = pres.A
    for i, d in enumerate(pres.shape.d, start=1):
        if d // 2 == 0:
            expected = A.ring.one()
        else:
            expected = A.normal_form(A.top_chern(pres._half_block[i]))
        assert pres.p_top_product(frozenset([i])) == expected
        # the second call reads the cache
        assert pres.p_top_product(frozenset([i])) == expected


@pytest.mark.parametrize("parts", CACHE_SHAPES)
def test_slot_table_matches_the_full_degree_twist_sweep(parts):
    # the routes before the slot table: every degree up to max_degree()
    # times every twist class, bases enumerated straight from the subsets
    shape = FlagShape(parts)
    pres = build_sigma(shape)
    for key, components in pres.slot_table.items():
        for I, S, k in components:
            assert pres.slot(I, S, k) == key
    nonempty = 0
    for twist in all_twist_classes(shape.m):
        ranks = [
            len(reference_basis(pres, d, twist)) for d in range(pres.max_degree() + 1)
        ]
        assert pres.poincare(twist) == series.normalize(ranks), twist
        nonempty += sum(1 for r in ranks if r)
    for i, d in enumerate(parts, start=1):
        if d % 2 == 0:
            _, rep = ann_euler(shape, i)
            assert rep["status"] == "pass"
            assert rep["slots_checked"] == nonempty, i


# -- quotient coordinates ------------------------------------------------------

QUOTIENT_SHAPES = CACHE_SHAPES + [(2, 4, 4)]


def random_a_part(pres, k, rng):
    """A seeded random normal-form element of A in Chow degree k."""
    out = pres.A.ring.zero()
    for mon in pres.A.standard_monomials(k):
        out = out + rng.randint(-3, 3) * GradedPolynomial(pres.A.ring, {mon: 1})
    return out


def random_element(pres, rng):
    comps = {}
    for I in pres._euler_subsets():
        for S in pres._exterior_subsets():
            a = pres.A.ring.zero()
            for k in range(pres.half_shape.dim + 1):
                a = a + random_a_part(pres, k, rng)
            comps[(I, S)] = a
    return WDElement(pres, comps)


def ideal_generator(pres, I):
    """p_{I^c}, not normal-formed, and its Chow degree."""
    comp = [i for i in range(1, pres.shape.m + 1) if i not in I]
    gen = pres.A.ring.one()
    for i in comp:
        gen = gen * pres.p_top_product(frozenset([i]))
    return gen, sum(pres.shape.size(i) // 2 for i in comp)


def project_one(pres, I, k, a):
    """Component coordinates of the one A-part a."""
    (coords,) = pres.project(I, k, [a.terms.items()])
    return coords


@pytest.mark.parametrize("parts", QUOTIENT_SHAPES)
def test_component_coords_do_not_depend_on_the_representative(parts):
    pres = build_sigma(FlagShape(parts))
    rng = random.Random(str(parts))
    for I in pres._euler_subsets():
        gen, gen_deg = ideal_generator(pres, I)
        for k in range(pres.half_shape.dim + 1):
            for _ in range(3):
                a = random_a_part(pres, k, rng)
                red = pres.reduce_component(I, a)
                coords = project_one(pres, I, k, a)
                assert len(coords) == pres.component_rank(I, k)
                assert project_one(pres, I, k, red) == coords
                assert project_one(pres, I, k, pres.A.normal_form(a)) == coords
                if pres.parity == "all-even" and k >= gen_deg:
                    b = random_a_part(pres, k - gen_deg, rng)
                    other = a + gen * b  # not normal-formed
                    assert project_one(pres, I, k, other) == coords
                    assert pres.reduce_component(I, other) == red


def test_project_refuses_a_part_of_another_degree():
    # on (2,4), A is CH(Fl(1,2)), and c = c_1(D_1) = -c_1(D_2) has Chow degree 1
    pres = build_sigma(FlagShape([2, 4]))
    c = pres.A.generator(1, 1)
    assert project_one(pres, frozenset([1]), 1, c) == [-1]
    message = r"I=\[1\] is not homogeneous of Chow degree 2"
    with pytest.raises(ValueError, match=message):
        pres.project(frozenset([1]), 2, [c.terms.items()])


@pytest.mark.parametrize("parts", QUOTIENT_SHAPES)
def test_reduced_components_lie_in_the_last_columns_of_u_inverse(parts):
    # a reduced part v is sum_j c_j * B_j over the last columns B_j of
    # U^-1, where c = P . v, P = U[rank:], are its component coordinates;
    # as U is invertible, this says U . v = (0, c); P and B are sparse rows
    pres = build_sigma(FlagShape(parts))
    rng = random.Random(str(parts))
    for I in pres._euler_subsets():
        gen, gen_deg = ideal_generator(pres, I)
        for k in range(gen_deg, pres.half_shape.dim + 1):
            if pres.parity != "all-even" or not pres.A.rank(k):
                continue
            mat = pres.A.multiplication_matrix(gen, k - gen_deg)
            diag, P, B = intlinalg.smith_normal_form(mat)
            for _ in range(3):
                red = pres.reduce_component(I, random_a_part(pres, k, rng))
                v = standard_coords(pres.A, red, k)
                coords = project_one(pres, I, k, red)
                assert [sum(u * v[j] for j, u in r.items()) for r in P] == coords
                assert v == [sum(c * b.get(r, 0) for c, b in zip(coords, B))
                             for r in range(len(v))]


def check_record_against_reference(pres, I, k, pivots=None):
    """The quotient record of (I, k) against the reference Smith form of
    multiplication by p_{I^c}: P = U[rank:] and the basis = the last
    columns of U^-1, entry for entry."""
    gen, gen_deg = ideal_generator(pres, I)
    mat = pres.A.multiplication_matrix(gen, k - gen_deg)
    diag, U, Uinv = reference_smith_normal_form(mat, pivots)
    rank = len(diag)
    assert diag == [1] * rank
    proj, basis = pres._quotient_data(I, k)
    mons = pres.A.standard_monomials(k)
    assert proj == {
        mon: [(r, row[j]) for r, row in enumerate(U[rank:]) if row[j]]
        for j, mon in enumerate(mons)
    }
    assert [standard_coords(pres.A, b, k) for b in basis] == [
        list(col) for col in zip(*Uinv)
    ][rank:]


def test_every_quotient_record_up_to_n10_matches_the_reference_smith_form():
    records = 0
    for N in range(2, 11, 2):
        for half in compositions(N // 2):
            pres = WDPresentation(FlagShape([2 * h for h in half]))
            for I in pres._euler_subsets():
                gen_deg = ideal_generator(pres, I)[1]
                for k in range(gen_deg, pres.half_shape.dim + 1):
                    if I and pres.A.rank(k):
                        check_record_against_reference(pres, I, k)
                        records += 1
    assert records == 1279


@pytest.mark.parametrize(
    "parts, I, k", [((4, 2, 2, 4), {1, 4}, 9), ((2, 2, 2, 2, 4), {1, 2, 5}, 10)]
)
def test_quotient_records_that_need_a_non_unit_pivot(parts, I, k):
    # in one round no entry of the remaining block is +-1, yet the
    # quotient is free: the record still matches the reference
    pres = WDPresentation(FlagShape(parts))
    pivots = []
    check_record_against_reference(pres, frozenset(I), k, pivots)
    assert max(pivots) == 2


def test_a_quotient_that_is_not_free_is_refused(monkeypatch):
    pres = WDPresentation(FlagShape([2, 2, 2]))
    monkeypatch.setattr(intlinalg, "smith_normal_form", lambda mat: ([2], [], []))
    with pytest.raises(ArithmeticError) as err:
        pres._quotient_data(frozenset([1]), 2)
    message = str(err.value)
    assert "not free" in message
    assert f"shape {pres.shape}," in message
    assert "I=[1]," in message and "degree 2:" in message


@pytest.mark.parametrize("parts", QUOTIENT_SHAPES)
def test_linear_operations_stay_reduced(parts):
    pres = build_sigma(FlagShape(parts))
    rng = random.Random(str(parts))
    for _ in range(3):
        x, y = random_element(pres, rng), random_element(pres, rng)
        for z in (x + y, 3 * x, x * 3, x - x, -x, 0 * x):
            assert z == WDElement(pres, dict(z.components))
        assert (x - x).is_zero() and (0 * x).is_zero()
        assert x + y == WDElement(
            pres,
            {key: x.components.get(key, 0) + y.components.get(key, 0)
             for key in set(x.components) | set(y.components)},
        )


@pytest.mark.parametrize("parts", QUOTIENT_SHAPES)
def test_coords_read_unreduced_products(parts):
    pres = build_sigma(FlagShape(parts))
    rng = random.Random(str(parts))
    x, y = random_element(pres, rng), random_element(pres, rng)
    unreduced = WDElement(pres, x._unreduced_product(y), reduce=False)
    product = x * y
    assert not product.is_zero()
    for twist in all_twist_classes(pres.shape.m):
        for deg in range(pres.max_degree() + 1):
            assert pres.coords(unreduced, deg, twist) == pres.coords(
                product, deg, twist
            )


def test_basis_key_order_within_a_twist():
    # e_1 e_2 and e_3 e_4 share a twist; labels keep the subset order
    tw = TwistClass.from_blocks(4, [1, 2])
    assert wd_basis(FlagShape([2, 2, 2, 2]), 4, tw) == ["e1*e2", "e3*e4"]


# -- annihilator sweeps -------------------------------------------------------


def element_route_columns(pres, keys, y, degree, twist):
    """Each column as the old route built it: the product as an unreduced
    element, read through coords."""
    return [
        pres.coords(
            WDElement(pres, basis_element(pres, key)._unreduced_product(y), reduce=False),
            degree,
            twist,
        )
        for key in keys
    ]


def test_product_columns_match_the_element_route():
    # every composition with N <= 6, by e_i and x for every even block i,
    # and by every exterior generator R_l: all-even, mixed and all-odd
    # shapes, with the exterior sign exercised
    for N in range(2, 7):
        for parts in compositions(N, min_parts=2):
            shape = FlagShape(parts)
            pres = build_sigma(shape)
            ys = [pres.exterior(l) for l in pres.r_labels]
            for i, d in enumerate(parts, start=1):
                if d % 2 == 0:
                    ys += [pres.euler(i), annihilator_generator(shape, i)]
            for y in ys:
                ((J, _),) = y.components
                (deg_y,) = y.homogeneous_degrees()
                twist_y = pres.slot(J, (), 0)[1]
                for deg in range(pres.max_degree() + 1):
                    for twist in all_twist_classes(shape.m):
                        keys = pres.basis(deg, twist)
                        target = (deg + deg_y, twist + twist_y)
                        assert pres.product_columns((deg, twist), y, target) == (
                            element_route_columns(pres, keys, y, *target)
                        ), (parts, y, deg, twist)


def test_ann_euler_sweep_up_to_n8():
    # every composition, single blocks included: there e_i = 0 and
    # Ann(0) = (1) = (x)
    cases = 0
    for N in range(2, 9):
        for parts in compositions(N, min_parts=1):
            shape = FlagShape(parts)
            for i, d in enumerate(parts, start=1):
                if d % 2 == 0:
                    _, rep = ann_euler(shape, i)
                    assert rep["status"] == "pass", (parts, i, rep)
                    cases += 1
    assert cases == 313


def product_route_generator(shape, i):
    """The annihilator generator built as a chain of W_D products."""
    pres = build_sigma(shape)
    others = [j for j in range(1, shape.m + 1) if j != i]
    if pres.parity == "all-even":
        x, factors = pres.one(), [pres.euler(j) for j in others]
    else:
        x = pres.euler(i)
        unit = (frozenset(), frozenset())
        factors = [
            WDElement(pres, {unit: pres.p_top_product(frozenset([j]))}) for j in others
        ]
    for y in factors:
        x = x * y
    return x


def test_annihilator_generator_matches_the_product_route():
    cases = 0
    for N in range(2, 9):
        for parts in compositions(N, min_parts=1):
            shape = FlagShape(parts)
            for i, d in enumerate(parts, start=1):
                if d % 2 == 0:
                    x = annihilator_generator(shape, i)
                    assert x == product_route_generator(shape, i), (parts, i)
                    cases += 1
    assert cases == 313


@pytest.mark.parametrize(
    "parts, i", [((2, 2, 2, 2, 2), 1), ((2, 6, 4), 2), ((1, 4, 2), 3)]
)
def test_ann_euler_builds_no_product_element(monkeypatch, parts, i):
    def refuse(self, other):
        raise AssertionError("a W_D product was built")

    monkeypatch.setattr(WDElement, "__mul__", refuse)
    _, rep = ann_euler(FlagShape(parts), i)
    assert rep["status"] == "pass"


# -- the integral over the real flag variety ---------------------------------


def w_point_class(pres):
    """prod_{i<m} e_i^(N - s_i) = prod_{i<m} p_top(D_i)^((N - s_i)/2)."""
    x, s = pres.one(), 0
    for i, d in enumerate(pres.shape.d[:-1], start=1):
        s += d
        x = x * pres.euler(i) ** (pres.shape.N - s)
    return x


def test_w_integral_of_the_point_class_is_one():
    for parts in [(2, 2), (2, 4), (2, 2, 2), (4, 2), (2,)]:
        pres = build_sigma(FlagShape(parts))
        assert pres.integrate(w_point_class(pres)) == 1, parts
        assert pres.integrate(-3 * w_point_class(pres)) == -3, parts


def test_w_integral_sign_is_the_flip_formula():
    # eps = (-1)^{sum_{i<m} h_i (n - t_i)}, t_i = h_1 + ... + h_i, read
    # here as int_W of the half shape's point class, which A integrates to 1
    shapes = 0
    for n in range(1, 7):
        for half in compositions(n, min_parts=1):
            pres = WDPresentation(FlagShape([2 * h for h in half]))
            t = itertools.accumulate(half)
            flips = sum(h * (n - ti) for h, ti in zip(half[:-1], t))
            pt = WDElement(pres, {(frozenset(), frozenset()): pres.A.point_class()})
            assert pres.integrate(pt) == (-1) ** flips, half
            shapes += 1
    assert shapes == 63


def test_trivial_component_of_an_all_even_shape_is_all_of_a():
    # prod_i p_top(D_i) = 0 in A, so the component e_{} takes no quotient
    for parts in [(2, 2), (2, 4), (2, 2, 2), (4, 2), (2, 2, 14)]:
        pres = build_sigma(FlagShape(parts))
        A = pres.A
        top = A.ring.one()
        for i in range(1, len(parts) + 1):
            top = top * pres.p_top_product(frozenset([i]))
        assert A.normal_form(top).is_zero()
        for d in range(A.dim + 1):
            mons = A.standard_monomials(d)
            basis = pres.component_basis_polys(frozenset(), d)
            assert basis == [GradedPolynomial(A.ring, {m: 1}) for m in mons]


def test_w_integral_refuses_other_parities():
    for parts in [(1, 2), (1, 1), (3, 2, 2)]:
        pres = build_sigma(FlagShape(parts))
        with pytest.raises(ValueError, match="all-even"):
            pres.integrate(pres.one())


def test_real_reduce_monomial_vanishing():
    # on real Fl(2,2,2n), of the top monomials p_top(D_1)^i p_top(D_2)^(2n+1-i)
    # only i = n + 1 and i = n survive, and they integrate to +1 and -1
    for n in range(1, 5):
        pres = build_sigma(FlagShape([2, 2, 2 * n]))
        e1, e2 = pres.euler(1), pres.euler(2)
        got = [
            pres.integrate(e1 ** (2 * i) * e2 ** (2 * (2 * n + 1 - i)))
            for i in range(2 * n + 2)
        ]
        assert got == [0] * n + [-1, 1] + [0] * n, n


def test_real_reduce_requires_top_degree():
    # int_W reads only the top degree: every W_D product of lower degree,
    # and the lower-degree parts of a sum, integrate to 0
    for parts in [(2, 2, 2), (2, 4), (4, 2)]:
        pres = build_sigma(FlagShape(parts))
        top = pres.shape.dim
        pt = w_point_class(pres)
        e = [pres.euler(i) for i in range(1, pres.shape.m + 1)]
        for exps in itertools.product(range(top // 2), repeat=len(e)):
            degree = sum(k * d for k, d in zip(exps, parts))
            if degree < top:
                x = pres.one()
                for ei, k in zip(e, exps):
                    x = x * ei ** k
                assert pres.integrate(x) == 0, (parts, exps)
                assert pres.integrate(pt + x) == 1, (parts, exps)


def test_smith_rows_stay_small_on_every_all_even_shape_up_to_n10(monkeypatch):
    # the W_D quotients of every all-even shape with N <= 10, in every
    # twist: each entry of the P and B rows the Smith form returns is at
    # most 2 in absolute value, the largest measured.  N <= 12 (63 shapes,
    # 6312 calls) reaches 13 and is left out of tier-1 for its time
    smith, entries = intlinalg.smith_normal_form, []

    def recorded(mat):
        diag, P, B = smith(mat)
        entries.extend(abs(u) for row in P + B for u in row.values())
        return diag, P, B

    monkeypatch.setattr(intlinalg, "smith_normal_form", recorded)
    shapes = [parts for N in range(2, 11, 2) for parts in compositions(N)
              if not any(d % 2 for d in parts)]
    assert len(shapes) == 31
    for parts in shapes:
        pres = WDPresentation(FlagShape(parts))
        for twist in all_twist_classes(len(parts)):
            pres.poincare(twist)
    assert entries and max(entries) <= 2
