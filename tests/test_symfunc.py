import itertools
import random

import pytest

from flagcw.poly import PolyRing
from flagcw.symfunc import (
    Partition,
    binomial,
    box_complement,
    box_dual,
    grassmann_bundle_pushforward,
    grassmann_integrate,
    jacobi_trudi_delta,
    partitions_in_box,
    q_spec,
    root_ring,
    schur_at,
    schur_expand,
    vandermonde,
)


def all_partitions_of(n):
    def rec(rem, maxpart):
        if rem == 0:
            yield []
            return
        for p in range(min(rem, maxpart), 0, -1):
            for tail in rec(rem - p, p):
                yield [p] + tail

    for lam in rec(n, n):
        yield Partition(lam)


def bialternant_at(lam, points):
    """Independent Schur evaluation: det(p_i^(lam_j + n - j)) / Vandermonde.

    Needs pairwise distinct points; exact integer division.
    """
    n = len(points)
    lam_full = list(lam) + [0] * (n - len(lam))
    if len(lam) > n:
        return 0
    num = _det([[p ** (lam_full[j] + n - 1 - j) for j in range(n)] for p in points])
    den = _det([[p ** (n - 1 - j) for j in range(n)] for p in points])
    q, r = divmod(num, den)
    assert r == 0
    return q


def _det(mat):
    n = len(mat)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = sign
        for i in range(n):
            prod *= mat[i][perm[i]]
        total += prod
    return total


# -- partitions ---------------------------------------------------------


def test_transpose_examples():
    assert Partition([2, 1]).transpose() == Partition([2, 1])
    assert Partition([3, 1]).transpose() == Partition([2, 1, 1])
    assert Partition([]).transpose() == Partition([])


def test_transpose_involution():
    for n in range(9):
        for lam in all_partitions_of(n):
            assert lam.transpose().transpose() == lam
            assert lam.transpose().size == lam.size


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition([1, 2])
    assert Partition([2, 1, 0, 0]).parts == (2, 1)


def test_partition_text_format():
    assert str(Partition([14, 14, 14, 14])) == "(14,14,14,14)"
    assert Partition.parse("(14,14,14,14)") == Partition([14] * 4)
    assert Partition.parse("()") == Partition()


def test_box_complement_examples():
    assert box_complement(Partition(), 3, 2) == Partition([2, 2, 2])
    assert box_complement(Partition([2, 2, 2]), 3, 2) == Partition()
    assert box_complement(Partition([1]), 2, 1) == Partition([1])
    with pytest.raises(ValueError):
        box_complement(Partition([3]), 2, 2)


def test_box_complement_involution_and_size():
    for m, n in [(2, 2), (3, 2), (2, 4)]:
        for lam in partitions_in_box(m, n):
            comp = box_complement(lam, m, n)
            assert box_complement(comp, m, n) == lam
            assert lam.size + comp.size == m * n


def test_partitions_in_box_counts():
    assert {p.parts for p in partitions_in_box(2, 1)} == {(), (1,), (1, 1)}
    assert {p.parts for p in partitions_in_box(1, 1)} == {(), (1,)}
    for m, n in [(2, 2), (3, 3), (4, 2)]:
        seen = list(partitions_in_box(m, n))
        assert len(seen) == len(set(seen)) == binomial(m + n, m)


# -- Jacobi-Trudi ------------------------------------------------------


def test_jacobi_trudi_small():
    v = [10, 11, 12, 13]  # v_0..v_3
    assert jacobi_trudi_delta(Partition([1]), v) == 11
    assert jacobi_trudi_delta(Partition([2]), v) == 12
    assert jacobi_trudi_delta(Partition([1, 1]), v) == 11 * 11 - 10 * 12
    assert jacobi_trudi_delta(Partition([]), v) == 1


def test_second_jacobi_trudi_identity_by_evaluation():
    # s_lam(x_1..x_n) = Delta_{lam^T}(e_1..e_n), |lam| <= 8, n <= 4
    rng = random.Random(13)
    for n in range(1, 5):
        points_sets = [
            tuple(rng.randint(1, 30) for _ in range(n)) for _ in range(3)
        ]
        points_sets = [pts for pts in points_sets if len(set(pts)) == n]
        points_sets.append(tuple(range(2, 2 + 3 * n, 3)))
        for size in range(0, 9):
            for lam in all_partitions_of(size):
                for pts in points_sets:
                    assert schur_at(lam, pts) == bialternant_at(lam, pts)


# -- quadratic specialization ------------------------------------------


def test_q_spec_paper_values():
    assert q_spec(Partition([1]), 3) == 10
    assert q_spec(Partition([1, 1]), 3) == 9
    assert q_spec(Partition([1]), 2) == 4
    assert q_spec(Partition([2]), 2) == 16
    assert q_spec(Partition([1]), 4) == 20
    assert q_spec(Partition([1, 1]), 4) == 64
    assert q_spec(Partition([1]), 1) == 1
    assert q_spec(Partition([2]), 1) == 1


def test_q_spec_empty_and_vanishing():
    for M in range(6):
        assert q_spec(Partition(), M) == 1
    # more rows than evaluation points
    assert q_spec(Partition([1, 1, 1]), 3) == 0
    # a zero point kills columns: s_(1,1)(4, 0) = 0
    assert q_spec(Partition([1, 1]), 2) == 0


# -- Schur expansion ----------------------------------------------------


def test_schur_expand_examples():
    ring = PolyRing(["x1", "x2"], 1)
    x1, x2 = ring.gens()
    e = schur_expand(x1 * x2)
    assert e.coefficients == {Partition([1, 1]): 1}
    e = schur_expand(x1 * x1 + x1 * x2 + x2 * x2)
    assert e.coefficients == {Partition([2]): 1}
    e = schur_expand(9 * x1 * x2 * (2 * x1 + x2) * (x1 + 2 * x2))
    assert e.coefficient(Partition([2, 2])) == 27


def test_schur_expand_rejects_asymmetric():
    ring = PolyRing(["x1", "x2"], 1)
    x1, _ = ring.gens()
    with pytest.raises(ValueError):
        schur_expand(x1)
    # more roots than ring variables
    with pytest.raises(ValueError):
        schur_expand(ring.one(), 3)
    with pytest.raises(ValueError):
        grassmann_integrate(3, 4, x1 * x1 * ring.var(1))


def test_schur_expand_roundtrip_evaluation():
    rng = random.Random(31)
    ring = PolyRing(["x1", "x2", "x3"], 1)
    g = ring.gens()
    e1 = g[0] + g[1] + g[2]
    e2 = g[0] * g[1] + g[0] * g[2] + g[1] * g[2]
    e3 = g[0] * g[1] * g[2]
    p = 3 * e1 * e1 * e2 - 5 * e3 * e1 + 2 * e2 * e2
    exp = schur_expand(p)
    for _ in range(5):
        pts = [rng.randint(-6, 6) for _ in range(3)]
        direct = sum(
            c * pts[0] ** m0 * pts[1] ** m1 * pts[2] ** m2
            for (m0, m1, m2), c in (
                ((mon + (0, 0, 0))[:3], c) for mon, c in p.terms.items()
            )
        )
        assert exp.evaluate(pts) == direct


# -- Grassmannian integration ------------------------------------------


def test_integrate_point_class():
    # s_{(n-k)^k}(t_1..t_k) = (t_1...t_k)^(n-k); integral 1
    for k in range(1, 4):
        for n in range(k + 1, 10):
            ring = root_ring(k)
            pt = ring.monomial([n - k] * k)
            assert grassmann_integrate(k, n, pt) == 1


def test_integrate_cubic_lines():
    ring = root_ring(2)
    x1, x2 = ring.gens()
    p = 9 * x1 * x2 * (2 * x1 + x2) * (x1 + 2 * x2)
    assert grassmann_integrate(2, 4, p) == 27
    assert grassmann_integrate(2, 4, ring.one()) == 0  # low degree


def test_integrate_schur_basis_normalization():
    # s_(2,2) on Gr(2,4) is the point class
    ring = root_ring(2)
    s22 = ring.monomial([2, 2])
    assert grassmann_integrate(2, 4, s22) == 1
    # s_(2,1): integral 0 by degree
    s21 = ring.monomial([2, 1]) + ring.monomial([1, 2])
    assert grassmann_integrate(2, 4, s21) == 0


def test_integrate_matches_full_bialternant_product():
    # reference: multiply the top part by the Vandermonde polynomial in
    # full and read the coefficient of x^staircase
    rng = random.Random(2718)
    negative_lookup_seen = False
    for k in (2, 3, 4):
        ring = root_ring(k)
        elem = [
            sum(
                (ring.monomial([int(i in S) for i in range(k)])
                 for S in itertools.combinations(range(k), j)),
                ring.zero(),
            )
            for j in range(k + 1)
        ]

        def random_product(d):
            acc = ring.one()
            while d:
                j = rng.randint(1, min(k, d))
                acc, d = acc * elem[j], d - j
            return acc

        vterms = vandermonde(ring, k).terms
        for n in range(k + 1, k + 4):
            dim = k * (n - k)
            staircase = tuple(n - 1 - i for i in range(k))
            negative_lookup_seen |= any(
                s < e for v in vterms for s, e in zip(staircase, v)
            )
            for _ in range(3):
                top = sum(
                    (rng.randint(-9, 9) * random_product(dim) for _ in range(2)),
                    ring.zero(),
                )
                low = rng.randint(1, 9) * random_product(dim - 1)
                want = (top * vandermonde(ring, k)).coefficient_of(staircase)
                assert grassmann_integrate(k, n, top + low) == want
                # no part of top degree
                assert grassmann_integrate(k, n, low) == 0
    assert negative_lookup_seen


# -- relative pushforward -----------------------------------------------


def test_pushforward_point_class_is_one():
    for r, k in [(3, 1), (4, 2), (5, 2)]:
        ring = root_ring(r)
        pt = ring.monomial([r - k] * k)  # fiber point class of Gr(k, r)
        res = grassmann_bundle_pushforward(list(range(k)), list(range(r)), pt)
        assert res == ring.one()


def test_pushforward_of_one_vanishes():
    ring = root_ring(4)
    res = grassmann_bundle_pushforward([0, 1], [0, 1, 2, 3], ring.one())
    assert res.is_zero()


def test_pushforward_matches_absolute_integral():
    # over a trivial base the Gr(2,4) fiber integral of the cubic product
    # must reproduce grassmann_integrate(2, 4, .) = 27
    ring = root_ring(4)
    a1, a2 = ring.var(0), ring.var(1)
    g = 9 * a1 * a2 * (2 * a1 + a2) * (a1 + 2 * a2)
    res = grassmann_bundle_pushforward([0, 1], [0, 1, 2, 3], g)
    assert res == 27 * ring.one()


def test_pushforward_degree_drop():
    ring = root_ring(3)
    t1, t2 = ring.var(0), ring.var(1)
    # symmetric of degree 3 in the sub-root, Gr(1,3)-fiber drops degree 2
    g = t1**3
    res = grassmann_bundle_pushforward([0], [0, 1, 2], g)
    assert res.is_homogeneous() and res.degree() == 1
    # h_1 of the complementary roots: classical Segre pushforward
    assert res == ring.var(0) + ring.var(1) + ring.var(2)


def test_pushforward_rejects_asymmetric_input():
    ring = root_ring(3)
    g = ring.var(1)  # not symmetric in the complementary pair {t2, t3}
    with pytest.raises(ArithmeticError):
        grassmann_bundle_pushforward([0], [0, 1, 2], g)


def test_box_dual_is_transposed_complement():
    for lam in partitions_in_box(2, 3):
        assert box_dual(lam, 2, 3) == box_complement(lam, 2, 3).transpose()
