import itertools
import math
import random
from collections import Counter

import pytest

from flag_oracle import reference_integrate_product
from flagcw.counts import QUINTIC_FOURPLANES, hypersurface_root_factors
from flagcw.poly import PolyRing
from flagcw.symfunc import (
    Partition,
    _split_by_reversal,
    box_complement,
    box_dual,
    grassmann_bundle_pushforward,
    grassmann_integrate,
    grassmann_integrate_product,
    jacobi_trudi_delta,
    partitions_in_box,
    product_of_factors,
    q_spec,
    root_ring,
    schur_at,
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
        assert len(seen) == len(set(seen)) == math.comb(m + n, m)


# -- Jacobi-Trudi ------------------------------------------------------


def test_jacobi_trudi_small():
    v = [10, 11, 12, 13]  # v_0..v_3
    assert jacobi_trudi_delta(Partition([1]), v) == 11
    assert jacobi_trudi_delta(Partition([2]), v) == 12
    assert jacobi_trudi_delta(Partition([1, 1]), v) == 11 * 11 - 10 * 12
    assert jacobi_trudi_delta(Partition([]), v) == 1


def test_jacobi_trudi_matches_the_leibniz_sum_on_banded_sequences():
    # short sequences make the matrix banded, and zeros inside it leave
    # columns that only some rows can fill: the expansion keeps only the
    # column sets that can still be completed, which must not change det
    rng = random.Random(5)
    for _ in range(300):
        ell = rng.randint(1, 6)
        lam = Partition(sorted((rng.randint(1, 4) for _ in range(ell)), reverse=True))
        v = [rng.choice([0, 0, 1, -2, 3, 7]) for _ in range(rng.randint(1, 6))]
        M = [[v[k] if 0 <= k < len(v) else 0
              for k in range(lam[i] - i, lam[i] - i + ell)] for i in range(ell)]
        leibniz = 0
        for perm in itertools.permutations(range(ell)):
            inversions = sum(perm[a] > perm[b] for a in range(ell) for b in range(a + 1, ell))
            leibniz += (-1) ** inversions * math.prod(M[i][perm[i]] for i in range(ell))
        assert jacobi_trudi_delta(lam, v) == leibniz, (lam, v)


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


# -- Grassmannian integration ------------------------------------------


def test_integrate_point_class():
    # s_{(n-k)^k}(t_1..t_k) = (t_1...t_k)^(n-k); integral 1
    for k in range(1, 4):
        for n in range(k + 1, 10):
            ring = root_ring(k, k * (n - k))
            pt = ring.monomial([n - k] * k)
            assert grassmann_integrate(k, n, pt) == 1


def test_integrate_rejects_asymmetric_input():
    ring = PolyRing(["x1", "x2"], 1, degree=4)
    x1, x2 = ring.gens()
    with pytest.raises(ValueError, match="not stable under swapping x1,x2"):
        grassmann_integrate(2, 4, x1 ** 4)
    with pytest.raises(ValueError, match="ring variables"):
        grassmann_integrate(3, 4, x1 * x1 * x2)


def test_integrate_cubic_lines():
    ring = root_ring(2, 4)
    x1, x2 = ring.gens()
    p = 9 * x1 * x2 * (2 * x1 + x2) * (x1 + 2 * x2)
    assert grassmann_integrate(2, 4, p) == 27
    assert grassmann_integrate(2, 4, ring.one()) == 0  # low degree


def test_integrate_schur_basis_normalization():
    # s_(2,2) on Gr(2,4) is the point class
    ring = root_ring(2, 4)
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
        # top parts of degree k(n - k) <= 12, times the Vandermonde
        ring = root_ring(k, 18)
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

        vterms = [ring.exponents(v) for v in vandermonde(ring, range(k)).terms]
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
                want = (top * vandermonde(ring, range(k))).coefficient_of(staircase)
                assert grassmann_integrate(k, n, top + low) == want
                # no part of top degree
                assert grassmann_integrate(k, n, low) == 0
    assert negative_lookup_seen


def random_stable_factors(rng, ring, k, orbits, max_support=2):
    """Union of S_k-orbits of random polynomials in the first k roots.

    Each orbit seed has one or two terms on one to ``max_support`` roots,
    with exponents up to 3 and maybe a constant term, so the list holds
    factors with exponents > 1 and non-homogeneous factors.
    """
    factors = []
    for _ in range(orbits):
        support = rng.sample(range(k), rng.randint(1, min(max_support, k)))
        terms = {}
        for _ in range(rng.randint(1, 2)):
            mon = [0] * ring.nvars
            for i in support:
                mon[i] = rng.randint(0, 3)
            terms[tuple(mon)] = rng.choice([-3, -1, 1, 2, 5])
        if rng.random() < 0.4:
            terms[(0,) * ring.nvars] = rng.randint(1, 4)
        seed = ring.from_terms(terms)
        if seed.is_zero():
            continue
        orbit = set()
        for perm in itertools.permutations(range(k)):
            moved = {}
            for mon, c in seed.terms.items():
                mon = ring.exponents(mon)
                new = list(mon)
                for i in range(k):
                    new[perm[i]] = mon[i]
                moved[tuple(new)] = c
            orbit.add(frozenset(moved.items()))
        factors += [ring.from_terms(dict(f)) for f in sorted(orbit, key=sorted)]
    return factors


def bialternant_coefficient(full, k, n):
    """Coefficient of t^staircase in top * Vandermonde, top the part of
    degree k(n-k) of the polynomial ``full``, summed over the
    Vandermonde's terms c * t^v as c * top[staircase - v]."""
    ring = full.ring
    top = full.homogeneous_part(k * (n - k))
    staircase = [n - 1 - i for i in range(k)]
    total = 0
    for v, c in vandermonde(ring, range(k)).terms.items():
        rest = [s - e for s, e in zip(staircase, ring.exponents(v))]
        if min(rest, default=0) >= 0:
            total += c * top.coefficient_of(rest)
    return total


def test_integrate_product_matches_full_product():
    # for k = 3 and k = 7 the kernel folds an odd number of the
    # Vandermonde's differences into its half product, so a dropped sign
    # fails here; for k >= 5 the orbits sit on one root, so that the full
    # product stays small
    rng = random.Random(4242)
    for k, draws, spread in [(1, 6, 6), (2, 12, 6), (3, 12, 6), (4, 12, 6),
                             (5, 4, 3), (6, 3, 3), (7, 3, 3)]:
        # one spare variable: factors may live in a larger ring; the full
        # products stay below degree 64
        ring = root_ring(k + 1, 64)
        nonzero = 0
        for _ in range(draws):
            factors = random_stable_factors(
                rng, ring, k, rng.randint(1, 3) if k < 5 else 2,
                2 if k < 5 else 1)
            rng.shuffle(factors)
            full = product_of_factors(ring, factors)
            for n in range(k, k + spread):
                want = bialternant_coefficient(full, k, n)
                assert grassmann_integrate_product(k, n, factors) == want
                nonzero += want != 0
        assert nonzero >= 4, k
    # the top Chern class of Sym^3 S* on Gr(5, 12), 35 linear factors
    ring = root_ring(5, 35)
    factors = hypersurface_root_factors(ring, 5, 3)
    full = product_of_factors(ring, factors)
    assert bialternant_coefficient(full, 5, 12) == 1812646836
    assert grassmann_integrate_product(5, 12, factors) == 1812646836


def test_integrate_product_of_wrong_degree_is_zero():
    ring = root_ring(3, 11)
    t = ring.gens()
    e1 = t[0] + t[1] + t[2]
    squares = [t[0] ** 2 + 1, t[1] ** 2 + 1, t[2] ** 2 + 1]
    # homogeneous of degree 7 and 9 against dim Gr(3,6) = 9 and Gr(3,5) = 6
    assert grassmann_integrate_product(3, 6, [e1] * 7) == 0
    assert grassmann_integrate_product(3, 5, [e1] * 9) == 0
    assert grassmann_integrate_product(3, 6, [e1] * 9) == 42
    # the degree-6 part of prod (t_i^2 + 1) is (t1 t2 t3)^2, the point of Gr(3,5)
    assert grassmann_integrate_product(3, 5, squares) == 1
    assert grassmann_integrate_product(3, 5, [ring.zero()] + squares) == 0
    # t1^11 and t1^10 t2 are far above the exponent cap 3 of Gr(2,4): they
    # must be dropped, not confused with a kept monomial
    assert grassmann_integrate_product(2, 4, [t[0] + t[1]] * 11) == 0


def test_integrate_product_lines_on_hypersurfaces():
    # lines on a degree-(2N-3) hypersurface in P^N: Gr(2, N+1)
    ring = root_ring(2, 14)
    # (OEIS A027363)
    for n, lines in [
        (4, 27),
        (5, 2875),
        (6, 698005),
        (7, 305093061),
        (8, 210480374951),
        (9, 210776836330775),
    ]:
        factors = hypersurface_root_factors(ring, 2, 2 * n - 5)
        assert grassmann_integrate_product(2, n, factors) == lines


def reversed_roots(f, ring, k):
    """The frozenset of the terms f with the first k exponents reversed."""
    order = [*range(k - 1, -1, -1), *range(k, ring.nvars)]
    return frozenset((ring.permuted(mon, order), c) for mon, c in f)


def factor_multiset(factors):
    return Counter(frozenset(f.terms.items()) for f in factors)


def test_split_by_reversal_pairs_every_factor():
    rng = random.Random(1618)
    cases = []
    for k in range(1, 6):
        ring = root_ring(k + 1, 64)
        cases += [(k, random_stable_factors(rng, ring, k, rng.randint(1, 3)))
                  for _ in range(6)]
    t = root_ring(2, 5).gens()
    odd_fixed = [t[0] + t[1]] * 3 + [t[0], t[1]]
    quintic = hypersurface_root_factors(root_ring(4, 56), 4, 5)
    cases += [(2, odd_fixed), (4, quintic)]
    for k, factors in cases:
        ring = factors[0].ring
        half, fixed = _split_by_reversal(factor_multiset(factors), ring, k)
        # H + rho(H) + F is the input multiset
        rebuilt = Counter(half) + Counter(reversed_roots(f, ring, k) for f in half)
        assert rebuilt + Counter(fixed) == factor_multiset(factors)
        # F holds rho-fixed factors only, one copy of each
        assert all(reversed_roots(f, ring, k) == f for f in fixed)
        assert len(set(fixed)) == len(fixed)
    # t1 + t2 three times: one copy in H, one in F; t1 pairs with t2
    half, fixed = _split_by_reversal(factor_multiset(odd_fixed), t[0].ring, 2)
    assert (len(half), fixed) == (2, [frozenset((t[0] + t[1]).terms.items())])
    # no composition of 5 into 4 parts is a palindrome: the quintic
    # splits 28/28/0
    half, fixed = _split_by_reversal(factor_multiset(quintic), quintic[0].ring, 4)
    assert (len(half), len(fixed)) == (28, 0)


def test_integrate_product_matches_reference():
    rng = random.Random(31415)
    nonzero = 0
    for k in range(1, 6):
        # one spare variable: factors may live in a larger ring
        ring = root_ring(k + 1, 64)
        for _ in range(8 if k < 5 else 3):
            factors = random_stable_factors(rng, ring, k, rng.randint(1, 3))
            rng.shuffle(factors)
            for n in range(k, k + (6 if k < 5 else 3)):
                want = reference_integrate_product(k, n, factors)
                assert grassmann_integrate_product(k, n, factors) == want
                nonzero += want != 0
    assert nonzero >= 20
    t = root_ring(2, 9).gens()
    # an odd number of copies of a reversal-fixed factor, and one that is
    # not homogeneous, beside a pair swapped by the reversal
    for factors in ([t[0] + t[1]] * 3 + [t[0], t[1]],
                    [t[0] + t[1] + 1] * 5 + [t[0] ** 2 - 3, t[1] ** 2 - 3]):
        for n in range(2, 8):
            assert grassmann_integrate_product(2, n, factors) == (
                reference_integrate_product(2, n, factors))
    for k, n, degree, want in [
        (3, 8, 4, 3297280),
        (4, 18, 5, QUINTIC_FOURPLANES),
        (5, 12, 3, 1812646836),
    ]:
        factors = hypersurface_root_factors(root_ring(k, k * (n - k)), k, degree)
        assert grassmann_integrate_product(k, n, factors) == want
        assert reference_integrate_product(k, n, factors) == want


def test_integrate_product_rejects_bad_factor_lists():
    ring = root_ring(3, 3)
    t = ring.gens()
    # symmetric product, but the list is not stable under swapping t1, t2
    with pytest.raises(ValueError, match="not stable"):
        grassmann_integrate_product(2, 4, [2 * t[0], t[1]])
    with pytest.raises(ValueError, match="not stable"):
        grassmann_integrate_product(3, 5, [t[0] + t[1], t[1] + t[2]])
    with pytest.raises(ValueError, match="more than k"):
        grassmann_integrate_product(2, 4, [t[0], t[1], t[2]])
    with pytest.raises(ValueError, match="ring variables"):
        grassmann_integrate_product(4, 6, [t[0]])
    with pytest.raises(ValueError, match="different rings"):
        grassmann_integrate_product(1, 3, [t[0], root_ring(1, 3).var(0)])
    with pytest.raises(ValueError, match="non-empty"):
        grassmann_integrate_product(2, 4, [])
    for k, n in [(-1, 3), (2, -1)]:
        with pytest.raises(ValueError, match="k, n >= 0"):
            grassmann_integrate_product(k, n, [ring.one()])
    # Gr(k, n) is empty for n < k
    e1 = t[0] + t[1] + t[2]
    assert grassmann_integrate_product(3, 2, [e1]) == 0
    assert grassmann_integrate_product(3, 0, [ring.one()]) == 0
    # Gr(0, n) is a point: the integral is the product of the constants
    for n in range(4):
        assert grassmann_integrate(0, n, root_ring(0, 0).one()) == 1
        constants = [ring.constant(2), ring.constant(3)]
        assert grassmann_integrate_product(0, n, constants) == 6


# -- relative pushforward -----------------------------------------------


def test_pushforward_point_class_is_one():
    for r, k in [(3, 1), (4, 2), (5, 2)]:
        # the point class times the two Vandermondes: degree at most 10
        ring = root_ring(r, 10)
        pt = ring.monomial([r - k] * k)  # fiber point class of Gr(k, r)
        res = grassmann_bundle_pushforward(list(range(k)), list(range(r)), pt)
        assert res == ring.one()


def test_pushforward_of_one_vanishes():
    ring = root_ring(4, 2)
    res = grassmann_bundle_pushforward([0, 1], [0, 1, 2, 3], ring.one())
    assert res.is_zero()


def test_pushforward_matches_absolute_integral():
    # over a trivial base the Gr(2,4) fiber integral of the cubic product
    # must reproduce grassmann_integrate(2, 4, .) = 27
    ring = root_ring(4, 6)
    a1, a2 = ring.var(0), ring.var(1)
    g = 9 * a1 * a2 * (2 * a1 + a2) * (a1 + 2 * a2)
    res = grassmann_bundle_pushforward([0, 1], [0, 1, 2, 3], g)
    assert res == 27 * ring.one()


def test_pushforward_degree_drop():
    ring = root_ring(3, 4)
    t1, t2 = ring.var(0), ring.var(1)
    # symmetric of degree 3 in the sub-root, Gr(1,3)-fiber drops degree 2
    g = t1**3
    res = grassmann_bundle_pushforward([0], [0, 1, 2], g)
    assert res.is_homogeneous() and res.degree() == 1
    # h_1 of the complementary roots: classical Segre pushforward
    assert res == ring.var(0) + ring.var(1) + ring.var(2)


def test_pushforward_rejects_asymmetric_input():
    ring = root_ring(3, 2)
    g = ring.var(1)  # not symmetric in the complementary pair {t2, t3}
    with pytest.raises(ArithmeticError):
        grassmann_bundle_pushforward([0], [0, 1, 2], g)


def test_box_dual_is_transposed_complement():
    for lam in partitions_in_box(2, 3):
        assert box_dual(lam, 2, 3) == box_complement(lam, 2, 3).transpose()
