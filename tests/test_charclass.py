import copy
import math
import pickle
import random

import pytest

from flagcw.charclass import (
    BundleGrammarError,
    Dual,
    Sum,
    Sym,
    Taut,
    Tensor,
    Trivial,
    bundle_rank,
    cauchy_minor_products,
    euler_checks,
    euler_coefficient_floor,
    euler_of_expression,
    euler_root_ring,
    euler_sym_rk2,
    euler_sym_tensor,
    euler_tensor_cauchy,
    orientability_conditions,
    parse_bundle,
    pontryagin_sequence,
    pontryagin_sym_rk2,
)
from flagcw.poly import PolyRing
from flagcw.symfunc import (
    Partition,
    box_dual,
    jacobi_trudi_delta,
    partitions_in_box,
    q_spec,
)


def roots_ab():
    # rank 64 covers every Sym^M (x) Sym^N with M, N <= 7 read below
    ring = euler_root_ring(2, 64)
    return ring, ring.var(0), ring.var(1)


def sym_pontryagin_roots(M, a):
    """Euler roots of Sym^M of a rank-2 bundle: (M-2i) a, i = 0..floor(M/2)."""
    return [(M - 2 * i) * a for i in range(M // 2 + 1)]


def tensor_root_oracle(M, N, ring):
    """Universal root-product Euler class of Sym^M(A) (x) Sym^N(B).

    Nonzero root pairs contribute alpha^2 - beta^2; a zero root on one
    side pairs each root on the other side linearly; a zero-zero pair
    kills the class.
    """
    a, b = ring.var(0), ring.var(1)
    alphas = [(M - 2 * i) for i in range(M // 2 + 1)]
    betas = [(N - 2 * j) for j in range(N // 2 + 1)]
    out = ring.one()
    for ca in alphas:
        for cb in betas:
            if ca == 0 and cb == 0:
                return ring.zero()
            if ca == 0:
                out = out * (cb * b)
            elif cb == 0:
                out = out * (ca * a)
            else:
                out = out * (ca**2 * a * a - cb**2 * b * b)
    return out


# -- ranks, c1, orientability ----------------------------------------------


def test_orientability_conditions():
    assert orientability_conditions(3, 5, 14)["all"]
    assert not orientability_conditions(3, 5, 13)["all"]  # d odd
    res = orientability_conditions(2, 5, 14)
    assert not res["all"] and not res["rank_sym1_even"]
    for ell1, ell2 in [(-2, 5), (3, -4)]:
        with pytest.raises(ValueError, match="non-negative"):
            orientability_conditions(ell1, ell2, 14)


# -- Levine's rank-2 formulas ------------------------------------------------


def test_pontryagin_sym_rk2():
    ring, a, _ = roots_ab()
    assert pontryagin_sym_rk2(3, a) == (1 + 9 * a * a) * (1 + a * a)
    assert pontryagin_sym_rk2(0, a) == ring.one()
    assert pontryagin_sym_rk2(2, a) == 1 + 4 * a * a
    # top reads the part of degree 2 (m + 1) without multiplying out
    for m in range(12):
        assert pontryagin_sym_rk2(m, a, top=True) == pontryagin_sym_rk2(
            m, a).homogeneous_part(2 * (m + 1)), m


def test_euler_sym_rk2():
    _, a, _ = roots_ab()
    assert euler_sym_rk2(3, a) == 3 * a**2
    assert euler_sym_rk2(5, a) == 15 * a**3
    assert euler_sym_rk2(1, a) == a
    with pytest.warns(UserWarning):
        assert euler_sym_rk2(4, a).is_zero()


def test_euler_sym_rk2_degree_consistency():
    # rank of Sym^(2r+1) is 2r+2, so the Euler class must have degree 2r+2
    _, a, _ = roots_ab()
    for m in (1, 3, 5, 7):
        e = euler_sym_rk2(m, a)
        assert e.degree() == m + 1  # roots have weight 2


# -- Cauchy identity ---------------------------------------------------------


def test_cauchy_rank2_times_rank2():
    ring, a, b = roots_ab()
    pA = pontryagin_sequence(1 + a * a, 1)
    pB = pontryagin_sequence(1 + b * b, 1)
    assert euler_tensor_cauchy(pA, pB, 1, 1) == a * a - b * b


def test_cauchy_column_case_matches_tensorrk2():
    # n = 1: e(A (x) B) = sum (-1)^k p_{2(m-k)}(A) b^{2k}
    ring = PolyRing(["a1", "a2", "b"], 2, degree=8)
    a1, a2, b = ring.gens()
    pA_total = (1 + a1 * a1) * (1 + a2 * a2)
    pA = pontryagin_sequence(pA_total, 2)
    pB = pontryagin_sequence(1 + b * b, 1)
    got = euler_tensor_cauchy(pA, pB, 2, 1)
    expected = ring.zero()
    for k in range(3):
        expected = expected + (-1) ** k * pA[2 - k] * (b * b) ** k
    assert got == expected
    # and against the plain root product (a1^2 - b^2)(a2^2 - b^2)
    assert got == (a1 * a1 - b * b) * (a2 * a2 - b * b)


def test_cauchy_equal_bundles_vanish():
    # equal root multisets force e(A (x) A) = 0 for the m = n = 1 case
    ring, a, _ = roots_ab()
    pA = pontryagin_sequence(1 + a * a, 1)
    assert euler_tensor_cauchy(pA, pA, 1, 1) == 0


# -- symmetric power tensor formulas ----------------------------------------


def test_euler_sym_tensor_paper_examples():
    ring, a, b = roots_ab()
    assert euler_sym_tensor(3, 2, a, b) == (
        9 * a**4 - 40 * a**2 * b**2 + 16 * b**4
    ) * (3 * a**2)
    assert euler_sym_tensor(4, 1, a, b) == (
        64 * a**4 - 20 * a**2 * b**2 + b**4
    ) * b
    assert euler_sym_tensor(2, 2, a, b).is_zero()


def test_euler_sym_tensor_root_oracle_all_parities():
    ring, a, b = roots_ab()
    for M in range(0, 6):
        for N in range(0, 6):
            got = euler_sym_tensor(M, N, a, b)
            oracle = tensor_root_oracle(M, N, ring)
            assert got == oracle, (M, N)


def test_euler_sym_tensor_root_oracle_odd_up_to_seven():
    ring, a, b = roots_ab()
    for M in (1, 3, 5, 7):
        for N in (1, 3, 5, 7):
            assert euler_sym_tensor(M, N, a, b) == (
                tensor_root_oracle(M, N, ring))


def test_euler_checks_cauchy_route_on_every_parity():
    for M in range(1, 8):
        for N in range(1, 8):
            expr = parse_bundle(f"sym^{M}(D1) * sym^{N}(D2)")
            checks = euler_checks(expr, 2, euler_of_expression(expr, 2))
            assert len(checks) == 1, (M, N)
            assert checks[0][1], checks
    # a repeated factor is checked once; with a tensor factor, the other
    # atoms carry no check
    expr = parse_bundle("D1 * D2 + D1 * D2 + sym^3(D1)")
    assert [holds for _, holds in euler_checks(
        expr, 2, euler_of_expression(expr, 2))] == [True]


def test_q_spec_consistency_with_pontryagin():
    # Delta_{lam^T} of the Pontryagin coefficients of Sym^M equals
    # q_lam(M) a^(2|lam|)
    ring, a, _ = roots_ab()
    for M in (2, 3, 4, 5):
        m = (M + 1) // 2
        seq = pontryagin_sequence(pontryagin_sym_rk2(M, a), m + 1)
        for lam in [
            Partition(),
            Partition([1]),
            Partition([2]),
            Partition([1, 1]),
            Partition([2, 1]),
        ]:
            if len(lam) > m:
                continue
            got = jacobi_trudi_delta(lam.transpose(), seq)
            expected = q_spec(lam, M) * a ** (2 * lam.size)
            if isinstance(got, int):
                got = ring.constant(got)
            assert got == expected, (M, lam)


SYM5_COEFFS = {
    (22, 6): 18662400,
    (20, 8): -508680000,
    (18, 10): 4194860400,
    (16, 12): -14714257500,
    (14, 14): 22941470025,
    (12, 16): -14714257500,
    (10, 18): 4194860400,
    (8, 20): -508680000,
    (6, 22): 18662400,
}


def exponent_terms(p):
    """{exponent tuple: coefficient} of a polynomial."""
    return {p.ring.exponents(m): c for m, c in p.terms.items()}


def euler_sym_sum(k):
    """e(Sym^k(D1 + D2)) through the bundle-expression route."""
    return euler_of_expression(parse_bundle(f"sym^{k}(D1 + D2)"), 2)


def test_euler_sym_sum_rk2_five():
    s5 = euler_sym_sum(5)
    assert exponent_terms(s5) == SYM5_COEFFS


def test_euler_sym_sum_rk2_one():
    ring, a, b = roots_ab()
    assert euler_sym_sum(1) == a * b


def test_euler_sym_sum_rk2_three_against_oracle():
    ring = roots_ab()[0]
    oracle = ring.one()
    for i in range(4):
        oracle = oracle * tensor_root_oracle(3 - i, i, ring)
    assert euler_sym_sum(3) == oracle


def test_euler_sym_sum_symmetric_up_to_sign():
    for k in (1, 3, 5):
        s = euler_sym_sum(k)
        swapped_terms = {}
        for (ea, eb), c in exponent_terms(s).items():
            swapped_terms[(eb, ea)] = c
        swapped = s.ring.from_terms(swapped_terms)
        assert s == swapped or s == -swapped


# -- bundle expressions -------------------------------------------------------


def test_parse_bundle_grammar():
    e = parse_bundle("sym^3(dual(S1)) + sym^5(dual(S2))")
    assert e == Sum(
        Sym(3, Dual(Taut("S", 1))), Sym(5, Dual(Taut("S", 2)))
    )
    assert parse_bundle("  D1 *D2 ") == Tensor(Taut("D", 1), Taut("D", 2))
    assert parse_bundle("triv( 3 )") == Trivial(3)
    with pytest.raises(BundleGrammarError) as err:
        parse_bundle("sym^3(dual(S1)")
    assert err.value.position is not None
    with pytest.raises(BundleGrammarError):
        parse_bundle("foo")


def sample_nodes():
    a, b = Taut("S", 1), Taut("D", 2)
    return [a, b, Trivial(3), Dual(a), Sum(a, b), Tensor(a, b), Sym(3, b)]


def test_bundle_nodes_are_values():
    rebuilt = [parse_bundle(t) for t in
               ("S1", "D2", "triv(3)", "dual(S1)", "S1 + D2", "S1 * D2", "sym^3(D2)")]
    assert rebuilt == sample_nodes()
    assert [hash(x) for x in rebuilt] == [hash(x) for x in sample_nodes()]
    table = {node: i for i, node in enumerate(sample_nodes())}
    assert len(table) == 7
    assert [table[x] for x in rebuilt] == list(range(7))


def test_bundle_nodes_compare_by_type():
    a, b = Taut("S", 1), Taut("D", 2)
    assert Sum(a, b) != Tensor(a, b)
    assert Dual(3) != Trivial(3)
    assert Sum(a, b) != (a, b) and (a, b) != Sum(a, b)
    assert Trivial(3) != 3 and Trivial(3) != (3,)
    assert Taut("S", 1) != Taut("S", 2)
    assert len({Sum(a, b), Tensor(a, b), (a, b)}) == 3
    assert not isinstance(Sum(a, b), tuple)


def test_bundle_nodes_are_immutable():
    for node in sample_nodes():
        for name in node.__slots__ + ("extra",):
            with pytest.raises(AttributeError):
                setattr(node, name, 0)
        with pytest.raises(AttributeError):
            delattr(node, node.__slots__[0])
    assert sample_nodes() == sample_nodes()


def test_bundle_node_repr_and_copy():
    assert repr(Taut("S", 1)) == "Taut(kind='S', index=1)"
    assert repr(Sym(3, Dual(Trivial(2)))) == (
        "Sym(power=3, inner=Dual(inner=Trivial(rank=2)))"
    )
    assert repr(Sum(Taut("D", 1), Taut("D", 2))) == (
        "Sum(left=Taut(kind='D', index=1), right=Taut(kind='D', index=2))"
    )
    for node in sample_nodes():
        assert pickle.loads(pickle.dumps(node)) == node
        assert copy.deepcopy(node) == node
    with pytest.raises(TypeError):
        Sum(Taut("S", 1))


def test_bundle_ranks():
    assert bundle_rank(parse_bundle("S2"), 2) == 4
    assert bundle_rank(parse_bundle("sym^5(dual(S2))"), 2) == 56
    assert bundle_rank(parse_bundle("sym^3(S1) + triv(2)"), 2) == 6
    assert bundle_rank(parse_bundle("D1 * D2"), 2) == 4


def tree_rank(expr):
    """The rank by the expression tree: a block of rank 2, ranks add under
    + and multiply under *, and Sym^k of rank s has rank C(k+s-1, s-1)."""
    if isinstance(expr, Taut):
        return 2 * expr.index if expr.kind == "S" else 2
    if isinstance(expr, Trivial):
        return expr.rank
    if isinstance(expr, Dual):
        return tree_rank(expr.inner)
    if isinstance(expr, Sum):
        return tree_rank(expr.left) + tree_rank(expr.right)
    if isinstance(expr, Tensor):
        return tree_rank(expr.left) * tree_rank(expr.right)
    s = tree_rank(expr.inner)
    return math.comb(expr.power + s - 1, s - 1)


def test_bundle_rank_matches_the_tree_formula():
    rng = random.Random(16)
    texts = []
    # sym^0 is a trivial line, and _normalize refuses tensors with one
    for k in range(9):
        texts += [f"sym^{k}(D1 + D2)", f"sym^{k}(dual(S2))", f"sym^{k}(S1)"]
    texts += [f"sym^{M}(D1) * sym^{N}(D2)" for M in range(1, 9) for N in range(1, 9)]
    for text in list(texts):
        r = rng.randrange(9)
        texts += [f"{text} + triv({r})", f"triv({r}) + {text} + D2"]
    for text in texts:
        expr = parse_bundle(text)
        assert bundle_rank(expr, 2) == tree_rank(expr), text


def test_coefficient_floor_divides_every_coefficient():
    # 0 exactly when the class is 0; otherwise it divides every coefficient,
    # and a cap stops the product once reached
    texts = [f"sym^{k}(D1 + D2)" for k in range(7)]
    texts += [f"sym^{M}(D1) * sym^{N}(D2)" for M in range(1, 5) for N in range(1, 5)]
    texts += ["sym^3(D1) + sym^5(D2)", "sym^5(D1) + D1 * sym^2(D2)",
              "sym^3(D1) + triv(2)", "sym^7(D1) + sym^4(D2)", "S2"]
    for text in texts:
        expr = parse_bundle(text)
        floor = euler_coefficient_floor(expr, 2, 10 ** 100)
        coefficients = euler_of_expression(expr, 2).terms.values()
        assert (floor == 0) == (not coefficients), text
        assert all(c % floor == 0 for c in coefficients if floor), text
    expr = parse_bundle("sym^5(D1) + sym^3(D2)")
    assert euler_coefficient_floor(expr, 2, 10) == 15
    assert euler_coefficient_floor(expr, 2, 10 ** 9) == 45


def test_minor_product_count_stops_past_its_limit():
    # D1 * D2 is Sym^1 (x) Sym^1, a 1 x 1 box: one 1 x 1 determinant on
    # each side.  sym^3(D1) * sym^7(D2), the 2 x 4 box: partitions with
    # first part j = 1..4 number j + 1 and take j 2^(j-1) products, their
    # duals in the 4 x 2 box C(j + 3, 3) for j = 1, 2
    assert cauchy_minor_products(parse_bundle("D1 * D2"), 2, 100) == 2
    expr = parse_bundle("sym^3(D1) * sym^7(D2)")
    left = 2 * 1 + 3 * 4 + 4 * 12 + 5 * 32
    right = 4 * 1 + 10 * 4
    assert cauchy_minor_products(expr, 2, 10**6) == left + right
    assert cauchy_minor_products(expr, 2, 50) == 2 + 12 + 48
    # the count is the sum of j 2^(j-1) over the determinants that
    # jacobi_trudi_delta expands, a bound on its products
    count = 0
    for lam in partitions_in_box(2, 4):
        for mu in (lam, box_dual(lam, 2, 4)):
            ell = len(mu.transpose())
            count += ell << (ell - 1) if ell else 0
    assert count == left + right
    # no tensor factor, no product; factors are read one at a time
    assert cauchy_minor_products(parse_bundle("sym^3(D1) + D2"), 2, 1) == 0
    assert cauchy_minor_products(
        parse_bundle("sym^99999999(D1 + D2)"), 2, 10**7) > 10**7


def test_euler_rejects_a_d_block_past_the_roots():
    with pytest.raises(ValueError, match="block index 3 exceeds --roots 2"):
        euler_of_expression(parse_bundle("D3"), 2)
    with pytest.raises(ValueError, match="block index 0 exceeds --roots 2"):
        bundle_rank(parse_bundle("D0"), 2)


def test_euler_of_expression_whitney():
    ring, a, b = roots_ab()
    assert euler_of_expression(parse_bundle("D1 + D2"), 2) == a * b
    assert euler_of_expression(parse_bundle("D1 * D2"), 2) == a * a - b * b


def test_euler_trivial_summand_vanishes():
    assert euler_of_expression(parse_bundle("D1 + triv(1)"), 2).is_zero()


def test_euler_of_expression_sym5():
    got = euler_of_expression(parse_bundle("sym^5(dual(S2))"), 2)
    assert exponent_terms(got) == SYM5_COEFFS
    direct = euler_of_expression(parse_bundle("sym^5(D1 + D2)"), 2)
    assert direct == got  # rank-2 duals have the same Euler class


def test_euler_of_expression_rejects_unsupported():
    with pytest.raises(ValueError):
        euler_of_expression(parse_bundle("sym^2(sym^2(D1))"), 2)
    with pytest.raises(ValueError):
        euler_of_expression(parse_bundle("D1 * D1"), 2)
