import random

import pytest
from flag_oracle import substitute

from flagcw.charclass import euler_of_expression, euler_root_ring, parse_bundle
from flagcw.flagchow import FlagShape, chow_ring
from flagcw.poly import ExponentOverflow, GradedPolynomial, PolyRing, exact_div
from flagcw.symfunc import root_ring


@pytest.fixture
def xy():
    return PolyRing(["x", "y"], 1, degree=12)


def random_poly(ring, rng, max_terms=5, max_exp=3, max_coeff=9):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mon = tuple(rng.randint(0, max_exp) for _ in range(ring.nvars))
        terms[mon] = rng.randint(-max_coeff, max_coeff)
    return ring.from_terms(terms)


def test_multiply_difference_of_squares(xy):
    x, y = xy.gens()
    assert (x + y) * (x - y) == x * x - y * y


def test_multiply_by_zero(xy):
    x, _ = xy.gens()
    p = 3 * x * x + 7
    assert (p * xy.zero()).is_zero()


def test_multiply_weight_two_roots():
    ring = PolyRing(["a"], 2, degree=8)
    a = ring.var(0)
    lhs = (1 + 9 * a * a) * (1 + a * a)
    assert lhs == 1 + 10 * a**2 + 9 * a**4
    assert lhs.homogeneous_degrees() == [0, 4, 8]


def test_weight_mismatch_is_usage_error():
    r1 = PolyRing(["a"], 1, degree=2)
    r2 = PolyRing(["a"], 2, degree=2)
    with pytest.raises(ValueError):
        r1.var(0) * r2.var(0)


def test_substitute_symmetry_collapse():
    ring = PolyRing(["a", "b"], 2, degree=4)
    a, b = ring.gens()
    assert substitute(a * a - b * b, {"a": a, "b": a}).is_zero()


def test_substitute_identity_rebinding():
    ring = PolyRing(["x1", "x2"], 1, degree=2)
    target = PolyRing(["a"], 2, degree=4)
    a = target.var(0)
    assert substitute(ring.var(0), {"x1": a * a}) == a * a


def test_substitute_scales_coefficients():
    ring = PolyRing(["x1"], 1, degree=1)
    target = PolyRing(["a"], 2, degree=2)
    a = target.var(0)
    # e(Sym^3) = 3x_1 after substituting the squared Euler root
    assert substitute(3 * ring.var(0), {"x1": a * a}) == 3 * a**2


def test_substitute_unbound_variable_raises(xy):
    x, y = xy.gens()
    with pytest.raises(ValueError):
        substitute(x + y, {"x": x})


def test_coefficient_of_zero_poly(xy):
    assert xy.zero().coefficient_of((3, 1)) == 0


def test_coefficient_trailing_zeros_canonical(xy):
    x, _ = xy.gens()
    p = 5 * x
    assert p.coefficient_of((1,)) == 5
    assert p.coefficient_of((1, 0)) == 5


def test_every_key_has_one_exponent_per_variable():
    ring = PolyRing(["x", "y", "z"], 1, degree=12)
    x, y, z = ring.gens()
    p = ring.monomial([2]) - 3 * y * z + 4
    q = ring.from_terms({(1,): 2, (0, 1): -1, (): 5})
    target = PolyRing(["a", "b"], 2, degree=24)
    a, b = target.gens()
    polys = {
        "var": x,
        "monomial": ring.monomial([1, 2]),
        "from_terms": q,
        "constant": ring.constant(7),
        "+": p + q,
        "*": p * q,
        "**": (p + x) ** 3,
        "substitute": substitute(p, {"x": a, "y": b, "z": a * b}),
        "exact_div": exact_div(p * q, q),
    }
    for name, poly in polys.items():
        assert not poly.is_zero(), name
        for m in poly.terms:
            exps = poly.ring.exponents(m)
            assert len(exps) == poly.ring.nvars and poly.ring.key(exps) == m, name
    assert ring.one().terms == {ring.unit: 1} and ring.unit == 0
    assert exact_div(p * q, q) == p


def test_short_and_full_keys_are_one_term(xy):
    p = xy.from_terms({(1,): 2, (1, 0): 3})
    assert p.terms == {xy.key((1, 0)): 5}
    assert xy.monomial((0, 1, 0, 0)).terms == {xy.key((0, 1)): 1}
    assert xy.key(()) == 0 and xy.exponents(xy.key([2, 1, 0])) == (2, 1)
    with pytest.raises(ValueError):
        xy.monomial((0, 0, 1))
    with pytest.raises(ValueError):
        xy.from_terms({(1, 0, 2): 1})
    with pytest.raises(ValueError):
        xy.zero().coefficient_of((0, 0, 0, 1))


def test_homogeneous_part(xy):
    x, _ = xy.gens()
    p = 1 + x + x * x
    assert p.homogeneous_part(1) == x
    total = xy.zero()
    for d in p.homogeneous_degrees():
        total = total + p.homogeneous_part(d)
    assert total == p


def test_homogeneous_part_weighted():
    ring = PolyRing(["x", "y"], 2, degree=4)
    x, y = ring.gens()
    p = x * x - y * y + x
    assert p.homogeneous_part(4) == x * x - y * y


def test_ring_axioms_randomized():
    rng = random.Random(20240811)
    ring = PolyRing(["x", "y", "z"], (1, 2, 1), degree=50)
    for _ in range(60):
        p = random_poly(ring, rng)
        q = random_poly(ring, rng)
        r = random_poly(ring, rng)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p
        assert p + q == q + p
        assert p - p == ring.zero()


def test_degree_additive_on_homogeneous():
    rng = random.Random(7)
    for weights in [(1, 1), (2, 2), (1, 3), (4, 4, 1)]:
        ring = PolyRing([f"v{i}" for i in range(len(weights))], weights, degree=40)
        for _ in range(20):
            p = random_poly(ring, rng)
            q = random_poly(ring, rng)
            if p.is_zero() or q.is_zero():
                continue
            dp = rng.choice(p.homogeneous_degrees())
            dq = rng.choice(q.homogeneous_degrees())
            ph, qh = p.homogeneous_part(dp), q.homogeneous_part(dq)
            prod = ph * qh
            if not prod.is_zero():
                assert prod.is_homogeneous()
                assert prod.degree() == dp + dq


def test_multiplication_is_convolution():
    # brute-force convolution oracle on small polynomials
    rng = random.Random(99)
    ring = PolyRing(["x", "y"], 1, degree=8)
    for _ in range(20):
        p = random_poly(ring, rng, max_terms=4, max_exp=2)
        q = random_poly(ring, rng, max_terms=4, max_exp=2)
        prod = p * q
        for mon in [ring.exponents(m) for m in prod.terms] + [(1, 1), (0, 3)]:
            mx = mon[0] if len(mon) > 0 else 0
            my = mon[1] if len(mon) > 1 else 0
            conv = 0
            for i in range(mx + 1):
                for j in range(my + 1):
                    conv += p.coefficient_of((i, j)) * q.coefficient_of(
                        (mx - i, my - j)
                    )
            assert prod.coefficient_of(mon) == conv


def test_power():
    ring = PolyRing(["x"], 1, degree=4)
    x = ring.var(0)
    assert (1 + x) ** 4 == 1 + 4 * x + 6 * x**2 + 4 * x**3 + x**4
    assert (x + 1) ** 0 == ring.one()


def test_text_serialization_graded_lex():
    ring = PolyRing(["a", "b"], 2, degree=60)
    a, b = ring.gens()
    p = 22941470025 * a**14 * b**14 - 14714257500 * a**16 * b**12
    assert str(p) == "-14714257500*a^16*b^12 + 22941470025*a^14*b^14"
    assert str(ring.zero()) == "0"
    assert str(a - b) == "a - b"
    assert str(ring.constant(-7)) == "-7"


def test_exact_div_roundtrip():
    rng = random.Random(5)
    ring = PolyRing(["x", "y", "z"], 1, degree=12)
    for _ in range(25):
        f = random_poly(ring, rng, max_terms=4, max_exp=2)
        g = random_poly(ring, rng, max_terms=3, max_exp=2)
        if g.is_zero():
            continue
        # make the leading coefficient invertible over ZZ
        lead_mon, lead_coeff = g.sorted_terms()[0]
        g = g + GradedPolynomial(ring, {lead_mon: 1 - lead_coeff})
        assert exact_div(f * g, g) == f


def test_exact_div_rejects_non_exact(xy):
    x, y = xy.gens()
    with pytest.raises(ArithmeticError):
        exact_div(x * x + y, x)


# -- the fields of a key ------------------------------------------------------


def test_the_field_width_follows_the_degree_bound():
    # the least W of 8, 16, 32 and 64 with degree < 2^(W-1); a field holds
    # 0..2^(W-1) - 1, and anything else is refused, never wrapped
    assert issubclass(ExponentOverflow, ValueError)
    for degree, width in [(0, 8), (127, 8), (128, 16), (2**15 - 1, 16),
                          (2**15, 32), (2**31, 64), (2**63 - 1, 64)]:
        ring = PolyRing(["x", "y"], 1, degree=degree)
        room = (1 << width - 1) - 1
        assert ring.width == width, degree
        assert ring.exponents(ring.key((room, 1))) == (room, 1)
        for exps in [(room + 1, 0), (0, room + 1), (-1, 0), (0, 2 ** width)]:
            with pytest.raises(ExponentOverflow):
                ring.key(exps)
    with pytest.raises(ExponentOverflow):
        PolyRing(["x"], 1, degree=2**63)


def test_a_key_or_product_leaving_its_field_is_refused_on_every_ring():
    # a Chow ring (dim 3), a root ring and an Euler-root ring, each with
    # byte fields: x^127 fits; x^128 is refused packed, multiplied or
    # raised to, and no product carries into the next variable's field
    rings = [chow_ring(FlagShape([1, 1, 1])).ring, root_ring(2, 4),
             euler_root_ring(2, 8)]
    for ring in rings:
        assert ring.width == 8
        x, y = ring.var(0), ring.var(1)
        half = ring.monomial([64])
        assert (half * ring.monomial([63])).terms == {ring.key([127]): 1}
        assert x ** 127 * y ** 127 == ring.monomial([127, 127])
        for refused in (lambda: ring.key([128]), lambda: ring.monomial([0, 128]),
                        lambda: half * half, lambda: x ** 128,
                        lambda: (x + y) ** 127 * (1 + x),
                        lambda: exact_div(x ** 127 * (x - y), x - y) * x):
            with pytest.raises(ExponentOverflow):
                refused()


def test_the_euler_ring_width_follows_the_bundle_rank():
    # e(Sym^M) = M!! a^((M+1)/2) of rank M + 1: rank 126 keeps byte
    # fields, ranks 128 and 256 take 16-bit ones, and a^128 needs them
    for M, width in [(125, 8), (127, 16), (255, 16)]:
        e = euler_of_expression(parse_bundle(f"sym^{M}(D1)"), 1)
        assert e.ring.width == width, M
        assert [e.ring.exponents(m) for m in e.terms] == [((M + 1) // 2,)]
    # a class that is 0 stops at its first odd-rank atom, so a huge one
    # needs no wide field
    zero = euler_of_expression(parse_bundle("sym^10000000000000000000(D1)"), 1)
    assert zero.is_zero() and zero.ring.width == 8
