import random

import pytest
from flag_oracle import substitute

from flagcw.poly import GradedPolynomial, PolyRing, exact_div


@pytest.fixture
def xy():
    return PolyRing(["x", "y"], 1)


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
    ring = PolyRing(["a"], 2)
    a = ring.var(0)
    lhs = (1 + 9 * a * a) * (1 + a * a)
    assert lhs == 1 + 10 * a**2 + 9 * a**4
    assert lhs.homogeneous_degrees() == [0, 4, 8]


def test_weight_mismatch_is_usage_error():
    r1 = PolyRing(["a"], 1)
    r2 = PolyRing(["a"], 2)
    with pytest.raises(ValueError):
        r1.var(0) * r2.var(0)


def test_substitute_symmetry_collapse():
    ring = PolyRing(["a", "b"], 2)
    a, b = ring.gens()
    assert substitute(a * a - b * b, {"a": a, "b": a}).is_zero()


def test_substitute_identity_rebinding():
    ring = PolyRing(["x1", "x2"], 1)
    target = PolyRing(["a"], 2)
    a = target.var(0)
    assert substitute(ring.var(0), {"x1": a * a}) == a * a


def test_substitute_scales_coefficients():
    ring = PolyRing(["x1"], 1)
    target = PolyRing(["a"], 2)
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
    ring = PolyRing(["x", "y", "z"], 1)
    x, y, z = ring.gens()
    p = ring.monomial([2]) - 3 * y * z + 4
    q = ring.from_terms({(1,): 2, (0, 1): -1, (): 5})
    target = PolyRing(["a", "b"], 2)
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
        assert all(len(m) == poly.ring.nvars for m in poly.terms), name
    assert ring.one().terms == {ring.unit: 1} and ring.unit == (0, 0, 0)
    assert exact_div(p * q, q) == p


def test_short_and_full_keys_are_one_term(xy):
    p = xy.from_terms({(1,): 2, (1, 0): 3})
    assert p.terms == {(1, 0): 5}
    assert xy.monomial((0, 1, 0, 0)).terms == {(0, 1): 1}
    assert xy.key(()) == (0, 0) and xy.key([2, 1, 0]) == (2, 1)
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
    ring = PolyRing(["x", "y"], 2)
    x, y = ring.gens()
    p = x * x - y * y + x
    assert p.homogeneous_part(4) == x * x - y * y


def test_ring_axioms_randomized():
    rng = random.Random(20240811)
    ring = PolyRing(["x", "y", "z"], (1, 2, 1))
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
        ring = PolyRing([f"v{i}" for i in range(len(weights))], weights)
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
    ring = PolyRing(["x", "y"], 1)
    for _ in range(20):
        p = random_poly(ring, rng, max_terms=4, max_exp=2)
        q = random_poly(ring, rng, max_terms=4, max_exp=2)
        prod = p * q
        for mon in list(prod.terms) + [(1, 1), (0, 3)]:
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
    ring = PolyRing(["x"], 1)
    x = ring.var(0)
    assert (1 + x) ** 4 == 1 + 4 * x + 6 * x**2 + 4 * x**3 + x**4
    assert (x + 1) ** 0 == ring.one()


def test_text_serialization_graded_lex():
    ring = PolyRing(["a", "b"], 2)
    a, b = ring.gens()
    p = 22941470025 * a**14 * b**14 - 14714257500 * a**16 * b**12
    assert str(p) == "-14714257500*a^16*b^12 + 22941470025*a^14*b^14"
    assert str(ring.zero()) == "0"
    assert str(a - b) == "a - b"
    assert str(ring.constant(-7)) == "-7"


def test_exact_div_roundtrip():
    rng = random.Random(5)
    ring = PolyRing(["x", "y", "z"], 1)
    for _ in range(25):
        f = random_poly(ring, rng, max_terms=4, max_exp=2)
        g = random_poly(ring, rng, max_terms=3, max_exp=2)
        if g.is_zero():
            continue
        # make the leading coefficient invertible over ZZ
        lead_mon, _ = g.sorted_terms()[0]
        g = g + ring.monomial(lead_mon, 1 - g.coefficient_of(lead_mon))
        assert exact_div(f * g, g) == f


def test_exact_div_rejects_non_exact(xy):
    x, y = xy.gens()
    with pytest.raises(ArithmeticError):
        exact_div(x * x + y, x)
