"""Enumerative pipelines: lines on cubics, 4-planes on quintics, two-step flags.

``count_preset`` returns a preset's (result, checks): the checks are
(statement, holds) pairs, built by the function that computes the
result, so each answer and its second routes have one owner.  A
disagreement between two routes is a failed check, not an exception.

The complex counts are Grassmannian integrals of products of Chern roots
(positive root conventions; dual signs cancel over even-rank bundles).
The lines on the cubic and the 4-planes on the quintic go through
``grassmann_integrate_product``, which multiplies only half of the root
factors, one of each pair swapped by reversing the roots (plus the
reversal-fixed ones), keeps only the monomials the bialternant can read,
and pairs that half product with its own reversal.  The
two-step flag count computes the quintic integral once and multiplies it
by 27, computed twice from one cubic root product g that is formed in
full, because the pushforward needs all of g: route a by the bialternant
integral over Gr(2,4), route b by the Grassmann-bundle pushforward
constant.

The real signed counts are one integral over the real flag variety:
int_W e(E), the Euler class of the bundle in Witt-sheaf cohomology,
integrated by ``WDPresentation.integrate``.  e(E) is a polynomial in
the Euler roots of the blocks, and substituting the Euler classes
e_i of W_D for the roots gives the Euler class itself.  This is
``real`` for the lines on the cubic, 3 e_1^2 over Gr(2,4) = Fl(2,2), and
``real_diagnostic`` for the two-step flags, 3 e_1^2 e(Sym^5(D1* + D2*))
over Fl(2,2,14).  ``real_primary`` is instead the paper's displayed
reading: of the monomials p_top(D_1)^i p_top(D_2)^(15-i) only i = 8 and
i = 7 survive, and the paper adds their coefficients c_{8,7} + c_{7,8},
identifying both with the point class.  The integral reads them with
opposite signs; ``count_flags`` checks real_diagnostic = c_{8,7} - c_{7,8}.
"""

from __future__ import annotations

import itertools

from .charclass import euler_of_expression, parse_bundle
from .flagchow import FlagShape
from .poly import GradedPolynomial, PolyRing
from .symfunc import (
    grassmann_bundle_pushforward,
    grassmann_integrate,
    grassmann_integrate_product,
    product_of_factors,
    root_ring,
)
from .wdring import build_sigma

QUINTIC_FOURPLANES = 64127725294951805931404297113125
FLAGS_COMPLEX = 1731448582963698760147916022054375
FLAGS_REAL_PRIMARY = 24681637575
FLAGS_REAL_DIAGNOSTIC = 112967182575


def gw_form(complex_count: int, real_count: int) -> dict:
    """a<1> + b<-1> with rank a + b = complex and signature a - b = real."""
    if abs(real_count) > complex_count:
        raise ValueError("|real| must not exceed the complex count")
    if (complex_count + real_count) % 2:
        raise ValueError("parity violation: complex != real mod 2")
    return {
        "ones": (complex_count + real_count) // 2,
        "minus_ones": (complex_count - real_count) // 2,
    }


def hypersurface_root_factors(ring: PolyRing, k: int, degree: int):
    """Chern-root factors of Sym^degree(S*) on Gr(k, .): one linear form
    i_1 t_1 + ... + i_k t_k per exponent tuple of total degree ``degree``."""
    factors = []
    for exps in itertools.product(range(degree + 1), repeat=k):
        if sum(exps) != degree:
            continue
        linear = (c * ring.var(pos) for pos, c in enumerate(exps))
        factors.append(sum(linear, ring.zero()))
    return factors


def count_lines_cubic() -> tuple:
    """27 complex lines on a cubic surface; signed real count 3."""
    ring = root_ring(2, 4)  # the 4 Chern roots of Sym^3 S* on Gr(2, 4)
    complex_count = grassmann_integrate_product(
        2, 4, hypersurface_root_factors(ring, 2, 3)
    )

    pres = build_sigma(FlagShape([2, 2]))
    e = euler_of_expression(parse_bundle("sym^3(dual(S1))"), 1)
    real_count = pres.integrate(euler_root_image(pres, e))
    form = gw_form(complex_count, real_count)
    result = {
        "complex": complex_count,
        "real": real_count,
        "gw_form": form,
        "notes": {
            "complex": "integral over Gr(2,4) of prod (i t1 + j t2), i+j=3",
            "real": "coefficient of p_top(D_1) in e(Sym^3 S*) on W(Gr(2,4))",
        },
    }
    return result, [
        ("complex count = 27", complex_count == 27),
        ("real count = 3", real_count == 3),
        ("GW form has rank 27 and signature 3",
         (form["ones"] + form["minus_ones"], form["ones"] - form["minus_ones"])
         == (27, 3)),
    ]


def euler_root_image(pres, p: GradedPolynomial):
    """p(e_1, e_2, ...) in W_D, for p a polynomial in the Euler roots of
    the blocks 1, 2, ... of pres.shape."""
    powers = [[pres.one()] for _ in p.ring.names]
    out = pres.zero()
    for mon, c in p.terms.items():
        x = pres.one()
        for i, e in enumerate(p.ring.exponents(mon)):
            while len(powers[i]) <= e:
                powers[i].append(powers[i][-1] * pres.euler(i + 1))
            x = x * powers[i][e]
        out = out + c * x
    return out


def count_quintic_fourplanes() -> int:
    """4-planes in A^18 on a generic quintic: integral over Gr(4,18) of the
    product of the 56 Chern roots of Sym^5(S*)."""
    ring = root_ring(4, 56)
    return grassmann_integrate_product(4, 18, hypersurface_root_factors(ring, 4, 5))


def flag_euler_class() -> GradedPolynomial:
    """e(E) = 3a^2 e(Sym^5(D1* + D2*)) on Fl(2,2,14), in the Euler roots
    a, b of D1, D2: the Euler class of Sym^3 S1* + Sym^5 S2*."""
    return euler_of_expression(parse_bundle("sym^3(dual(S1)) + sym^5(dual(S2))"), 2)


def flag_survivors(e: GradedPolynomial) -> tuple:
    """(c_{8,7}, c_{7,8}): the coefficients in e of a^16 b^14 and a^14 b^16,
    that is of p_top(D_1)^8 p_top(D_2)^7 and p_top(D_1)^7 p_top(D_2)^8."""
    return e.coefficient_of((16, 14)), e.coefficient_of((14, 16))


def count_flags() -> tuple:
    """Two-step flags on Fl(2,2,14): the complex count by two routes over
    one quintic integral, the real signed count by two readings of e(E).

    Both complex routes share g = c_top(Sym^3 S1*) and the quintic 4-plane
    count (the integral of c_top(Sym^5 S2*) over Gr(4,18)):
    (a) the bialternant integral of g over Gr(2,4) x the quintic integral;
    (b) the pushforward constant of g along the Gr(2, .)-fiber of
        Fl(2,2,14) -> Gr(4,18) x the quintic integral.  By linearity this
        is the integral over Gr(4,18) of the constant times c_top(Sym^5 S2*).
    The routes agree exactly iff the two computations of 27 agree.

    The real diagnostic value is int_W e(E), which reads every monomial of
    e(E) through the normal form on the half shape (1,1,7); all but the
    two survivors integrate to 0 there.  The primary value is the paper's
    displayed reading c_{8,7} + c_{7,8} (24681637575).  The integral gives
    c_{8,7} - c_{7,8} (112967182575).  Both are reported.
    """
    ring = root_ring(4, 6)  # g times the pushforward's two Vandermondes
    g = product_of_factors(ring, hypersurface_root_factors(ring, 2, 3))
    lines = grassmann_integrate(2, 4, g)
    pushed = grassmann_bundle_pushforward([0, 1], [0, 1, 2, 3], g)
    if not pushed.is_homogeneous() or pushed.degree() > 0:
        raise ArithmeticError("relative pushforward is not a constant")
    fiber_count = pushed.constant_term()
    quintic = count_quintic_fourplanes()
    route_a, route_b = lines * quintic, fiber_count * quintic

    e = flag_euler_class()
    c_plus, c_minus = flag_survivors(e)
    pres = build_sigma(FlagShape([2, 2, 14]))
    result = {
        "complex": route_a,
        "complex_routes": {"a": route_a, "b": route_b},
        "pushforward_constant": fiber_count,
        "real_primary": c_plus + c_minus,
        "real_diagnostic": pres.integrate(euler_root_image(pres, e)),
        "notes": {
            "primary": "c_{8,7} + c_{7,8}: the paper's displayed identification "
            "of both surviving monomials with the same point class",
            "diagnostic": "c_{8,7} - c_{7,8}: the relative sign forced by "
            "[pt] = -x1^(n+1) x2^n = x1^n x2^(n+1)",
        },
    }
    checks = [
        ("complex routes a and b agree", route_a == route_b),
        ("complex count = 27 x QUINTIC_FOURPLANES = FLAGS_COMPLEX",
         route_a == 27 * QUINTIC_FOURPLANES == FLAGS_COMPLEX),
    ]
    for key, want in (("real_primary", FLAGS_REAL_PRIMARY),
                      ("real_diagnostic", FLAGS_REAL_DIAGNOSTIC)):
        real = result[key]
        checks.append((f"{key}: |real| <= complex and real = complex mod 2",
                       abs(real) <= route_a and (route_a - real) % 2 == 0))
        checks.append((f"{key} = FLAGS_{key.upper()}", real == want))
    # the integral reads every monomial of e(E), the difference only the
    # two the paper keeps
    checks.append(("real_diagnostic = int_W e(E) = c_{8,7} - c_{7,8}",
                   result["real_diagnostic"] == c_plus - c_minus))
    return result, checks


def count_preset(name: str) -> tuple:
    """(result, checks) of a preset; checks are (statement, holds) pairs."""
    if name == "cubic-lines":
        return count_lines_cubic()
    if name == "quintic-4planes":
        count = count_quintic_fourplanes()
        return {"complex": count}, [("complex count = QUINTIC_FOURPLANES",
                                     count == QUINTIC_FOURPLANES)]
    if name == "flag-3-5":
        return count_flags()
    raise ValueError(f"unknown preset {name!r}")
