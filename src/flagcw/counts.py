"""Enumerative pipelines: lines on cubics, 4-planes on quintics, two-step flags.

The complex counts are Grassmannian integrals of products of Chern roots
(positive root conventions; dual signs cancel over even-rank bundles).
The two-step flag count builds the quintic integral once and multiplies
it by 27, computed twice from the same cubic root product: route a by the
bialternant integral over Gr(2,4), route b by the Grassmann-bundle
pushforward constant.

The real signed counts come from the Witt-sheaf presentations: for the
two-step flag count both extraction rules for the two surviving top
monomials on Fl(2,2,14;R) are computed -- the paper's displayed rule
(sum, the primary value) and the sign-rigorous reading of the point
class (difference, the diagnostic) -- and reported side by side.
"""

from __future__ import annotations

import itertools

from .charclass import euler_root_ring, euler_sym_rk2, euler_sym_sum_rk2
from .flagchow import FlagShape
from .poly import GradedPolynomial, PolyRing
from .symfunc import (
    grassmann_bundle_pushforward,
    grassmann_integrate,
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


def count_lines_cubic() -> dict:
    """27 complex lines on a cubic surface; signed real count 3."""
    ring = root_ring(2)
    product = product_of_factors(ring, hypersurface_root_factors(ring, 2, 3))
    complex_count = grassmann_integrate(2, 4, product)

    # real: coefficient of the W-cohomology point class p_top(D_1) of
    # Gr(2,4) in e(Sym^3 S*) = 3 a^2, with a^2 = e_1^2 = p_top(D_1)
    pres = build_sigma(FlagShape([2, 2]))
    aring = euler_root_ring(1)
    e_sym3 = euler_sym_rk2(3, aring.var(0))
    coeff_a2 = e_sym3.coefficient_of((2,))
    elt = coeff_a2 * (pres.euler(1) * pres.euler(1))
    point = pres.p_top_image(1)
    a_part = elt.components.get((frozenset(), frozenset()))
    real_count = _ratio(a_part, point, pres)
    return {
        "complex": complex_count,
        "real": real_count,
        "gw_form": gw_form(complex_count, real_count),
        "notes": {
            "complex": "integral over Gr(2,4) of prod (i t1 + j t2), i+j=3",
            "real": "coefficient of p_top(D_1) in e(Sym^3 S*) on W(Gr(2,4))",
        },
    }


def _ratio(a_part, point, pres) -> int:
    if a_part is None or a_part.is_zero():
        return 0
    point = pres.A.fl.normal_form(point)
    mon, c = next(iter(point.terms.items()))
    lam, rem = divmod(a_part.coefficient_of(mon), c)
    if rem or a_part != point * lam:
        raise ArithmeticError("class is not a multiple of the point class")
    return lam


def count_quintic_fourplanes() -> int:
    """4-planes in A^18 on a generic quintic: integral over Gr(4,18) of the
    product of the 56 Chern roots of Sym^5(S*)."""
    ring = root_ring(4)
    product = product_of_factors(ring, hypersurface_root_factors(ring, 4, 5))
    return grassmann_integrate(4, 18, product)


def count_flags_complex() -> dict:
    """Complex two-step flag count by two routes over one quintic integral.

    Both routes share g = c_top(Sym^3 S1*) and the quintic 4-plane count
    (the integral of c_top(Sym^5 S2*) over Gr(4,18)):
    (a) the bialternant integral of g over Gr(2,4) x the quintic integral;
    (b) the pushforward constant of g along the Gr(2, .)-fiber of
        Fl(2,2,14) -> Gr(4,18) x the quintic integral.  By linearity this
        is the integral over Gr(4,18) of the constant times c_top(Sym^5 S2*).
    The routes agree exactly iff the two computations of 27 agree.
    """
    ring = root_ring(4)
    g = product_of_factors(ring, hypersurface_root_factors(ring, 2, 3))
    lines = grassmann_integrate(2, 4, g)
    pushed = grassmann_bundle_pushforward([0, 1], [0, 1, 2, 3], g)
    if not pushed.is_homogeneous() or pushed.degree() > 0:
        raise ArithmeticError("relative pushforward is not a constant")
    fiber_count = pushed.constant_term()
    quintic = count_quintic_fourplanes()
    route_a = lines * quintic
    route_b = fiber_count * quintic

    if route_a != route_b:
        raise ArithmeticError(
            f"flag-count routes disagree: {route_a} != {route_b}"
        )
    return {
        "count": route_a,
        "route_a": route_a,
        "route_b": route_b,
        "pushforward_constant": fiber_count,
    }


def count_flags_real() -> dict:
    """Real two-step flag count on Fl(2,2,14;R), both extraction rules.

    The Euler class 3x_1 * e(Sym^5(D1* + D2*)) (with x_i = p_2(D_i),
    a^2 = x_1, b^2 = x_2) survives only in the monomials x_1^8 x_2^7 and
    x_1^7 x_2^8.  The paper's displayed arithmetic adds the two
    coefficients (primary = 24681637575); the sign-rigorous reading of
    the point class -x_1^(n+1) x_2^n = x_1^n x_2^(n+1) subtracts them
    (diagnostic = 112967182575).  Both are reported.
    """
    from .wdring import real_fl11n_reduce

    sym5 = euler_sym_sum_rk2(5)
    xring = PolyRing(("x1", "x2"), 1)
    sym5_x = even_power_substitution(sym5, xring)
    e_sym3 = 3 * xring.var(0)
    total = e_sym3 * sym5_x
    c_plus, c_minus = real_fl11n_reduce(7, total)
    primary = c_plus + c_minus
    diagnostic = c_plus - c_minus
    return {
        "primary": primary,
        "diagnostic": diagnostic,
        "survivors": (c_plus, c_minus),
        "notes": {
            "primary": "c_{8,7} + c_{7,8}: the paper's displayed identification "
            "of both surviving monomials with the same point class",
            "diagnostic": "c_{8,7} - c_{7,8}: the relative sign forced by "
            "[pt] = -x1^(n+1) x2^n = x1^n x2^(n+1)",
        },
    }


def even_power_substitution(p: GradedPolynomial, target: PolyRing) -> GradedPolynomial:
    """Substitute root^2 -> target variable (all exponents must be even)."""
    terms = {}
    for mon, c in p.terms.items():
        if any(e % 2 for e in mon):
            raise ValueError("polynomial has an odd root exponent")
        terms[tuple(e // 2 for e in mon)] = c
    return target.from_terms(terms)


def count_preset(name: str) -> dict:
    if name == "cubic-lines":
        return count_lines_cubic()
    if name == "quintic-4planes":
        return {"complex": count_quintic_fourplanes()}
    if name == "flag-3-5":
        cplx = count_flags_complex()
        real = count_flags_real()
        return {
            "complex": cplx["count"],
            "complex_routes": {"a": cplx["route_a"], "b": cplx["route_b"]},
            "pushforward_constant": cplx["pushforward_constant"],
            "real_primary": real["primary"],
            "real_diagnostic": real["diagnostic"],
            "notes": real["notes"],
        }
    raise ValueError(f"unknown preset {name!r}")
