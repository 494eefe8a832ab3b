"""Mod-2 Chow rings of flag varieties with the Sq^2 operation.

Sq^2 is the additive derivation determined on Chern classes by

    Sq^2(c_j(E)) = c_1(E) c_j(E) + (j+1) c_{j+1}(E)   (mod 2),

which on the complete flag ring (line blocks) is the derivation with
Sq^2(x_i) = x_i^2.  The twisted operation adds a multiplication term:
Sq^2_L(x) = Sq^2(x) + l.x where l is the sum of the first Chern classes
of the blocks in the twist.  Sq^2_L o Sq^2_L = 0 because Sq^2(l) = l^2.
On a monomial both terms are one multiplication,

    Sq^2_L(x^a) = x^a * sum_i (a_i + L_i) x_i   (mod 2),

with L_i = 1 on the variables of the twisted blocks, so an element costs
one mod-2 normal form.

Bockstein cohomology ker Sq^2 / im Sq^2 computes the free part of the
real cohomology, and im Sq^2 its 2-torsion, degree-shifted by one; the
closed-form torsion Poincare polynomials for complete flags divide
exactly by (1+t).  The ranks are read from the Sq^2 images as bitmasks
over the standard monomials, with no coordinates over the image basis:
on the image, taking coordinates is an isomorphism.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from functools import lru_cache

from . import gf2, series
from .flagchow import ChowRingPresentation, FlagShape, chow_poincare
from .poly import GradedPolynomial
from .wdring import TwistClass


@lru_cache(maxsize=None)
def mod2_chow(parts: tuple) -> "Mod2Chow":
    return Mod2Chow(FlagShape(parts))


class Mod2Chow:
    """Ch^*(Fl(D)) = CH^Fl(D) mod 2, embedded in the complete flag ring.

    Elements are frozensets of Fl(N) standard monomials (the nonzero
    mod-2 normal-form coefficients).  The degreewise F_2 basis is the
    mod-2 reduction of the integral image basis, which stays a basis
    because the image is a direct summand.
    """

    def __init__(self, shape: FlagShape):
        self.shape = shape
        self.pres = ChowRingPresentation(shape)
        self.fl = self.pres.fl
        self._basis_cache = {}

    def rank(self, d: int) -> int:
        return self.pres.rank(d)

    def top_degree(self) -> int:
        return self.shape.dim

    # -- element plumbing ------------------------------------------------

    def nf2(self, monomials) -> frozenset:
        """Mod-2 normal form of a sum of Fl(N) monomials.

        ``monomials`` may be
          * an iterable of monomials, summed mod 2 (a repeated monomial
            cancels);
          * a mapping from monomial to integer coefficient, each coefficient
            taken mod 2 (so -1 counts and -2 does not);
          * a GradedPolynomial, read through its ``terms`` mapping.

        The input is reduced over the integers by the memoized Fl(N)
        reducer, and the monomials with odd coefficient are kept.  This
        equals reduction over F_2 because every rewrite coefficient is +-1.
        """
        if isinstance(monomials, GradedPolynomial):
            monomials = monomials.terms
        if not isinstance(monomials, Mapping):
            monomials = Counter(monomials)
        nf = self.fl.normal_form(self.fl.ring.from_terms(monomials))
        return frozenset(mon for mon, c in nf.terms.items() if c % 2)

    def basis(self, d: int):
        """(monomial-set elements, GF2Basis of their bitmasks) in degree d."""
        if d in self._basis_cache:
            return self._basis_cache[d]
        rows, _ = self.pres.image_basis(d)
        mons = self.fl.standard_monomials(d)
        elements = []
        space = gf2.GF2Basis()
        for r in rows:
            elt = frozenset(mons[i] for i, c in enumerate(r) if c % 2)
            if not space.insert(self._mask(elt, d)):
                raise ArithmeticError(
                    "mod-2 reduction of the image basis is dependent"
                )
            elements.append(elt)
        self._basis_cache[d] = (elements, space)
        return self._basis_cache[d]

    def _mask(self, elt: frozenset, d: int) -> int:
        index = self.fl.standard_index(d)
        m = 0
        for mon in elt:
            m |= 1 << index[mon]
        return m

    # -- the operation -----------------------------------------------------

    def sq2(self, elt: frozenset, twist: TwistClass = None) -> frozenset:
        """Sq^2_L of a mod-2 normal-form element, as one multiplication.

        Sq^2_L(x^a) = x^a * sum_i (a_i + L_i) x_i (mod 2), where L_i = 1 on
        the variables of the twisted blocks: the derivation contributes
        a_i x^a x_i and the twist l.x^a contributes L_i x^a x_i.
        """
        L = [0] * self.fl.N
        if twist is not None:
            for block, bit in enumerate(twist.bits, start=1):
                if bit:
                    for j in self.shape.block_span(block):
                        L[j] = 1
        bumped = []
        for mon in elt:
            for i, e in enumerate(mon):
                if (e + L[i]) & 1:
                    exps = list(mon)
                    exps[i] += 1
                    bumped.append(tuple(exps))
        return self.nf2(bumped)

    def sq2_matrix_rows(self, d: int, twist: TwistClass):
        """Images of the degree-d basis under Sq^2_twist, as bitmasks over
        the degree-(d+1) standard monomials.

        Each image must lie in the mod-2 image of Ch^(d+1)(Fl(D)); on that
        space the masks have the rank of the coordinate rows.
        """
        elements, _ = self.basis(d)
        if d + 1 > self.top_degree():
            return [0] * len(elements)
        _, image = self.basis(d + 1)
        rows = []
        for e in elements:
            mask = self._mask(self.sq2(e, twist), d + 1)
            if image.reduce(mask):
                raise ArithmeticError("element is not in the mod-2 image")
            rows.append(mask)
        return rows


def _sq2_ranks(shape: FlagShape, twist: TwistClass):
    """rank of Sq^2_twist: Ch^d -> Ch^(d+1) for d = 0..dim Fl(D)."""
    ring = mod2_chow(shape.d)
    return [
        gf2.rank(ring.sq2_matrix_rows(d, twist))
        for d in range(ring.top_degree() + 1)
    ]


def bockstein_cohomology_ranks(shape: FlagShape, twist: TwistClass):
    """Per-degree ranks of ker Sq^2_twist / im Sq^2_twist on Ch^*(Fl(D))."""
    ring = mod2_chow(shape.d)
    out = _sq2_ranks(shape, twist)
    return series.normalize(
        [ring.rank(d) - r - (out[d - 1] if d else 0) for d, r in enumerate(out)]
    )


def torsion_poincare_from_sq2(shape: FlagShape, twist: TwistClass):
    """P_Tor = t * sum_q rank(Sq^2_twist on Ch^q) t^q, from the Sq^2 images."""
    return series.normalize([0] + _sq2_ranks(shape, twist))


def w_poincare_closed(N: int):
    """P_0(Fl(N), t): exterior generators in degrees 3, 7, ..., last N-1
    when N is even."""
    n = N // 2
    out = [1]
    for l in range(1, n + 1):
        deg = N - 1 if (l == n and N % 2 == 0) else 4 * l - 1
        out = series.mul(out, series.add([1], series.shift([1], deg)))
    return out


def torsion_poincare_closed(N: int, twist: TwistClass):
    """Closed-form torsion Poincare polynomial of the real complete flag
    manifold: t/(1+t) * (P_2 - P_0) untwisted, t/(1+t) * P_2 twisted."""
    p2 = chow_poincare(FlagShape([1] * N))
    if twist.is_trivial():
        body = series.sub(p2, w_poincare_closed(N))
    else:
        body = p2
    return series.exact_div(series.shift(body, 1), [1, 1])
