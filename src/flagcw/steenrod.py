"""Mod-2 Chow rings of flag varieties with the Sq^2 operation.

Sq^2 is the additive derivation determined on Chern classes by

    Sq^2(c_j(E)) = c_1(E) c_j(E) + (j+1) c_{j+1}(E)   (mod 2),

which on the complete flag ring (line blocks) is the derivation with
Sq^2(x_i) = x_i^2.  The twisted operation adds a multiplication term:
Sq^2_L(x) = Sq^2(x) + l.x where l is the sum of the first Chern classes
of the blocks in the twist.  Sq^2_L o Sq^2_L = 0 because Sq^2(l) = l^2.

Bockstein cohomology ker Sq^2 / im Sq^2 computes the free part of the
real cohomology, and im Sq^2 its 2-torsion, degree-shifted by one; the
closed-form torsion Poincare polynomials for complete flags divide
exactly by (1+t).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from functools import lru_cache
from operator import add

from . import gf2, series
from .flagchow import ChowRingPresentation, FlagShape, chow_poincare, full_flag_ring
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
            mask = self._mask(elt, d)
            if not space.insert(mask, 1 << len(elements)):
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

    def coords_mask(self, elt: frozenset, d: int) -> int:
        """Coordinates over the degree-d basis, as a bitmask."""
        if not elt:
            return 0
        elements, space = self.basis(d)
        comb = space.coordinates(self._mask(elt, d))
        if comb is None:
            raise ArithmeticError("element is not in the mod-2 image")
        return comb

    # -- the operation -----------------------------------------------------

    def sq2_monomial(self, mon) -> frozenset:
        """Derivation with Sq^2(x_i) = x_i^2 applied to one monomial, mod 2."""
        acc = set()
        for i, e in enumerate(mon):
            if e % 2:
                bumped = list(mon)
                bumped[i] += 1
                acc ^= {tuple(bumped)}
        return self.nf2(acc)

    def ell_class(self, twist: TwistClass) -> frozenset:
        """l = sum of c_1(D_i) over the twist, as a mod-2 normal form."""
        mons = []
        for i, bit in enumerate(twist.bits, start=1):
            if bit:
                for j in self.shape.block_span(i):
                    exps = [0] * self.fl.N
                    exps[j] = 1
                    mons.append(tuple(exps))
        return self.nf2(mons)

    def sq2(self, elt: frozenset, twist: TwistClass = None) -> frozenset:
        """Sq^2 (optionally twisted) of a mod-2 normal-form element."""
        out = set()
        for mon in elt:
            out ^= self.sq2_monomial(mon)
        if twist is not None and not twist.is_trivial():
            ell = self.ell_class(twist)
            prod = set()
            for m1 in elt:
                for m2 in ell:
                    prod ^= {tuple(map(add, m1, m2))}
            out ^= self.nf2(prod)
        return frozenset(out)

    def sq2_matrix_rows(self, d: int, twist: TwistClass):
        """Images of the degree-d basis under Sq^2_twist, as coordinate masks."""
        elements, _ = self.basis(d)
        if d + 1 > self.top_degree():
            return [0] * len(elements)
        return [self.coords_mask(self.sq2(e, twist), d + 1) for e in elements]


def sq2(shape: FlagShape, elt: frozenset, twist: TwistClass = None) -> frozenset:
    return mod2_chow(shape.d).sq2(elt, twist)


def bockstein_cohomology_ranks(shape: FlagShape, twist: TwistClass):
    """Per-degree ranks of ker Sq^2_twist / im Sq^2_twist on Ch^*(Fl(D))."""
    ring = mod2_chow(shape.d)
    top = ring.top_degree()
    rank_out = [0] * (top + 2)
    for d in range(top + 1):
        rank_out[d] = gf2.rank(ring.sq2_matrix_rows(d, twist))
    ranks = []
    for d in range(top + 1):
        dim = ring.rank(d)
        incoming = rank_out[d - 1] if d else 0
        ranks.append(dim - rank_out[d] - incoming)
    return series.normalize(ranks)


def torsion_poincare_from_sq2(shape: FlagShape, twist: TwistClass):
    """P_Tor = t * sum_q rank(Sq^2_twist on Ch^q) t^q, from raw matrices."""
    ring = mod2_chow(shape.d)
    top = ring.top_degree()
    coeffs = [0] * (top + 2)
    for d in range(top + 1):
        coeffs[d + 1] = gf2.rank(ring.sq2_matrix_rows(d, twist))
    return series.normalize(coeffs)


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
