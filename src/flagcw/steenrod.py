"""Mod-2 Chow rings of flag varieties with the Sq^2 operation.

Sq^2 is the additive derivation determined on Chern classes by

    Sq^2(c_j(E)) = c_1(E) c_j(E) + (j+1) c_{j+1}(E)   (mod 2),

and the twisted operation adds a multiplication term:
Sq^2_L(x) = Sq^2(x) + l.x where l is the sum of the first Chern classes
of the blocks in the twist.  Sq^2_L o Sq^2_L = 0 because Sq^2(l) = l^2.
On a monomial in the generators c_{i,j} = c_j(D_i) with n_i factors from
block i this reads

    Sq^2_L(c^a) = c^a * sum_i (n_i + L_i) c_{i,1}
                  + sum_{i, j even, j < d_i} a_{i,j} c^a c_{i,j+1} / c_{i,j}
                                                                (mod 2),

so an element costs one mod-2 normal form, ``nf2`` of its bumped
monomials.  On complete flags (line blocks) only the first sum is left:
Sq^2(x_i) = x_i^2.

The standard monomials of ``ChowRingPresentation`` are a ZZ-basis, so
their reductions are an F_2-basis of Ch^*(Fl(D)); elements are sets of
them, and the Sq^2 images are bitmasks over them.  Bockstein cohomology
ker Sq^2 / im Sq^2 computes the free part of the real cohomology, and
im Sq^2 its 2-torsion, degree-shifted by one; the closed-form torsion
Poincare polynomials for complete flags divide exactly by (1+t).
"""

from __future__ import annotations

from functools import lru_cache

from . import gf2, series
from .flagchow import ChowRingPresentation, FlagShape, chow_poincare
from .poly import GradedPolynomial
from .wdring import TwistClass


@lru_cache(maxsize=None)
def mod2_chow(parts: tuple) -> "Mod2Chow":
    return Mod2Chow(FlagShape(parts))


class Mod2Chow:
    """Ch^*(Fl(D)) = CH^*(Fl(D)) mod 2.

    Elements are frozensets of standard monomials of the integral ring
    (the monomials with odd normal-form coefficient).
    """

    def __init__(self, shape: FlagShape):
        self.shape = shape
        self.pres = ChowRingPresentation(shape)
        spans = map(shape.block_span, range(1, shape.m + 1))
        self._blocks = [(span.start, span.stop) for span in spans]

    def rank(self, d: int) -> int:
        return self.pres.rank(d)

    def top_degree(self) -> int:
        return self.shape.dim

    def nf2(self, monomials) -> frozenset:
        """Mod-2 normal form of a sum of monomials.

        ``monomials`` may be
          * an iterable of monomials, summed mod 2 (a repeated monomial
            cancels);
          * a dict from monomial to integer coefficient, each coefficient
            taken mod 2 (so -1 counts and -2 does not);
          * a GradedPolynomial, read through its ``terms`` mapping.

        The monomials with odd coefficient are summed by the mod-2 reader
        of the presentation; reduction is a ring map, so this is the
        reduction over F_2.
        """
        if isinstance(monomials, GradedPolynomial):
            monomials = monomials.terms
        if isinstance(monomials, dict):
            monomials = [mon for mon, c in monomials.items() if c % 2]
        return frozenset(self.pres.reduce_mod2(monomials))

    def _bumped(self, elt, bits):
        """The monomials of Sq^2_L(elt) before reduction, repeats kept.

        A monomial c^a with n_i factors from block i gains c_{i,1} when
        n_i + L_i is odd, and c_{i,j+1} / c_{i,j} for every even j < d_i
        with a_{i,j} odd.
        """
        out = []
        for mon in elt:
            for (start, stop), bit in zip(self._blocks, bits):
                if (sum(mon[start:stop]) + bit) & 1:
                    out.append(mon[:start] + (mon[start] + 1,) + mon[start + 1:])
                for v in range(start + 1, stop - 1, 2):
                    if mon[v] & 1:
                        out.append(mon[:v] + (mon[v] - 1, mon[v + 1] + 1) + mon[v + 2:])
        return out

    def sq2(self, elt: frozenset, twist: TwistClass = None) -> frozenset:
        """Sq^2_L of a mod-2 normal-form element, as one multiplication:
        the mod-2 normal form of all its bumped monomials."""
        bits = twist.bits if twist is not None else (0,) * self.shape.m
        return self.nf2(self._bumped(elt, bits))

    def sq2_matrix_rows(self, d: int, twist: TwistClass):
        """Images of the degree-d standard monomials under Sq^2_twist, as
        bitmasks over the degree-(d+1) standard monomials."""
        mons = self.pres.standard_monomials(d)
        if d + 1 > self.top_degree():
            return [0] * len(mons)
        index = self.pres.standard_index(d + 1)
        return [
            sum(1 << index[m] for m in self.sq2(frozenset([mon]), twist))
            for mon in mons
        ]


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
