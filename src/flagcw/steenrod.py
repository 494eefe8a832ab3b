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

so an element costs one mod-2 normal form of its bumped monomials.  On
complete flags (line blocks) only the first sum is left:
Sq^2(x_i) = x_i^2.

``Mod2Chow`` is a view of the shared ``chow_ring(shape)``, not a second
ring.  The standard monomials of that ring are a ZZ-basis, so
their reductions are an F_2-basis of Ch^*(Fl(D)).  An element of Ch^d is
a bitmask over the degree-d standard monomials, and ``nf2`` reduces a sum
of monomial keys to one through ``reduce_mod2_mask``.  A row of the Sq^2
matrix is ``sq2`` on one standard monomial: one ``nf2`` call on its
bumped monomials.  Bockstein cohomology
ker Sq^2 / im Sq^2 computes the free part of the real cohomology, and
im Sq^2 its 2-torsion, degree-shifted by one; the closed-form torsion
Poincare polynomials for complete flags divide exactly by (1+t).
"""

from __future__ import annotations

from functools import lru_cache

from . import gf2, series
from .flagchow import FlagShape, TwistClass, chow_poincare, chow_ring


class Mod2Chow:
    """Ch^*(Fl(D)) = CH^*(Fl(D)) mod 2, read through the Chow ring pres.

    An element of Ch^d is a bitmask over ``standard_index(d)``: bit i is
    set when the i-th standard monomial of degree d has odd coefficient.
    Every Sq^2 row is one ``sq2`` call, which is one ``nf2`` call.
    """

    def __init__(self, pres):
        self.pres = pres
        self.shape = pres.shape

    def nf2(self, monomials, d: int) -> int:
        """Mod-2 normal form of a sum of degree-d monomial keys, as a
        bitmask over standard_index(d); a repeated key cancels.
        Reduction is a ring map, so this is the reduction over F_2."""
        return self.pres.reduce_mod2_mask(monomials, d)

    def _bumped(self, monomials, bits):
        """The keys of Sq^2_L(sum of monomial keys) before reduction,
        repeats kept.

        A monomial c^a with n_i factors from block i gains c_{i,1} when
        n_i + L_i is odd, and c_{i,j+1} / c_{i,j} for every even j < d_i
        with a_{i,j} odd, each a sum of variable keys.
        """
        out, spans = [], self.shape.spans
        exponents, units = self.pres.ring.exponents, self.pres.ring.var_keys
        for key in monomials:
            mon = exponents(key)
            for (start, stop), bit in zip(spans, bits):
                if (sum(mon[start:stop]) + bit) & 1:
                    out.append(key + units[start])
                for v in range(start + 1, stop - 1, 2):
                    if mon[v] & 1:
                        out.append(key - units[v] + units[v + 1])
        return out

    def sq2(self, monomials, d: int, twist: TwistClass) -> int:
        """Sq^2_L of a sum of degree-d monomial keys, as one multiplication:
        the mod-2 normal form of all its bumped monomials, a bitmask over
        standard_index(d + 1) (0 above the top degree)."""
        return self.nf2(self._bumped(monomials, twist.bits), d + 1)

    def sq2_matrix_rows(self, d: int, twist: TwistClass):
        """Images of the degree-d standard monomials under Sq^2_twist, as
        bitmasks over the degree-(d+1) standard monomials, one ``sq2``
        call each; 0 in the top degree."""
        return [self.sq2([mon], d, twist)
                for mon in self.pres.standard_monomials(d)]


@lru_cache(maxsize=None)
def _sq2_ranks(shape: FlagShape, twist: TwistClass) -> tuple:
    """rank of Sq^2_twist: Ch^d -> Ch^(d+1) for d = 0..dim Fl(D), computed
    once per (shape, twist) for both the torsion and the Bockstein ranks."""
    ring = Mod2Chow(chow_ring(shape))
    return tuple(
        gf2.rank(ring.sq2_matrix_rows(d, twist))
        for d in range(shape.dim + 1)
    )


def bockstein_cohomology_ranks(shape: FlagShape, twist: TwistClass):
    """Per-degree ranks of ker Sq^2_twist / im Sq^2_twist on Ch^*(Fl(D))."""
    pres = chow_ring(shape)
    out = _sq2_ranks(shape, twist)
    return series.normalize(
        [pres.rank(d) - r - (out[d - 1] if d else 0) for d, r in enumerate(out)]
    )


def torsion_poincare_from_sq2(shape: FlagShape, twist: TwistClass):
    """P_Tor = t * sum_q rank(Sq^2_twist on Ch^q) t^q, from the Sq^2 images."""
    return series.normalize([0, *_sq2_ranks(shape, twist)])


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
