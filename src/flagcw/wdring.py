"""The rings Sigma_D and W_D presenting Witt-sheaf cohomology of Fl(D).

Generators: Pontryagin classes p_{2j}(D_i) (degree 4j, untwisted), Euler
classes e_i for even-rank blocks (degree d_i, twisted by det D_i), and
exterior generators R_l (degree 4l-1, except degree N-1 for the last one
when N is even).  Relations: prod p(D_i) = 1, e_i = 0 for odd blocks,
e_i^2 = p_top(D_i) for even blocks, and prod e_i = 0 when every block
has even rank.

The Pontryagin subalgebra A = chow_ring(half_shape), shared, is the Chow
ring of the half shape (floor(d_i/2)) with degrees multiplied by 4, on its
own generators: p_{2j}(D_i) is c_j of the half block, and an A-part is a
normal-form polynomial over the standard monomials of that ring, with
coordinates read off directly.  Elements are stored as components
a * e_I * R_S  with a in A.  In the all-even case the
component for e_I carries A modulo the ideal (p_{I^c}); those quotients
are handled degreewise through a diagonal form U . M . V = diag
(intlinalg.smith_normal_form), asserting that every diagonal entry is 1,
that is, every invariant factor is 1 (the quotients are free).  The
Smith form returns only what a free quotient reads, as sparse rows
{column: entry}: the rows U[rank:], and the last columns of U^-1, which
give the basis polynomials term for term.  The last rows U[rank:]
vanish on the ideal and are the only route through a quotient; the
record turns them into sparse columns, standard monomial -> [(row,
entry)], with an entry for every standard monomial; a component without
a quotient stores the identity.  Each (I, Chow degree) record is built
once and kept, from p_{I^c} cached per I by ``p_top_product``; the
multiplication matrix it reads is computed fresh.  ``project`` is the
one reader of U[rank:]: it gives the coordinates of any representative
to ``coords``, ``product_columns`` and ``reduce_component``, which
rebuilds the reduced form from them on the cached basis polynomials.

One rule, ``slot(I, S, chow_deg)``, gives the (degree, twist) of a
component a * e_I * R_S.  One table, built with the presentation, maps
each (degree, twist) slot to the components that reach it, as
(I, S, chow_deg) in basis order with chow_deg at most dim of the half
shape.  Bases, coordinates, product columns and Poincare series read
it, and ``ann_euler`` visits only its slots.

Two generator components multiply by one rule, e_I R_S * e_J R_T =
+-p_{I & J} e_{I ^ J} R_{S | T}, shared by WDElement products and by
``ann_euler``.  The annihilator check never builds a product element:
its generator is the one monomial the theorem names, and
``product_columns`` maps a source slot into a target slot, each column
the projection of b * a_y * p_{I & J}; the basis polynomials of one
source component share that target, sign and factor, so these are
looked up once per component.

For an all-even shape the integral int_W reads the trivial-twist part in
the top degree dim Fl(D) = 4 dim Fl(h), h = D/2.  That part is A itself,
since the ideal (p_{I^c}) of the component I = {} is generated by
prod_i p_top(D_i) = 0, and there are no exterior generators.  So
int_W x = eps * A.integrate(A-part of x), with eps the sign of the
half shape's point class, so that prod_{i<m} p_top(D_i)^{(N - s_i)/2}
integrates to 1.  Other parities are refused rather than given a
second, untested rule.

Coefficients are plain integers standing in for an arbitrary coefficient
ring; no Witt-ring arithmetic of a specific field is modelled.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from . import intlinalg, series
from .flagchow import FlagShape, TwistClass, chow_ring
from .poly import GradedPolynomial


def half_shape(shape: FlagShape) -> FlagShape:
    """The half shape: d_i // 2 for each block with d_i > 1.  Its Chow
    ring is the Pontryagin subalgebra A of W_D."""
    return FlagShape(d // 2 for d in shape.d if d > 1)


def real_euler_characteristic(shape: FlagShape) -> int:
    """chi(Fl_R(D)) = prod_i chi(Gr_R(d_i, s_i)) along the tower of
    Grassmann bundles, with chi(Gr_R(k, n)) = C(n // 2, k // 2) when
    k(n - k) is even and 0 otherwise.  The real cycle class map makes
    sum_d (-1)^d rank W^d this number, for every twist."""
    out = 1
    for start, stop in shape.spans:
        k = stop - start
        out *= math.comb(stop // 2, k // 2) if k * start % 2 == 0 else 0
    return out


class WDPresentation:
    """Presentation data for Sigma_D and W_D = Sigma_D (x) Lambda(R_l)."""

    def __init__(self, shape: FlagShape):
        self.shape = shape
        self.E = tuple(i for i, d in enumerate(shape.d, start=1) if d % 2 == 0)
        if len(self.E) == shape.m:
            self.parity = "all-even"
        elif not self.E:
            self.parity = "all-odd"
        else:
            self.parity = "mixed"
        self.half_shape = half_shape(shape)
        # a block i of D of size > 1 is block _half_block[i] of the half shape
        kept = (i for i, d in enumerate(shape.d, start=1) if d > 1)
        self._half_block = {i: k for k, i in enumerate(kept, start=1)}
        self.A = chow_ring(self.half_shape)
        self.q = self.half_shape.N
        self.n = shape.N // 2
        self.r_labels = tuple(range(self.q + 1, self.n + 1))
        self._quotient_cache = {}
        self._p_top_cache = {}
        # (degree, twist) -> [(I, S, chow_deg), ...] in basis order: the
        # order of _euler_subsets, then of _exterior_subsets
        self.slot_table = {}
        for I in self._euler_subsets():
            for S in self._exterior_subsets():
                degree, twist = self.slot(I, S, 0)
                for chow_deg in range(self.half_shape.dim + 1):
                    key = (degree + 4 * chow_deg, twist)
                    self.slot_table.setdefault(key, []).append((I, S, chow_deg))

    # -- generator data --------------------------------------------------

    def r_degree(self, l: int) -> int:
        if l == self.n and self.shape.N % 2 == 0:
            return self.shape.N - 1
        return 4 * l - 1

    def slot(self, I, S, chow_deg: int):
        """(degree, twist) of a * e_I * R_S with a of Chow degree chow_deg:
        sum_{i in I} d_i + sum_{l in S} deg R_l + 4 chow_deg, and the
        twist of the blocks in I."""
        degree = sum(map(self.shape.size, I)) + sum(map(self.r_degree, S))
        return degree + 4 * chow_deg, TwistClass.from_blocks(self.shape.m, I)

    def p_top_product(self, K: frozenset) -> GradedPolynomial:
        """prod_{i in K} p_top(D_i) in normal form, cached per frozenset K;
        the returned polynomial is shared, so do not mutate it."""
        img = self._p_top_cache.get(K)
        if img is None:
            img = self.A.ring.one()
            for i in K:
                if self.shape.size(i) > 1:
                    img = img * self.A.top_chern(self._half_block[i])
            img = self._p_top_cache[K] = self.A.normal_form(img)
        return img

    def max_degree(self) -> int:
        return self.slot(self.E, self.r_labels, self.half_shape.dim)[0]

    # -- quotient machinery ------------------------------------------------

    def _quotient_data(self, I: frozenset, chow_deg: int):
        """(P, basis) for A^chow_deg modulo (p_{I^c}), cached per instance.

        The Smith form of multiplication by p_{I^c} into degree chow_deg
        gives P = U[rank:], which maps coordinates over the standard
        monomials of A to quotient coordinates, stored as sparse columns:
        standard monomial -> [(row, entry), ...] over the nonzero entries,
        rows ascending.  The A-part basis[j] is column rank + j of U^-1,
        with coordinates e_j; both are read off the Smith form's sparse
        rows, and nothing else of it is computed.  Raises ArithmeticError,
        naming the shape, I and the degree, when a diagonal entry is not
        1, that is, when the quotient is not free.  Only all-even shapes
        take the quotient, and not for I = {}, whose generator prod_i
        p_top(D_i) is 0 in A; in the other cases P is the identity and
        the basis is the standard monomials.
        """
        key = (I, chow_deg)
        data = self._quotient_cache.get(key)
        if data is not None:
            return data
        mons = self.A.standard_monomials(chow_deg)
        comp = frozenset(range(1, self.shape.m + 1)) - I
        k = self.slot(comp, (), 0)[0] // 2  # read on all-even shapes only
        if self.parity != "all-even" or not I or chow_deg < k or not mons:
            data = (
                {mon: [(j, 1)] for j, mon in enumerate(mons)},
                [GradedPolynomial(self.A.ring, {mon: 1}) for mon in mons],
            )
        else:
            gen = self.p_top_product(comp)
            diag, P, B = intlinalg.smith_normal_form(
                self.A.multiplication_matrix(gen, chow_deg - k)
            )
            if any(s != 1 for s in diag):
                raise ArithmeticError(
                    f"quotient A/(p_I^c) not free for shape {self.shape}, "
                    f"I={sorted(I)}, degree {chow_deg}: diagonal entries {diag}"
                )
            # every standard monomial keeps an entry, so that project can
            # tell a monomial of this degree from a term of another one
            proj = {mon: [] for mon in mons}
            for r, row in enumerate(P):
                for j, u in row.items():
                    proj[mons[j]].append((r, u))
            ring = self.A.ring
            data = (proj, [GradedPolynomial(ring, {mons[j]: c for j, c in b.items()})
                           for b in B])
        self._quotient_cache[key] = data
        return data

    def project(self, I: frozenset, chow_deg: int, sums):
        """Coordinates over the e_I component basis of each sum of (key,
        coefficient) pairs of A's ring, any representative of Chow degree
        chow_deg; ValueError when a term reduces to another degree."""
        proj, polys = self._quotient_data(I, chow_deg)
        out = []
        for reduced in self.A.reduce_sums(sums):
            v = [0] * len(polys)
            for mon, c in reduced.items():
                if c:
                    col = proj.get(mon)
                    if col is None:
                        raise ValueError(
                            f"A-part of the component I={sorted(I)} is not "
                            f"homogeneous of Chow degree {chow_deg}"
                        )
                    for r, u in col:
                        v[r] += c * u
            out.append(v)
        return out

    def reduce_component(self, I: frozenset, a: GradedPolynomial) -> GradedPolynomial:
        """Normal form of the A-part of the e_I component: in each Chow
        degree, sum_j c_j * basis[j] over its coordinates c."""
        if a.ring != self.A.ring:
            raise ValueError("polynomial not in this Chow ring")
        by_degree: dict = {}
        for mon, c in a.terms.items():
            by_degree.setdefault(self.A.ring.monomial_degree(mon), []).append((mon, c))
        out: dict = {}
        for dchow, terms in by_degree.items():
            (coords,) = self.project(I, dchow, [terms])
            for c, poly in zip(coords, self.component_basis_polys(I, dchow)):
                if c:
                    for m, u in poly.terms.items():
                        out[m] = out.get(m, 0) + c * u
        return GradedPolynomial(self.A.ring, {m: c for m, c in out.items() if c})

    def component_rank(self, I: frozenset, chow_deg: int) -> int:
        return len(self._quotient_data(I, chow_deg)[1])

    def component_basis_polys(self, I: frozenset, chow_deg: int):
        """A-parts of the free-module basis of the e_I component, each
        quotient-reduced; shared with the cache, so do not mutate them."""
        return self._quotient_data(I, chow_deg)[1]

    def check_shape(self, x: "WDElement") -> None:
        """ValueError unless x is an element of W_D for this shape."""
        if x.pres.shape != self.shape:
            raise ValueError(f"W_D element of shape {x.pres.shape}, not {self.shape}")

    # -- integration -------------------------------------------------------

    def integrate(self, x: "WDElement") -> int:
        """int_W x on an all-even shape: eps times the Chow integral over
        the half shape of the trivial-twist A-part of x.

        eps is the sign of the half shape's point class.  Raises
        ValueError for any other parity or another shape.
        """
        self.check_shape(x)
        if self.parity != "all-even":
            raise ValueError(
                f"int_W is defined here for all-even shapes only; "
                f"{self.shape} is {self.parity}"
            )
        a = x.components.get((frozenset(), frozenset()))
        if a is None:
            return 0
        (eps,) = self.A.point_class().terms.values()
        return eps * self.A.integrate(a)

    # -- elements ----------------------------------------------------------

    def zero(self) -> "WDElement":
        return WDElement(self, {})

    def one(self) -> "WDElement":
        return WDElement(
            self, {(frozenset(), frozenset()): self.A.ring.one()}
        )

    def euler(self, i: int) -> "WDElement":
        if self.shape.size(i) % 2:
            return self.zero()
        return WDElement(
            self, {(frozenset([i]), frozenset()): self.A.ring.one()}
        )

    def exterior(self, l: int) -> "WDElement":
        if l not in self.r_labels:
            raise ValueError(f"no exterior generator R_{l} for this shape")
        return WDElement(
            self, {(frozenset(), frozenset([l])): self.A.ring.one()}
        )

    # -- basis / Poincare ----------------------------------------------------

    def basis(self, degree: int, twist: TwistClass):
        """Free-module basis in the given degree and twist.

        Each element is a tuple (I, S, chow_deg, index) with I a subset
        of even blocks, S a square-free set of exterior labels, and
        index running over the component basis in that Chow degree.
        """
        return [
            (I, S, chow_deg, idx)
            for I, S, chow_deg in self.slot_table.get((degree, twist), ())
            for idx in range(self.component_rank(I, chow_deg))
        ]

    def basis_label(self, key) -> str:
        I, S, chow_deg, idx = key
        poly = self.component_basis_polys(I, chow_deg)[idx]
        parts = []
        body = str(poly)
        if body != "1":
            parts.append(f"[{body}]")
        parts.extend(f"e{i}" for i in sorted(I))
        parts.extend(f"R{l}" for l in sorted(S))
        return "*".join(parts) if parts else "1"

    def _euler_subsets(self):
        for r in range(len(self.E) + 1):
            for I in itertools.combinations(self.E, r):
                yield frozenset(I)

    def _exterior_subsets(self):
        for r in range(len(self.r_labels) + 1):
            for S in itertools.combinations(self.r_labels, r):
                yield frozenset(S)

    def poincare(self, twist: TwistClass):
        """Coefficient list of the Poincare series of the twist-graded part."""
        coeffs = [0] * (self.max_degree() + 1)
        for (d, t), slots in self.slot_table.items():
            if t == twist:
                coeffs[d] += sum(self.component_rank(I, k) for I, S, k in slots)
        return series.normalize(coeffs)

    def product_columns(self, source, y: "WDElement", target):
        """Coordinates over basis(*target) of b * y for each b in
        basis(*source), for (degree, twist) slots whose difference is that
        of the homogeneous y; a zero y gives zero columns.

        A source component e_I R_S times a component a_y * e_J * R_T of
        y lies in the target component (I ^ J, S | T), with A-part the
        normal form of b * a_y * p_{I & J}.  No element is built.
        """
        self.check_shape(y)
        places, size = {}, 0
        for I, S, chow_deg in self.slot_table.get(target, ()):
            places[(I, S)] = (size, chow_deg)
            size += self.component_rank(I, chow_deg)
        factors = {}  # (J, T, I & J) -> terms of a_y * p_{I & J}
        cols = []
        for I, S, chow_deg in self.slot_table.get(source, ()):
            polys = self.component_basis_polys(I, chow_deg)
            component_cols = [[0] * size for _ in polys]
            cols.extend(component_cols)
            for (J, T), a_y in y.components.items():
                product = _component_product(I, S, J, T)
                if product is None:
                    continue
                component, sign, K = product
                place = places.get(component)
                if place is None:
                    continue
                f = factors.get((J, T, K))
                if f is None:
                    f = factors[(J, T, K)] = (a_y * self.p_top_product(K)).terms
                if not f:
                    continue
                # y is homogeneous, so the product has the Chow degree of place
                offset, target_deg = place
                signed = [(m, sign * c) for m, c in f.items()]
                products = [
                    [(m1 + m2, c1 * c2)
                     for m1, c1 in poly.terms.items() for m2, c2 in signed]
                    for poly in polys
                ]
                # distinct components of y reach distinct target components
                for col, v in zip(component_cols,
                                  self.project(component[0], target_deg, products)):
                    col[offset:offset + len(v)] = v
        return cols

    def coords(self, x: "WDElement", degree: int, twist: TwistClass):
        """Coordinates over basis() of the (degree, twist) part of x, which
        may be any representative: each part read is normal-formed here."""
        self.check_shape(x)
        out = []
        zero = self.A.ring.zero()
        for I, S, chow_deg in self.slot_table.get((degree, twist), ()):
            a = x.components.get((I, S), zero).homogeneous_part(chow_deg)
            out.extend(self.project(I, chow_deg, [a.terms.items()])[0])
        return out


def _component_product(I, S, J, T):
    """The product rule of two components, e_I R_S * e_J R_T =
    sign * p_{I & J} * e_{I ^ J} R_{S | T}: returns ((I ^ J, S | T),
    sign, I & J), or None when S and T share a label (R_l^2 = 0).  The
    sign is that of the shuffle of S past T."""
    if S & T:
        return None
    inv = sum(1 for s in S for t in T if s > t)
    return (I ^ J, S | T), -1 if inv & 1 else 1, I & J


class WDElement:
    """Element of W_D as components {(I, S): a} meaning sum a * e_I * R_S."""

    __slots__ = ("pres", "components")

    def __init__(self, pres: WDPresentation, components: dict, reduce: bool = True):
        self.pres = pres
        if reduce:
            cleaned = {}
            for (I, S), a in components.items():
                red = pres.reduce_component(I, a)
                if not red.is_zero():
                    cleaned[(frozenset(I), frozenset(S))] = red
            self.components = cleaned
        else:
            self.components = components

    def is_zero(self) -> bool:
        return not self.components

    def __add__(self, other: "WDElement") -> "WDElement":
        self.pres.check_shape(other)
        out = dict(self.components)
        for key, a in other.components.items():
            out[key] = out[key] + a if key in out else a
        # reduced components span a subgroup, so their sums stay reduced
        out = {k: a for k, a in out.items() if not a.is_zero()}
        return WDElement(self.pres, out, reduce=False)

    def __neg__(self):
        return WDElement(
            self.pres, {k: -a for k, a in self.components.items()}, reduce=False
        )

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, other):
        if isinstance(other, int):
            # integer multiples of reduced components stay reduced
            out = {k: a * other for k, a in self.components.items()} if other else {}
            return WDElement(self.pres, out, reduce=False)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, int):
            return self.__rmul__(other)
        return WDElement(self.pres, self._unreduced_product(other))

    def _unreduced_product(self, other: "WDElement") -> dict:
        """Components of self * other before the quotient reduction."""
        pres = self.pres
        pres.check_shape(other)
        out: dict = {}
        for (I, S), a in self.components.items():
            for (J, T), b in other.components.items():
                product = _component_product(I, S, J, T)
                if product is None:
                    continue
                key, sign, K = product
                part = a * b * pres.p_top_product(K)
                if sign < 0:
                    part = -part
                if key in out:
                    out[key] = out[key] + part
                else:
                    out[key] = part
        return out

    def __pow__(self, n: int):
        result = self.pres.one()
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        return (
            isinstance(other, WDElement)
            and self.pres.shape == other.pres.shape
            and self.components == other.components
        )

    def homogeneous_degrees(self):
        degs = set()
        for (I, S), a in self.components.items():
            base = self.pres.slot(I, S, 0)[0]
            degs.update(base + 4 * dc for dc in a.homogeneous_degrees())
        return sorted(degs)

    def __repr__(self):
        if not self.components:
            return "<WD 0>"
        bits = []
        for (I, S), a in sorted(
            self.components.items(), key=lambda kv: (sorted(kv[0][0]), sorted(kv[0][1]))
        ):
            tag = "".join(f"*e{i}" for i in sorted(I)) + "".join(
                f"*R{l}" for l in sorted(S)
            )
            bits.append(f"({a}){tag}")
        return "<WD " + " + ".join(bits) + ">"


# ----------------------------------------------------------------------
# Public operations
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def build_sigma(shape: FlagShape) -> WDPresentation:
    return WDPresentation(shape)


def wd_basis(shape: FlagShape, degree: int, twist: TwistClass):
    pres = build_sigma(shape)
    return [pres.basis_label(k) for k in pres.basis(degree, twist)]


def wd_poincare(shape: FlagShape, twist: TwistClass):
    return build_sigma(shape).poincare(twist)


def check_even_block(shape: FlagShape, i: int) -> None:
    """Refuse a block number outside 1..m, or of an odd block, whose Euler
    class is zero."""
    if shape.size(i) % 2:
        raise ValueError(
            f"block {i} of shape {shape} has odd rank; its Euler class is zero"
        )


def annihilator_generator(shape: FlagShape, i: int) -> WDElement:
    """The theorem's generator of Ann(e_i), as its one monomial:
    prod_{j != i} e_j when every block is even, else
    e_i * prod_{j != i} p_top(D_j)."""
    check_even_block(shape, i)
    pres = build_sigma(shape)
    others = frozenset(range(1, shape.m + 1)) - {i}
    if pres.parity == "all-even":
        return WDElement(pres, {(others, frozenset()): pres.A.ring.one()})
    return WDElement(pres, {(frozenset([i]), frozenset()): pres.p_top_product(others)})


def ann_euler(shape: FlagShape, i: int):
    """Verify Ann(e_i) = (x) degreewise by exact integer linear algebra.

    Returns (x, report); the report records each (degree, twist) slot
    checked and fails on the first mismatch between ker(.e_i) and the
    span of x * basis.
    """
    x = annihilator_generator(shape, i)  # refuses an odd or absent block
    pres = build_sigma(shape)
    # the generator is one homogeneous component a_x * e_J
    (((J, S), a_x),) = x.components.items()
    deg_x, twist_x = pres.slot(J, S, a_x.degree())
    e_elt = pres.euler(i)
    deg_e, twist_e = pres.slot({i}, (), 0)

    degrees_checked = []
    status = "pass"
    failure = None
    # slots in degree order, twists within a degree as all_twist_classes sorts them
    slots = sorted(pres.slot_table, key=lambda s: (s[0], sum(s[1].bits), s[1].bits))
    for d, twist in slots:
        cols = pres.product_columns((d, twist), e_elt, (d + deg_e, twist + twist_e))
        if not cols:
            continue
        # kernel_basis returns the canonical HNF of the kernel
        kern = intlinalg.kernel_basis(list(zip(*cols)), len(cols))
        ideal_rows = pres.product_columns((d - deg_x, twist + twist_x), x, (d, twist))
        if kern != intlinalg.hnf(ideal_rows):
            status = "fail"
            failure = (d, str(twist))
            break
        degrees_checked.append((d, str(twist)))
    report = {
        "shape": str(shape),
        "statement": f"Ann(e_{i}) = (x), x per annihilator theorem "
        f"({pres.parity} case)",
        "degrees_checked": sorted({d for d, _ in degrees_checked}),
        "slots_checked": len(degrees_checked),
        "status": status,
    }
    if failure:
        report["failed_at"] = failure
    return x, report
