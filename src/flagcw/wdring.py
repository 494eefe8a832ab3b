"""The rings Sigma_D and W_D presenting Witt-sheaf cohomology of Fl(D).

Generators: Pontryagin classes p_{2j}(D_i) (degree 4j, untwisted), Euler
classes e_i for even-rank blocks (degree d_i, twisted by det D_i), and
exterior generators R_l (degree 4l-1, except degree N-1 for the last one
when N is even).  Relations: prod p(D_i) = 1, e_i = 0 for odd blocks,
e_i^2 = p_top(D_i) for even blocks, and prod e_i = 0 when every block
has even rank.

The Pontryagin subalgebra A is the Chow ring of the half shape
(floor(d_i/2)) with degrees multiplied by 4, computed on its own
generators: p_{2j}(D_i) is c_j of the half block, and an A-part is a
normal-form polynomial over the standard monomials of that ring, with
coordinates read off directly.  Elements are stored as components
a * e_I * R_S  with a in A.  In the all-even case the
component for e_I carries A modulo the ideal (p_{I^c}); those quotients
are handled degreewise through a diagonal form U . M . V = diag
(intlinalg.smith_normal_form), asserting that every diagonal entry is 1,
that is, every invariant factor is 1 (the quotients are free).
The last rows U[rank:] vanish on the ideal and are the only route through
a quotient: they give the coordinates of any representative, and the
reduced form is rebuilt from them on the cached basis polynomials.

Coefficients are plain integers standing in for an arbitrary coefficient
ring; no Witt-ring arithmetic of a specific field is modelled.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from . import intlinalg
from .flagchow import ChowRingPresentation, FlagShape
from .poly import GradedPolynomial


class TwistClass:
    """Element of F_2<l_1..l_m> / (l_1 + ... + l_m), i.e. Pic(Fl(D))/2.

    Stored as the lexicographically smaller of the two coset bit vectors.
    """

    __slots__ = ("bits",)

    def __init__(self, bits):
        bits = tuple(int(b) & 1 for b in bits)
        comp = tuple(1 - b for b in bits)
        self.bits = min(bits, comp)

    @staticmethod
    def trivial(m: int) -> "TwistClass":
        return TwistClass((0,) * m)

    @staticmethod
    def from_blocks(m: int, blocks) -> "TwistClass":
        bits = [0] * m
        for i in blocks:
            if not 1 <= i <= m:
                raise ValueError(f"block index {i} out of range 1..{m}")
            bits[i - 1] ^= 1
        return TwistClass(bits)

    def __add__(self, other: "TwistClass") -> "TwistClass":
        return TwistClass(a ^ b for a, b in zip(self.bits, other.bits))

    def is_trivial(self) -> bool:
        return not any(self.bits)

    def __eq__(self, other):
        return isinstance(other, TwistClass) and self.bits == other.bits

    def __hash__(self):
        return hash(self.bits)

    def __str__(self):
        if self.is_trivial():
            return "0"
        return ",".join(str(i + 1) for i, b in enumerate(self.bits) if b)

    def __repr__(self):
        return f"TwistClass({self.bits})"


def all_twist_classes(m: int):
    seen = set()
    out = []
    for bits in itertools.product((0, 1), repeat=m):
        t = TwistClass(bits)
        if t.bits not in seen:
            seen.add(t.bits)
            out.append(t)
    out.sort(key=lambda t: (sum(t.bits), t.bits))
    return out


@lru_cache(maxsize=None)
def wd_presentation(parts: tuple) -> "WDPresentation":
    return WDPresentation(FlagShape(parts))


class WDPresentation:
    """Presentation data for Sigma_D and W_D = Sigma_D (x) Lambda(R_l)."""

    def __init__(self, shape: FlagShape):
        self.shape = shape
        d = shape.d
        self.E = tuple(i for i in range(1, shape.m + 1) if d[i - 1] % 2 == 0)
        odd = [i for i in range(1, shape.m + 1) if d[i - 1] % 2]
        if not odd:
            self.parity = "all-even"
        elif len(odd) == shape.m:
            self.parity = "all-odd"
        else:
            self.parity = "mixed"
        half = [x // 2 for x in d]
        self._half_block = {}
        kept = []
        for i, h in enumerate(half, start=1):
            if h > 0:
                kept.append(h)
                self._half_block[i] = len(kept)
        self.half_shape = FlagShape(kept)
        self.A = ChowRingPresentation(self.half_shape)
        self.q = sum(half)
        self.n = shape.N // 2
        self.r_labels = tuple(range(self.q + 1, self.n + 1))
        self._quotient_cache = {}
        self._p_top_cache = {}
        # twist -> [(I, deg e_I), ...] in _euler_subsets() order; basis
        # keys and coordinates follow this order
        self._euler_slots = {}
        for I in self._euler_subsets():
            self._euler_slots.setdefault(self.subset_twist(I), []).append(
                (I, self.subset_degree(I))
            )
        self._exterior_slots = [
            (S, sum(self.r_degree(l) for l in S)) for S in self._exterior_subsets()
        ]

    # -- generator data --------------------------------------------------

    def r_degree(self, l: int) -> int:
        if l == self.n and self.shape.N % 2 == 0:
            return self.shape.N - 1
        return 4 * l - 1

    def euler_degree(self, i: int) -> int:
        return self.shape.d[i - 1]

    def euler_twist(self, i: int) -> TwistClass:
        return TwistClass.from_blocks(self.shape.m, [i])

    def p_top_image(self, i: int) -> GradedPolynomial:
        """p_top(D_i) as a normal-form element of the Pontryagin subalgebra.

        Cached per instance: the returned polynomial is shared, and
        callers must not mutate it.
        """
        if i in self._p_top_cache:
            return self._p_top_cache[i]
        if i not in self._half_block:
            img = self.A.ring.one()
        else:
            img = self.A.normal_form(self.A.top_chern(self._half_block[i]))
        self._p_top_cache[i] = img
        return img

    def p_top_chow_degree(self, i: int) -> int:
        return self.shape.d[i - 1] // 2

    def pontryagin_image(self, i: int, j: int) -> GradedPolynomial:
        """p_{2j}(D_i), i.e. c_j of the half block, as a normal-form element."""
        if i not in self._half_block:
            raise ValueError(f"block {i} carries no Pontryagin classes")
        hb = self._half_block[i]
        if not 1 <= j <= self.half_shape.d[hb - 1]:
            raise ValueError(f"p_{2*j}(D_{i}) is not a generator")
        return self.A.normal_form(self.A.generator(hb, j))

    def subset_twist(self, I) -> TwistClass:
        return TwistClass.from_blocks(self.shape.m, list(I))

    def subset_degree(self, I) -> int:
        return sum(self.shape.d[i - 1] for i in I)

    def max_degree(self) -> int:
        top = 4 * self.half_shape.dim
        top += sum(self.shape.d[i - 1] for i in self.E)
        top += sum(self.r_degree(l) for l in self.r_labels)
        return top

    # -- quotient machinery ------------------------------------------------

    def _quotient_data(self, I: frozenset, chow_deg: int):
        """(P, basis) for A^chow_deg modulo (p_{I^c}), cached per instance.

        P = U[rank:] maps coordinates over the standard monomials of A to
        quotient coordinates; the A-part basis[j], column rank + j of U^-1,
        has coordinates e_j.  Only all-even shapes take the quotient; for
        the others P is None and the basis is the standard monomials.
        """
        key = (I, chow_deg)
        if key in self._quotient_cache:
            return self._quotient_cache[key]
        mons = self.A.standard_monomials(chow_deg)
        comp = [i for i in range(1, self.shape.m + 1) if i not in I]
        k = sum(self.p_top_chow_degree(i) for i in comp)
        if self.parity != "all-even" or chow_deg < k or not mons:
            data = (None, [self.A.ring.monomial(mon) for mon in mons])
        else:
            gen = self.A.ring.one()
            for i in comp:
                gen = gen * self.A.top_chern(self._half_block[i])
            diag, U, Uinv = intlinalg.smith_normal_form(
                self.A.multiplication_matrix(gen, chow_deg - k)
            )
            if any(s != 1 for s in diag):
                raise ArithmeticError(
                    f"quotient A/(p_I^c) not free for shape {self.shape}, "
                    f"I={sorted(I)}, degree {chow_deg}: diagonal entries {diag}"
                )
            cols = list(zip(*Uinv))[len(diag):]
            data = (U[len(diag):], [self.A.from_coords(c, chow_deg) for c in cols])
        self._quotient_cache[key] = data
        return data

    def reduce_component(self, I: frozenset, a: GradedPolynomial) -> GradedPolynomial:
        """Normal form of the A-part of the e_I component: in each Chow
        degree with a quotient, sum_j c_j * basis[j] over its coordinates c."""
        a = self.A.normal_form(a)
        out = self.A.ring.zero()
        for dchow in a.homogeneous_degrees():
            part = a.homogeneous_part(dchow)
            proj, polys = self._quotient_data(I, dchow)
            if proj is None:
                out = out + part
                continue
            coords = self.component_coords(I, part, dchow)
            out = sum((c * poly for c, poly in zip(coords, polys) if c), out)
        return out

    def component_coords(self, I: frozenset, a: GradedPolynomial, chow_deg: int):
        """Coordinates over the component's free-module basis of a
        normal-form A-part a of Chow degree chow_deg; every representative
        of a class gives the same coordinates."""
        proj, polys = self._quotient_data(I, chow_deg)
        if a.is_zero():
            return [0] * len(polys)
        v = self.A.coords(a, chow_deg)
        return v if proj is None else intlinalg.mat_vec(proj, v)

    def component_rank(self, I: frozenset, chow_deg: int) -> int:
        return len(self._quotient_data(I, chow_deg)[1])

    def component_basis_polys(self, I: frozenset, chow_deg: int):
        """A-parts of the free-module basis of the e_I component, each
        quotient-reduced; shared with the cache, so do not mutate them."""
        return self._quotient_data(I, chow_deg)[1]

    # -- elements ----------------------------------------------------------

    def element(self, components: dict) -> "WDElement":
        return WDElement(self, components)

    def zero(self) -> "WDElement":
        return WDElement(self, {})

    def one(self) -> "WDElement":
        return WDElement(
            self, {(frozenset(), frozenset()): self.A.ring.one()}
        )

    def euler(self, i: int) -> "WDElement":
        if self.shape.d[i - 1] % 2:
            return self.zero()
        return WDElement(
            self, {(frozenset([i]), frozenset()): self.A.ring.one()}
        )

    def pontryagin(self, i: int, j: int) -> "WDElement":
        return WDElement(
            self,
            {(frozenset(), frozenset()): self.pontryagin_image(i, j)},
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
        out = []
        for I, e_deg in self._euler_slots.get(twist, ()):
            for S, r_deg in self._exterior_slots:
                rem = degree - e_deg - r_deg
                if rem < 0 or rem % 4:
                    continue
                chow_deg = rem // 4
                cnt = self.component_rank(I, chow_deg)
                for idx in range(cnt):
                    out.append((I, S, chow_deg, idx))
        return out

    def basis_element(self, key) -> "WDElement":
        I, S, chow_deg, idx = key
        poly = self.component_basis_polys(I, chow_deg)[idx]
        # a component basis polynomial is its own quotient normal form
        return WDElement(self, {(I, S): poly}, reduce=False)

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
        top = self.max_degree()
        coeffs = [0] * (top + 1)
        for d in range(top + 1):
            coeffs[d] = len(self.basis(d, twist))
        from . import series

        return series.normalize(coeffs)

    def coords(self, x: "WDElement", degree: int, twist: TwistClass):
        """Coordinates over basis() of the (degree, twist) part of x, which
        may be any representative: each part read is normal-formed here."""
        out = []
        zero = self.A.ring.zero()
        for I, e_deg in self._euler_slots.get(twist, ()):
            for S, r_deg in self._exterior_slots:
                rem = degree - e_deg - r_deg
                if rem < 0 or rem % 4:
                    continue
                chow_deg = rem // 4
                a = x.components.get((I, S), zero).homogeneous_part(chow_deg)
                a = self.A.normal_form(a)
                out.extend(self.component_coords(I, a, chow_deg))
        return out


def _exterior_sign(S: frozenset, T: frozenset) -> int:
    inv = sum(1 for s in S for t in T if s > t)
    return -1 if inv & 1 else 1


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
        out: dict = {}
        for (I, S), a in self.components.items():
            for (J, T), b in other.components.items():
                if S & T:
                    continue
                sign = _exterior_sign(S, T)
                part = a * b
                for i in I & J:
                    part = part * pres.p_top_image(i)
                if sign < 0:
                    part = -part
                key = (I ^ J, S | T)
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
            and self.pres is other.pres
            and self.components == other.components
        )

    def homogeneous_degrees(self):
        degs = set()
        for (I, S), a in self.components.items():
            base = self.pres.subset_degree(I) + sum(
                self.pres.r_degree(l) for l in S
            )
            for dc in a.homogeneous_degrees():
                degs.add(base + 4 * dc)
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


def build_sigma(shape: FlagShape) -> WDPresentation:
    return wd_presentation(shape.d)


def wd_basis(shape: FlagShape, degree: int, twist: TwistClass):
    pres = build_sigma(shape)
    return [pres.basis_label(k) for k in pres.basis(degree, twist)]


def wd_poincare(shape: FlagShape, twist: TwistClass):
    return build_sigma(shape).poincare(twist)


def annihilator_generator(shape: FlagShape, i: int) -> WDElement:
    """The theorem's generator of Ann(e_i): prod_{j != i} e_j when every
    block is even, else e_i * prod_{j != i} p_top(D_j)."""
    pres = build_sigma(shape)
    if shape.d[i - 1] % 2:
        raise ValueError("annihilator generator is stated for even blocks")
    if pres.parity == "all-even":
        x = pres.one()
        for j in range(1, shape.m + 1):
            if j != i:
                x = x * pres.euler(j)
        return x
    x = pres.euler(i)
    for j in range(1, shape.m + 1):
        if j != i:
            x = x * WDElement(
                pres, {(frozenset(), frozenset()): pres.p_top_image(j)}
            )
    return x


def ann_euler(shape: FlagShape, i: int):
    """Verify Ann(e_i) = (x) degreewise by exact integer linear algebra.

    Returns (x, report); the report records each (degree, twist) slot
    checked and fails on the first mismatch between ker(.e_i) and the
    span of x * basis.
    """
    pres = build_sigma(shape)
    if shape.d[i - 1] % 2:
        raise ValueError(f"block {i} has odd rank; e_{i} = 0")
    x = annihilator_generator(shape, i)
    x_degs = x.homogeneous_degrees()
    if len(x_degs) != 1:
        raise AssertionError("annihilator generator should be homogeneous")
    deg_x = x_degs[0]
    twist_x = _element_twist(pres, x)
    e_elt = pres.euler(i)
    deg_e = pres.euler_degree(i)
    twist_e = pres.euler_twist(i)
    twists = all_twist_classes(shape.m)

    def product_coords(key, y, degree, twist):
        # coords reads any representative, so the product is not reduced
        prod = pres.basis_element(key)._unreduced_product(y)
        return pres.coords(WDElement(pres, prod, reduce=False), degree, twist)

    degrees_checked = []
    status = "pass"
    failure = None
    for d in range(pres.max_degree() + 1):
        for twist in twists:
            src = pres.basis(d, twist)
            if not src:
                continue
            tgt_twist = twist + twist_e
            tgt = pres.basis(d + deg_e, tgt_twist)
            mat_rows = len(tgt)
            cols = [product_coords(key, e_elt, d + deg_e, tgt_twist) for key in src]
            mat = [
                [cols[j][r] for j in range(len(cols))] for r in range(mat_rows)
            ]
            kern = intlinalg.kernel_basis(mat, len(src))
            ideal_rows = []
            if d >= deg_x:
                for key in pres.basis(d - deg_x, twist + twist_x):
                    ideal_rows.append(product_coords(key, x, d, twist))
            if intlinalg.hnf(kern) != intlinalg.hnf(ideal_rows):
                status = "fail"
                failure = (d, str(twist))
                break
            degrees_checked.append((d, str(twist)))
        if status == "fail":
            break
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


def _element_twist(pres: WDPresentation, x: WDElement) -> TwistClass:
    twists = {pres.subset_twist(I) for (I, S) in x.components}
    if len(twists) != 1:
        raise AssertionError("element mixes twist classes")
    return twists.pop()


def real_fl11n_reduce(n: int, p: GradedPolynomial):
    """Surviving coefficients of a top-degree class on real Fl(2,2,2n).

    Every monomial x_1^i x_2^(2n+1-i) with i outside {n, n+1} vanishes;
    the two survivors are returned as (c_{n+1,n}, c_{n,n+1}) with no sign
    identification between them.
    """
    top = 2 * n + 1
    for mon in p.terms:
        if sum(mon) != top:
            raise ValueError("input is not homogeneous of x-degree 2n+1")
        if any(mon[2:]):
            raise ValueError("input must live in the two variables x1, x2")
    return (
        p.coefficient_of((n + 1, n)),
        p.coefficient_of((n, n + 1)),
    )
