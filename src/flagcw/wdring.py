"""The rings Sigma_D and W_D presenting Witt-sheaf cohomology of Fl(D).

Generators: Pontryagin classes p_{2j}(D_i) (degree 4j, untwisted), Euler
classes e_i for even-rank blocks (degree d_i, twisted by det D_i), and
exterior generators R_l (degree 4l-1, except degree N-1 for the last one
when N is even).  Relations: prod p(D_i) = 1, e_i = 0 for odd blocks,
e_i^2 = p_top(D_i) for even blocks, and prod e_i = 0 when every block
has even rank.

The Pontryagin subalgebra A is the Chow ring of the half shape
(floor(d_i/2)) with degrees multiplied by 4; elements are stored as
components  a * e_I * R_S  with a in A.  In the all-even case the
component for e_I carries A modulo the ideal (p_{I^c}); those quotients
are handled degreewise through Smith normal form, asserting along the
way that every invariant factor is 1 (the quotients are free).

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
        """p_top(D_i) as a normal-form element of the Pontryagin subalgebra."""
        if i not in self._half_block:
            return self.A.fl.ring.one()
        hb = self._half_block[i]
        return self.A.pullback_nf(self.A.top_chern(hb))

    def p_top_chow_degree(self, i: int) -> int:
        return self.shape.d[i - 1] // 2

    def pontryagin_image(self, i: int, j: int) -> GradedPolynomial:
        """p_{2j}(D_i), i.e. c_j of the half block, as a normal-form element."""
        if i not in self._half_block:
            raise ValueError(f"block {i} carries no Pontryagin classes")
        hb = self._half_block[i]
        if not 1 <= j <= self.half_shape.d[hb - 1]:
            raise ValueError(f"p_{2*j}(D_{i}) is not a generator")
        return self.A.pullback_nf(self.A.generator(hb, j))

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
        """(rank_of_image, U, Uinv, dim) for A^chow_deg modulo (p_{I^c}).

        Only all-even shapes take this quotient; for the others the image
        has rank 0 and every component is A itself.
        """
        key = (I, chow_deg)
        if key in self._quotient_cache:
            return self._quotient_cache[key]
        dim = self.A.rank(chow_deg)
        comp = [i for i in range(1, self.shape.m + 1) if i not in I]
        k = sum(self.p_top_chow_degree(i) for i in comp)
        if self.parity != "all-even" or chow_deg < k or dim == 0:
            data = (0, None, None, dim)
            self._quotient_cache[key] = data
            return data
        gen = self.A.fl.ring.one()
        for i in comp:
            gen = gen * self.p_top_image(i)
        gen = self.A.fl.normal_form(gen)
        mat = self.A.multiplication_matrix(gen, chow_deg - k, k)
        diag, U, Uinv = intlinalg.smith_normal_form(mat)
        if any(s != 1 for s in diag):
            raise ArithmeticError(
                f"quotient A/(p_I^c) not free for shape {self.shape}, "
                f"I={sorted(I)}, degree {chow_deg}: invariant factors {diag}"
            )
        data = (len(diag), U, Uinv, dim)
        self._quotient_cache[key] = data
        return data

    def reduce_component(self, I: frozenset, a: GradedPolynomial) -> GradedPolynomial:
        """Normal form of the A-part of the e_I component."""
        a = self.A.fl.normal_form(a)
        if a.is_zero():
            return a
        out = self.A.fl.ring.zero()
        for dchow in a.homogeneous_degrees():
            part = a.homogeneous_part(dchow)
            rank, U, Uinv, dim = self._quotient_data(I, dchow)
            if rank == 0:
                out = out + part
                continue
            if rank == dim:
                continue
            v = self.A.image_coords(part, dchow)
            w = intlinalg.mat_vec(U, v)
            w[:rank] = [0] * rank
            v2 = intlinalg.mat_vec(Uinv, w)
            rows, _ = self.A.image_basis(dchow)
            red = self.A.fl.ring.zero()
            for coef, row in zip(v2, rows):
                if coef:
                    red = red + coef * self.A.fl.from_coords(row, dchow)
            out = out + red
        return out

    def component_coords(self, I: frozenset, a: GradedPolynomial, chow_deg: int):
        """Coordinates of a reduced component over its free-module basis.

        A-parts are polynomials in the ambient Fl(q) variables, so their
        polynomial degree is the Chow degree (the W-degree is 4x that).
        """
        part = a.homogeneous_part(chow_deg) if not a.is_zero() else a
        rank, U, Uinv, dim = self._quotient_data(I, chow_deg)
        if dim == 0:
            return []
        if part.is_zero():
            return [0] * (dim - rank)
        v = self.A.image_coords(part, chow_deg)
        if rank == 0:
            return v
        w = intlinalg.mat_vec(U, v)
        if any(w[:rank]):
            raise AssertionError("component was not quotient-reduced")
        return w[rank:]

    def component_rank(self, I: frozenset, chow_deg: int) -> int:
        rank, _, _, dim = self._quotient_data(I, chow_deg)
        return dim - rank

    def component_basis_polys(self, I: frozenset, chow_deg: int):
        """A-parts of the free-module basis of the e_I component."""
        rows, _ = self.A.image_basis(chow_deg)
        rank, U, Uinv, dim = self._quotient_data(I, chow_deg)
        if rank == 0:
            return [self.A.fl.from_coords(r, chow_deg) for r in rows]
        out = []
        for idx in range(rank, dim):
            col = [Uinv[r][idx] for r in range(dim)]
            poly = self.A.fl.ring.zero()
            for coef, row in zip(col, rows):
                if coef:
                    poly = poly + coef * self.A.fl.from_coords(row, chow_deg)
            out.append(poly)
        return out

    # -- elements ----------------------------------------------------------

    def element(self, components: dict) -> "WDElement":
        return WDElement(self, components)

    def zero(self) -> "WDElement":
        return WDElement(self, {})

    def one(self) -> "WDElement":
        return WDElement(
            self, {(frozenset(), frozenset()): self.A.fl.ring.one()}
        )

    def euler(self, i: int) -> "WDElement":
        if self.shape.d[i - 1] % 2:
            return self.zero()
        return WDElement(
            self, {(frozenset([i]), frozenset()): self.A.fl.ring.one()}
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
            self, {(frozenset(), frozenset([l])): self.A.fl.ring.one()}
        )

    # -- basis / Poincare ----------------------------------------------------

    def basis(self, degree: int, twist: TwistClass):
        """Free-module basis in the given degree and twist.

        Each element is a tuple (I, S, chow_deg, index) with I a subset
        of even blocks, S a square-free set of exterior labels, and
        index running over the component basis in that Chow degree.
        """
        out = []
        for I in self._euler_subsets():
            if self.subset_twist(I) != twist:
                continue
            e_deg = self.subset_degree(I)
            for S in self._exterior_subsets():
                r_deg = sum(self.r_degree(l) for l in S)
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
        return WDElement(self, {(I, S): poly})

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
        """Coordinates of the (degree, twist) part of x over basis()."""
        out = []
        for I in self._euler_subsets():
            if self.subset_twist(I) != twist:
                continue
            e_deg = self.subset_degree(I)
            for S in self._exterior_subsets():
                r_deg = sum(self.r_degree(l) for l in S)
                rem = degree - e_deg - r_deg
                if rem < 0 or rem % 4:
                    continue
                chow_deg = rem // 4
                a = x.components.get((I, S), self.A.fl.ring.zero())
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
            if key in out:
                out[key] = out[key] + a
            else:
                out[key] = a
        return WDElement(self.pres, out)

    def __neg__(self):
        return WDElement(
            self.pres, {k: -a for k, a in self.components.items()}, reduce=False
        )

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, other):
        if isinstance(other, int):
            return WDElement(
                self.pres, {k: a * other for k, a in self.components.items()}
            )
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, int):
            return self.__rmul__(other)
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
        return WDElement(pres, out)

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


def wd_normal_form(x: WDElement) -> WDElement:
    return WDElement(x.pres, dict(x.components))


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


def ann_euler(shape: FlagShape, i: int, degree_bound: int = None):
    """Verify Ann(e_i) = (x) degreewise by exact integer linear algebra.

    Returns (x, report); the report records each (degree, twist) slot
    checked and fails on the first mismatch between ker(.e_i) and the
    span of x * basis.
    """
    pres = build_sigma(shape)
    if shape.d[i - 1] % 2:
        raise ValueError(f"block {i} has odd rank; e_{i} = 0")
    if degree_bound is None:
        degree_bound = pres.max_degree()
    x = annihilator_generator(shape, i)
    x_degs = x.homogeneous_degrees()
    if len(x_degs) != 1:
        raise AssertionError("annihilator generator should be homogeneous")
    deg_x = x_degs[0]
    twist_x = _element_twist(pres, x)
    e_elt = pres.euler(i)
    deg_e = pres.euler_degree(i)
    twist_e = pres.euler_twist(i)
    degrees_checked = []
    status = "pass"
    failure = None
    for d in range(degree_bound + 1):
        for twist in all_twist_classes(shape.m):
            src = pres.basis(d, twist)
            if not src:
                continue
            tgt_twist = twist + twist_e
            tgt = pres.basis(d + deg_e, tgt_twist)
            mat_rows = len(tgt)
            cols = []
            for key in src:
                prod = pres.basis_element(key) * e_elt
                cols.append(pres.coords(prod, d + deg_e, tgt_twist))
            mat = [
                [cols[j][r] for j in range(len(cols))] for r in range(mat_rows)
            ]
            kern = intlinalg.kernel_basis(mat, len(src))
            ideal_rows = []
            if d >= deg_x:
                for key in pres.basis(d - deg_x, twist + twist_x):
                    prod = pres.basis_element(key) * x
                    ideal_rows.append(pres.coords(prod, d, twist))
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
