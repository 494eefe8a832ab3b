"""Chow rings of type-A partial flag varieties.

The complete flag ring  ZZ[x_1..x_N] / (prod (1+x_i) = 1)  is the
workhorse: its relation ideal is generated by the elementary symmetric
polynomials, and reduction against the classical rewriting system

    g_k = h_k(x_k, ..., x_N),   leading term x_k^k  (lex, x_1 > ... > x_N)

produces the coinvariant-algebra normal form supported on the standard
monomials { x^a : a_k <= k-1 }, of which there are exactly N!.

``FullFlagRing`` holds the only implementation of this rewrite.  The
normal form is linear, so it is computed monomial by monomial through a
per-ring memo that also keeps every monomial a rewrite passes through.
Every tail coefficient is +-1, so the mod-2 normal form used by
``steenrod`` is the integer one with its coefficients taken mod 2, read
from the same memo.

Partial flag rings embed into the complete one by the splitting
principle (c_j of a subquotient block maps to the elementary symmetric
polynomial of the block variables); all partial-flag arithmetic happens
inside that image, degreewise, by exact integer linear algebra.
"""

from __future__ import annotations

import itertools
import warnings
from functools import lru_cache
from operator import add

from . import intlinalg, series
from .poly import GradedPolynomial, PolyRing


class FlagShape:
    """A composition D = (d_1, ..., d_m) of N; zero parts are dropped."""

    def __init__(self, parts):
        parts = tuple(int(d) for d in parts)
        if any(d < 0 for d in parts):
            raise ValueError("block sizes must be non-negative")
        if 0 in parts:
            warnings.warn(f"dropping zero parts from shape {parts}")
            parts = tuple(d for d in parts if d)
        self.d = parts

    @property
    def N(self) -> int:
        return sum(self.d)

    @property
    def m(self) -> int:
        return len(self.d)

    @property
    def dim(self) -> int:
        return sum(
            self.d[i] * self.d[j]
            for i in range(self.m)
            for j in range(i + 1, self.m)
        )

    def block_span(self, i: int):
        """0-based variable indices of block i (1-based) inside Fl(N)."""
        start = sum(self.d[: i - 1])
        return range(start, start + self.d[i - 1])

    def is_full_flag(self) -> bool:
        return all(d == 1 for d in self.d)

    def __eq__(self, other):
        return isinstance(other, FlagShape) and self.d == other.d

    def __hash__(self):
        return hash(self.d)

    def __str__(self):
        return ",".join(str(d) for d in self.d)

    def __repr__(self):
        return f"FlagShape({self.d})"


class SchubertPermutation:
    """A permutation of {1..N} in one-line notation with its Bruhat length."""

    def __init__(self, one_line):
        w = tuple(one_line)
        if sorted(w) != list(range(1, len(w) + 1)):
            raise ValueError(f"not a permutation of 1..{len(w)}: {w}")
        self.one_line = w

    @property
    def length(self) -> int:
        w = self.one_line
        return sum(
            1
            for i in range(len(w))
            for j in range(i + 1, len(w))
            if w[i] > w[j]
        )

    @staticmethod
    def special(N: int, i: int) -> "SchubertPermutation":
        """w_i = t_1 t_2 ... t_i, i.e. [2, 3, ..., i+1, 1, i+2, ..., N]."""
        if not 1 <= i < N:
            raise ValueError("need 1 <= i < N")
        return SchubertPermutation(
            list(range(2, i + 2)) + [1] + list(range(i + 2, N + 1))
        )

    def __repr__(self):
        return f"SchubertPermutation{self.one_line}"


def chow_poincare(shape: FlagShape):
    """Poincare polynomial of CH^*(Fl(D)): prod (1-t^j) / prod_i prod (1-t^j)."""
    num = series.prod(series.one_minus_t_pow(j) for j in range(1, shape.N + 1))
    den = series.prod(
        series.one_minus_t_pow(j) for d in shape.d for j in range(1, d + 1)
    )
    return series.exact_div(num, den)


# ----------------------------------------------------------------------
# The complete flag ring Fl(N)
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def full_flag_ring(N: int) -> "FullFlagRing":
    return FullFlagRing(N)


class FullFlagRing:
    def __init__(self, N: int):
        self.N = N
        self.ring = PolyRing([f"x{i+1}" for i in range(N)], 1)
        self.dim = N * (N - 1) // 2
        # reduction tails: h_k(x_k..x_N) - x_k^k as monomial lists (coeff 1)
        self._tails = [None] + [self._tail(k) for k in range(1, N + 1)]
        # normal form of every monomial reduced so far, standard ones included
        self._nf_memo = {}

    def _tail(self, k: int):
        return [
            mon
            for mon in self.ring.monomials_of_degree(k)
            if not any(mon[: k - 1]) and mon[k - 1] != k
        ]

    def elementary(self, j: int) -> GradedPolynomial:
        """e_j(x_1..x_N)."""
        return self.block_elementary(range(self.N), j)

    def block_elementary(self, span, j: int) -> GradedPolynomial:
        terms = {}
        for comb in itertools.combinations(list(span), j):
            exps = [0] * self.N
            for i in comb:
                exps[i] = 1
            terms[tuple(exps)] = 1
        return self.ring.from_terms(terms)

    def _reducer_index(self, mon) -> int:
        """Smallest k (1-based) with exponent of x_k >= k, or 0 if standard."""
        for i, e in enumerate(mon):
            if e >= i + 1:
                return i + 1
        return 0

    def _monomial_nf(self, mon) -> dict:
        """Normal form of one monomial, as {standard monomial: coeff}.

        Memoized; the returned dict is shared and must not be mutated.
        """
        nf = self._nf_memo.get(mon)
        if nf is not None:
            return nf
        if sum(mon) > self.dim:
            return {}  # zero above the top degree; left out of the memo
        k = self._reducer_index(mon)
        if k == 0:
            nf = {mon: 1}
        else:
            # x_k^k -> -(h_k(x_k..x_N) - x_k^k), multiplied by mon / x_k^k
            base = mon[: k - 1] + (mon[k - 1] - k,) + mon[k:]
            acc = {}
            for tail in self._tails[k]:
                for m, c in self._monomial_nf(tuple(map(add, base, tail))).items():
                    acc[m] = acc.get(m, 0) - c
            nf = {m: c for m, c in acc.items() if c}
        self._nf_memo[mon] = nf
        return nf

    def normal_form(self, p: GradedPolynomial) -> GradedPolynomial:
        """Unique representative supported on standard monomials (a_k <= k-1)."""
        if p.ring != self.ring:
            raise ValueError("polynomial not in this Fl(N) ring")
        out: dict = {}
        for mon, c in p.terms.items():
            for m, d in self._monomial_nf(mon).items():
                out[m] = out.get(m, 0) + c * d
        return GradedPolynomial(self.ring, {m: c for m, c in out.items() if c})

    @lru_cache(maxsize=None)
    def standard_monomials(self, d: int):
        """Standard monomials of degree d, graded-lex descending."""
        out = []

        def rec(i, rem, acc):
            if i == self.N:
                if rem == 0:
                    out.append(tuple(acc))
                return
            for e in range(min(i, rem), -1, -1):
                rec(i + 1, rem - e, acc + [e])

        rec(0, d, [])
        out.sort(reverse=True)
        return out

    @lru_cache(maxsize=None)
    def standard_index(self, d: int):
        return {m: i for i, m in enumerate(self.standard_monomials(d))}

    def coords(self, p: GradedPolynomial, d: int):
        """Coordinates of a normal-form degree-d polynomial over the basis."""
        index = self.standard_index(d)
        v = [0] * len(index)
        for mon, c in p.terms.items():
            if sum(mon) != d:
                raise ValueError("polynomial is not homogeneous of the degree")
            v[index[mon]] = c
        return v

    def from_coords(self, v, d: int) -> GradedPolynomial:
        mons = self.standard_monomials(d)
        return GradedPolynomial(self.ring, {mons[i]: c for i, c in enumerate(v) if c})

    def x_interval_product(self, i: int) -> GradedPolynomial:
        """x_{[i]} = x_1 x_2 ... x_i, the class of the special Schubert variety."""
        exps = [1] * i
        return self.ring.monomial(exps)

    def multiplication_matrix(self, g: GradedPolynomial, d: int):
        """Matrix of multiplication by homogeneous g: degree d -> d + deg g.

        Columns indexed by the standard basis in degree d, rows by the
        standard basis in degree d + deg g.
        """
        e = g.degree()
        target = d + e
        rows_n = len(self.standard_monomials(target))
        cols = []
        for mon in self.standard_monomials(d):
            prod = self.normal_form(self.ring.monomial(mon) * g)
            cols.append(self.coords(prod, target))
        # transpose: cols are images
        return [[cols[j][i] for j in range(len(cols))] for i in range(rows_n)]


# ----------------------------------------------------------------------
# Class of a point and integration
# ----------------------------------------------------------------------


def class_of_point(shape: FlagShape) -> GradedPolynomial:
    """prod_{i<m} c_top(Hom(D_i, A^N/F_i)) with block Chern roots.

    Hom of the block into a trivial bundle of rank N - s_i contributes
    (-1)^{d_i (N - s_i)} (prod of block variables)^(N - s_i).
    """
    fl = full_flag_ring(shape.N)
    result = fl.ring.one()
    s = 0
    for i in range(1, shape.m):
        s += shape.d[i - 1]
        r = shape.N - s
        exps = [0] * shape.N
        for j in shape.block_span(i):
            exps[j] = r
        sign = -1 if (shape.d[i - 1] * r) % 2 else 1
        result = result * fl.ring.monomial(exps, sign)
    return result


def integrate_fln(shape: FlagShape, p: GradedPolynomial) -> int:
    """Coefficient of the class of a point; 0 off the top degree."""
    fl = full_flag_ring(shape.N)
    top = p.homogeneous_part(shape.dim)
    if top.is_zero():
        return 0
    nf = fl.normal_form(top)
    pt = fl.normal_form(class_of_point(shape))
    if nf.is_zero():
        return 0
    # nf must be an integer multiple of pt
    mon, c = next(iter(pt.terms.items()))
    lam, rem = divmod(nf.coefficient_of(mon), c)
    if rem or nf != pt * lam:
        raise ArithmeticError(
            "reduced class is not an integer multiple of the point class"
        )
    return lam


# ----------------------------------------------------------------------
# Partial flag presentations embedded in Fl(N)
# ----------------------------------------------------------------------


class ChowRingPresentation:
    """CH^*(Fl(D)) presented on Chern generators c_j(D_i), embedded in Fl(N).

    Generator variables are named ``c{i}_{j}`` (block i, Chern degree j)
    with weight j; ``pullback`` substitutes the elementary symmetric
    polynomial of the block variables and is injective by the splitting
    principle.  Degreewise integer bases of the image support all kernel
    and ideal computations.
    """

    def __init__(self, shape: FlagShape):
        self.shape = shape
        self.fl = full_flag_ring(shape.N)
        names, weights = [], []
        self._gen_map = {}
        for i in range(1, shape.m + 1):
            for j in range(1, shape.d[i - 1] + 1):
                self._gen_map[(i, j)] = len(names)
                names.append(f"c{i}_{j}")
                weights.append(j)
        self.gen_ring = PolyRing(names, weights)
        self._poincare = chow_poincare(shape)
        self._basis_cache = {}

    def generator(self, i: int, j: int) -> GradedPolynomial:
        """c_j(D_i) as a generator-ring variable."""
        return self.gen_ring.var(self._gen_map[(i, j)])

    def top_chern(self, i: int) -> GradedPolynomial:
        return self.generator(i, self.shape.d[i - 1])

    def rank(self, d: int) -> int:
        p = self._poincare
        return p[d] if 0 <= d < len(p) else 0

    def pullback(self, cls: GradedPolynomial) -> GradedPolynomial:
        """Image in Fl(N): c_j(D_i) -> e_j(block-i variables)."""
        bindings = {}
        for (i, j), idx in self._gen_map.items():
            bindings[self.gen_ring.names[idx]] = self.fl.block_elementary(
                self.shape.block_span(i), j
            )
        return cls.substitute(bindings)

    def pullback_nf(self, cls: GradedPolynomial) -> GradedPolynomial:
        return self.fl.normal_form(self.pullback(cls))

    def image_basis(self, d: int):
        """HNF basis (with pivots) of the degree-d image inside Fl(N).

        Built degree by degree: the image is a subring generated in the
        Chern degrees, so its degree-d part is spanned by g * (degree
        d - deg g image) over the generators g.
        """
        if d in self._basis_cache:
            return self._basis_cache[d]
        if self.shape.is_full_flag():
            n = len(self.fl.standard_monomials(d))
            result = (intlinalg.identity(n), list(range(n)))
        elif d == 0:
            result = ([[1]], [0])
        elif d > self.shape.dim:
            result = ([], [])
        else:
            gens = []
            for (i, j), idx in self._gen_map.items():
                if j > d:
                    continue
                g_img = self.pullback_nf(self.gen_ring.var(idx))
                lower, _ = self.image_basis(d - j)
                for row in lower:
                    prod = self.fl.normal_form(
                        self.fl.from_coords(row, d - j) * g_img
                    )
                    if not prod.is_zero():
                        gens.append(self.fl.coords(prod, d))
            result = intlinalg.hnf_with_pivots(gens)
        if len(result[0]) != self.rank(d):
            raise ArithmeticError(
                f"image rank {len(result[0])} in degree {d} does not match "
                f"the Poincare coefficient {self.rank(d)} for shape {self.shape}"
            )
        self._basis_cache[d] = result
        return result

    def image_coords(self, p: GradedPolynomial, d: int):
        """Coordinates of a normal-form element over the degree-d image basis."""
        rows, pivots = self.image_basis(d)
        v = self.fl.coords(p, d)
        coords = intlinalg.lattice_coords(rows, pivots, v)
        if coords is None:
            raise ArithmeticError("element does not lie in the partial-flag image")
        return coords

    def multiplication_matrix(self, g_img: GradedPolynomial, d: int, e: int):
        """Multiplication by an image element of degree e on the image basis."""
        rows, _ = self.image_basis(d)
        cols = []
        for r in rows:
            prod = self.fl.normal_form(self.fl.from_coords(r, d) * g_img)
            cols.append(self.image_coords(prod, d + e))
        nrows = self.rank(d + e)
        return [[cols[j][i] for j in range(len(cols))] for i in range(nrows)]


# ----------------------------------------------------------------------
# Ideals, quotients, annihilators
# ----------------------------------------------------------------------


def schubert_ideal_rank(N: int, i: int) -> int:
    """Rank of the principal ideal (x_{[i]}) in CH^*(Fl(N)).

    Computed degree by degree as the integer rank of the image of
    multiplication by x_{[i]}; the paper predicts (N-i)(N-1)!.
    """
    if not 1 <= i <= N:
        raise ValueError("need 1 <= i <= N")
    fl = full_flag_ring(N)
    g = fl.x_interval_product(i)
    return sum(
        intlinalg.row_rank(fl.multiplication_matrix(g, d))
        for d in range(fl.dim - i + 1)
    )


def _ideal_lattice_fln(fl: FullFlagRing, gens, d: int):
    """Generating vectors in degree d of the ideal spanned by gens (NF'd)."""
    vectors = []
    for g in gens:
        e = g.degree()
        if e > d:
            continue
        for mon in fl.standard_monomials(d - e):
            prod = fl.normal_form(fl.ring.monomial(mon) * g)
            if not prod.is_zero():
                vectors.append(fl.coords(prod, d))
    return vectors


def ideal_quotient_degreewise(N: int, gens_I, gens_J, degree_bound: int):
    """Degreewise basis of the ideal quotient (I : J) in CH^*(Fl(N)).

    For each degree d the conditions  a * g in I  (over g in J) are
    solved exactly over the integers at once: a lies in the projection of
    the kernel of the stacked bands [M_g | ... -L_g ...], where M_g is
    multiplication by g and the columns L_g span the ideal I in the
    target degree of g.  A generator that maps degree d above the top
    degree adds no band; with no band the kernel is all of Z^dim_d.
    Returns {d: HNF rows}.
    """
    fl = full_flag_ring(N)
    gens_I = [fl.normal_form(g) for g in gens_I]
    gens_J = [fl.normal_form(g) for g in gens_J]
    result = {}
    for d in range(degree_bound + 1):
        dim_d = len(fl.standard_monomials(d))
        bands = []
        for g in gens_J:
            target = d + g.degree()
            if target <= fl.dim:
                lat = _ideal_lattice_fln(fl, gens_I, target)
                bands.append((fl.multiplication_matrix(g, d), lat))
        ncols = dim_d + sum(len(lat) for _, lat in bands)
        aug = []
        offset = dim_d
        for mat, lat in bands:
            for r, row in enumerate(mat):
                band = [0] * ncols
                band[:dim_d] = row
                for k, v in enumerate(lat):
                    band[offset + k] = -v[r]
                aug.append(band)
            offset += len(lat)
        kern = intlinalg.kernel_basis(aug, ncols)
        result[d] = intlinalg.hnf([k[:dim_d] for k in kern])
    return result


def principal_ideal_lattice(N: int, gen: GradedPolynomial, d: int):
    fl = full_flag_ring(N)
    return intlinalg.hnf(_ideal_lattice_fln(fl, [fl.normal_form(gen)], d))


def verify_piqp_fln(N: int, i: int, j: int) -> dict:
    """Check (x_[i] : x_[j]) = (x_[i] \\ [j]) in CH^*(Fl(N)), all degrees."""
    if not 1 <= j < i <= N:
        raise ValueError("need 1 <= j < i <= N")
    fl = full_flag_ring(N)
    quotient = ideal_quotient_degreewise(
        N, [fl.x_interval_product(i)], [fl.x_interval_product(j)], fl.dim
    )
    expected_gen = fl.ring.monomial([0] * j + [1] * (i - j))
    degrees_checked = []
    for d, rows in quotient.items():
        expected = principal_ideal_lattice(N, expected_gen, d)
        if intlinalg.hnf(rows) != expected:
            return {
                "shape": str(FlagShape([1] * N)),
                "statement": f"(x_[{i}] : x_[{j}]) = (x_[{i}]\\[{j}])",
                "degrees_checked": degrees_checked,
                "status": "fail",
                "failed_degree": d,
            }
        degrees_checked.append(d)
    return {
        "shape": str(FlagShape([1] * N)),
        "statement": f"(x_[{i}] : x_[{j}]) = (x_[{i}]\\[{j}])",
        "degrees_checked": degrees_checked,
        "status": "pass",
    }


def ann_top_chern(shape: FlagShape):
    """Annihilator of the top Chern class of the last block, with verification.

    Returns (x, report): x = prod_{j != m} c_{d_j}(D_j) in generator
    variables, and a degreewise brute-force check that the kernel of
    multiplication by c_{d_m}(D_m) on CH^*(Fl(D)) equals the ideal (x).
    """
    if shape.m < 2:
        # degenerate: the ring is ZZ, the annihilator of c (= 0 classes) is (0)
        return None, {
            "shape": str(shape),
            "statement": "Ann(c_top(D_m)) degenerate shape",
            "degrees_checked": [],
            "status": "pass",
        }
    pres = ChowRingPresentation(shape)
    m = shape.m
    x_gen = pres.gen_ring.one()
    for j in range(1, m):
        x_gen = x_gen * pres.top_chern(j)
    c_img = pres.pullback_nf(pres.top_chern(m))
    x_img = pres.pullback_nf(x_gen)
    deg_c = shape.d[m - 1]
    deg_x = x_gen.degree()
    degrees_checked = []
    status = "pass"
    failed = None
    for d in range(shape.dim + 1):
        if pres.rank(d) == 0:
            continue
        mat = pres.multiplication_matrix(c_img, d, deg_c)
        kern = intlinalg.kernel_basis(mat, pres.rank(d))
        ideal_rows = []
        if d >= deg_x:
            rows, _ = pres.image_basis(d - deg_x)
            for r in rows:
                prod = pres.fl.normal_form(pres.fl.from_coords(r, d - deg_x) * x_img)
                ideal_rows.append(pres.image_coords(prod, d))
        if intlinalg.hnf(kern) != intlinalg.hnf(ideal_rows):
            status = "fail"
            failed = d
            break
        degrees_checked.append(d)
    report = {
        "shape": str(shape),
        "statement": "Ann(c_top(D_m)) = (prod_{j<m} c_top(D_j))",
        "degrees_checked": degrees_checked,
        "status": status,
    }
    if failed is not None:
        report["failed_degree"] = failed
    return x_gen, report
