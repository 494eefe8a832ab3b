"""Chow rings of type-A partial flag varieties.

CH^*(Fl(D)), D = (d_1, ..., d_m), is generated by the Chern classes
c_{i,j} = c_j(D_i) of the subquotient blocks subject to prod_i c(D_i) = 1,
and it is computed on these generators.  Put s_{i-1} = d_1 + ... + d_{i-1},
the rank of F_{i-1} = D_1 + ... + D_{i-1}, whose total Chern class is
sigma = prod_{t >= i} c(D_t)^{-1}.  Each partition lam with s_{i-1} + 1
parts, all at most d_i, gives the relation

    G_lam = det(sigma_{lam'_a - a + b})_{a, b <= lam_1} = 0

(up to sign the Schur class s_lam of F_{i-1}, which has too few roots),
whose leading monomial prod_a c_{i,lam_a} has coefficient +-1.  When
lam_1 > s_{i-1} + 1 the same polynomial is the smaller determinant
det(h_{lam_a - a + b})_{a, b <= s_{i-1} + 1}, h_k = (-1)^k c_k(D_i + ... + D_m)
the complete homogeneous classes of F_{i-1}.  A
monomial is standard when it has at most s_{i-1} factors from every
block i.  By Leray-Hirsch along the tower of Grassmann bundles
Fl(D) -> Fl(d_1 + d_2, d_3, ..., d_m) -> ..., the standard monomials are a
ZZ-basis, multinomial(N; D) of them.  ``ChowRingPresentation`` holds the
only rewrite: the normal form is linear, so it is computed monomial by
monomial through a per-ring memo that also keeps every monomial a
rewrite passes through.  The mod-2 normal form used by ``steenrod`` is
the integer one with its coefficients taken mod 2, read from the same
memo.

The top degree dim Fl(D) has exactly one standard monomial t, and
``integrate`` reads the degree of a class from it.  The class of a point
is the top Chern class of the direct sum over i < m of Hom(D_i, A^N/F_i),
each quotient taken trivial: [pt] = prod_{i<m} (-1)^{d_i r_i} c_{i,d_i}^{r_i},
r_i = N - s_i.  Its normal form is +-t, which fixes the orientation:
the integral of p is the coefficient of t in the normal form of p,
divided by that sign, so that [pt] integrates to 1.

For complete flags D = (1^N) the generators are x_1..x_N and the rules
are the classical x_k^k -> -(h_k(x_k..x_N) - x_k^k); ``FullFlagRing``
is that ring with the Schubert classes x_{[i]} used by the ideal and
quotient checks below.
"""

from __future__ import annotations

import warnings
from functools import lru_cache
from operator import add, mul, sub

from . import intlinalg, series
from .poly import GradedPolynomial, PolyRing
from .symfunc import jacobi_trudi_delta


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
        """0-based indices of the generators c_{i,1}..c_{i,d_i} of block i
        (1-based): s_{i-1}..s_i - 1."""
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


def chow_poincare(shape: FlagShape):
    """Poincare polynomial of CH^*(Fl(D)): prod (1-t^j) / prod_i prod (1-t^j)."""
    num = series.prod(series.one_minus_t_pow(j) for j in range(1, shape.N + 1))
    den = series.prod(
        series.one_minus_t_pow(j) for d in shape.d for j in range(1, d + 1)
    )
    return series.exact_div(num, den)


# ----------------------------------------------------------------------
# The Chow ring of Fl(D) on its own generators
# ----------------------------------------------------------------------


class ChowRingPresentation:
    """CH^*(Fl(D)) on the generators c_{i,j} = c_j(D_i), of weight j.

    Variables are named ``c{i}_{j}``, or ``x{i}`` when every block is a
    line.  ``normal_form`` rewrites a polynomial in ``ring`` onto the
    standard monomials, which are a ZZ-basis; ``standard_monomials(d)``
    lists them in degree d and checks their number against the Poincare
    polynomial.
    """

    def __init__(self, shape: FlagShape):
        self.shape = shape
        self._lines = shape.is_full_flag()
        names, weights = [], []
        for i, d in enumerate(shape.d, start=1):
            for j in range(1, d + 1):
                names.append(f"x{i}" if self._lines else f"c{i}_{j}")
                weights.append(j)
        self.ring = PolyRing(names, weights)
        self.dim = shape.dim
        # block i holds the variables start..stop-1, and start = s_{i-1}
        self._spans = []
        for i in range(1, shape.m + 1):
            span = shape.block_span(i)
            self._spans.append((span.start, span.stop))
        if self._lines:
            self._degree = sum
            # x_{k+1}^{k+1}, the leading monomial of the rule for block k+1
            self._line_leads = [
                self.ring.key([0] * k + [k + 1]) for k in range(len(names))
            ]
        else:
            w = self.ring.weights
            self._degree = lambda mon: sum(map(mul, mon, w))
        self._poincare = chow_poincare(shape)
        self._sigmas = None
        self._rules = {}
        # normal form of every monomial reduced so far, standard ones included
        self._nf_memo = {}
        self._standard = {}
        self._standard_index = {}

    def generator(self, i: int, j: int) -> GradedPolynomial:
        """c_j(D_i) as a ring variable."""
        if not 1 <= j <= self.shape.d[i - 1]:
            raise ValueError(f"c_{j}(D_{i}) is not a generator")
        return self.ring.var(self._spans[i - 1][0] + j - 1)

    def top_chern(self, i: int) -> GradedPolynomial:
        return self.generator(i, self.shape.d[i - 1])

    def rank(self, d: int) -> int:
        p = self._poincare
        return p[d] if 0 <= d < len(p) else 0

    # -- the rewrite rules --------------------------------------------------

    def _leading(self, mon):
        """Leading monomial of the rule that rewrites mon; None if standard.

        It is the s_{i-1} + 1 largest indices of the first block i that
        has more than s_{i-1} factors.
        """
        if self._lines:
            for k, e in enumerate(mon):
                if e > k:
                    return self._line_leads[k]
            return None
        for start, stop in self._spans:
            left = start + 1
            if sum(mon[start:stop]) >= left:
                lead = [0] * len(mon)
                for v in range(stop - 1, start - 1, -1):
                    lead[v] = min(left, mon[v])
                    left -= lead[v]
                return tuple(lead)
        return None

    def _sigma(self, b: int):
        """sigma_0..sigma_K of prod_{t >= b} c(D_t)^{-1} for the 0-based
        block b, K = min(s_{b+1}, dim): the Chern classes of D_1 + ... + D_b."""
        if self._sigmas is None:
            one, zero = self.ring.one(), self.ring.zero()
            later = [one] + [zero] * self.dim
            rest = [one]  # c(D_t + ... + D_m) up to the top degree
            self._sigmas = [None] * len(self._spans)
            self._completes = [None] * len(self._spans)
            for t in reversed(range(len(self._spans))):
                start, stop = self._spans[t]
                c = [one] + [self.ring.var(v) for v in range(start, stop)]
                inv = [one]  # c(D_t)^{-1}
                for k in range(1, min(stop, self.dim) + 1):
                    terms = (c[j] * inv[k - j] for j in range(1, min(k, stop - start) + 1))
                    inv.append(-sum(terms, zero))
                later = [
                    sum((inv[p] * later[k - p] for p in range(k + 1)), zero)
                    for k in range(len(inv))
                ]
                self._sigmas[t] = later
                rest = [
                    sum((c[j] * rest[k - j] for j in range(min(k, stop - start) + 1)
                         if k - j < len(rest)), zero)
                    for k in range(min(len(rest) + stop - start, self.dim + 1))
                ]
                self._completes[t] = [-p if k % 2 else p for k, p in enumerate(rest)]
        return self._sigmas[b]

    def _complete(self, b: int):
        """h_0..h_K for the 0-based block b, K = min(N - s_b, dim):
        h_k = (-1)^k c_k(D_{b+1} + ... + D_m), the complete homogeneous
        classes of D_1 + ... + D_b."""
        self._sigma(b)
        return self._completes[b]

    def _rule(self, lead):
        """[(monomial, coefficient), ...] whose sum equals lead in the ring.

        lead = prod_a c_{i,lam_a} with lam of s_{i-1} + 1 parts, and the
        relation is G_lam = det(sigma_{lam'_a - a + b})_{a,b <= lam_1}, the
        Schur class s_lam of D_1 + ... + D_{i-1} up to sign, zero because
        that bundle has only s_{i-1} Chern roots.  When lam has fewer parts
        than columns, the other Jacobi-Trudi identity gives the same
        polynomial on the smaller matrix: det(h_{lam_a - a + b})_{a,b <=
        s_{i-1}+1}.  Every index either determinant reads is at most
        |lam| <= dim, where sigma and h are exact, so the two agree.
        """
        rule = self._rules.get(lead)
        if rule is None:
            b = next(b for b, (start, stop) in enumerate(self._spans)
                     if any(lead[start:stop]))
            start, stop = self._spans[b]
            lam = [v - start + 1 for v in range(stop - 1, start - 1, -1)
                   for _ in range(lead[v])]
            conj = [sum(1 for p in lam if p > a) for a in range(lam[0])]
            if len(lam) < len(conj):
                rel = jacobi_trudi_delta(lam, self._complete(b))
            else:
                rel = jacobi_trudi_delta(conj, self._sigma(b))
            rel = self.ring.zero() + rel
            c = rel.terms.get(lead, 0)
            if c not in (1, -1):
                raise ArithmeticError(
                    f"relation for {lead} has leading coefficient {c}, not +-1"
                )
            rule = [(m, -c * k) for m, k in rel.terms.items() if m != lead]
            self._rules[lead] = rule
        return rule

    def _monomial_nf(self, mon) -> dict:
        """Normal form of one monomial, as {standard monomial: coeff}.

        Memoized; the returned dict is shared and must not be mutated.
        A rewrite lowers the first block with too many factors (fewer of
        its factors, or the same number with a more dominant partition)
        and leaves the blocks before it alone, so the recursion ends.
        """
        nf = self._nf_memo.get(mon)
        if nf is not None:
            return nf
        if self._degree(mon) > self.dim:
            return {}  # zero above the top degree; left out of the memo
        lead = self._leading(mon)
        if lead is None:
            nf = {mon: 1}
        else:
            base = tuple(map(sub, mon, lead))
            acc = {}
            for tail, k in self._rule(lead):
                for m, c in self._monomial_nf(tuple(map(add, base, tail))).items():
                    acc[m] = acc.get(m, 0) + k * c
            nf = {m: c for m, c in acc.items() if c}
        self._nf_memo[mon] = nf
        return nf

    def normal_form(self, p: GradedPolynomial) -> GradedPolynomial:
        """Unique representative supported on standard monomials."""
        if p.ring != self.ring:
            raise ValueError("polynomial not in this Chow ring")
        out: dict = {}
        for mon, c in p.terms.items():
            for m, d in self._monomial_nf(mon).items():
                out[m] = out.get(m, 0) + c * d
        return GradedPolynomial(self.ring, {m: c for m, c in out.items() if c})

    # -- the standard basis ----------------------------------------------------

    def standard_monomials(self, d: int):
        """Standard monomials of degree d, descending: at most s_{i-1}
        factors from each block i.  Raises ArithmeticError unless their
        number is the Poincare coefficient."""
        mons = self._standard.get(d)
        if mons is not None:
            return mons
        w = self.ring.weights
        starts = {start for start, _ in self._spans}
        mons = []

        def rec(v, rem, left, acc):
            if v == len(w):
                if rem == 0:
                    mons.append(tuple(acc))
                return
            if v in starts:
                left = v
            for e in range(min(left, rem // w[v]), -1, -1):
                acc.append(e)
                rec(v + 1, rem - e * w[v], left - e, acc)
                acc.pop()

        if d >= 0:
            rec(0, d, 0, [])
        mons.sort(reverse=True)
        if len(mons) != self.rank(d):
            raise ArithmeticError(
                f"{len(mons)} standard monomials in degree {d} for shape "
                f"{self.shape}, Poincare coefficient {self.rank(d)}"
            )
        self._standard[d] = mons
        return mons

    # bench/tracer.py wraps this name
    image_basis = standard_monomials

    def standard_index(self, d: int):
        index = self._standard_index.get(d)
        if index is None:
            index = {m: i for i, m in enumerate(self.standard_monomials(d))}
            self._standard_index[d] = index
        return index

    def coords(self, p: GradedPolynomial, d: int):
        """Coordinates of a normal-form degree-d polynomial over the basis."""
        index = self.standard_index(d)
        v = [0] * len(index)
        for mon, c in p.terms.items():
            if mon not in index:
                raise ValueError(
                    "polynomial is not a normal form homogeneous of the degree"
                )
            v[index[mon]] = c
        return v

    def from_coords(self, v, d: int) -> GradedPolynomial:
        mons = self.standard_monomials(d)
        return GradedPolynomial(self.ring, {mons[i]: c for i, c in enumerate(v) if c})

    def multiplication_matrix(self, g: GradedPolynomial, d: int):
        """Matrix of multiplication by homogeneous g: degree d -> d + deg g.

        Columns indexed by the standard basis in degree d, rows by the
        standard basis in degree d + deg g.
        """
        target = d + g.degree()
        cols = [
            self.coords(self.normal_form(self.ring.monomial(mon) * g), target)
            for mon in self.standard_monomials(d)
        ]
        return [[col[i] for col in cols] for i in range(self.rank(target))]

    # -- integration -----------------------------------------------------------

    def point_class(self) -> GradedPolynomial:
        """prod_{i<m} c_top(Hom(D_i, A^N/F_i)), with A^N/F_i taken trivial:
        prod_{i<m} (-1)^{d_i r_i} c_{i,d_i}^{r_i}, r_i = N - s_i."""
        pt = self.ring.one()
        s = 0
        for i, d in enumerate(self.shape.d[:-1], start=1):
            s += d
            r = self.shape.N - s
            pt = pt * self.top_chern(i) ** r
            if d * r % 2:
                pt = -pt
        return pt

    def integrate(self, p: GradedPolynomial) -> int:
        """The degree of p: its top-degree part is k * [pt]; returns k.

        The top degree has one standard monomial t.  The top-degree part
        of p normal-forms to k' * t and the point class to +-t, so k is
        k' divided by that sign.  Parts below the top degree integrate
        to 0.
        """
        (t,) = self.standard_monomials(self.dim)
        pt = self.normal_form(self.point_class()).terms
        if set(pt) != {t} or pt[t] not in (1, -1):
            raise ArithmeticError(
                f"point class of {self.shape} normal-forms to {pt}, not +-{t}"
            )
        top = self.normal_form(p.homogeneous_part(self.dim))
        return pt[t] * top.terms.get(t, 0)


@lru_cache(maxsize=None)
def full_flag_ring(N: int) -> "FullFlagRing":
    return FullFlagRing(N)


class FullFlagRing(ChowRingPresentation):
    """CH^*(Fl(N)) = ZZ[x_1..x_N] / (prod (1 + x_i) = 1), x_i = c_1(D_i).

    Its rules are x_k^k -> -(h_k(x_k..x_N) - x_k^k), and its standard
    monomials are the x^a with a_k <= k - 1.
    """

    def __init__(self, N: int):
        super().__init__(FlagShape([1] * N))
        self.N = N

    def x_interval_product(self, i: int) -> GradedPolynomial:
        """x_{[i]} = x_1 x_2 ... x_i, the class of the special Schubert variety."""
        return self.ring.monomial([1] * i)


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
    x_gen = pres.ring.one()
    for j in range(1, m):
        x_gen = x_gen * pres.top_chern(j)
    c = pres.top_chern(m)
    deg_x = x_gen.degree()
    degrees_checked = []
    status = "pass"
    failed = None
    for d in range(shape.dim + 1):
        if pres.rank(d) == 0:
            continue
        kern = intlinalg.kernel_basis(pres.multiplication_matrix(c, d), pres.rank(d))
        ideal_rows = []
        if d >= deg_x:
            ideal_rows = list(zip(*pres.multiplication_matrix(x_gen, d - deg_x)))
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
