"""Independent oracles for the tests.

The splitting-principle embedding CH^*(Fl(D)) -> CH^*(Fl(N)): c_j(D_i)
maps to the j-th elementary symmetric polynomial of the variables of
block i.  The map is injective, so a partial-flag
computation can be checked against the complete flag ring, which has
its own reduction rules.  The same embedding gives the reference
integral: the class of a point is built inside Fl(N), and a top-degree
class integrates to its ratio to it there.

The straightforward Smith form, with full transforms U and U^-1, against
which the lean one in intlinalg is checked.

The straight capped root product, against which the half-product
Grassmann integral in symfunc is checked.

The Sq^2 rows read off the integer normal form, against which the mod-2
bitmask rows of steenrod are checked, and the decoder of a mod-2 bitmask
back into its standard monomials.

The tuple-keyed coinvariant reducer that the packed keys of flagchow
replaced: the same leading terms found by walking the exponent tuple,
the same rule tails applied by adding tuples, and memos keyed by tuple,
against which the packed integer and mod-2 normal forms are checked.

The inverse Chern series prod_{t >= i} c(D_t)^{-1}, the Chern classes
of F_{i-1}, read by the dual Jacobi-Trudi determinant against which the
complete-class relations of flagchow are checked.

The quotient formula prod_{j <= N} (1 - t^j) / prod_i prod_{j <= d_i}
(1 - t^j) for the Chow Poincare polynomial, one long division, against
which the Grassmannian tower product of flagchow is checked.

Polynomial helpers that only the tests use: every monomial of a degree,
the variables a polynomial uses, and substitution of polynomials for
variables.
"""

import itertools
from itertools import accumulate
from operator import add, mul, sub

from flagcw import series
from flagcw.flagchow import FlagShape, chow_ring
from flagcw.poly import GradedPolynomial
from flagcw.symfunc import vandermonde


def monomials_of_degree(ring, d: int):
    """All exponent tuples of weighted degree exactly d (graded-lex desc)."""
    w = ring.weights
    out = []

    def rec(i, rem, acc):
        if i == len(w) - 1:
            if rem % w[i] == 0:
                out.append(tuple(acc + [rem // w[i]]))
            return
        for e in range(rem // w[i], -1, -1):
            rec(i + 1, rem - e * w[i], acc + [e])

    if ring.nvars == 0:
        return [()] if d == 0 else []
    rec(0, d, [])
    return out


def variables_used(p):
    used = set()
    for m in p.terms:
        for i, e in enumerate(p.ring.exponents(m)):
            if e:
                used.add(i)
    return sorted(used)


def substitute(p, bindings: dict):
    """Exact composition; every variable occurring in p must be bound."""
    used = variables_used(p)
    for i in used:
        if p.ring.names[i] not in bindings:
            raise ValueError(f"unbound variable {p.ring.names[i]!r}")
    target = None
    for v in bindings.values():
        if isinstance(v, GradedPolynomial):
            target = v.ring
            break
    if target is None:
        target = p.ring
    images = {}
    for i in used:
        v = bindings[p.ring.names[i]]
        images[i] = v if isinstance(v, GradedPolynomial) else target.constant(v)
    result = target.zero()
    pow_cache: dict = {}
    for m, c in p.terms.items():
        term = target.constant(c)
        for i, e in enumerate(p.ring.exponents(m)):
            if e:
                key = (i, e)
                if key not in pow_cache:
                    pow_cache[key] = images[i] ** e
                term = term * pow_cache[key]
        result = result + term
    return result


def block_elementary(fl, span, j):
    """e_j of the variables of fl with indices in span."""
    terms = {}
    for comb in itertools.combinations(span, j):
        exps = [0] * fl.shape.N
        for i in comb:
            exps[i] = 1
        terms[tuple(exps)] = 1
    return fl.ring.from_terms(terms)


def pullback(pres, p):
    """Image in Fl(N), not normal-formed, of a polynomial of pres.ring."""
    shape = pres.shape
    fl = chow_ring(FlagShape([1] * shape.N))
    bindings = {}
    for i in range(1, shape.m + 1):
        span = range(*shape.spans[i - 1])
        for j in range(1, shape.d[i - 1] + 1):
            name = pres.ring.names[span.start + j - 1]
            bindings[name] = block_elementary(fl, span, j)
    return substitute(p, bindings)


def pullback_nf(pres, p):
    return chow_ring(FlagShape([1] * pres.shape.N)).normal_form(pullback(pres, p))


def class_of_point(shape):
    """prod_{i<m} c_top(Hom(D_i, A^N/F_i)) in Fl(N), with block Chern roots.

    Hom of the block into a trivial bundle of rank N - s_i contributes
    (-1)^{d_i (N - s_i)} (prod of block variables)^(N - s_i).
    """
    fl = chow_ring(FlagShape([1] * shape.N))
    result = fl.ring.one()
    s = 0
    for i in range(1, shape.m):
        s += shape.d[i - 1]
        r = shape.N - s
        exps = [0] * shape.N
        for j in range(*shape.spans[i - 1]):
            exps[j] = r
        sign = -1 if (shape.d[i - 1] * r) % 2 else 1
        result = result * fl.ring.monomial(exps, sign)
    return result


def integrate_fln(shape, p):
    """Ratio of the Fl(N) normal form of p (a polynomial in the variables
    of Fl(N)) to that of the point class of shape; 0 off the top degree."""
    fl = chow_ring(FlagShape([1] * shape.N))
    nf = fl.normal_form(p.homogeneous_part(shape.dim))
    if nf.is_zero():
        return 0
    pt = fl.normal_form(class_of_point(shape))
    mon, c = next(iter(pt.terms.items()))
    lam, rem = divmod(nf.terms.get(mon, 0), c)
    if rem or nf != pt * lam:
        raise ArithmeticError(
            "reduced class is not an integer multiple of the point class"
        )
    return lam


def compositions(N, min_parts=1):
    """Every composition of N with at least min_parts parts."""
    for r in range(min_parts - 1, N):
        for cuts in itertools.combinations(range(1, N), r):
            bounds = (0,) + cuts + (N,)
            yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def inverse_chern_series(pres, b: int):
    """sigma_0..sigma_K of prod_{t >= b} c(D_t)^{-1} for the 0-based block
    b of pres, K = min(s_{b+1}, dim): the Chern classes of D_1 + ... + D_b,
    each c(D_t)^{-1} a power series cut at the top degree.  The dual
    Jacobi-Trudi determinant det(sigma_{lam'_a - a + b})_{a, b <= lam_1}
    reads indices up to s_{b+1}, so these suffice."""
    ring, spans, dim = pres.ring, pres.shape.spans, pres.dim
    one, zero = ring.one(), ring.zero()
    later = [one] + [zero] * dim
    for t in reversed(range(b, len(spans))):
        start, stop = spans[t]
        c = [one] + [ring.var(v) for v in range(start, stop)]
        inv = [one]  # c(D_t)^{-1}
        for k in range(1, min(stop, dim) + 1):
            terms = (c[j] * inv[k - j] for j in range(1, min(k, stop - start) + 1))
            inv.append(-sum(terms, zero))
        later = [sum((inv[p] * later[k - p] for p in range(k + 1)), zero)
                 for k in range(len(inv))]
    return later


def quotient_chow_poincare(shape):
    """prod_{j <= N} (1 - t^j) / prod_i prod_{j <= d_i} (1 - t^j)."""
    num, den = [1], [1]
    for j in range(1, shape.N + 1):
        num = series.mul(num, series.one_minus_t_pow(j))
    for d in shape.d:
        for j in range(1, d + 1):
            den = series.mul(den, series.one_minus_t_pow(j))
    return series.exact_div(num, den)


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def reference_smith_normal_form(mat, pivots=None):
    """The straightforward Smith form: (diag, U, Uinv) with U . mat . V
    diagonal, diag its nonzero entries made positive, and U and its
    inverse Uinv updated in full, by full-row loops and column by column.

    Each round pivots on the first entry of least absolute value in
    row-major order, as intlinalg.smith_normal_form does; if a list is
    given as pivots, the absolute value of each round's pivot is
    appended to it.
    """
    S = [list(r) for r in mat]
    m = len(S)
    n = len(S[0]) if m else 0
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    Uinv = [[int(i == j) for j in range(m)] for i in range(m)]

    def row_op(i, k, q):
        for j in range(n):
            S[i][j] -= q * S[k][j]
        for j in range(m):
            U[i][j] -= q * U[k][j]
        for r in range(m):
            Uinv[r][k] += q * Uinv[r][i]

    def row_swap(i, k):
        S[i], S[k] = S[k], S[i]
        U[i], U[k] = U[k], U[i]
        for r in range(m):
            Uinv[r][i], Uinv[r][k] = Uinv[r][k], Uinv[r][i]

    def col_op(j, k, q):
        for i in range(m):
            S[i][j] -= q * S[i][k]

    def col_swap(j, k):
        for i in range(m):
            S[i][j], S[i][k] = S[i][k], S[i][j]

    t = 0
    while t < min(m, n):
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if S[i][j] and (pivot is None or abs(S[i][j]) < abs(S[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        if pivots is not None:
            pivots.append(abs(S[pivot[0]][pivot[1]]))
        row_swap(t, pivot[0])
        col_swap(t, pivot[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if S[i][t]:
                    q = S[i][t] // S[t][t]
                    row_op(i, t, q)
                    if S[i][t]:
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if S[t][j]:
                    q = S[t][j] // S[t][t]
                    col_op(j, t, q)
                    if S[t][j]:
                        col_swap(t, j)
                        dirty = True
        t += 1
    rank = sum(1 for i in range(min(m, n)) if S[i][i])
    for i in range(rank):
        if S[i][i] < 0:
            for j in range(n):
                S[i][j] = -S[i][j]
            for j in range(m):
                U[i][j] = -U[i][j]
            for r in range(m):
                Uinv[r][i] = -Uinv[r][i]
    return [S[i][i] for i in range(rank)], U, Uinv


def reference_integrate_product(k: int, n: int, factors) -> int:
    """Integral over Gr(k, n) of a product of factors in k Chern roots, by
    the straight capped product: multiply every factor in turn, drop each
    monomial with an exponent above n-1 (the bialternant never reads it),
    and sum c * product[staircase - v] over the Vandermonde's terms c t^v.

    Monomials are packed W bits per root, each field offset so that its
    top bit is set exactly when the exponent exceeds n-1.  The factors
    are not checked; n >= k >= 0 and at least one factor are assumed.
    """
    factors = list(factors)
    cap = n - 1
    width = cap.bit_length() + 1
    off = high = 0
    for i in range(k):
        off |= ((1 << (width - 1)) - 1 - cap) << (width * i)
        high |= 1 << (width * i + width - 1)

    def pack(mon):
        return sum(e << (width * i) for i, e in enumerate(mon[:k]))

    ring = factors[0].ring
    acc = {off: 1}
    for f in factors:
        terms = []
        for key, c in f.terms.items():
            mon = ring.exponents(key)
            if all(e <= cap for e in mon[:k]):
                terms.append((pack(mon), c))
        out = {}
        for key2, c2 in terms:
            for key1, c1 in acc.items():
                key = key1 + key2
                if not key & high:
                    out[key] = out.get(key, 0) + c1 * c2
        acc = out
    staircase = tuple(n - 1 - i for i in range(k))
    total = 0
    for v, c in vandermonde(ring, range(k)).terms.items():
        rest = tuple(map(sub, staircase, ring.exponents(v)))
        if min(rest, default=0) >= 0:
            total += c * acc.get(pack(rest) + off, 0)
    return total


def reference_sq2_rows(ring, d: int, twist):
    """Sq^2_twist on the degree-d standard monomials of a Mod2Chow ring,
    through the integer reducer: bit i of a row is set when the i-th
    standard monomial of degree d + 1 has an odd coefficient in the
    integer normal form of the bumped monomials, summed with multiplicity.
    """
    pres = ring.pres
    index = {m: i for i, m in enumerate(pres.standard_monomials(d + 1))}
    rows = []
    for mon in pres.standard_monomials(d):
        terms = {}
        for bumped in ring._bumped([mon], twist.bits):
            terms[bumped] = terms.get(bumped, 0) + 1
        nf = pres.normal_form(GradedPolynomial(pres.ring, terms))
        rows.append(sum(1 << index[m] for m, c in nf.terms.items() if c % 2))
    return rows


def standard_coords(pres, p, d: int):
    """Coordinates of a degree-d normal form p of pres over the standard
    monomials, in pres.standard_index(d) order; KeyError on any other term."""
    index = pres.standard_index(d)
    v = [0] * len(index)
    for mon, c in p.terms.items():
        v[index[mon]] = c
    return v


def mask_monomials(pres, mask: int, d: int):
    """The degree-d standard monomials whose bits are set in a mod-2
    bitmask over pres.standard_index(d), in basis order."""
    mons = pres.standard_monomials(d)
    return [mon for i, mon in enumerate(mons) if mask >> i & 1]


class TupleReducer:
    """Integer and mod-2 normal forms of a ChowRingPresentation, by the
    recursion on exponent tuples that the packed keys replaced.

    The rule tails come from the presentation's relation (``_tails``),
    read back into tuples; the leading terms, the rewrites and the memos
    are the oracle's own.  Inputs and outputs are exponent tuples.
    """

    def __init__(self, pres):
        self.pres = pres
        self.rules = {}
        self.memo = {}
        self.memo2 = {}

    def leading(self, mon):
        """Leading monomial of the rule that rewrites mon; None if standard:
        the s_{i-1} + 1 largest indices of the first block i that has more
        than s_{i-1} factors."""
        total = (0, *accumulate(mon))  # total[v]: factors with index < v
        for start, stop in self.pres.shape.spans:
            left = start + 1
            if total[stop] - total[start] >= left:
                lead = [0] * len(mon)
                for v in range(stop - 1, start - 1, -1):
                    lead[v] = min(left, mon[v])
                    left -= lead[v]
                return tuple(lead)
        return None

    def rule(self, lead):
        if lead not in self.rules:
            ring = self.pres.ring
            self.rules[lead] = [(ring.exponents(tail), k)
                                for tail, k in self.pres._tails(ring.key(lead))]
        return self.rules[lead]

    def nf(self, mon) -> dict:
        """{standard monomial: coefficient} of one monomial, 0 above the
        top degree."""
        nf = self.memo.get(mon)
        if nf is not None:
            return nf
        if sum(map(mul, mon, self.pres.ring.weights)) > self.pres.dim:
            return {}
        lead = self.leading(mon)
        if lead is None:
            nf = {mon: 1}
        else:
            base = tuple(map(sub, mon, lead))
            acc = {}
            for tail, k in self.rule(lead):
                for m, c in self.nf(tuple(map(add, base, tail))).items():
                    acc[m] = acc.get(m, 0) + k * c
            nf = {m: c for m, c in acc.items() if c}
        self.memo[mon] = nf
        return nf

    def normal_form(self, p) -> dict:
        acc = {}
        for mon, k in p.terms.items():
            for m, c in self.nf(p.ring.exponents(mon)).items():
                acc[m] = acc.get(m, 0) + k * c
        return {m: c for m, c in acc.items() if c}

    def nf2(self, mon, index) -> int:
        """Bitmask over index of one monomial of the degree of index,
        through the odd tails alone."""
        mask = self.memo2.get(mon)
        if mask is not None:
            return mask
        lead = self.leading(mon)
        if lead is None:
            mask = 1 << index[mon]
        else:
            base = tuple(map(sub, mon, lead))
            mask = 0
            for tail, k in self.rule(lead):
                if k & 1:
                    mask ^= self.nf2(tuple(map(add, base, tail)), index)
        self.memo2[mon] = mask
        return mask

    def mask(self, monomials, d: int) -> int:
        """Mod-2 normal form of a sum of degree-d monomials, as a bitmask
        over standard_index(d); 0 above the top degree."""
        if d > self.pres.dim:
            return 0
        exponents = self.pres.ring.exponents
        index = {exponents(key): i for key, i in self.pres.standard_index(d).items()}
        mask = 0
        for mon in monomials:
            mask ^= self.nf2(mon, index)
        return mask
