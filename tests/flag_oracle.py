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

Polynomial helpers that only the tests use: every monomial of a degree,
the variables a polynomial uses, and substitution of polynomials for
variables.
"""

import itertools

from flagcw.flagchow import full_flag_ring
from flagcw.poly import GradedPolynomial


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
        for i, e in enumerate(m):
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
        for i, e in enumerate(m):
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
        exps = [0] * fl.N
        for i in comb:
            exps[i] = 1
        terms[tuple(exps)] = 1
    return fl.ring.from_terms(terms)


def pullback(pres, p):
    """Image in Fl(N), not normal-formed, of a polynomial of pres.ring."""
    shape = pres.shape
    fl = full_flag_ring(shape.N)
    bindings = {}
    for i in range(1, shape.m + 1):
        span = shape.block_span(i)
        for j in range(1, shape.d[i - 1] + 1):
            name = pres.ring.names[span.start + j - 1]
            bindings[name] = block_elementary(fl, span, j)
    return substitute(p, bindings)


def pullback_nf(pres, p):
    return full_flag_ring(pres.shape.N).normal_form(pullback(pres, p))


def class_of_point(shape):
    """prod_{i<m} c_top(Hom(D_i, A^N/F_i)) in Fl(N), with block Chern roots.

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


def integrate_fln(shape, p):
    """Ratio of the Fl(N) normal form of p (a polynomial in the variables
    of Fl(N)) to that of the point class of shape; 0 off the top degree."""
    fl = full_flag_ring(shape.N)
    nf = fl.normal_form(p.homogeneous_part(shape.dim))
    if nf.is_zero():
        return 0
    pt = fl.normal_form(class_of_point(shape))
    mon, c = next(iter(pt.terms.items()))
    lam, rem = divmod(nf.coefficient_of(mon), c)
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
