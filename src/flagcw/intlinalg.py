"""Exact integer matrix machinery: Hermite/Smith forms, kernels, lattices.

Everything here is pure integer row reduction; no rational arithmetic.
Matrices are lists of row lists.  Lattices are handled through their
canonical row Hermite normal form, so two generating sets span the same
lattice iff their HNFs are equal as nested lists.
"""

from __future__ import annotations

from operator import mul


def identity(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(mat, v):
    return [sum(map(mul, r, v)) for r in mat]


def hnf(rows):
    """Canonical row Hermite normal form of the lattice spanned by rows.

    Pivots are positive, entries above a pivot lie in [0, pivot), zero
    rows are dropped.  The result is unique for the lattice, so equality
    of HNFs decides equality of lattices.
    """
    work = [list(r) for r in rows if any(r)]
    if not work:
        return []
    ncols = len(work[0])
    result = []
    col = 0
    while work and col < ncols:
        sel = [r for r in work if r[col]]
        rest = [r for r in work if not r[col]]
        if sel:
            while len(sel) > 1:
                sel.sort(key=lambda r: abs(r[col]))
                r0 = sel[0]
                p = r0[col]
                survivors = [r0]
                for r in sel[1:]:
                    q = r[col] // p
                    if q:
                        for j in range(col, ncols):
                            r[j] -= q * r0[j]
                    if r[col]:
                        survivors.append(r)
                    elif any(r):
                        rest.append(r)
                sel = survivors
            pivot_row = sel[0]
            if pivot_row[col] < 0:
                for j in range(col, ncols):
                    pivot_row[j] = -pivot_row[j]
            result.append(pivot_row)
        work = rest
        col += 1
    # reduce entries above each pivot into [0, pivot), top row first: row i
    # is zero left of its pivot, so it leaves the earlier pivot columns alone
    pivots = [next(j for j, c in enumerate(r) if c) for r in result]
    for i in range(len(result)):
        p = pivots[i]
        pv = result[i][p]
        for k in range(i):
            q = result[k][p] // pv
            if q:
                for j in range(p, len(result[k])):
                    result[k][j] -= q * result[i][j]
    return result


def lattice_coords(hnf_rows, pivots, v):
    """Integer coordinates of v over the HNF rows; None if not in the lattice."""
    v = list(v)
    coords = []
    for row, p in zip(hnf_rows, pivots):
        q, r = divmod(v[p], row[p]) if v[p] else (0, 0)
        if r:
            return None
        coords.append(q)
        if q:
            for j in range(p, len(v)):
                v[j] -= q * row[j]
    return coords if not any(v) else None


def kernel_basis(mat, ncols: int):
    """Basis of the integer kernel {v : mat . v = 0} as rows.

    ncols is the number of columns, which an empty mat does not show.
    The kernel of an integer matrix is a saturated sublattice, and the
    result is a basis of it (computed by row-reducing [A^T | I]).  It is
    the canonical HNF of the kernel, so hnf(result) == result: the
    kernel rows of hnf([A^T | I]) are its last rows, in echelon form with
    positive pivots, and the entries above each pivot were reduced among
    them as among all rows.
    """
    m = len(mat)
    if ncols == 0:
        return []
    if m == 0:
        return identity(ncols)
    aug = [
        [mat[i][j] for i in range(m)] + [1 if k == j else 0 for k in range(ncols)]
        for j in range(ncols)
    ]
    reduced = hnf(aug)
    return [r[m:] for r in reduced if not any(r[:m])]


def smith_normal_form(mat):
    """Diagonal form with left transforms: returns (diag, U, Uinv).

    U is unimodular with U . mat . V diagonal for a suitable unimodular V
    (not returned), and Uinv is the inverse of U, maintained alongside.
    diag lists the nonzero diagonal entries, made positive; with rank =
    len(diag), the rows of U . mat at index rank and above are 0.  The
    entries are not folded into a divisibility chain: their product is
    the product of the invariant factors, so they are all 1 exactly when
    every invariant factor is 1, which is the only case callers accept.
    """
    S = [list(r) for r in mat]
    m = len(S)
    n = len(S[0]) if m else 0
    U = identity(m)
    # Uinv is kept transposed, so its column operations are row operations
    UinvT = identity(m)

    def row_op(i, k, q):
        # row_i -= q * row_k on S and U; Uinv's inverse column op is a row op
        S[i] = [a - q * b for a, b in zip(S[i], S[k])]
        U[i] = [a - q * b for a, b in zip(U[i], U[k])]
        UinvT[k] = [a + q * b for a, b in zip(UinvT[k], UinvT[i])]

    def row_swap(i, k):
        S[i], S[k] = S[k], S[i]
        U[i], U[k] = U[k], U[i]
        UinvT[i], UinvT[k] = UinvT[k], UinvT[i]

    def col_op(j, k, q):
        for row in S:
            if row[k]:
                row[j] -= q * row[k]

    def col_swap(j, k):
        for row in S:
            row[j], row[k] = row[k], row[j]

    t = 0
    while t < min(m, n):
        # locate a nonzero pivot of minimal absolute value, the first one
        # in row-major order; a unit entry cannot be beaten
        pivot, best = None, 0
        for i in range(t, m):
            row = S[i]
            for j in range(t, n):
                if row[j] and (pivot is None or abs(row[j]) < best):
                    pivot, best = (i, j), abs(row[j])
                    if best == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
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
    # sign normalization
    rank = sum(1 for i in range(min(m, n)) if S[i][i])
    for i in range(rank):
        if S[i][i] < 0:
            S[i] = [-a for a in S[i]]
            U[i] = [-a for a in U[i]]
            UinvT[i] = [-a for a in UinvT[i]]
    diag = [S[i][i] for i in range(rank)]
    return diag, U, [list(col) for col in zip(*UinvT)]
