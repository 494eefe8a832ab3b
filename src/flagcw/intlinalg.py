"""Exact integer matrix machinery: Hermite/Smith forms, kernels, lattices.

Everything here is pure integer row reduction; no rational arithmetic.
Matrices are lists of row lists.  Lattices are handled through their
canonical row Hermite normal form, so two generating sets span the same
lattice iff their HNFs are equal as nested lists.

The Smith form serves free cokernels Z^m / (column span of mat): it
returns the diagonal, the rows U[rank:] of the left transform U, which
read cokernel coordinates, and the columns of U^-1 from rank on, which
lift the cokernel basis, both as the sparse rows {column: entry} it
works on.  Rows of U above rank and the first rank columns of U^-1 are
never read, so they are not kept up to date.
"""

from __future__ import annotations

from operator import mul


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
    pivots = []
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
            pivots.append(col)
        work = rest
        col += 1
    # reduce entries above each pivot into [0, pivot), top row first: row i
    # is zero left of its pivot, so it leaves the earlier pivot columns alone
    for i, p in enumerate(pivots):
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
    aug = [
        [mat[i][j] for i in range(m)] + [1 if k == j else 0 for k in range(ncols)]
        for j in range(ncols)
    ]
    reduced = hnf(aug)
    return [r[m:] for r in reduced if not any(r[:m])]


def smith_normal_form(mat):
    """Diagonal form, reduced to what a free quotient reads: (diag, P, B).

    Row and column operations bring mat to U . mat . V = diagonal, with
    U unimodular and V unimodular (not kept).  diag lists the absolute
    values of the nonzero diagonal entries, rank = len(diag) of them.
    P = U[rank:] is the rows of U that vanish on the column span of mat,
    and B[j] is column rank + j of U^-1, so P . B^T is the identity: P
    reads coordinates in the cokernel and B holds a lift of each basis
    vector.  Both are lists of sparse rows {column: nonzero entry}.  The
    entries of diag are not folded into a divisibility chain: their
    product is the product of the invariant factors, so they are all 1
    exactly when every invariant factor is 1, the free case.

    Only what P and B depend on is computed.  Round t pivots on the
    entry of least absolute value (the first in row-major order) and
    clears row and column t.  Rows above t are zero from column t on, so
    the round works on the block below and right of (t, t), and drops
    row and column t when it ends.  Rows of U and of U^-1 (kept
    transposed) are sparse, so a row stays a unit vector until an update
    touches it, and none is sign-normalized, since rows above rank are
    never returned.
    """
    work = [list(r) for r in mat]
    m = len(work)
    n = len(work[0]) if m else 0
    U = [{i: 1} for i in range(m)]
    UinvT = [{i: 1} for i in range(m)]
    diag = []

    def swap_rows(i, k):
        # U and UinvT are indexed from row 0, the working block from row t
        U[i], U[k] = U[k], U[i]
        UinvT[i], UinvT[k] = UinvT[k], UinvT[i]

    for t in range(min(m, n)):
        pivot, best = None, 0
        for i, row in enumerate(work):
            for j, x in enumerate(row):
                if x and (pivot is None or abs(x) < best):
                    pivot, best = (i, j), abs(x)
                    if best == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        i, j = pivot
        work[0], work[i] = work[i], work[0]
        swap_rows(t, t + i)
        for row in work:
            row[0], row[j] = row[j], row[0]
        dirty = True
        while dirty:
            dirty = False
            top = work[0]
            for i in range(1, len(work)):
                row = work[i]
                if row[0]:
                    q = row[0] // top[0]
                    if q:
                        row = work[i] = [a - q * b for a, b in zip(row, top)]
                        _add_multiple(U[t + i], U[t], -q)
                        _add_multiple(UinvT[t], UinvT[t + i], q)
                    if row[0]:
                        work[0], work[i] = row, top
                        swap_rows(t, t + i)
                        top = row
                        dirty = True
            live = [row for row in work if row[0]]
            for j in range(1, n - t):
                if top[j]:
                    q = top[j] // top[0]
                    for row in live:
                        row[j] -= q * row[0]
                    if top[j]:
                        for row in work:
                            row[0], row[j] = row[j], row[0]
                        live = [row for row in work if row[0]]
                        dirty = True
        diag.append(abs(top[0]))
        work = [row[1:] for row in work[1:]]
    rank = len(diag)
    return diag, U[rank:], UinvT[rank:]


def _add_multiple(target, source, q):
    """target += q * source on sparse rows {column: nonzero entry}."""
    for k, c in source.items():
        c = target.get(k, 0) + q * c
        if c:
            target[k] = c
        else:
            del target[k]
