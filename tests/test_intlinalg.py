import random

from flag_oracle import identity, reference_smith_normal_form

from flagcw.intlinalg import (
    hnf,
    kernel_basis,
    lattice_coords,
    mat_vec,
    smith_normal_form,
)


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def sparse(rows):
    """Dense rows as the sparse rows {column: nonzero entry} that
    smith_normal_form returns."""
    return [{j: c for j, c in enumerate(r) if c} for r in rows]


def dense(rows, n):
    return [[r.get(j, 0) for j in range(n)] for r in rows]


def random_matrix(rng, m, n, bound=3):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]


def random_unimodular(rng, n):
    u = identity(n)
    for _ in range(3 * n):
        if n < 2:
            break
        i, k = rng.sample(range(n), 2)
        q = rng.randint(-2, 2)
        u[i] = [a + q * b for a, b in zip(u[i], u[k])]
    return u


def test_smith_matches_the_reference_implementation():
    rng = random.Random(4104)
    cases = [[], [[]], [[0, 0]], [[0], [0]], [[2, 0], [0, 3]], [[4, 6], [6, 9]]]
    # row 1 is reduced by q = 1 and then by q = -1 within one round
    cases.append([[3, 5], [3, 3], [0, 3]])
    for _ in range(300):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        mat = random_matrix(rng, m, n, bound=rng.choice([1, 3, 9]))
        shape = rng.randrange(4)
        if shape == 1:  # zero rows
            for i in rng.sample(range(m), rng.randint(1, m)):
                mat[i] = [0] * n
        elif shape == 2:  # rank deficient: a product through a thin middle
            r = rng.randint(0, min(m, n) - 1)
            mat = matmul(random_matrix(rng, m, r), random_matrix(rng, r, n))
            if r == 0:
                mat = [[0] * n for _ in range(m)]
        elif shape == 3:  # non-unit invariant factors
            core = [[rng.choice([2, 3, 4, 6]) * (i == j) for j in range(n)]
                    for i in range(m)]
            a, b = random_unimodular(rng, m), random_unimodular(rng, n)
            mat = matmul(matmul(a, core), b)
        cases.append(mat)
    square = non_unit = 0
    for mat in cases:
        diag, U, Uinv = reference_smith_normal_form(mat)
        assert matmul(U, Uinv) == identity(len(mat))
        # only U[rank:] and the last columns of U^-1 are returned, as
        # sparse rows
        rank = len(diag)
        last_cols = [list(col) for col in zip(*Uinv)][rank:]
        assert smith_normal_form(mat) == (
            diag, sparse(U[rank:]), sparse(last_cols)), mat
        square += len(mat) == len(mat[0] if mat else [])
        non_unit += any(s != 1 for s in diag)
    assert square > 20 and non_unit > 50


def test_smith_transforms_are_inverse_and_kill_the_last_rows():
    rng = random.Random(1729)
    for _ in range(150):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        mat = random_matrix(rng, m, n)
        diag, P, B = smith_normal_form(mat)
        assert len(diag) == len(hnf(mat))
        assert all(s > 0 for s in diag)
        assert len(P) == len(B) == m - len(diag)
        # sparse rows over the m rows of mat, holding no zero entry
        for row in P + B:
            assert set(row) <= set(range(m)) and all(row.values())
        P, B = dense(P, m), dense(B, m)
        assert all(not any(row) for row in matmul(P, mat))
        assert matmul(P, [list(col) for col in zip(*B)]) == identity(len(P))


def test_smith_entries_are_one_exactly_on_unimodular_quotients():
    rng = random.Random(2023)
    for _ in range(100):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        r = rng.randint(0, min(m, n))
        # A . [I_r 0; 0 0] . B with A, B unimodular has a free cokernel
        core = [[int(i == j and i < r) for j in range(n)] for i in range(m)]
        a, b = random_unimodular(rng, m), random_unimodular(rng, n)
        mat = matmul(matmul(a, core), b)
        diag, _, _ = smith_normal_form(mat)
        assert diag == [1] * r
    diag, _, _ = smith_normal_form([[2, 0], [0, 3]])
    assert diag != [1, 1] and diag[0] * diag[1] == 6


def test_hnf_is_canonical():
    rng = random.Random(314)
    for _ in range(150):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = random_matrix(rng, m, n)
        h = hnf(rows)
        assert hnf(h) == h
        # another generating set of the same lattice: a unimodular change
        # of generators plus an integer combination of them
        other = matmul(random_unimodular(rng, m), rows)
        coeffs = [[rng.randint(-2, 2) for _ in range(m)]]
        other += matmul(coeffs, rows)
        assert hnf(other) == h


def test_kernel_basis_is_a_saturated_kernel():
    rng = random.Random(4242)
    for _ in range(150):
        m, n = rng.randint(0, 4), rng.randint(1, 5)
        mat = random_matrix(rng, m, n)
        kern = kernel_basis(mat, n)
        assert len(kern) == n - len(hnf(mat))
        for k in kern:
            assert not any(mat_vec(mat, k))
        if kern:
            # saturated: every diagonal entry (so every invariant factor) is 1
            diag, _, _ = smith_normal_form(kern)
            assert diag == [1] * len(kern)


def test_kernel_basis_is_already_its_hnf():
    # ann_euler compares the kernel with an HNF without re-normalizing it
    rng = random.Random(9191)
    for _ in range(300):
        m, n, r = rng.randint(0, 5), rng.randint(1, 6), rng.randint(1, 3)
        # every other matrix has rank at most r, so kernels of rank >= 2 occur
        mat = random_matrix(rng, m, n)
        if rng.random() < 0.5:
            mat = matmul(random_matrix(rng, m, r), random_matrix(rng, r, n))
        kern = kernel_basis(mat, n)
        assert hnf(kern) == kern, mat


def test_lattice_coords_round_trip_and_reject():
    rng = random.Random(577)
    for _ in range(150):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        h = hnf(random_matrix(rng, m, n))
        pivots = [next(j for j, c in enumerate(row) if c) for row in h]
        coeffs = [rng.randint(-4, 4) for _ in h]
        v = [sum(c * row[j] for c, row in zip(coeffs, h)) for j in range(n)]
        assert lattice_coords(h, pivots, v) == coeffs
        for row, p in zip(h, pivots):
            if row[p] > 1:
                off = list(v)
                off[p] += 1
                assert lattice_coords(h, pivots, off) is None
        # a vector outside the rational span is outside the lattice
        off = [rng.randint(-2, 2) for _ in range(n)]
        if len(hnf(h + [off])) > len(h):
            assert lattice_coords(h, pivots, off) is None
