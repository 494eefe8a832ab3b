import random

from flagcw.intlinalg import (
    hnf,
    identity,
    kernel_basis,
    lattice_coords,
    mat_vec,
    smith_normal_form,
)


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


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


def test_smith_transforms_are_inverse_and_kill_the_last_rows():
    rng = random.Random(1729)
    for _ in range(150):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        mat = random_matrix(rng, m, n)
        diag, U, Uinv = smith_normal_form(mat)
        assert matmul(U, Uinv) == identity(m)
        assert len(diag) == len(hnf(mat))
        assert all(s > 0 for s in diag)
        um = matmul(U, mat)
        assert all(not any(row) for row in um[len(diag) :])


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
