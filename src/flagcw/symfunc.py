"""Partitions, Jacobi-Trudi determinants, Schur expansions, Grassmannian integrals.

The integration convention: for the Grassmannian of k-subspaces of an
n-space, a symmetric polynomial in the k Chern roots of the (dual)
tautological subbundle integrates to the coefficient of the Schur
polynomial s_{(n-k)^k}, extracted by the bialternant trick -- multiply
by the Vandermonde determinant and read off the staircase coefficient
(n-1, n-2, ..., n-k).  Everything is exact over the integers.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import sub

from .poly import GradedPolynomial, PolyRing, exact_div


class Partition:
    """A weakly decreasing tuple of positive parts (trailing zeros stripped)."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        if any(p < 0 for p in parts):
            raise ValueError("partition parts must be non-negative")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts not weakly decreasing: {parts}")
        self.parts = parts

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __lt__(self, other):
        return self.parts < other.parts

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def part(self, i: int) -> int:
        """1-indexed part, 0 beyond the length."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def transpose(self) -> "Partition":
        if not self.parts:
            return Partition()
        cols = [0] * self.parts[0]
        for p in self.parts:
            for j in range(p):
                cols[j] += 1
        return Partition(cols)

    def fits_in_box(self, m: int, n: int) -> bool:
        return len(self.parts) <= m and (not self.parts or self.parts[0] <= n)

    def __str__(self):
        return "(" + ",".join(str(p) for p in self.parts) + ")"

    def __repr__(self):
        return f"Partition{self.parts}"

    @staticmethod
    def parse(text: str) -> "Partition":
        text = text.strip()
        if text.startswith("(") and text.endswith(")"):
            text = text[1:-1]
        if not text:
            return Partition()
        return Partition(int(p) for p in text.split(","))


def box_complement(lam: Partition, m: int, n: int) -> Partition:
    """Complement in the m x n box: part i becomes n - lam_{m+1-i}."""
    if not lam.fits_in_box(m, n):
        raise ValueError(f"{lam} does not fit in the {m}x{n} box")
    return Partition(n - lam.part(m + 1 - i) for i in range(1, m + 1))


def box_dual(lam: Partition, m: int, n: int) -> Partition:
    """Transposed complement: the partition paired with lam in the Cauchy sum.

    For lam inside the m x n box this lives inside the n x m box; sizes
    add up to mn.
    """
    return box_complement(lam, m, n).transpose()


def partitions_in_box(m: int, n: int):
    """All partitions fitting in an m x n box, each exactly once."""

    def rec(rows_left, maxpart, acc):
        yield Partition(acc)
        if rows_left == 0:
            return
        for p in range(min(maxpart, n), 0, -1):
            yield from rec(rows_left - 1, p, acc + [p])

    yield from rec(m, n, [])


def jacobi_trudi_delta(lam: Partition, v):
    """det(v_{lam_i + j - i}) over i, j = 1..len(lam); v_j = 0 for j < 0.

    ``v`` is indexed by integers: a sequence (entries beyond the end are
    zero) or a callable.  Entries may be integers or polynomials, so no
    division happens: the determinant is expanded by minors along the
    rows, bottom up, with each minor on the last rows kept by its set of
    columns (2^ell * ell products in place of ell! * ell).
    """
    ell = len(lam)
    if ell == 0:
        return 1

    if callable(v):
        fetch = v
    else:
        seq = list(v)

        def fetch(j):
            return seq[j] if 0 <= j < len(seq) else 0

    entries = [[fetch(lam[i] + j - i) for j in range(ell)] for i in range(ell)]
    # minors[cols]: determinant of the last popcount(cols) rows on the
    # columns in the bitmask cols; a smaller mask is always filled first
    minors = [1] + [0] * ((1 << ell) - 1)
    for cols in range(1, 1 << ell):
        row = entries[ell - bin(cols).count("1")]
        total, sign = 0, 1
        for j in range(ell):
            if cols >> j & 1:
                rest = minors[cols ^ (1 << j)]
                # only integer zeros are skipped; a polynomial is always truthy
                if row[j] and rest:
                    total = total + sign * row[j] * rest
                sign = -sign
        minors[cols] = total
    return minors[-1]


def elementary_values(points):
    """e_0, e_1, ..., e_len(points) of the given integer points."""
    es = [1]
    for x in points:
        es = [es[0]] + [es[i] + x * es[i - 1] for i in range(1, len(es))] + [
            x * es[-1]
        ]
    return es


def schur_at(lam: Partition, points) -> int:
    """s_lam evaluated at integer points, via the dual Jacobi-Trudi formula.

    Uses s_lam = Delta_{lam^T}(e_1, ..., e_n), which stays exact for
    repeated or zero points where the bialternant ratio degenerates.
    """
    n = len(points)
    if len(lam) > n:
        return 0
    es = elementary_values(points)

    def e(j):
        if j == 0:
            return 1
        return es[j] if 0 <= j <= n else 0

    return jacobi_trudi_delta(lam.transpose(), e)


def q_spec(lam: Partition, M: int) -> int:
    """Quadratic specialization s_lam(M^2, (M-2)^2, ...), ending at 1 or 0.

    The evaluation points descend by 2 from M and stop at 1 (M odd) or
    0 (M even); an overlong partition evaluates to 0 by Schur vanishing.
    """
    if M < 0:
        raise ValueError("M must be non-negative")
    points = [(M - 2 * i) ** 2 for i in range(M // 2 + 1)]
    return schur_at(lam, points)


class SchurExpansion:
    """A finite sum  sum_lam c_lam s_lam  in a fixed number of variables."""

    def __init__(self, coefficients: dict, nvars: int):
        self.coefficients = {
            lam: c for lam, c in coefficients.items() if c
        }
        self.nvars = nvars
        for lam in self.coefficients:
            if len(lam) > nvars:
                raise ValueError("partition longer than the variable count")

    def __eq__(self, other):
        return (
            isinstance(other, SchurExpansion)
            and self.nvars == other.nvars
            and self.coefficients == other.coefficients
        )

    def coefficient(self, lam: Partition) -> int:
        return self.coefficients.get(lam, 0)

    def evaluate(self, points) -> int:
        if len(points) != self.nvars:
            raise ValueError("wrong number of evaluation points")
        return sum(c * schur_at(lam, points) for lam, c in self.coefficients.items())

    def __repr__(self):
        body = " + ".join(
            f"{c}*s{lam}" for lam, c in sorted(self.coefficients.items(), key=lambda t: t[0].parts)
        )
        return f"<SchurExpansion {body or '0'}>"


def _check_symmetric(p: GradedPolynomial, k: int):
    if k > p.ring.nvars:
        raise ValueError(f"{k} roots but only {p.ring.nvars} ring variables")
    names = p.ring.names[:k]
    for i in range(k - 1):
        swapped = {}
        for mon, c in p.terms.items():
            m = list(mon)
            m[i], m[i + 1] = m[i + 1], m[i]
            swapped[tuple(m)] = c
        if swapped != p.terms:
            raise ValueError(
                f"polynomial is not symmetric under swapping {names[i]},{names[i+1]}"
            )


def vandermonde(ring: PolyRing, k: int) -> GradedPolynomial:
    v = ring.one()
    for i in range(k):
        for j in range(i + 1, k):
            v = v * (ring.var(i) - ring.var(j))
    return v


def schur_expand(p: GradedPolynomial, k: int = None) -> SchurExpansion:
    """Exact Schur expansion of a symmetric polynomial in its first k variables.

    Bialternant method: multiply by the Vandermonde determinant; the
    coefficient of x^(lam + staircase) is the coefficient of s_lam.
    """
    if k is None:
        k = p.ring.nvars
    _check_symmetric(p, k)
    anti = p * vandermonde(p.ring, k)
    delta = tuple(range(k - 1, -1, -1))
    coeffs = {}
    for mon, c in anti.terms.items():
        if all(mon[i] > mon[i + 1] for i in range(k - 1)):
            lam = Partition(mon[i] - delta[i] for i in range(k))
            coeffs[lam] = c
    return SchurExpansion(coeffs, k)


def root_ring(k: int, names=None, weight: int = 1) -> PolyRing:
    if names is None:
        names = [f"t{i+1}" for i in range(k)]
    return PolyRing(names, weight)


def grassmann_integrate(k: int, n: int, p: GradedPolynomial) -> int:
    """Integral over Gr(k, n) of a symmetric polynomial in k Chern roots.

    Only the part of top degree k(n-k) contributes; the result is the
    coefficient of s_{(n-k)^k}, read off through the bialternant: the
    coefficient of x^staircase in top * Vandermonde, summed over the
    Vandermonde's k! terms.
    """
    if p.is_zero():
        return 0
    dim = k * (n - k)
    top = {}
    for mon, c in p.terms.items():
        if any(mon[k:]):
            raise ValueError("polynomial uses more than k root variables")
        if sum(mon) == dim:
            top[mon] = c
    if not top:
        return 0
    _check_symmetric(GradedPolynomial(p.ring, top), k)
    staircase = p.ring.key(n - 1 - i for i in range(k))
    total = 0
    for v, c in vandermonde(p.ring, k).terms.items():
        # a complement with a negative exponent matches no key of top
        total += c * top.get(tuple(map(sub, staircase, v)), 0)
    return total


def product_of_factors(ring: PolyRing, factors) -> GradedPolynomial:
    """Product of many polynomial factors, multiplied in order."""
    acc = ring.one()
    for f in factors:
        acc = acc * f
    return acc


def grassmann_bundle_pushforward(
    sub_indices, all_indices, g: GradedPolynomial
) -> GradedPolynomial:
    """Pushforward along a Grassmannian-bundle fiber, by Weyl-coset symmetrization.

    ``g`` lives in the ring of all r roots and must be symmetric
    separately in the k roots listed in ``sub_indices`` (the fiber
    subbundle) and in the remaining r-k roots.  The result is

        sum over k-subsets S of {all roots}  of  g_S / prod (t_i - t_j)

    with i in S, j outside, assembled over the common denominator
    Vandermonde(all roots); the division must be exact, anything else
    signals a precondition violation.  The degree drops by k(r-k).
    """
    ring = g.ring
    r = len(all_indices)
    k = len(sub_indices)
    sub = list(sub_indices)
    rest = [i for i in all_indices if i not in sub]
    numerator = ring.zero()
    for subset in itertools.combinations(range(r), k):
        s_positions = [all_indices[i] for i in subset]
        c_positions = [all_indices[i] for i in range(r) if i not in subset]
        # relabel: fiber roots onto the chosen subset, the rest in order
        perm = {}
        for old, new in zip(sub, s_positions):
            perm[old] = new
        for old, new in zip(rest, c_positions):
            perm[old] = new
        moved = {}
        for mon, c in g.terms.items():
            new_exps = [0] * ring.nvars
            for i, e in enumerate(mon):
                if e:
                    new_exps[perm.get(i, i)] += e
            key = tuple(new_exps)
            moved[key] = moved.get(key, 0) + c
        g_s = ring.from_terms(moved)
        sign = 1
        for i in s_positions:
            for j in c_positions:
                if i > j:
                    sign = -sign
        v_s = ring.one()
        for a in range(len(s_positions)):
            for b in range(a + 1, len(s_positions)):
                v_s = v_s * (ring.var(s_positions[a]) - ring.var(s_positions[b]))
        v_c = ring.one()
        for a in range(len(c_positions)):
            for b in range(a + 1, len(c_positions)):
                v_c = v_c * (ring.var(c_positions[a]) - ring.var(c_positions[b]))
        numerator = numerator + sign * g_s * v_s * v_c
    result = numerator
    for a in range(r):
        for b in range(a + 1, r):
            if result.is_zero():
                return result
            result = exact_div(
                result, ring.var(all_indices[a]) - ring.var(all_indices[b])
            )
    return result


@lru_cache(maxsize=None)
def binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out
