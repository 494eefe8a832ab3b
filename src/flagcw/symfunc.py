"""Partitions, Jacobi-Trudi determinants, Schur evaluations, Grassmannian integrals.

The integration convention: for the Grassmannian of k-subspaces of an
n-space, a symmetric polynomial in the k Chern roots of the (dual)
tautological subbundle integrates to the coefficient of the Schur
polynomial s_{(n-k)^k}, extracted by the bialternant trick -- multiply
by the Vandermonde determinant and read off the staircase coefficient
(n-1, n-2, ..., n-k).  The kernel ``grassmann_integrate_product`` is the
only reader of that coefficient; a single polynomial is integrated as a
one-factor product.  It integrates a permutation-stable list of factors
without forming their full product: it pairs each factor, and each
difference of roots in the Vandermonde, with its image under the
reversal of the roots, multiplies one of each pair (and the
reversal-fixed ones left over), and reads the staircase coefficient as
one sum of products of coefficients of that half product and of its own
reversal.  Everything is exact over the integers.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .poly import ExponentOverflow, GradedPolynomial, PolyRing, exact_div


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

    @property
    def size(self) -> int:
        return sum(self.parts)

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

    ``v`` is a sequence v_0, v_1, ...; entries beyond its end are zero.
    Entries may be integers or polynomials, so no division happens: the
    determinant is expanded by minors along the rows, bottom up, with each
    minor on the last rows kept by its set of columns.  A set is kept only
    while it can still be completed, that is while it holds every column
    in which no row above has a nonzero entry, and only nonzero minors are
    kept.  So at most 2^ell * ell products are taken, and about
    ell * w * 2^w when the nonzero entries lie in a band of width w (v ends
    early).
    """
    ell = len(lam)
    if ell == 0:
        return 1
    n = len(v)
    entries = [[v[k] if 0 <= k < n else 0 for k in range(lam[i] - i, lam[i] - i + ell)]
               for i in range(ell)]
    # need[i]: the columns that no row above row i can fill; only integer
    # zeros count as zero, a polynomial is always truthy
    full, need, above = (1 << ell) - 1, [], 0
    for row in entries:
        need.append(full & ~above)
        above |= sum(1 << j for j, e in enumerate(row) if e)
    # minors[cols]: determinant of the last popcount(cols) rows on the
    # columns in the bitmask cols
    minors = {0: 1}
    for i in reversed(range(ell)):
        grown = {}
        for cols, rest in minors.items():
            sign = 1
            for j, e in enumerate(entries[i]):
                if cols >> j & 1:
                    sign = -sign
                elif e and need[i] & ~cols & ~(1 << j) == 0:
                    new = cols | 1 << j
                    grown[new] = grown.get(new, 0) + sign * e * rest
        minors = {cols: m for cols, m in grown.items() if m}
    return minors.get(full, 0)


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
    if len(lam) > len(points):
        return 0
    return jacobi_trudi_delta(lam.transpose(), elementary_values(points))


def q_spec(lam: Partition, M: int) -> int:
    """Quadratic specialization s_lam(M^2, (M-2)^2, ...), ending at 1 or 0.

    The evaluation points descend by 2 from M and stop at 1 (M odd) or
    0 (M even); an overlong partition evaluates to 0 by Schur vanishing.
    """
    if M < 0:
        raise ValueError("M must be non-negative")
    points = [(M - 2 * i) ** 2 for i in range(M // 2 + 1)]
    return schur_at(lam, points)


def vandermonde(ring: PolyRing, indices) -> GradedPolynomial:
    """prod_{a < b} (x_{indices[a]} - x_{indices[b]})."""
    v = ring.one()
    for a, i in enumerate(indices):
        for j in indices[a + 1:]:
            v = v * (ring.var(i) - ring.var(j))
    return v


def root_ring(k: int, degree: int) -> PolyRing:
    """Ring of k Chern roots of weight 1, for integrands of degree <= degree."""
    return PolyRing([f"t{i+1}" for i in range(k)], degree=degree)


def grassmann_integrate(k: int, n: int, p: GradedPolynomial) -> int:
    """Integral over Gr(k, n) of a symmetric polynomial in k Chern roots:
    the one-factor case of ``grassmann_integrate_product``."""
    return grassmann_integrate_product(k, n, [p])


def product_of_factors(ring: PolyRing, factors) -> GradedPolynomial:
    """Product of many polynomial factors, multiplied in order."""
    acc = ring.one()
    for f in factors:
        acc = acc * f
    return acc


def _check_factors_symmetric(factors, k: int) -> Counter:
    """Raise unless the multiset of factors is stable under every swap of
    adjacent roots among the first k, which makes their product symmetric.

    Returns that multiset: a ``Counter`` of factors, each factor given as
    the frozenset of its (key, coefficient) terms.
    """
    if not factors:
        raise ValueError("the factor list must be non-empty")
    ring = factors[0].ring
    if k > ring.nvars:
        raise ValueError(f"{k} roots but only {ring.nvars} ring variables")
    for f in factors:
        if f.ring != ring:
            raise ValueError("factors live in different rings")
        # a key at least that of t_{k+1} has an exponent past the first k
        if k < ring.nvars and any(mon >= ring.var_keys[k] for mon in f.terms):
            raise ValueError("factor uses more than k root variables")
    names = ring.names[:k]
    multiset = Counter(frozenset(f.terms.items()) for f in factors)
    for i in range(k - 1):
        order = list(range(ring.nvars))
        order[i], order[i + 1] = i + 1, i
        swapped = Counter()
        for f in multiset:
            moved = frozenset((ring.permuted(mon, order), c) for mon, c in f)
            swapped[moved] += multiset[f]
        if swapped != multiset:
            raise ValueError(
                f"factor list is not stable under swapping {names[i]},{names[i+1]}"
            )
    return multiset


def _split_by_reversal(multiset, ring: PolyRing, k: int):
    """Split a reversal-stable multiset of factors as H + rho(H) + F.

    rho reverses the first k roots of ring, t_i -> t_{k+1-i}; ``multiset``
    maps each factor (the frozenset of its terms) to its multiplicity and
    must be stable under rho.  Each factor is paired with its rho-image: H
    (``half``) holds one of each pair, F (``fixed``) the rho-fixed factors
    left over, at most one copy of each.  Both are lists of frozensets,
    with repeats.
    """
    order = [*range(k - 1, -1, -1), *range(k, ring.nvars)]
    half, fixed = [], []
    paired = set()
    for f, count in multiset.items():
        if f in paired:
            continue
        image = frozenset((ring.permuted(mon, order), c) for mon, c in f)
        if image == f:
            half += [f] * (count // 2)
            fixed += [f] * (count % 2)
        else:
            half += [f] * count
            paired.add(image)
    return half, fixed


def grassmann_integrate_product(k: int, n: int, factors) -> int:
    """Integral over Gr(k, n) of the product of factors in k Chern roots.

    The factor list must be non-empty, and every permutation of the k
    roots must map it to itself (checked up front, so the product P is
    symmetric); Gr(k, n) is empty for n < k, where the integral is 0.
    Only the part of top degree k(n-k) contributes; the result is the
    coefficient of s_{(n-k)^k}, read off through the bialternant: the
    coefficient of t^staircase in P * Delta, Delta the Vandermonde
    prod_{i<j} (t_i - t_j).

    Only half of P * Delta is formed.  The list is stable under rho, the
    reversal t_i -> t_{k-1-i} of the first k roots, so it splits as
    H + rho(H) + F with F fixed by rho (``_split_by_reversal``).  rho maps
    t_i - t_j to minus the difference at (k-1-j, k-1-i), so with G the
    differences with i + j < k-1 and F' those with i + j = k-1,
    Delta = (-1)^|G| * G(t) * G(rho t) * F'(t).  Hence
    P * Delta = (-1)^|G| * L(t) * A(rho t) for A = prod H * G and
    L = A * prod F * F', and the answer is (-1)^|G| times the one sum
    sum_b L[b] * A[rho(staircase - b)], over the smaller of L and A(rho t).

    The bialternant reads only exponents up to n-1 and exponents only
    grow, so after each factor every monomial with an exponent above n-1
    is dropped.  Monomials are the keys of the factors' ring, W bits per
    root, so a product of monomials is one add; n-1 must fit a field, or
    ExponentOverflow is raised.  Every accumulated key carries
    2^(W-1)-1-(n-1) in each of the first k fields, so a field's top bit
    is set exactly when its exponent exceeds n-1.  A field of a kept key
    plus a factor exponent of at most n-1 stays below 2^W and never
    carries into the next field.  For the same reason, subtracting the
    kept key of b from the key of a with 2^(W-1) added to every field
    borrows across no field, and leaves a field's top bit set exactly
    when b <= a there.
    """
    if k < 0 or n < 0:
        raise ValueError(f"Gr({k}, {n}) needs k, n >= 0")
    factors = list(factors)
    multiset = _check_factors_symmetric(factors, k)
    if n < k:
        return 0
    ring = factors[0].ring
    half, fixed = _split_by_reversal(multiset, ring, k)
    # the differences t_i - t_j of Delta, as (key, coefficient) pairs
    unit = ring.var_keys
    pairs = list(itertools.combinations(range(k), 2))
    g = [((unit[i], 1), (unit[j], -1)) for i, j in pairs if i + j < k - 1]
    half += g
    fixed += [((unit[i], 1), (unit[j], -1)) for i, j in pairs if i + j == k - 1]
    cap, room = n - 1, (1 << ring.width - 1) - 1
    if cap > room:
        raise ExponentOverflow(f"Gr({k}, {n}) reads exponents past the fields of {ring!r}")
    off, high = ring.key([room - cap] * k), ring.high

    def times(acc, fs):
        for f in fs:
            # a factor term above the cap only makes products above the cap
            terms = [(key2, c2) for key2, c2 in f if not (key2 + off) & high]
            out = {}
            get = out.get
            for key2, c2 in terms:
                for key1, c1 in acc.items():
                    key = key1 + key2
                    if not key & high:
                        out[key] = get(key, 0) + c1 * c2
            acc = out
        return acc

    half_product = times({off: 1}, half)
    low = times(half_product, fixed)
    # A(rho t): reverse the first k fields of each key; off is the same in each
    order = [*range(k - 1, -1, -1), *range(k, ring.nvars)]
    reflected = {ring.permuted(key, order): c for key, c in half_product.items()}
    small, big = sorted((low, reflected), key=len)
    get = big.get
    lift = off - high
    top = ring.key([n - 1 - i for i in range(k)]) + high + off
    total = 0
    for key, c1 in small.items():
        d = top - key
        # b <= staircase in every field; a key failing this would match no
        # key of big, so the test only saves the lookup
        if d & high == high:
            c2 = get(d + lift)
            if c2:
                total += c1 * c2
    return (-1) ** len(g) * total


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
        order = list(range(ring.nvars))
        for old, new in zip(sub + rest, s_positions + c_positions):
            order[new] = old
        g_s = GradedPolynomial(
            ring, {ring.permuted(mon, order): c for mon, c in g.terms.items()})
        sign = 1
        for i in s_positions:
            for j in c_positions:
                if i > j:
                    sign = -sign
        numerator = numerator + (sign * g_s * vandermonde(ring, s_positions)
                                 * vandermonde(ring, c_positions))
    result = numerator
    for a in range(r):
        for b in range(a + 1, r):
            if result.is_zero():
                return result
            result = exact_div(
                result, ring.var(all_indices[a]) - ring.var(all_indices[b])
            )
    return result
