"""Euler and Pontryagin classes of sums, tensors and symmetric powers of
rank-2 building blocks, plus the formal bundle-expression grammar.

Euler roots are degree-2 variables (a, b, ...), one per rank-2 block.
The calculus:

  p(Sym^m A)        = prod_{i=0..floor(m/2)} (1 + (m-2i)^2 a^2)
  e(Sym^(2r+1) A)   = (2r+1)!! a^(r+1)
  e(A (x) B)        = Cauchy determinant sum over partitions in a box
  e(Sym^M A (x) Sym^N B) = four parity cases through the quadratic
                      specialization q_lambda(M) = s_lambda(M^2,(M-2)^2,..)
  e(Sym^k(A + B))   = prod_i e(Sym^i A (x) Sym^(k-i) B), the one rule
                      ``_sym_of_sum`` applies for ``euler_of_expression``

Every builder takes its root variables and works in their ring.  Overall
signs follow the printed factor order; consumers compare up to a single
overall sign where orientations are left unchosen.

The bundle-expression nodes (Taut, Trivial, Dual, Sum, Tensor, Sym) are
immutable value objects.  ``_normalize`` flattens one to validated
atoms, and both its Euler class and its rank are read from them.
"""

from __future__ import annotations

import math
import re
import warnings
from itertools import chain, islice, takewhile

from .poly import GradedPolynomial, PolyRing
from .symfunc import (
    box_dual,
    jacobi_trudi_delta,
    partitions_in_box,
    q_spec,
)

ROOT_NAMES = "abcdefgh"


def euler_root_ring(k: int, rank: int) -> PolyRing:
    """Ring of k Euler roots of degree 2, for Euler classes of the given rank."""
    return PolyRing(tuple(ROOT_NAMES[:k]), 2, degree=rank)


def double_factorial(m: int) -> int:
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def orientability_conditions(ell1: int, ell2: int, d: int) -> dict:
    """The numerical conditions for the two-step flag problem on Fl(2,2,d).

    The bundle Sym^ell1(S1*) + Sym^ell2(S2*) must be orientable of even
    rank equal to dim Fl(2,2,d) over an orientable flag variety:
    the last condition is the rank count ell1+1 + C(ell2+3,3) = 4(d+1).
    """
    if ell1 < 0 or ell2 < 0:
        raise ValueError("powers must be non-negative")
    checks = {
        "d_even": d % 2 == 0,
        "c1_sym1_even": math.comb(ell1 + 1, 2) % 2 == 0,
        "c1_sym2_even": math.comb(ell2 + 3, 4) % 2 == 0,
        "rank_sym1_even": (ell1 + 1) % 2 == 0,
        "rank_sym2_even": math.comb(ell2 + 3, 3) % 2 == 0,
        "rank_matches_dim": ell1 + 1 + math.comb(ell2 + 3, 3) == 4 * (d + 1),
    }
    checks["all"] = all(checks.values())
    return checks


def pontryagin_sym_rk2(m: int, var: GradedPolynomial,
                       top: bool = False) -> GradedPolynomial:
    """Total Pontryagin class of Sym^m of a rank-2 bundle with Euler class
    var: the product of 1 + (m - 2i)^2 var^2 over 0 <= i <= m // 2.

    With top, only its part of degree 2 (m + 1), p_top of Sym^m: the
    product of the factors' top terms (m - 2i)^2 var^2, in m // 2 + 1
    integer products where the whole class takes O(m^2) big-integer ones.
    It is 0 for an even m, whose factor i = m / 2 is 1."""
    if m < 0:
        raise ValueError("m must be non-negative")
    ring = var.ring
    squares = [(m - 2 * i) ** 2 for i in range(m // 2 + 1)]
    if top:
        c = math.prod(squares)
        return c * var ** (2 * len(squares)) if c else ring.zero()
    out = ring.one()
    a2 = var * var
    for c in squares:
        out = out * (ring.one() + c * a2)
    return out


def euler_sym_rk2(m: int, var: GradedPolynomial) -> GradedPolynomial:
    """Euler class of Sym^m of a rank-2 bundle: (2r+1)!! a^(r+1) for m = 2r+1.

    Even m yields 0 (a trivial summand splits off).  The paper prints the
    exponent as r; degree bookkeeping and its own uses (15a^3, 3x_1)
    force r+1.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    if m % 2 == 0:
        if m:
            warnings.warn(f"e(Sym^{m}) of a rank-2 bundle vanishes (even m)")
        return var.ring.zero()
    r = (m - 1) // 2
    return double_factorial(m) * var ** (r + 1)


def pontryagin_sequence(p: GradedPolynomial, max_index: int):
    """[v_0..v_max] with v_j the degree-4j part of a total Pontryagin class.

    Assumes the root variables have weight 2, so p_{2j} sits in
    polynomial degree 4j.
    """
    return [p.homogeneous_part(4 * j) for j in range(max_index + 1)]


def euler_tensor_cauchy(pA, pB, m: int, n: int):
    """e(A (x) B) for ranks 2m, 2n from the total Pontryagin sequences.

    pA, pB: sequences indexed by j with entry p_{2j} (index beyond the
    sequence is zero).  Implements the signed double-determinant sum
    over partitions in the m x n box, with the dual partition living in
    the n x m box.
    """

    total = 0
    for lam in partitions_in_box(m, n):
        dual = box_dual(lam, m, n)
        sign = -1 if dual.size % 2 else 1
        term = jacobi_trudi_delta(lam.transpose(), pA)
        if isinstance(term, int) and term == 0:
            continue
        term2 = jacobi_trudi_delta(dual.transpose(), pB)
        total = total + sign * term * term2
    return total


def euler_sym_tensor(M: int, N: int, a: GradedPolynomial,
                     b: GradedPolynomial) -> GradedPolynomial:
    """e(Sym^M(A) (x) Sym^N(B)) for rank-2 A, B with Euler roots a, b."""
    if M < 0 or N < 0:
        raise ValueError("powers must be non-negative")
    ring = a.ring
    m = (M + 1) // 2
    n = (N + 1) // 2
    if M % 2 == 0 and N % 2 == 0:
        return ring.zero()
    E = ring.zero()
    for lam in partitions_in_box(m, n):
        dual = box_dual(lam, m, n)
        c = q_spec(lam, M) * q_spec(dual, N)
        if not c:
            continue
        if dual.size % 2:
            c = -c
        E = E + c * a ** (2 * lam.size) * b ** (2 * dual.size)
    if M % 2 and N % 2:
        return E
    if M % 2 == 0:
        return E * double_factorial(N) * b ** n
    return E * double_factorial(M) * a ** m


def _euler_sym_tensor_cauchy(M: int, N: int, a: GradedPolynomial,
                             b: GradedPolynomial) -> GradedPolynomial:
    """euler_sym_tensor by an independent route, the Cauchy determinant.

    For even M, Sym^M(A) is a rank-M bundle with the same Pontryagin class
    plus a trivial line, which contributes the factor e(Sym^N(B)).
    """
    if M % 2 == 0 and N % 2 == 0:
        return a.ring.zero()  # trivial line (x) trivial line
    m, n = (M + 1) // 2, (N + 1) // 2
    pA = pontryagin_sequence(pontryagin_sym_rk2(M, a), m)
    pB = pontryagin_sequence(pontryagin_sym_rk2(N, b), n)
    out = euler_tensor_cauchy(pA, pB, m, n)
    if M % 2 == 0:
        out = out * euler_sym_rk2(N, b)
    if N % 2 == 0:
        out = out * euler_sym_rk2(M, a)
    return out


# ----------------------------------------------------------------------
# Bundle expressions
# ----------------------------------------------------------------------


class _Node:
    """Base of the bundle-expression nodes: two nodes are equal exactly
    when they have the same class and equal fields."""

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(
                f"{type(self).__name__} takes fields {self.__slots__}, "
                f"got {len(values)} values"
            )
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash((type(self).__name__, self._values()))

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self):
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._values())
        )
        return f"{type(self).__name__}({fields})"


class Taut(_Node):
    __slots__ = ("kind", "index")  # kind "S" or "D"


class Trivial(_Node):
    __slots__ = ("rank",)


class Dual(_Node):
    __slots__ = ("inner",)


class Sum(_Node):
    __slots__ = ("left", "right")


class Tensor(_Node):
    __slots__ = ("left", "right")


class Sym(_Node):
    __slots__ = ("power", "inner")


class BundleGrammarError(ValueError):
    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


_TOKEN = re.compile(
    r"\s*(?:(?P<taut>[SD]\d+)|(?P<triv>triv\(\s*\d+\s*\))"
    r"|(?P<sym>sym\^\d+)|(?P<word>dual)|(?P<punct>[()+*]))"
)


def parse_bundle(text: str):
    """Parse the CLI grammar:
    expr := "S"i | "D"i | triv(r) | dual(expr) | sym^k(expr) | expr+expr | expr*expr
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise BundleGrammarError(
                f"unrecognized token at position {pos}: {rest[:10]!r}", pos
            )
        tokens.append((m.lastgroup, m.group().strip(), m.start()))
        pos = m.end()

    it = {"i": 0}

    def peek():
        return tokens[it["i"]] if it["i"] < len(tokens) else (None, None, len(text))

    def take(expected=None):
        kind, val, at = peek()
        if kind is None:
            raise BundleGrammarError("unexpected end of expression", at)
        if expected and val != expected:
            raise BundleGrammarError(f"expected {expected!r}, found {val!r}", at)
        it["i"] += 1
        return kind, val, at

    def atom():
        kind, val, at = take()
        if kind == "taut":
            return Taut(val[0], int(val[1:]))
        if kind == "triv":
            return Trivial(int(val[5:-1]))
        if kind == "sym":
            k = int(val[4:])
            take("(")
            inner = expr()
            take(")")
            return Sym(k, inner)
        if kind == "word":  # dual
            take("(")
            inner = expr()
            take(")")
            return Dual(inner)
        if val == "(":
            inner = expr()
            take(")")
            return inner
        raise BundleGrammarError(f"unexpected token {val!r}", at)

    def factor():
        node = atom()
        while peek()[1] == "*":
            take("*")
            node = Tensor(node, atom())
        return node

    def expr():
        node = factor()
        while peek()[1] == "+":
            take("+")
            node = Sum(node, factor())
        return node

    result = expr()
    kind, val, at = peek()
    if kind is not None:
        raise BundleGrammarError(f"trailing input at token {val!r}", at)
    return result


def _normalize(expr, nblocks: int):
    """Flatten to a sum of atoms, yielded one at a time: Trivial(r),
    Sym^M(block), or Sym^M(block) (x) Sym^N(block').  Duals of rank-2
    blocks keep their Euler root (even rank), so duals are erased at the
    leaves.  A reader that stops early never builds the k + 1 atoms of a
    large Sym^k(A + B).
    """
    if isinstance(expr, Dual):
        yield from _normalize(expr.inner, nblocks)
    elif isinstance(expr, Taut):
        if not 1 <= expr.index <= nblocks:
            raise ValueError(f"block index {expr.index} exceeds --roots {nblocks}")
        if expr.kind == "D":
            yield ("sym", 1, expr.index)
        else:
            yield from (("sym", 1, j) for j in range(1, expr.index + 1))
    elif isinstance(expr, Trivial):
        if expr.rank:
            yield ("triv", expr.rank)
    elif isinstance(expr, Sum):
        yield from _normalize(expr.left, nblocks)
        yield from _normalize(expr.right, nblocks)
    elif isinstance(expr, Sym):
        yield from _sym_of_sum(expr.power, _normalize(expr.inner, nblocks))
    elif isinstance(expr, Tensor):
        left = list(islice(_normalize(expr.left, nblocks), 2))
        right = list(islice(_normalize(expr.right, nblocks), 2))
        if len(left) != 1 or len(right) != 1:
            raise ValueError(
                "tensor products are supported between single Sym factors"
            )
        yield _tensor_atoms(left[0], right[0])
    else:
        raise TypeError(f"not a bundle expression: {expr!r}")


def _sym_of_sum(k: int, atoms):
    """The atoms of Sym^k of the atoms given, yielded one at a time:
    Sym^k(A + B) = sum_i Sym^(k-i) A (x) Sym^i B."""
    if k == 0:
        yield ("triv", 1)
        return
    head = list(islice(atoms, 3))
    if any(a[0] != "sym" or a[1] != 1 for a in chain(head, atoms)):
        raise ValueError("sym^k is supported on rank-2 blocks and their sums")
    if len(head) == 1:
        yield ("sym", k, head[0][2])
    elif len(head) == 2:
        u, v = head[0][2], head[1][2]
        yield ("sym", k, u)
        for i in range(1, k):
            yield _tensor_atoms(("sym", k - i, u), ("sym", i, v))
        yield ("sym", k, v)
    else:
        raise ValueError("sym^k of a sum of more than two blocks is not supported")


def _tensor_atoms(a, b):
    if a[0] == "triv" or b[0] == "triv":
        raise ValueError("tensor with a trivial factor is not supported")
    if a[2] == b[2]:
        raise ValueError("tensor of two Syms of the same block is not supported")
    return ("symtensor", a[1], a[2], b[1], b[2])


def _atom_rank(atom) -> int:
    """Sym^M of a block has rank M + 1, a tensor of two rank (M + 1)(N + 1),
    triv(r) rank r."""
    if atom[0] == "triv":
        return atom[1]
    if atom[0] == "sym":
        return atom[1] + 1
    return (atom[1] + 1) * (atom[3] + 1)


def bundle_rank(expr, nblocks: int) -> int:
    """Rank with every block of rank 2 (the --roots convention): the sum of
    the ranks of the atoms of _normalize."""
    return sum(map(_atom_rank, _normalize(expr, nblocks)))


def euler_of_expression(expr, nblocks: int) -> GradedPolynomial:
    """Euler class of a bundle expression in the Euler roots of its blocks.
    Its ring's degree bound is the rank of the atoms before the first
    trivial or odd-rank one, where the product stops at 0."""
    nonzero = (lambda atom: atom[0] != "triv" and _atom_rank(atom) % 2 == 0)
    ring = euler_root_ring(
        nblocks, sum(map(_atom_rank, takewhile(nonzero, _normalize(expr, nblocks)))))
    atoms = _normalize(expr, nblocks)
    out = ring.one()
    for atom in atoms:
        if atom[0] == "triv":
            return ring.zero()
        if atom[0] == "sym":
            _, M, i = atom
            if M % 2 == 0:
                return ring.zero()
            out = out * euler_sym_rk2(M, ring.var(i - 1))
        else:
            _, M, i, N, j = atom
            val = euler_sym_tensor(M, N, ring.var(i - 1), ring.var(j - 1))
            if val.is_zero():
                return ring.zero()
            out = out * val
    return out


def _tensor_factors(expr, nblocks: int):
    """Distinct (M, i, N, j) of the Sym^M(D_i) (x) Sym^N(D_j) factors,
    yielded one at a time."""
    seen = set()
    for atom in _normalize(expr, nblocks):
        if atom[0] == "symtensor" and atom[1:] not in seen:
            seen.add(atom[1:])
            yield atom[1:]


def cauchy_minor_products(expr, nblocks: int, limit: int) -> int:
    """A bound on the products of minors that the Cauchy-determinant check
    of the Euler class of expr multiplies out, counted without building a
    factor.

    Per distinct Sym^M (x) Sym^N factor, m = ceil(M/2), n = ceil(N/2):
    jacobi_trudi_delta expands a determinant of j rows in at most
    j 2^(j-1) products (fewer where the matrix has zero entries, most when
    j > m + 1 makes it banded), the conjugate of a partition of the m x n
    box has as many rows as its first part j, and C(j + m - 1, m - 1) of
    those partitions have first part j; the dual partitions fill the n x m
    box.  The count stops at the first term that takes it above limit.
    """
    total = 0
    for M, _, N, _ in _tensor_factors(expr, nblocks):
        m, n = (M + 1) // 2, (N + 1) // 2
        for a, b in ((m, n), (n, m)):
            for j in range(1, b + 1):
                total += math.comb(j + a - 1, a - 1) * j << (j - 1)
                if total > limit:
                    return total
    return total


def euler_coefficient_floor(expr, nblocks: int, cap: int) -> int:
    """A lower bound on |c| over the coefficients c of the Euler class of
    expr, read without computing it; 0 when that class is 0.

    The class is 0 exactly when an atom is trivial or of odd rank.
    Otherwise every Sym^M atom is M!! a^(r+1) and every tensor atom a
    nonzero integer polynomial, so the product of those M!! divides every
    coefficient.  It is taken factor by factor and stops once it reaches
    cap, so a huge M costs a few hundred multiplications, not M/2.
    """
    floor = 1
    for atom in _normalize(expr, nblocks):
        if atom[0] == "triv" or _atom_rank(atom) % 2:
            return 0
        if atom[0] == "sym":
            for factor in range(atom[1], 1, -2):
                if floor >= cap:
                    break
                floor *= factor
    return floor


def euler_checks(expr, nblocks: int, euler: GradedPolynomial) -> list:
    """(statement, holds) pairs that check euler, the Euler class of expr,
    by a second route.  Per Sym^M(D_i) (x) Sym^N(D_j) factor: the
    Cauchy-determinant route equals euler_sym_tensor(M, N).  With no such
    factor, every atom is Sym^M(D_i) or trivial, and e(E)^2 = p_top(E), the
    part of degree 2 rank(E) of p(E): the product over the atoms of
    p_top(Sym^M(D_i)) from pontryagin_sym_rk2, and of 0 for a trivial atom
    of positive rank.  Both sides are 0 for an odd rank, as e is.
    """
    checks = [
        (f"Sym^{M}(D{i}) (x) Sym^{N}(D{j}): Cauchy determinant = "
         f"euler_sym_tensor({M}, {N})",
         _euler_sym_tensor_cauchy(M, N, a, b) == euler_sym_tensor(M, N, a, b))
        for M, i, N, j in _tensor_factors(expr, nblocks)
        for a, b in [euler_root_ring(2, (M + 1) * (N + 1)).gens()]
    ]
    if checks:
        return checks
    ring = euler_root_ring(nblocks, 2 * bundle_rank(expr, nblocks))
    p_top = ring.one()
    for atom in _normalize(expr, nblocks):
        p_top = p_top * (
            ring.one().homogeneous_part(2 * atom[1]) if atom[0] == "triv"
            else pontryagin_sym_rk2(atom[1], ring.var(atom[2] - 1), top=True))
    e = ring.from_terms({euler.ring.exponents(k): c for k, c in euler.terms.items()})
    return [("e(E)^2 = p_top(E), p from pontryagin_sym_rk2 of each Sym^M(D_i)",
             e * e == p_top)]
