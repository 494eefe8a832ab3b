"""Chow rings of type-A partial flag varieties.

``FlagShape`` owns the block layout of D: N, m, dim Fl(D) and the
generator span (s_{i-1}, s_i) of each block, computed once.  Every
module reads block sizes and spans from it, and every public method that
takes a block number reads it through ``FlagShape.size``, which refuses
numbers outside 1..m.  ``TwistClass`` is Pic(Fl(D))/2, the twists that
Sq^2 and W_D are graded by.

CH^*(Fl(D)), D = (d_1, ..., d_m), is generated by the Chern classes
c_{i,j} = c_j(D_i) of the subquotient blocks subject to prod_i c(D_i) = 1,
and it is computed on these generators.  Put s_{i-1} = d_1 + ... + d_{i-1},
the rank of F_{i-1} = D_1 + ... + D_{i-1}.  Since c(F_{i-1}) c(D_i + ...
+ D_m) = 1, the complete homogeneous classes of F_{i-1} are
h_k = (-1)^k c_k(D_i + ... + D_m), products of the Chern classes of the
blocks alone.  Each partition lam with s_{i-1} + 1 parts, all at most
d_i, gives the relation

    G_lam = det(h_{lam_a - a + b})_{a, b <= s_{i-1} + 1} = 0

(the Jacobi-Trudi determinant of the Schur class s_lam of F_{i-1}, which
has too few roots), whose leading monomial prod_a c_{i,lam_a} has
coefficient +-1.  A monomial is standard when it has at most s_{i-1}
factors from every block i.  By Leray-Hirsch along the tower of
Grassmann bundles Fl(D) -> Fl(d_1 + d_2, d_3, ..., d_m) -> ..., the
standard monomials are a ZZ-basis, multinomial(N; D) of them: the
product of the fibre bases, in which block i contributes its C(s_i, d_i)
monomials with at most s_{i-1} factors, a basis of CH^*(Gr(d_i, s_i)).
The Poincare polynomial is the same tower product: ``chow_poincare``
multiplies the fibre series [s_i choose d_i]_t one block at a time.
``ChowRingPresentation`` holds the only rewrite rules and leading terms,
applied monomial by monomial through per-ring memos that also keep every
monomial a rewrite passes through.

A monomial is its key in the ring of the shape (see ``poly``), whose
degree bound is dim Fl(D), and the reducer reads the keys of polynomial
terms as they are.  Every exponent and every block count of a monomial
of degree at most dim is at most dim, so no field reaches its flag.  A
monomial above the top degree reduces to 0: a key that misses the memo
is let through only when the ring reads its degree as at most dim, and
a sum of two keys (a W_D product column) may set a flag but never
carries, so its degree reads true.  A rewrite keeps the degree, so the
keys made inside the recursion need no test.  The first block i with
more than s_{i-1} factors is read off the key with one multiplication:
key * gather places each block count in a field of its own, adding
2^(W-1) - 1 - s_{i-1} there sets the field's top bit exactly when the
count exceeds s_{i-1}, and the lowest flag names the block, whose
fields alone give the leading term.  Each rule is stored once per
leading term as (delta, coefficient) pairs, delta = tail - lead read
off the terms of its relation, so a rewrite is key + delta.

The integer memo maps a key to {standard key: coeff}; ``reduce_sums``
sums its entries into normal forms of sums of (key, coefficient) terms
(for ``normal_form`` and W_D product columns), and
``multiplication_matrix`` adds the keys of the standard monomials and of
the multiplier.  The mod-2 memo maps a key of degree d to a bitmask over
``standard_index(d)``, built from the odd rule tails alone, one XOR each;
``reduce_mod2_mask`` XORs its entries into the one mod-2 value type, a
bitmask (for ``Mod2Chow.nf2`` and every Sq^2 row of ``steenrod``).

The top degree dim Fl(D) has exactly one standard monomial t, and
``integrate`` reads the degree of a class from it.  The class of a point
is the top Chern class of the direct sum over i < m of Hom(D_i, A^N/F_i),
each quotient taken trivial: [pt] = prod_{i<m} (-1)^{d_i r_i} c_{i,d_i}^{r_i},
r_i = N - s_i.  Its normal form is +-t, which fixes the orientation:
the integral of p is the coefficient of t in the normal form of p,
divided by that sign, so that [pt] integrates to 1.

``chow_ring(shape)`` is the one owner of CH^*(Fl(D)): CH, Ch^* and Sq^2,
the Pontryagin ring of W_D and the ideal checks read the ring of a shape
there, built once.  Each memo entry and rule depends only on its monomial
or leading term, so sharing changes no answer.  The two reducer memos
are the only per-ring caches: multiplication matrices and ideal lattices
are computed fresh on each call, and the caller owns what it gets.
Every complete flag D = (1^N), the empty shape included, gets a
``FullFlagRing``: generators x_1..x_N, the classical rules
x_k^k -> -(h_k(x_k..x_N) - x_k^k), and the Schubert classes x_{[i]}.

The ideal section works on any presentation: ``ideal_lattice`` spans an
ideal in one degree, ``ideal_quotient_degreewise`` solves (I : J) degree
by degree (with I = 0 it is the annihilator of J), and one check
compares (I : J) with a principal ideal (g) in every degree.  The
paper's (x_[i] : x_[j]) = (x_[i]\\[j]) on Fl(N) and the annihilator of
c_top(D_m) on Fl(D) are both that check.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations_with_replacement, product

from . import intlinalg, series
from .poly import GradedPolynomial, PolyRing
from .symfunc import jacobi_trudi_delta


class FlagShape:
    """A composition D = (d_1, ..., d_m) of N into positive parts, and the
    one owner of its block layout.

    N, m, dim Fl(D) = (N^2 - sum d_i^2) / 2 and ``spans`` are computed
    once: spans[i - 1] = (s_{i-1}, s_i), the 0-based indices start..stop
    of the generators c_{i,1}..c_{i,d_i} of block i.  ``size(i)`` is the
    one checked reader of a 1-based block number; a zero part is refused,
    not dropped, so block numbers mean what the caller wrote.
    """

    def __init__(self, parts):
        parts = tuple(int(d) for d in parts)
        if 0 in parts:
            raise ValueError(f"block {parts.index(0) + 1} has size 0")
        if any(d < 0 for d in parts):
            raise ValueError("block sizes must be non-negative")
        self.d = parts
        ends = tuple(accumulate(parts, initial=0))
        self.N = ends[-1]
        self.m = len(parts)
        self.dim = (self.N ** 2 - sum(d * d for d in parts)) // 2
        self.spans = tuple(zip(ends, ends[1:]))

    def size(self, i: int) -> int:
        """d_i for the 1-based block number i; ValueError outside 1..m."""
        if not 1 <= i <= self.m:
            raise ValueError(f"block {i} out of range 1..{self.m} for shape {self}")
        return self.d[i - 1]

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


class TwistClass:
    """Element of F_2<l_1..l_m> / (l_1 + ... + l_m), i.e. Pic(Fl(D))/2.

    Stored as the lexicographically smaller of the two coset bit vectors.
    """

    __slots__ = ("bits",)

    def __init__(self, bits):
        bits = tuple(int(b) & 1 for b in bits)
        comp = tuple(1 - b for b in bits)
        self.bits = min(bits, comp)

    @staticmethod
    def trivial(m: int) -> "TwistClass":
        return TwistClass((0,) * m)

    @staticmethod
    def from_blocks(m: int, blocks) -> "TwistClass":
        bits = [0] * m
        for i in blocks:
            if not 1 <= i <= m:
                raise ValueError(f"block index {i} out of range 1..{m}")
            bits[i - 1] ^= 1
        return TwistClass(bits)

    def __add__(self, other: "TwistClass") -> "TwistClass":
        return TwistClass(a ^ b for a, b in zip(self.bits, other.bits))

    def is_trivial(self) -> bool:
        return not any(self.bits)

    def __eq__(self, other):
        return isinstance(other, TwistClass) and self.bits == other.bits

    def __hash__(self):
        return hash(self.bits)

    def __str__(self):
        if self.is_trivial():
            return "0"
        return ",".join(str(i + 1) for i, b in enumerate(self.bits) if b)

    def __repr__(self):
        return f"TwistClass({self.bits})"


def all_twist_classes(m: int):
    classes = {TwistClass(bits) for bits in product((0, 1), repeat=m)}
    return sorted(classes, key=lambda t: (sum(t.bits), t.bits))


def chow_poincare(shape: FlagShape):
    """Poincare polynomial of CH^*(Fl(D)): the product over the tower of
    the fibre series [s_i choose d_i]_t of CH^*(Gr(d_i, s_i)).

    Block i multiplies in (1 - t^(b+j)) / (1 - t^j) for j = 1..a, one
    factor at a time, with {a, b} = {d_i, s_{i-1}} and a the smaller, since
    [s_i choose d_i]_t = [s_i choose s_{i-1}]_t.  So every intermediate is
    the Poincare polynomial of a partial tower times a Gaussian binomial:
    each division is exact and no intermediate is longer than the answer.
    """
    out = [1]
    for start, stop in shape.spans:
        a, b = sorted((start, stop - start))
        for j in range(1, a + 1):
            out = series.exact_div(
                series.mul(out, series.one_minus_t_pow(b + j)),
                series.one_minus_t_pow(j),
            )
    return out


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
        lines = shape.is_full_flag()
        names, weights = [], []
        for i, d in enumerate(shape.d, start=1):
            for j in range(1, d + 1):
                names.append(f"x{i}" if lines else f"c{i}_{j}")
                weights.append(j)
        self.ring = PolyRing(names, weights, degree=shape.dim)
        self.dim = shape.dim
        # block i holds the variables start..stop-1, and start = s_{i-1}
        self._spans = shape.spans
        self._poincare = chow_poincare(shape)
        self._completes = None
        self._init_keys()
        # leading key -> its rule, as key deltas
        self._rule_memo = {}
        # key -> normal form of every monomial reduced so far, standard
        # ones included
        self._nf_memo = {}
        # the same mod 2, as a bitmask over standard_index(degree of key)
        self._nf2_memo = {}
        self._standard = None  # degree -> standard monomials, built once
        self._standard_index = {}

    def generator(self, i: int, j: int) -> GradedPolynomial:
        """c_j(D_i) as a ring variable."""
        if not 1 <= j <= self.shape.size(i):
            raise ValueError(f"c_{j}(D_{i}) is not a generator")
        return self.ring.var(self._spans[i - 1][0] + j - 1)

    def top_chern(self, i: int) -> GradedPolynomial:
        return self.generator(i, self.shape.size(i))

    def rank(self, d: int) -> int:
        p = self._poincare
        return p[d] if 0 <= d < len(p) else 0

    # -- monomial keys ---------------------------------------------------------

    def _init_keys(self):
        """Lay out the block counts of the keys (see the module docstring).

        gather holds a 1 at field F_b - v for each variable v of the
        0-based block b, so field F_b of key * gather is the count of
        block b.  Block b reaches the fields F_b - (s_b - 1) .. F_b + N - 1
        - s_{b-1} of that product, and these ranges follow one another, so
        each field sums distinct exponents and stays at most the degree.
        """
        n, width = self.ring.nvars, self.ring.width
        gather = offsets = flags = 0
        blocks = {}
        field = 0
        for start, stop in self._spans:
            field += stop - 1  # F_b
            for v in range(start, stop):
                gather |= 1 << width * (field - v)
            offsets |= ((1 << width - 1) - 1 - start) << width * field
            flags |= 1 << width * field + width - 1
            # by the bit_length of the block's flag: the count s_{b-1} + 1
            # of the leading term and the shifts of its fields, top down
            blocks[width * (field + 1)] = (
                start + 1, range(width * (stop - 1), width * start - 1, -width))
            field += n - start
        self._key_gather, self._key_offsets, self._key_flags = gather, offsets, flags
        self._key_blocks = blocks

    def _lead(self, key: int):
        """Key of the leading monomial of the rule that rewrites the
        monomial key (of degree at most dim); None if it is standard.

        It is the s_{i-1} + 1 largest indices of the first block i that
        has more than s_{i-1} factors: the lowest flag of the gathered
        block counts names the block, and only its fields are read.  On
        a line block k + 1 (s_k = k) it is x_{k+1}^{k+1}.
        """
        flags = (key * self._key_gather + self._key_offsets) & self._key_flags
        if not flags:
            return None
        left, shifts = self._key_blocks[(flags & -flags).bit_length()]
        mask, lead = (1 << self.ring.width) - 1, 0
        for shift in shifts:
            e = key >> shift & mask
            if e >= left:
                break
            lead |= e << shift
            left -= e
        return lead | left << shift

    # -- the rewrite rules --------------------------------------------------

    def _complete(self, b: int):
        """h_0..h_K for the 0-based block b, K = min(N - s_b, dim):
        h_k = (-1)^k c_k(D_{b+1} + ... + D_m), the complete homogeneous
        classes of D_1 + ... + D_b.  Built for every block at once, from
        the last block up, as the products c(D_t) c(D_{t+1} + ... + D_m)."""
        if self._completes is None:
            one, zero = self.ring.one(), self.ring.zero()
            rest = [one]  # c(D_t + ... + D_m) up to the top degree
            self._completes = [None] * len(self._spans)
            for t in reversed(range(len(self._spans))):
                start, stop = self._spans[t]
                c = [one] + [self.ring.var(v) for v in range(start, stop)]
                d, top = stop - start, len(rest) - 1
                rest = [
                    sum((c[j] * rest[k - j] for j in range(max(0, k - top), min(k, d) + 1)),
                        zero)
                    for k in range(min(top + d, self.dim) + 1)
                ]
                self._completes[t] = [-p if k % 2 else p for k, p in enumerate(rest)]
        return self._completes[b]

    def _tails(self, lead: int):
        """[(key, coefficient), ...] whose sum equals the key lead in the ring.

        lead = prod_a c_{i,lam_a} with lam of s_{i-1} + 1 parts, and the
        relation is G_lam = det(h_{lam_a - a + b})_{a,b <= s_{i-1}+1}, the
        Jacobi-Trudi determinant of the Schur class s_lam of D_1 + ... +
        D_{i-1}, zero because that bundle has only s_{i-1} Chern roots.
        Every index the determinant reads is at most lam_1 + s_{i-1} <=
        |lam| <= dim, where h is exact.
        """
        exps = self.ring.exponents(lead)
        b = next(b for b, (start, stop) in enumerate(self._spans)
                 if any(exps[start:stop]))
        start, stop = self._spans[b]
        lam = [v - start + 1 for v in range(stop - 1, start - 1, -1)
               for _ in range(exps[v])]
        rel = self.ring.zero() + jacobi_trudi_delta(lam, self._complete(b))
        c = rel.terms.get(lead, 0)
        if c not in (1, -1):
            raise ArithmeticError(
                f"relation for {exps} has leading coefficient {c}, not +-1"
            )
        return [(m, -c * k) for m, k in rel.terms.items() if m != lead]

    def _rule(self, lead: int):
        """The rule of the leading key lead, built once: ([(delta,
        coefficient), ...], [delta of each odd coefficient]), delta =
        tail - lead, so that a rewrite of key is key + delta."""
        rule = self._rule_memo.get(lead)
        if rule is None:
            pairs = [(tail - lead, k) for tail, k in self._tails(lead)]
            rule = (pairs, [delta for delta, k in pairs if k & 1])
            self._rule_memo[lead] = rule
        return rule

    def _monomial_nf(self, key: int) -> dict:
        """Normal form of the monomial key (of degree at most dim), as
        {standard key: coeff}.

        Memoized; the returned dict is shared and must not be mutated.
        A rewrite lowers the first block with too many factors (fewer of
        its factors, or the same number with a more dominant partition)
        and leaves the blocks before it alone, so the recursion ends.
        """
        memo = self._nf_memo
        lead = self._lead(key)
        if lead is None:
            nf = {key: 1}
        else:
            acc = {}
            for delta, k in self._rule(lead)[0]:
                term = key + delta
                reduced = memo.get(term)
                if reduced is None:
                    reduced = self._monomial_nf(term)
                for m, c in reduced.items():
                    acc[m] = acc.get(m, 0) + k * c
            nf = {m: c for m, c in acc.items() if c}
        memo[key] = nf
        return nf

    def reduce_sums(self, sums) -> list:
        """Normal forms {standard key: coefficient} of the given sums of
        (key, coefficient) pairs; a coefficient may be 0 where terms
        cancelled.  A key may be the sum of two keys of the ring, flags
        set or not.  One that misses the memo is reduced only when the
        ring reads its degree as at most dim; above it adds nothing."""
        memo, nf = self._nf_memo, self._monomial_nf
        degree, dim = self.ring.monomial_degree, self.dim
        out = []
        for terms in sums:
            acc: dict = {}
            for key, k in terms:
                reduced = memo.get(key)
                if reduced is None:
                    if degree(key) > dim:
                        continue
                    reduced = nf(key)
                for m, c in reduced.items():
                    acc[m] = acc.get(m, 0) + k * c
            out.append(acc)
        return out

    def _monomial_nf2(self, key: int, index) -> int:
        """Mod-2 normal form of the monomial key (of degree at most dim),
        as a bitmask over index = standard_index(degree of key).

        Memoized apart from the integer memo.  It follows the integer
        recursion through the same leading keys and rules, but only the
        odd tails are read, one XOR each; every tail has the degree of
        key, so one index serves.
        """
        memo = self._nf2_memo
        lead = self._lead(key)
        if lead is None:
            mask = 1 << index[key]
        else:
            mask = 0
            for delta in self._rule(lead)[1]:
                term = key + delta
                reduced = memo.get(term)
                if reduced is None:
                    reduced = self._monomial_nf2(term, index)
                mask ^= reduced
        memo[key] = mask
        return mask

    def reduce_mod2_mask(self, monomials, d: int) -> int:
        """Mod-2 normal form of the sum of the given keys, all of degree
        d, as a bitmask over standard_index(d): bit i is set when the i-th
        standard monomial has odd coefficient (a repeated key cancels).
        Above the top degree it is 0."""
        if d > self.dim:
            return 0
        memo, nf, index = self._nf2_memo, self._monomial_nf2, self.standard_index(d)
        mask = 0
        for key in monomials:
            reduced = memo.get(key)
            if reduced is None:
                reduced = nf(key, index)
            mask ^= reduced
        return mask

    def normal_form(self, p: GradedPolynomial) -> GradedPolynomial:
        """Unique representative supported on standard monomials."""
        if p.ring != self.ring:
            raise ValueError("polynomial not in this Chow ring")
        (out,) = self.reduce_sums([p.terms.items()])
        return GradedPolynomial(self.ring, {m: c for m, c in out.items() if c})

    # -- the standard basis ----------------------------------------------------

    def standard_monomials(self, d: int):
        """Keys of the standard monomials of degree d, in descending order
        of their exponent tuples, read from one table built for every
        degree as the product of the fibre bases.  Raises ArithmeticError
        unless their number is the Poincare coefficient."""
        if self._standard is None:
            key = self.ring.key
            table = {0: [0]}
            for start, stop in self._spans:
                # c_{i,j}^{e_j} is weight j picked e_j times among `start`
                # picks from 0..d_i, so at most s_{i-1} factors
                weights, fibre, pad = range(stop - start + 1), {}, (0,) * start
                for pick in combinations_with_replacement(weights, start):
                    exps = pad + tuple(map(pick.count, weights[1:]))
                    fibre.setdefault(sum(pick), []).append(key(exps))
                product = {}
                for deg, heads in table.items():
                    for w, tails in fibre.items():
                        product.setdefault(deg + w, []).extend(
                            h + t for h in heads for t in tails)
                table = product
            for mons in table.values():
                mons.sort(key=self.ring.exponents, reverse=True)
            self._standard = table
        mons = self._standard.get(d, [])
        if len(mons) != self.rank(d):
            raise ArithmeticError(
                f"{len(mons)} standard monomials in degree {d} for shape "
                f"{self.shape}, Poincare coefficient {self.rank(d)}"
            )
        return mons

    # bench/tracer.py wraps this name
    image_basis = standard_monomials

    def standard_index(self, d: int):
        index = self._standard_index.get(d)
        if index is None:
            index = {m: i for i, m in enumerate(self.standard_monomials(d))}
            self._standard_index[d] = index
        return index

    def multiplication_matrix(self, g: GradedPolynomial, d: int):
        """Matrix of multiplication by homogeneous g: degree d -> d + deg g.

        Columns indexed by the standard basis in degree d, rows by the
        standard basis in degree d + deg g.  Column j is the normal form
        of the j-th standard monomial times g.
        """
        if g.ring != self.ring:
            raise ValueError("polynomial not in this Chow ring")
        e, degree = g.degree(), self.ring.monomial_degree
        if any(degree(gm) != e for gm in g.terms):
            raise ValueError("multiplier is not homogeneous")
        mons = self.standard_monomials(d)
        index = self.standard_index(d + e)
        mat = [[0] * len(mons) for _ in index]
        if index:
            # every product lies in degree d + e <= dim
            sums = zip(*[[(key + gk, gc) for key in mons]
                         for gk, gc in g.terms.items()])
            for j, col in enumerate(self.reduce_sums(sums)):
                for m, c in col.items():
                    mat[index[m]][j] = c
        return mat

    # -- integration -----------------------------------------------------------

    def point_class(self) -> GradedPolynomial:
        """prod_{i<m} c_top(Hom(D_i, A^N/F_i)), with A^N/F_i taken trivial:
        prod_{i<m} (-1)^{d_i r_i} c_{i,d_i}^{r_i}, r_i = N - s_i."""
        pt = self.ring.one()
        for i, (start, stop) in enumerate(self._spans[:-1], start=1):
            r = self.shape.N - stop
            pt = pt * self.top_chern(i) ** r
            if (stop - start) * r % 2:
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
                f"point class of {self.shape} normal-forms to "
                f"{GradedPolynomial(self.ring, pt)}, not a unit times its top"
            )
        top = self.normal_form(p.homogeneous_part(self.dim))
        return pt[t] * top.terms.get(t, 0)


class FullFlagRing(ChowRingPresentation):
    """CH^*(Fl(N)) = ZZ[x_1..x_N] / (prod (1 + x_i) = 1), x_i = c_1(D_i).

    Its rules are x_k^k -> -(h_k(x_k..x_N) - x_k^k), and its standard
    monomials are the x^a with a_k <= k - 1.
    """

    def __init__(self, N: int):
        super().__init__(FlagShape([1] * N))

    def x_interval_product(self, i: int) -> GradedPolynomial:
        """x_{[i]} = x_1 x_2 ... x_i, the class of the special Schubert variety."""
        return self.ring.monomial([1] * i)


@lru_cache(maxsize=None)
def chow_ring(shape: FlagShape) -> ChowRingPresentation:
    """CH^*(Fl(D)), built once per shape and shared by every reader."""
    if shape.is_full_flag():
        return FullFlagRing(shape.N)
    return ChowRingPresentation(shape)


# ----------------------------------------------------------------------
# Ideals, quotients, annihilators
# ----------------------------------------------------------------------


def ideal_lattice(pres: ChowRingPresentation, gens, d: int):
    """HNF of the degree-d part of the ideal generated by gens, over the
    standard basis of pres.  A zero generator (degree -1) adds nothing.
    """
    vectors = []
    for g in gens:
        e = g.degree()
        if 0 <= e <= d:
            vectors.extend(zip(*pres.multiplication_matrix(g, d - e)))
    return intlinalg.hnf(vectors)


def ideal_quotient_degreewise(pres: ChowRingPresentation, gens_I, gens_J):
    """Degreewise basis of the ideal quotient (I : J) = {a : a J in I} in
    every degree of pres; with I = 0 it is the annihilator of J.

    For each degree d the conditions  a * g in I  (over g in J) are
    solved exactly over the integers at once: a lies in the projection of
    the kernel of the stacked bands [M_g | ... -L_g ...], where M_g is
    multiplication by g and the columns L_g span the ideal I in the
    target degree of g.  A generator that maps degree d above the top
    degree adds no band; with no band the kernel is all of Z^rank_d.
    Returns {d: HNF rows}.
    """
    result = {}
    for d in range(pres.dim + 1):
        rank_d = pres.rank(d)
        bands = []
        for g in gens_J:
            target = d + g.degree()
            if target <= pres.dim:
                lat = ideal_lattice(pres, gens_I, target)
                bands.append((pres.multiplication_matrix(g, d), lat))
        ncols = rank_d + sum(len(lat) for _, lat in bands)
        aug, offset = [], rank_d
        for mat, lat in bands:
            for r, row in enumerate(mat):
                band = row + [0] * (ncols - rank_d)
                band[offset:offset + len(lat)] = [-v[r] for v in lat]
                aug.append(band)
            offset += len(lat)
        kern = intlinalg.kernel_basis(aug, ncols)
        result[d] = intlinalg.hnf([k[:rank_d] for k in kern])
    return result


def _check_quotient(pres, gens_I, gens_J, g, statement: str) -> dict:
    """Report on (I : J) = (g), checked in every degree of pres; it stops
    at the first degree where the two lattices differ."""
    report = {"shape": str(pres.shape), "statement": statement,
              "degrees_checked": [], "status": "pass"}
    for d, rows in ideal_quotient_degreewise(pres, gens_I, gens_J).items():
        if rows != ideal_lattice(pres, [g], d):
            report["status"] = "fail"
            report["failed_degree"] = d
            break
        report["degrees_checked"].append(d)
    return report


def verify_piqp_fln(N: int, i: int, j: int) -> dict:
    """Check (x_[i] : x_[j]) = (x_[i] \\ [j]) in CH^*(Fl(N)), all degrees."""
    if not 1 <= j < i <= N:
        raise ValueError("need 1 <= j < i <= N")
    fl = chow_ring(FlagShape([1] * N))
    return _check_quotient(
        fl,
        [fl.x_interval_product(i)],
        [fl.x_interval_product(j)],
        fl.ring.monomial([0] * j + [1] * (i - j)),
        f"(x_[{i}] : x_[{j}]) = (x_[{i}]\\[{j}])",
    )


def ann_top_chern(shape: FlagShape):
    """Annihilator of the top Chern class of the last block, with verification.

    Returns (x, report): x = prod_{j<m} c_{d_j}(D_j) in generator
    variables (1 when m = 1), and the check (0 : c_{d_m}(D_m)) = (x) in
    every degree of CH^*(Fl(D)).
    """
    pres = chow_ring(shape)
    x = pres.ring.one()
    for j in range(1, shape.m):
        x = x * pres.top_chern(j)
    return x, _check_quotient(
        pres, [], [pres.top_chern(shape.m)], x,
        "Ann(c_top(D_m)) = (prod_{j<m} c_top(D_j))",
    )
