"""Exact multivariate graded polynomials over arbitrary-precision integers.

Every ring element in this package (Chern/Pontryagin/Euler class
expressions, Euler roots, Schubert representatives) is carried by
:class:`GradedPolynomial`.  A polynomial lives in a :class:`PolyRing`
which fixes the variable names and a weight vector: the degree of a
monomial is the weighted sum of its exponents.  Chern-class variables
have weight 1, Euler roots weight 2, Pontryagin variables weight 4.

A monomial is one int, its key, with the exponent of variable v in the
W-bit field at bit W*v.  The ring's owner passes a degree bound (the
dimension of a Chow ring, the rank of a bundle for its Euler roots, the
integrand degree for Chern roots), and W is the least of 8, 16, 32 and
64 with bound < 2^(W-1): a field holds 0..2^(W-1) - 1, and its top bit
is a flag.  ``PolyRing.key`` is the one packer of exponent tuples and
``PolyRing.exponents`` the one unpacker.  A product of monomials is the
sum of their keys: two fields below 2^(W-1) add without a carry, and a
flag is set exactly where an exponent left its field, which
``__mul__`` and ``key`` refuse with ``ExponentOverflow`` (a ValueError)
rather than wrap.  Printing orders the monomials by degree, then by
exponent tuple, as the text always has.

Coefficients are plain Python ints (several results in this package have
30+ digits, so nothing here may ever truncate).  No floating point is
used anywhere.  A polynomial holds a mutable dict of terms, so it
compares by value but is not hashable.
"""

from __future__ import annotations

import struct
from functools import reduce
from operator import mul, or_


class ExponentOverflow(ValueError):
    """An exponent does not fit the field of a monomial key."""


class PolyRing:
    """A polynomial ring ZZ[names] with a per-variable degree weight, and
    the one owner of its monomial keys, whose field width W is fixed by
    the largest degree its owner's polynomials reach."""

    def __init__(self, names, weights=1, *, degree: int):
        self.names = tuple(names)
        if isinstance(weights, int):
            weights = (weights,) * len(self.names)
        self.weights = tuple(weights)
        if len(self.weights) != len(self.names):
            raise ValueError("one weight per variable required")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        width = next((w for w in (8, 16, 32, 64) if degree < 1 << (w - 1)), None)
        if width is None:
            raise ExponentOverflow(f"degree bound {degree} fits no field of 64 bits")
        n = len(self.names)
        self.width = width
        # little-endian unsigned W-bit fields, one per variable
        self._fields = struct.Struct(f"<{n}{'BHIQ'[width.bit_length() - 4]}")
        self._zeros = (0,) * n
        # the flag of every field, and the key of each variable
        self.high = sum(1 << (width * v + width - 1) for v in range(n))
        self.var_keys = tuple(1 << width * v for v in range(n))
        self.unit = 0

    @property
    def nvars(self) -> int:
        return len(self.names)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.names == other.names
            and self.weights == other.weights
            and self.width == other.width
        )

    def __hash__(self):
        return hash((self.names, self.weights, self.width))

    def __repr__(self):
        return f"PolyRing({list(self.names)}, weights={list(self.weights)}, W={self.width})"

    def key(self, exps) -> int:
        """The key of an exponent tuple, padded with zeros to nvars entries.

        Exponents past the last variable are accepted only when they are
        0; an exponent outside 0..2^(W-1) - 1 raises ExponentOverflow.
        """
        t = tuple(exps)
        n = len(self.names)
        if any(t[n:]):
            raise ValueError("monomial has more exponents than ring variables")
        try:
            key = int.from_bytes(self._fields.pack(*t[:n], *self._zeros[len(t):]), "little")
        except struct.error:  # negative, or wider than the field
            key = self.high
        if key & self.high:
            raise ExponentOverflow(f"exponents {t} leave the fields of {self!r}")
        return key

    def exponents(self, key: int) -> tuple:
        """The exponent tuple of a key, nvars entries."""
        return self._fields.unpack(key.to_bytes(self._fields.size, "little"))

    def permuted(self, key: int, order) -> int:
        """The key of exponents[order[j]] for j in range(nvars), order a permutation."""
        exps = self.exponents(key)
        return int.from_bytes(self._fields.pack(*[exps[i] for i in order]), "little")

    def zero(self) -> "GradedPolynomial":
        return GradedPolynomial(self, {})

    def one(self) -> "GradedPolynomial":
        return self.constant(1)

    def constant(self, c: int) -> "GradedPolynomial":
        return GradedPolynomial(self, {self.unit: int(c)} if c else {})

    def var(self, i: int) -> "GradedPolynomial":
        return self.monomial([0] * i + [1])

    def gens(self):
        return [self.var(i) for i in range(self.nvars)]

    def monomial(self, exps, coeff: int = 1) -> "GradedPolynomial":
        key = self.key(exps)
        return GradedPolynomial(self, {key: int(coeff)} if coeff else {})

    def from_terms(self, terms: dict[tuple, int]) -> "GradedPolynomial":
        """The polynomial of {exponent tuple: coefficient}."""
        out = {}
        for exps, c in terms.items():
            if c:
                key = self.key(exps)
                out[key] = out.get(key, 0) + int(c)
        return GradedPolynomial(self, {k: c for k, c in out.items() if c})

    def monomial_degree(self, key: int) -> int:
        return sum(map(mul, self.exponents(key), self.weights))

    def graded_lex(self, key: int):
        """Sort key of a monomial: its degree, then its exponent tuple."""
        exps = self.exponents(key)
        return sum(map(mul, exps, self.weights)), exps


class GradedPolynomial:
    """Immutable-by-convention exact polynomial; terms map key -> int."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient_of(self, exps) -> int:
        """Exact coefficient of the given monomial; 0 if absent."""
        return self.terms.get(self.ring.key(exps), 0)

    def constant_term(self) -> int:
        return self.terms.get(self.ring.unit, 0)

    def degree(self) -> int:
        """Maximal weighted degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        md = self.ring.monomial_degree
        return max(md(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        md = self.ring.monomial_degree
        degs = {md(m) for m in self.terms}
        return len(degs) <= 1

    def homogeneous_part(self, d: int) -> "GradedPolynomial":
        """Sum of the terms of weighted degree exactly d."""
        md = self.ring.monomial_degree
        return GradedPolynomial(
            self.ring, {m: c for m, c in self.terms.items() if md(m) == d}
        )

    def homogeneous_degrees(self):
        md = self.ring.monomial_degree
        return sorted({md(m) for m in self.terms})

    # -- arithmetic ----------------------------------------------------

    def _check_ring(self, other: "GradedPolynomial"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError(
                "polynomials live in different rings (names, weights or field width)")

    def __add__(self, other) -> "GradedPolynomial":
        other = self._coerce(other)
        self._check_ring(other)
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for m, c in b.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                del out[m]
        return GradedPolynomial(self.ring, out)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self) -> "GradedPolynomial":
        return GradedPolynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self.__add__(-self._coerce(other))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other) -> "GradedPolynomial":
        if isinstance(other, int):
            if other == 0:
                return self.ring.zero()
            return GradedPolynomial(
                self.ring, {m: c * other for m, c in self.terms.items()}
            )
        self._check_ring(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        get = out.get
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                key = m1 + m2
                s = get(key, 0) + c1 * c2
                if s:
                    out[key] = s
                elif key in out:
                    del out[key]
        if reduce(or_, out, 0) & self.ring.high:
            raise ExponentOverflow(f"a product leaves the fields of {self.ring!r}")
        return GradedPolynomial(self.ring, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int) -> "GradedPolynomial":
        if n < 0:
            raise ValueError("negative powers are not defined")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == ({self.ring.unit: other} if other else {})
        return (
            isinstance(other, GradedPolynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def _coerce(self, other) -> "GradedPolynomial":
        if isinstance(other, GradedPolynomial):
            return other
        if isinstance(other, int):
            return self.ring.constant(other)
        raise TypeError(f"cannot coerce {type(other)!r} into {self.ring!r}")

    # -- printing ------------------------------------------------------

    def sorted_terms(self):
        """Terms in graded-lex order of their exponent tuples, largest first."""
        order = self.ring.graded_lex
        return sorted(self.terms.items(), key=lambda t: order(t[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        names, exponents = self.ring.names, self.ring.exponents
        for mon, c in self.sorted_terms():
            factors = [
                f"{names[i]}^{e}" if e > 1 else names[i]
                for i, e in enumerate(exponents(mon))
                if e
            ]
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(c))] + factors)
            parts.append(("- " if c < 0 else "+ ") + body)
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]

    def __repr__(self):
        return f"<GradedPolynomial {self}>"


def exact_div(p: GradedPolynomial, q: GradedPolynomial) -> GradedPolynomial:
    """Exact division p/q; raises ArithmeticError when the remainder is nonzero.

    Standard graded-lex leading-term elimination: if p = f*q then at every
    step the leading term of the running remainder is divisible by the
    leading term of q, and the quotient accumulates f.  The leading key
    divides mon exactly when mon + high - lead keeps every flag.
    """
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    p._check_ring(q)
    ring = p.ring
    high, order = ring.high, ring.graded_lex
    qt = q.sorted_terms()
    lead_mon, lead_coeff = qt[0]
    rem = dict(p.terms)
    quot: dict = {}
    while rem:
        mon = max(rem, key=order)
        c = rem[mon]
        fmon = mon + high - lead_mon
        if fmon & high != high:
            raise ArithmeticError("non-exact polynomial division (monomial)")
        fmon -= high
        fc, r = divmod(c, lead_coeff)
        if r:
            raise ArithmeticError("non-exact polynomial division (coefficient)")
        quot[fmon] = quot.get(fmon, 0) + fc
        for m2, c2 in qt:
            key = fmon + m2
            if key & high:
                raise ExponentOverflow(f"a quotient term leaves the fields of {ring!r}")
            s = rem.get(key, 0) - fc * c2
            if s:
                rem[key] = s
            elif key in rem:
                del rem[key]
    return GradedPolynomial(ring, {m: c for m, c in quot.items() if c})
