"""Exact multivariate graded polynomials over arbitrary-precision integers.

Every ring element in this package (Chern/Pontryagin/Euler class
expressions, Euler roots, Schubert representatives) is carried by
:class:`GradedPolynomial`.  A polynomial lives in a :class:`PolyRing`
which fixes the variable names and a weight vector: the degree of a
monomial is the weighted sum of its exponents.  Chern-class variables
have weight 1, Euler roots weight 2, Pontryagin variables weight 4.

A monomial is an exponent tuple with exactly ``ring.nvars`` entries, so
equal monomials are equal as tuples and a product of monomials is an
entrywise sum.  ``PolyRing.key`` is the one place that turns outside
input (shorter tuples, trailing zeros) into such a key.  Coefficients
are plain Python ints (several results in this package have 30+ digits,
so nothing here may ever truncate).  No floating point is used anywhere.
"""

from __future__ import annotations

from operator import add, sub

Monomial = tuple  # exponent tuple with exactly ring.nvars entries


class PolyRing:
    """A polynomial ring ZZ[names] with a per-variable degree weight."""

    def __init__(self, names, weights=1):
        self.names = tuple(names)
        if isinstance(weights, int):
            weights = (weights,) * len(self.names)
        self.weights = tuple(weights)
        if len(self.weights) != len(self.names):
            raise ValueError("one weight per variable required")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        self._index = {n: i for i, n in enumerate(self.names)}
        self.unit = (0,) * len(self.names)

    @property
    def nvars(self) -> int:
        return len(self.names)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.names == other.names
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((self.names, self.weights))

    def __repr__(self):
        return f"PolyRing({list(self.names)}, weights={list(self.weights)})"

    def key(self, exps) -> Monomial:
        """Canonical monomial key: exps padded with zeros to nvars entries.

        Exponents past the last variable are accepted only when they are 0.
        """
        t = tuple(exps)
        n = len(self.names)
        if any(t[n:]):
            raise ValueError("monomial has more exponents than ring variables")
        return t[:n] + self.unit[len(t):]

    def zero(self) -> "GradedPolynomial":
        return GradedPolynomial(self, {})

    def one(self) -> "GradedPolynomial":
        return self.constant(1)

    def constant(self, c: int) -> "GradedPolynomial":
        return GradedPolynomial(self, {self.unit: int(c)} if c else {})

    def var(self, name_or_index) -> "GradedPolynomial":
        i = (
            name_or_index
            if isinstance(name_or_index, int)
            else self._index[name_or_index]
        )
        return self.monomial([0] * i + [1])

    def gens(self):
        return [self.var(i) for i in range(self.nvars)]

    def monomial(self, exps, coeff: int = 1) -> "GradedPolynomial":
        key = self.key(exps)
        return GradedPolynomial(self, {key: int(coeff)} if coeff else {})

    def from_terms(self, terms: dict[tuple, int]) -> "GradedPolynomial":
        out = {}
        for exps, c in terms.items():
            if c:
                key = self.key(exps)
                out[key] = out.get(key, 0) + int(c)
        return GradedPolynomial(self, {k: c for k, c in out.items() if c})

    def monomial_degree(self, mon: Monomial) -> int:
        w = self.weights
        return sum(e * w[i] for i, e in enumerate(mon))


class GradedPolynomial:
    """Immutable-by-convention exact polynomial; terms map monomial -> int."""

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
        if self.ring != other.ring:
            raise ValueError("polynomials live in different rings (weights/names)")

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
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                key = tuple(map(add, m1, m2))
                s = out.get(key, 0) + c1 * c2
                if s:
                    out[key] = s
                elif key in out:
                    del out[key]
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

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def _coerce(self, other) -> "GradedPolynomial":
        if isinstance(other, GradedPolynomial):
            return other
        if isinstance(other, int):
            return self.ring.constant(other)
        raise TypeError(f"cannot coerce {type(other)!r} into {self.ring!r}")

    # -- printing ------------------------------------------------------

    def _sort_key(self, mon: Monomial):
        return (self.ring.monomial_degree(mon), mon)

    def sorted_terms(self):
        """Terms in graded-lex order, largest first."""
        return sorted(self.terms.items(), key=lambda t: self._sort_key(t[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mon, c in self.sorted_terms():
            factors = [
                f"{self.ring.names[i]}^{e}" if e > 1 else self.ring.names[i]
                for i, e in enumerate(mon)
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
    leading term of q, and the quotient accumulates f.
    """
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    p._check_ring(q)
    ring = p.ring
    qt = q.sorted_terms()
    lead_mon, lead_coeff = qt[0]
    rem = dict(p.terms)
    quot: dict = {}
    while rem:
        mon = max(rem, key=p._sort_key)
        c = rem[mon]
        fmon = tuple(map(sub, mon, lead_mon))
        if any(e < 0 for e in fmon):
            raise ArithmeticError("non-exact polynomial division (monomial)")
        fc, r = divmod(c, lead_coeff)
        if r:
            raise ArithmeticError("non-exact polynomial division (coefficient)")
        quot[fmon] = quot.get(fmon, 0) + fc
        for m2, c2 in qt:
            key = tuple(map(add, fmon, m2))
            s = rem.get(key, 0) - fc * c2
            if s:
                rem[key] = s
            elif key in rem:
                del rem[key]
    return ring.from_terms(quot)
