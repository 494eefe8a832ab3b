"""Univariate integer polynomials in t, used for Poincare polynomials.

Represented as coefficient lists [c0, c1, ...] with no trailing zeros.
Only the handful of exact operations the ring computations need:
multiplication, subtraction, exact division with remainder check, and
the display format used by the CLI (`1 + 2*t + 2*t^2 + t^3`).
"""

from __future__ import annotations


def normalize(p: list) -> list:
    n = len(p)
    while n and p[n - 1] == 0:
        n -= 1
    return list(p[:n])


def add(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return normalize(out)


def sub(a: list, b: list) -> list:
    return add(a, [-c for c in b])


def mul(a: list, b: list) -> list:
    """a * b, one pass over a for each nonzero term of b."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for j, cb in enumerate(b):
        if cb:
            for i, ca in enumerate(a, j):
                out[i] += ca * cb
    return normalize(out)


def shift(a: list, k: int) -> list:
    """Multiply by t^k."""
    return [0] * k + list(a) if a else []


def exact_div(a: list, b: list) -> list:
    """Exact quotient a/b; raises ArithmeticError on nonzero remainder.

    Long division from the top, each step walking the nonzero terms of b
    below its leading one.
    """
    a = normalize(a)
    b = normalize(b)
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    if not a:
        return []
    if len(a) < len(b):
        raise ArithmeticError("non-exact univariate division")
    top = len(b) - 1
    lead = b[top]
    lower = [(j, cb) for j, cb in enumerate(b[:top]) if cb]
    quot = [0] * (len(a) - top)
    rem = list(a)
    for i in range(len(quot) - 1, -1, -1):
        c, r = divmod(rem[i + top], lead)
        if r:
            raise ArithmeticError("non-exact univariate division")
        quot[i] = c
        if c:
            for j, cb in lower:
                rem[i + j] -= c * cb
    if any(rem[:top]):
        raise ArithmeticError("non-exact univariate division")
    return normalize(quot)


def one_minus_t_pow(j: int) -> list:
    """1 - t^j."""
    p = [1] + [0] * (j - 1) + [-1] if j > 0 else [0]
    return p


def to_string(p: list) -> str:
    p = normalize(p)
    if not p:
        return "0"
    parts = []
    for d, c in enumerate(p):
        if c == 0:
            continue
        if d == 0:
            body = str(abs(c))
        else:
            var = "t" if d == 1 else f"t^{d}"
            body = var if abs(c) == 1 else f"{abs(c)}*{var}"
        parts.append(("- " if c < 0 else "+ ") + body)
    s = " ".join(parts)
    return s[2:] if s.startswith("+ ") else "-" + s[2:]
