"""The splitting-principle embedding CH^*(Fl(D)) -> CH^*(Fl(N)), for tests.

c_j(D_i) maps to the j-th elementary symmetric polynomial of the
variables of block i.  The map is injective, so a partial-flag
computation can be checked against the complete flag ring, which has
its own reduction rules.
"""

import itertools

from flagcw.flagchow import full_flag_ring


def block_elementary(fl, span, j):
    """e_j of the variables of fl with indices in span."""
    terms = {}
    for comb in itertools.combinations(span, j):
        exps = [0] * fl.N
        for i in comb:
            exps[i] = 1
        terms[tuple(exps)] = 1
    return fl.ring.from_terms(terms)


def pullback(pres, p):
    """Image in Fl(N), not normal-formed, of a polynomial of pres.ring."""
    shape = pres.shape
    fl = full_flag_ring(shape.N)
    bindings = {}
    for i in range(1, shape.m + 1):
        span = shape.block_span(i)
        for j in range(1, shape.d[i - 1] + 1):
            name = pres.ring.names[span.start + j - 1]
            bindings[name] = block_elementary(fl, span, j)
    return p.substitute(bindings)


def pullback_nf(pres, p):
    return full_flag_ring(pres.shape.N).normal_form(pullback(pres, p))


def compositions(N, min_parts=1):
    """Every composition of N with at least min_parts parts."""
    for r in range(min_parts - 1, N):
        for cuts in itertools.combinations(range(1, N), r):
            bounds = (0,) + cuts + (N,)
            yield tuple(b - a for a, b in zip(bounds, bounds[1:]))
