"""Per-layer spans for the traced run, installed from outside the package.

``Tracer.install`` replaces the public functions listed in ``BOUNDARIES``
with wrappers that count calls, accumulate self time (span time minus the
time of wrapped child spans) and add up a work count taken from the
arguments or the result.  It rebinds every name under which a ``flagcw``
module holds the original, so ``from .x import f`` call sites are traced
too.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter


def _size(x) -> int:
    return len(x) if hasattr(x, "__len__") else 0


def _cells(mat) -> int:
    return len(mat) * len(mat[0]) if mat else 0


def _kernel_cells(args) -> int:
    mat = args[0]
    ncols = args[1] if len(args) > 1 and args[1] is not None else _cells(mat[:1])
    return len(mat) * ncols


def _terms(p) -> int:
    return len(p.terms) if hasattr(p, "terms") else 1


# (module, qualified name, {count: f(args)}, {count: f(result)})
BOUNDARIES = [
    ("poly", "GradedPolynomial.__mul__",
     {"term_pairs": lambda a: _terms(a[0]) * _terms(a[1])}, {}),
    ("flagchow", "FullFlagRing.normal_form",
     {"terms_in": lambda a: _terms(a[1])}, {"terms_out": _terms}),
    ("flagchow", "ChowRingPresentation.image_basis", {}, {}),
    ("flagchow", "FullFlagRing.multiplication_matrix", {}, {}),
    ("flagchow", "ChowRingPresentation.multiplication_matrix", {}, {}),
    ("flagchow", "ideal_quotient_degreewise", {}, {}),
    ("steenrod", "Mod2Chow.nf2", {"monomials_in": lambda a: _size(a[1])}, {}),
    ("steenrod", "Mod2Chow.sq2", {"monomials_in": lambda a: _size(a[1])}, {}),
    ("steenrod", "Mod2Chow.sq2_matrix_rows", {}, {"rows_out": _size}),
    ("gf2", "rank", {"rows": lambda a: _size(a[0])}, {}),
    ("intlinalg", "hnf", {"cells": lambda a: _cells(a[0])}, {}),
    ("intlinalg", "kernel_basis", {"cells": _kernel_cells}, {}),
    ("intlinalg", "smith_normal_form", {"cells": lambda a: _cells(a[0])}, {}),
    ("intlinalg", "lattice_coords",
     {"cells": lambda a: len(a[0]) * len(a[2])}, {}),
    ("intlinalg", "mat_vec", {"cells": lambda a: len(a[0]) * len(a[1])}, {}),
    ("symfunc", "product_of_factors", {}, {}),
    ("symfunc", "grassmann_integrate", {}, {}),
    ("symfunc", "grassmann_bundle_pushforward", {}, {}),
    ("wdring", "WDPresentation.reduce_component", {}, {}),
    ("wdring", "WDPresentation.basis", {}, {}),
    ("wdring", "WDPresentation.coords", {}, {}),
    ("wdring", "WDPresentation.component_basis_polys", {}, {}),
    ("wdring", "WDElement.__mul__", {}, {}),
]


def metric_names() -> list:
    """Names of the per-boundary metrics, in table order."""
    names = []
    for module, qualname, before, after in BOUNDARIES:
        for stat in ("calls", "self_s", *before, *after):
            names.append(f"{module}.{qualname}.{stat}")
    return names


class Tracer:
    def __init__(self):
        self.totals = dict.fromkeys(metric_names(), 0)
        self._open = []  # time of finished child spans, per open span

    def install(self) -> None:
        importlib.import_module("flagcw.cli")
        for module, qualname, before, after in BOUNDARIES:
            mod = importlib.import_module(f"flagcw.{module}")
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            original = getattr(owner, attr)
            wrapped = self._wrap(f"{module}.{qualname}", original, before, after)
            if owner_name:
                setattr(owner, attr, wrapped)
                continue
            for name, loaded in list(sys.modules.items()):
                if name == "flagcw" or name.startswith("flagcw."):
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, key, wrapped)

    def _wrap(self, name, fn, before, after):
        totals, open_spans = self.totals, self._open
        calls_key, self_key = f"{name}.calls", f"{name}.self_s"
        before = [(f"{name}.{stat}", count) for stat, count in before.items()]
        after = [(f"{name}.{stat}", count) for stat, count in after.items()]

        def span(*args, **kwargs):
            for key, count in before:
                totals[key] += count(args)
            open_spans.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                totals[self_key] += elapsed - open_spans.pop()
                totals[calls_key] += 1
                if open_spans:
                    open_spans[-1] += elapsed
            for key, count in after:
                totals[key] += count(result)
            return result

        span.__name__ = fn.__name__
        span.__qualname__ = fn.__qualname__
        return span
