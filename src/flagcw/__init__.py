"""flagcw: exact cohomology rings of type-A partial flag varieties.

Chow rings, mod-2 Chow rings with Sq^2, and Witt-sheaf cohomology
presentations, together with the characteristic-class calculus needed
for real/complex enumerative counts of flags on hypersurfaces.  All
arithmetic is exact over arbitrary-precision integers.
"""

from .flagchow import (
    ChowRingPresentation,
    FlagShape,
    TwistClass,
    ann_top_chern,
    chow_poincare,
    chow_ring,
    ideal_lattice,
    ideal_quotient_degreewise,
    verify_piqp_fln,
)
from .poly import GradedPolynomial, PolyRing, exact_div
from .symfunc import (
    Partition,
    box_complement,
    grassmann_bundle_pushforward,
    grassmann_integrate,
    grassmann_integrate_product,
    jacobi_trudi_delta,
    partitions_in_box,
    q_spec,
)
from .wdring import (
    WDElement,
    WDPresentation,
    ann_euler,
    build_sigma,
    wd_basis,
    wd_poincare,
)

__all__ = [
    "ChowRingPresentation",
    "FlagShape",
    "GradedPolynomial",
    "Partition",
    "PolyRing",
    "TwistClass",
    "WDElement",
    "WDPresentation",
    "ann_euler",
    "ann_top_chern",
    "box_complement",
    "build_sigma",
    "chow_poincare",
    "chow_ring",
    "exact_div",
    "grassmann_bundle_pushforward",
    "grassmann_integrate",
    "grassmann_integrate_product",
    "ideal_lattice",
    "ideal_quotient_degreewise",
    "jacobi_trudi_delta",
    "partitions_in_box",
    "q_spec",
    "verify_piqp_fln",
    "wd_basis",
    "wd_poincare",
]

__version__ = "0.1.0"
