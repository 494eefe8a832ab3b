"""flagcw: exact cohomology rings of type-A partial flag varieties.

Chow rings, mod-2 Chow rings with Sq^2, and Witt-sheaf cohomology
presentations, together with the characteristic-class calculus needed
for real/complex enumerative counts of flags on hypersurfaces.  All
arithmetic is exact over arbitrary-precision integers.
"""

from .flagchow import (
    ChowRingPresentation,
    FlagShape,
    SchubertPermutation,
    ann_top_chern,
    chow_poincare,
    class_of_point,
    full_flag_ring,
    ideal_quotient_degreewise,
    integrate_fln,
    schubert_ideal_rank,
    verify_piqp_fln,
)
from .poly import GradedPolynomial, PolyRing, exact_div
from .symfunc import (
    Partition,
    SchurExpansion,
    box_complement,
    grassmann_bundle_pushforward,
    grassmann_integrate,
    jacobi_trudi_delta,
    partitions_in_box,
    q_spec,
    schur_expand,
)
from .wdring import (
    TwistClass,
    WDElement,
    WDPresentation,
    ann_euler,
    build_sigma,
    real_fl11n_reduce,
    wd_basis,
    wd_normal_form,
    wd_poincare,
)

__all__ = [
    "ChowRingPresentation",
    "FlagShape",
    "GradedPolynomial",
    "Partition",
    "PolyRing",
    "SchubertPermutation",
    "SchurExpansion",
    "TwistClass",
    "WDElement",
    "WDPresentation",
    "ann_euler",
    "ann_top_chern",
    "box_complement",
    "build_sigma",
    "chow_poincare",
    "class_of_point",
    "exact_div",
    "full_flag_ring",
    "grassmann_bundle_pushforward",
    "grassmann_integrate",
    "ideal_quotient_degreewise",
    "integrate_fln",
    "jacobi_trudi_delta",
    "partitions_in_box",
    "q_spec",
    "real_fl11n_reduce",
    "schubert_ideal_rank",
    "schur_expand",
    "verify_piqp_fln",
    "wd_basis",
    "wd_normal_form",
    "wd_poincare",
]

__version__ = "0.1.0"
