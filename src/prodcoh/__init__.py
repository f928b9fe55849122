"""Exact multigraded sheaf cohomology on products of projective spaces,
with a window-certified splitting test for direct sums of O(kH)."""

from .lattice import (
    LatticeError,
    Polarization,
    ProductSpace,
    Window,
    canonical_twist,
    leq,
    lt,
    render_region,
    safe_region,
)
from .bott import line_bundle_h
from .linalg import PrimeField, RationalField, RATIONALS, default_field, parse_field
from .coxring import (
    LineBundleComplex,
    MultiHomogPoly,
    free_complex,
    poly_mult,
    validate_complex,
)
from .cech import cohomology_table, hypercohomology
from .tate import (
    CohomologyTable,
    StrandInconsistency,
    TateCoverageError,
    TateTermProfile,
    corner_checksum,
    strand_checksum,
    strand_propagate,
    tate_term_dims,
)
from .splitter import (
    ExtremalReport,
    SplitVerdict,
    extremal_hm,
    hm_monotonicity_check,
    hypothesis_violations,
    multiplicities,
    split_check,
    verify_split,
)

__version__ = "0.1.0"
