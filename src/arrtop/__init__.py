"""Exact-arithmetic invariants of complex hyperplane arrangements.

Arrangements are reduced lists of primitive integer covectors; everything
downstream (intersection lattices, Orlik-Solomon cohomology, polar degrees,
associated-graded homotopy data) is computed exactly over Q.
"""

__version__ = "0.1.0"

from .arrangement import (
    INFINITE,
    Arrangement,
    Flat,
    IntersectionLattice,
    Subspace,
    betti_agreement_order,
    characteristic_polynomial,
    essentialize,
    genericity_level,
    generic_section_betti,
    intersection_lattice,
    is_essential,
    is_lattice_generic,
    normalize,
    poincare_central,
    poincare_projective,
    projective_betti,
    restrict_to_hyperplane,
    restrict_to_subspace,
    sample_generic_subspace,
)
from .exactalg import (
    IntPolynomial,
    Rational,
    TruncatedSeries,
    poly_divide_exact,
    series_of_rational,
)
from .homotopy import (
    AsphericityReport,
    ExponentData,
    GradedChainComplex,
    SectionData,
    asphericity_test,
    consistency_suite,
    expand_lcs_product,
    free_graded_lie_ranks,
    graded_complex,
    homotopy_cokernel_ranks,
    homotopy_hilbert_series,
    integer_audit,
    is_acyclic,
    is_supersolvable,
    lcs_ranks,
    left_graded_complex,
    minimal_cell_counts,
    supersolvable_exponents,
    torus_graded_complex,
    verify_resolution,
)
from .oscohomology import (
    CupSlice,
    HolonomyRelations,
    NBCBasis,
    UEnvelope,
    cup_matrix,
    holonomy_envelope,
    left_cup_dual,
    nbc_basis,
    reduced_diagonal,
    right_cup_dual,
)
from .polar import (
    PolarReport,
    affine_part_sphere_count,
    isolated_singularity_degree,
    isolated_singularity_report,
    lefschetz_euler_check,
    milnor_fiber_sphere_count,
    plane_curve_affine_b1,
    polar_degree,
    polar_invariant,
    quasihomogeneous_milnor,
    twisted_betti_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
