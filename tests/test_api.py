"""The public API, pinned: a name added to or dropped from `arrtop`, or a
parameter added to the product methods, the envelope's constructor, the
square-zero check or the rank calls, shows up as a diff here."""

import inspect

import arrtop
from arrtop.exactalg import sparse_rank
from arrtop.homotopy import GradedChainComplex
from arrtop.oscohomology import CohomologyView, UEnvelope

PUBLIC_NAMES = [
    "Arrangement", "AsphericityReport", "CupSlice", "ExponentData", "Flat",
    "GradedChainComplex", "HolonomyRelations", "INFINITE", "IntPolynomial",
    "IntersectionLattice", "NBCBasis", "PolarReport", "Rational",
    "SectionData", "Subspace", "TruncatedSeries", "UEnvelope",
    "affine_part_sphere_count", "arrangement", "asphericity_test",
    "betti_agreement_order", "characteristic_polynomial",
    "consistency_suite", "cup_matrix", "errors", "essentialize", "exactalg",
    "expand_lcs_product", "free_graded_lie_ranks", "generic_section_betti",
    "genericity_level", "graded_complex", "holonomy_envelope", "homotopy",
    "homotopy_cokernel_ranks", "homotopy_hilbert_series", "integer_audit",
    "intersection_lattice", "is_acyclic", "is_essential",
    "is_lattice_generic", "is_supersolvable", "isolated_singularity_degree",
    "isolated_singularity_report", "lcs_ranks", "lefschetz_euler_check",
    "milnor_fiber_sphere_count", "minimal_cell_counts", "nbc_basis",
    "normalize", "oscohomology", "plane_curve_affine_b1",
    "poincare_central", "poincare_projective", "polar", "polar_degree",
    "polar_invariant", "poly_divide_exact", "projective_betti",
    "quasihomogeneous_milnor", "reduced_diagonal", "restrict_to_hyperplane",
    "restrict_to_subspace", "right_cup_dual", "sample_generic_subspace",
    "series_of_rational", "supersolvable_exponents", "torus_graded_complex",
    "twisted_betti_bound", "verify_resolution",
]


def test_public_names_are_pinned():
    assert sorted(arrtop.__all__) == PUBLIC_NAMES
    # the mirror complex and the left cup action live in the test oracles
    assert "left_graded_complex" not in PUBLIC_NAMES
    assert "left_cup_dual" not in PUBLIC_NAMES


def test_products_take_no_side():
    assert list(inspect.signature(UEnvelope.generator_product).parameters) == [
        "self", "j", "k", "word_pos",
    ]
    assert list(inspect.signature(CohomologyView.cup_rows).parameters) == [
        "self", "q",
    ]


def test_envelope_takes_a_view_and_square_zero_takes_no_degree():
    assert list(inspect.signature(UEnvelope.__init__).parameters) == [
        "self", "view", "max_degree",
    ]
    assert list(
        inspect.signature(GradedChainComplex.check_square_zero).parameters
    ) == ["self"]


def test_ranks_take_no_bound():
    # the lead certificate's bound comes from the complex, never a caller
    assert list(inspect.signature(sparse_rank).parameters) == ["rows"]
    assert list(inspect.signature(GradedChainComplex.block_rank).parameters) == [
        "self", "q", "t",
    ]
