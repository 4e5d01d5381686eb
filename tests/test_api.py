"""The public API, pinned: a name added to or dropped from `arrtop`, or a
parameter added to the product methods, the envelope's constructor, the
square-zero check or the rank calls, shows up as a diff here.  So does a
change to the value records' fields, defaults, equality, repr or copying,
and a start-up that loads dataclasses or inspect again."""

import copy
import inspect
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import arrtop
from arrtop import (
    Arrangement, AsphericityReport, CupSlice, ExponentData, Flat,
    HolonomyRelations, IntPolynomial, NBCBasis, PolarReport, SectionData,
    Subspace, TruncatedSeries,
)
from arrtop.exactalg import sparse_rank
from arrtop.homotopy import GradedChainComplex
from arrtop.oscohomology import CohomologyView, UEnvelope, _Basis

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

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


BOOLEAN3 = Arrangement(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))

# (record, its fields in constructor order, the defaults left out of a
# shorter call, fields that change equality, fields that do not, repr);
# the repr texts are those the frozen dataclasses printed
RECORDS = [
    (Arrangement,
     {"ambient_dim": 2, "forms": ((1, 0), (0, 1), (1, 1)),
      "labels": ("x", "y", None), "multiplicities": (1, 2, 1)},
     {"labels": None, "multiplicities": None},
     {"forms": ((1, 0), (0, 1), (1, -1))},
     {"labels": ("u", "v", "w"), "multiplicities": None},
     "Arrangement(ambient_dim=2, forms=((1, 0), (0, 1), (1, 1)), "
     "labels=('x', 'y', None), multiplicities=(1, 2, 1))"),
    (Flat, {"hyperplanes": (0, 1), "codim": 2}, {}, {"codim": 1}, {},
     "Flat(hyperplanes=(0, 1), codim=2)"),
    (Subspace, {"basis": ((1, 0, 0), (0, 1, 2))}, {},
     {"basis": ((1, 0, 0), (0, 1, 3))}, {},
     "Subspace(basis=((1, 0, 0), (0, 1, 2)))"),
    (IntPolynomial, {"coefficients": (1, 3, 3, 1)}, {},
     {"coefficients": (1, 2, 1)}, {"coefficients": (1, 3, 3, 1, 0)},
     "IntPolynomial(coefficients=(1, 3, 3, 1))"),
    (TruncatedSeries, {"coefficients": (1, 2, 0), "truncation_degree": 2}, {},
     {"coefficients": (1, 2, 1)}, {"coefficients": (Fraction(1), 2, 0)},
     "TruncatedSeries(coefficients=(Fraction(1, 1), Fraction(2, 1), "
     "Fraction(0, 1)), truncation_degree=2)"),
    (ExponentData, {"exponents": (1, 2, 3)}, {}, {"exponents": (1, 2, 4)}, {},
     "ExponentData(exponents=(1, 2, 3))"),
    (SectionData, {"ambient": BOOLEAN3, "section_rank": 3}, {},
     {"ambient": Arrangement(3, ((1, 0, 0), (0, 1, 0), (0, 1, 1)))},
     {"ambient": Arrangement(3, BOOLEAN3.forms, ("a", "b", "c"))},
     "SectionData(ambient=Arrangement(ambient_dim=3, forms=((1, 0, 0), "
     "(0, 1, 0), (0, 0, 1)), labels=None, multiplicities=None), "
     "section_rank=3)"),
    (AsphericityReport,
     {"connectivity": 2, "verdict": "FIRST_NONZERO", "genericity": 2,
      "module_status": "GROUP_RING_FREE"},
     {"genericity": None, "module_status": None},
     {"module_status": "NEVER_PROJECTIVE"}, {},
     "AsphericityReport(connectivity=2, verdict='FIRST_NONZERO', "
     "genericity=2, module_status='GROUP_RING_FREE')"),
    (_Basis, {"labels": ((0, 1), (0, 2)), "keys": ((1,), (2,))}, {},
     {"keys": ((1,), (3,))}, {},
     "_Basis(labels=((0, 1), (0, 2)), keys=((1,), (2,)))"),
    (NBCBasis, {"degree": 1, "monomials": ((0,), (1,), (2,))}, {},
     {"degree": 2}, {},
     "NBCBasis(degree=1, monomials=((0,), (1,), (2,)))"),
    (CupSlice,
     {"degree": 2, "matrix": ((1, 0), (0, 1)),
      "row_labels": (((0, 1), (0, 2)), ((0, 2), (0, 1))),
      "column_labels": ((1, 2),)},
     {}, {"matrix": ((0, 1), (1, 0))}, {},
     "CupSlice(degree=2, matrix=((1, 0), (0, 1)), row_labels=(((0, 1), "
     "(0, 2)), ((0, 2), (0, 1))), column_labels=((1, 2),))"),
    (HolonomyRelations, {"dim_h1": 2, "relation_basis": ((0, 1, -1, 0),)}, {},
     {"relation_basis": ()}, {},
     "HolonomyRelations(dim_h1=2, relation_basis=((0, 1, -1, 0),))"),
    (PolarReport,
     {"degree": 1, "top_betti": 1, "affine_sphere_count": 1,
      "essential": True, "bound_satisfied": True,
      "classification": "BOOLEAN_B1"},
     {}, {"bound_satisfied": False}, {},
     "PolarReport(degree=1, top_betti=1, affine_sphere_count=1, "
     "essential=True, bound_satisfied=True, classification='BOOLEAN_B1')"),
]


@pytest.mark.parametrize(
    "cls, fields, defaults, changed, ignored, text", RECORDS,
    ids=[case[0].__name__ for case in RECORDS],
)
def test_value_records(cls, fields, defaults, changed, ignored, text):
    assert list(inspect.signature(cls).parameters) == list(fields)
    record = cls(**fields)
    assert cls(*fields.values()) == record
    assert [getattr(record, name) for name in fields] == list(fields.values())
    assert repr(record) == text
    # the defaults, by leaving the trailing fields out
    required = [v for name, v in fields.items() if name not in defaults]
    short = cls(*required)
    assert [getattr(short, name) for name in defaults] == list(defaults.values())
    # equality and hash follow the compared fields only
    other = cls(**{**fields, **changed})
    assert other != record and not other == record
    same = cls(**{**fields, **ignored})
    assert same == record and hash(same) == hash(record)
    assert record != tuple(fields.values())
    # immutable: assignment and deletion raise AttributeError, as a
    # frozen dataclass's FrozenInstanceError is one
    for name in list(fields) + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    with pytest.raises(AttributeError):
        delattr(record, next(iter(fields)))
    assert repr(record) == text
    # copies go through the constructor, with every field, labels too
    for copied in (copy.copy(record), copy.deepcopy(record)):
        assert copied == record and repr(copied) == text


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # start-up cost: the records are plain classes, so nothing on the
    # import path of the console script needs these modules
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import arrtop, arrtop.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, SRC],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
