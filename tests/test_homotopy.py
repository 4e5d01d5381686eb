import os
import random
import subprocess
import sys

import pytest

from arrtop import (
    INFINITE,
    Arrangement,
    ExponentData,
    SectionData,
    asphericity_test,
    consistency_suite,
    expand_lcs_product,
    free_graded_lie_ranks,
    graded_complex,
    holonomy_envelope,
    homotopy_cokernel_ranks,
    homotopy_hilbert_series,
    integer_audit,
    intersection_lattice,
    is_acyclic,
    is_supersolvable,
    lcs_ranks,
    left_graded_complex,
    minimal_cell_counts,
    normalize,
    supersolvable_exponents,
    torus_graded_complex,
    verify_resolution,
)
from arrtop.errors import (
    EmptyArrangement,
    FrameworkNotApplicable,
    NonIntegerRank,
    NotProperSection,
    NotSupersolvable,
    RankOutOfRange,
    ZeroForm,
)
from arrtop.exactalg import linear_product
from arrtop.homotopy import _is_modular
from arrtop import Subspace, genericity_level
from genutil import (
    boolean_arrangement,
    braid3,
    generic4,
    lattice_oracle,
    modular_oracle,
    near_pencil,
)


def test_minimal_cell_counts():
    assert minimal_cell_counts(boolean_arrangement(3)) == [1, 2, 1]
    assert minimal_cell_counts(braid3()) == [1, 5, 6]
    assert minimal_cell_counts(normalize([[1, 0, 0]], 3)) == [1]
    assert minimal_cell_counts(braid3(), central=True) == [1, 6, 11, 6]


def test_supersolvable_exponents_boolean():
    for n in (2, 3, 4):
        exps = supersolvable_exponents(boolean_arrangement(n))
        assert exps.exponents == tuple([1] * n)


def test_supersolvable_exponents_braid():
    exps = supersolvable_exponents(braid3())
    assert exps.exponents == (1, 2, 3)


def test_supersolvable_exponents_near_pencil():
    exps = supersolvable_exponents(near_pencil(2))
    assert linear_product(exps.exponents) == linear_product([1, 1, 2])


def test_generic4_not_supersolvable():
    with pytest.raises(NotSupersolvable) as err:
        supersolvable_exponents(generic4())
    assert err.value.level == 3
    assert not is_supersolvable(generic4())


def braid4():
    forms = []
    for i in range(5):
        for j in range(i + 1, 5):
            v = [0] * 5
            v[i], v[j] = 1, -1
            forms.append(v)
    from arrtop import essentialize

    return essentialize(normalize(forms, 5))


def test_braid4_classical_values():
    arr = braid4()
    assert supersolvable_exponents(arr).exponents == (1, 2, 3, 4)
    assert lcs_ranks(supersolvable_exponents(arr), 4) == [10, 10, 30, 81]
    env = holonomy_envelope(arr, 3)
    assert env.dims == [1, 9, 55, 285]  # 1/((1-2t)(1-3t)(1-4t))
    assert is_acyclic(graded_complex(arr, 3))


def test_fan_times_line_is_supersolvable():
    # four concurrent lines crossed with a coordinate line: supersolvable
    # with exponents {1, 1, 3}, and the graded complex resolves
    fan = normalize(
        [[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, 2, 0], [0, 0, 1]], 3
    )
    exps = supersolvable_exponents(fan)
    assert exps.exponents == (1, 1, 3)
    env = holonomy_envelope(fan, 3)
    assert env.dims == [1, 4, 13, 40]  # 1/((1-t)(1-3t))
    assert is_acyclic(graded_complex(fan, 4))


def _modularity_corpus(seed, count):
    """Seeded arrangements of rank >= 3 with up to 6 hyperplanes in C^3 or
    C^4 and entries in [-2, 2]; about a third get one extra coordinate
    that repeats an existing one or is zero, which makes them
    non-essential.  More hyperplanes slow the minor-expansion oracle
    sharply."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        dim = rng.randint(3, 4)
        raw = [
            [rng.randint(-2, 2) for _ in range(dim)]
            for _ in range(rng.randint(4, 6))
        ]
        if rng.random() < 0.35:
            k = rng.randrange(dim + 1)
            raw = [row + [row[k] if k < dim else 0] for row in raw]
        try:
            arr = normalize(raw, len(raw[0]))
        except (ZeroForm, EmptyArrangement):
            continue
        if arr.rank >= 3:
            out.append(arr)
    return out


def _coatom_verdicts(arr):
    """(line criterion, full definition) for every coatom of arr."""
    closed, _ = lattice_oracle(arr.forms)
    lat = intersection_lattice(arr)
    assert {f.hyperplanes: f.codim for f in lat.flats} == closed
    flats = {f.hyperplanes for f in lat.flats}
    return [
        (_is_modular(lat, flats, x), modular_oracle(closed, x.hyperplanes))
        for x in lat.flats_of_codim(arr.rank - 1)
    ]


def test_coatom_modularity_matches_full_definition():
    corpus = _modularity_corpus(2027, 50)
    assert any(arr.rank < arr.ambient_dim for arr in corpus)
    verdicts = []
    for arr in corpus:
        verdicts += _coatom_verdicts(arr)
        # the sub-arrangements _chain_exponents recurses into: the
        # hyperplanes of one coatom, non-essential in the same ambient space
        lat = intersection_lattice(arr)
        for x in lat.flats_of_codim(arr.rank - 1):
            sub = Arrangement(
                arr.ambient_dim, tuple(arr.forms[i] for i in x.hyperplanes)
            )
            verdicts += _coatom_verdicts(sub)
    for fast, full in verdicts:
        assert fast == full
    assert any(full for _, full in verdicts)
    assert not all(full for _, full in verdicts)


def test_torus_complex_ranks_and_acyclicity():
    c1 = torus_graded_complex(1, 4)
    assert c1.generator_ranks == (1, 1)
    assert is_acyclic(c1)
    c2 = torus_graded_complex(2, 4)
    assert c2.generator_ranks == (1, 2, 1)
    hom = verify_resolution(c2)
    assert all(v == 0 for v in hom.values())
    for n in (3, 4):
        assert is_acyclic(torus_graded_complex(n, 5))


def test_graded_complex_boolean_matches_torus_blocks():
    n = 3
    torus = torus_graded_complex(n - 1, 4)
    arrangement_complex = graded_complex(boolean_arrangement(n), 4)
    assert arrangement_complex.generator_ranks == torus.generator_ranks
    assert arrangement_complex.u_dims == torus.u_dims
    for q in range(1, n):
        for t in range(q, 5):
            assert arrangement_complex.block_rank(q, t) == torus.block_rank(q, t)
    assert is_acyclic(arrangement_complex)


def test_graded_complex_braid_blocks():
    c = graded_complex(braid3(), 4)
    assert c.generator_ranks == (1, 5, 6)
    assert c.u_dims == (1, 5, 19, 65, 211)
    assert is_acyclic(c)


def test_graded_complex_rank_one():
    c = graded_complex(normalize([[1, 0]], 2), 3)
    assert c.generator_ranks == (1,)
    assert c.u_dims == (1, 0, 0, 0)
    assert not c.blocks
    assert is_acyclic(c)


def test_resolution_fails_for_generic4():
    c = graded_complex(generic4(), 5)
    hom = verify_resolution(c)
    nonzero = {k: v for k, v in hom.items() if v}
    assert nonzero
    # the failure sits at the top chain degree and quantifies the graded
    # first higher homotopy group of the Hattori section
    assert nonzero == {(2, 3): 1, (2, 4): 3, (2, 5): 6}


def test_left_and_right_complexes_same_homology():
    # boolean4 and near_pencil(2) are tests/data/hattori4 and nearpencil3
    for arr in [braid3(), generic4(), boolean_arrangement(4), near_pencil(2)]:
        left = left_graded_complex(arr, 3)
        right = graded_complex(arr, 3)
        assert verify_resolution(left) == verify_resolution(right)
        assert left.blocks.keys() == right.blocks.keys()
        for q, t in right.blocks:
            assert left.block_rank(q, t) == right.block_rank(q, t)


def test_square_zero_check_runs_under_optimize_flag():
    # python -O drops assert statements; the check must still raise
    code = "\n".join([
        "from fractions import Fraction",
        "from arrtop import GradedChainComplex",
        "from arrtop.errors import InternalInconsistency",
        "blocks = {(2, 2): [{0: Fraction(1)}], (1, 2): [{0: Fraction(1)}]}",
        "c = GradedChainComplex([1, 1, 1], [1, 1, 1], 2, blocks)",
        "try:",
        "    c.check_square_zero()",
        "except InternalInconsistency:",
        "    raise SystemExit(0)",
        "raise SystemExit(1)",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_differentials_raise_internal_degree_by_one():
    # every block at (q, t) maps H_q (x) U^(t-q) into H_(q-1) (x) U^(t-q+1):
    # row counts and column supports must match those dims exactly
    c = graded_complex(braid3(), 4)
    for (q, t), rows in c.blocks.items():
        assert len(rows) == c.block_dim(q, t)
        target = c.block_dim(q - 1, t)
        for row in rows:
            assert all(0 <= col < target for col in row)


def test_section_data_validation():
    with pytest.raises(RankOutOfRange):
        SectionData(boolean_arrangement(4), 2)
    with pytest.raises(NotSupersolvable):
        SectionData(generic4(), 3)
    with pytest.raises(RankOutOfRange):
        SectionData(braid3(), 4)


def test_hattori_cokernel():
    section = SectionData(boolean_arrangement(4), 3)
    assert homotopy_cokernel_ranks(section, 5) == [1, 3, 6, 10, 15, 21]


def test_cokernel_rejects_full_rank_section():
    with pytest.raises(NotProperSection):
        homotopy_cokernel_ranks(SectionData(braid3(), 3), 3)


def test_hattori_hilbert_series():
    exps = ExponentData((1, 1, 1, 1))
    (num, den), series = homotopy_hilbert_series(exps, 2, 5)
    assert series.integer_coefficients() == [1, 3, 6, 10, 15, 21]
    assert num.coefficients == (1,)
    assert den == linear_product([1, 1, 1], sign=-1)


def test_hilbert_series_rejects_negative_degree():
    with pytest.raises(RankOutOfRange):
        homotopy_hilbert_series(ExponentData((1, 2, 3)), 2, -3)


def test_lcs_and_integer_audit_reject_negative_degree():
    with pytest.raises(RankOutOfRange):
        lcs_ranks(ExponentData((1, 2, 3)), -1)
    with pytest.raises(RankOutOfRange):
        integer_audit(braid3(), -1)


def test_hilbert_series_leading_coefficient_is_next_betti():
    exps = ExponentData((1, 1, 1, 1, 1))
    (_, _), series = homotopy_hilbert_series(exps, 2, 4)
    betti = linear_product([1, 1, 1, 1])
    assert series.integer_coefficients()[0] == betti.coefficient(3)


def test_hilbert_series_vanishes_for_full_rank_fiber_type():
    exps = ExponentData((1, 2, 3))
    (_, _), series = homotopy_hilbert_series(exps, 2, 4)
    assert series.integer_coefficients() == [0, 0, 0, 0, 0]


def test_cokernel_matches_series_boolean5():
    section = SectionData(boolean_arrangement(5), 3)
    coker = homotopy_cokernel_ranks(section, 4)
    exps = supersolvable_exponents(boolean_arrangement(5))
    (_, _), series = homotopy_hilbert_series(exps, section.connectivity, 4)
    assert coker == series.integer_coefficients()


def test_cokernel_matches_series_boolean6():
    # three surviving Betti numbers above the connectivity, so the closed
    # form has a genuinely alternating numerator
    section = SectionData(boolean_arrangement(6), 3)
    coker = homotopy_cokernel_ranks(section, 3)
    exps = supersolvable_exponents(boolean_arrangement(6))
    (num, _), series = homotopy_hilbert_series(exps, section.connectivity, 3)
    assert num.coefficients == (10, -5, 1)
    assert coker == series.integer_coefficients() == [10, 45, 126, 280]


def test_consistency_suite_boolean5():
    report = consistency_suite(SectionData(boolean_arrangement(5), 3), 4)
    assert all(entry["passed"] for entry in report)


def test_consistency_suite_hattori():
    report = consistency_suite(SectionData(boolean_arrangement(4), 3), 5)
    assert len(report) == 4
    assert all(entry["passed"] for entry in report)


def test_consistency_suite_braid_improper_section():
    report = consistency_suite(SectionData(braid3(), 3), 4)
    names = [entry["identity"] for entry in report]
    assert names == ["poincare_factorization", "euler_pairing"]
    assert all(entry["passed"] for entry in report)


def test_consistency_suite_corrupted_exponents():
    report = consistency_suite(
        SectionData(braid3(), 3), 4, exponents_override=ExponentData((1, 2, 4))
    )
    entry = next(e for e in report if e["identity"] == "poincare_factorization")
    assert not entry["passed"]
    assert entry["first_failing_degree"] == 1


def test_lcs_ranks():
    assert lcs_ranks(ExponentData((1, 2, 3)), 3) == [6, 4, 10]
    assert lcs_ranks(ExponentData((1,)), 4) == [1, 0, 0, 0]
    assert lcs_ranks(ExponentData((1, 1)), 3) == [2, 0, 0]


def test_lcs_reexpansion():
    phis = lcs_ranks(ExponentData((1, 2, 3)), 3)
    expanded = expand_lcs_product(phis, 3)
    target = linear_product([1, 2, 3], sign=-1)
    assert expanded == [target.coefficient(k) for k in range(4)]


def test_free_graded_lie_single_even_sphere():
    # one generator in degree 1 = a single 2-sphere; its square survives
    assert free_graded_lie_ranks([1], 5) == [1, 1, 0, 0, 0]


def test_free_graded_lie_two_generators():
    ranks = free_graded_lie_ranks([2], 4)
    assert ranks[0] == 2
    assert ranks[1] == 3  # both squares and the bracket
    # PBW expansion reproduces the tensor algebra dimensions 1/(1-2t)
    from fractions import Fraction

    from arrtop.exactalg import series_inverse, series_mul

    current = [Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0)]
    for q, l in enumerate(ranks, start=1):
        if q % 2:
            factor = [Fraction(0)] * 5
            factor[0] = Fraction(1)
            factor[q] = Fraction(1)
            for _ in range(l):
                current = series_mul(current, factor, 4)
        else:
            base = [Fraction(0)] * 5
            base[0] = Fraction(1)
            base[q] = Fraction(-1)
            inv = series_inverse(base, 4)
            for _ in range(l):
                current = series_mul(current, inv, 4)
    assert [int(c) for c in current] == [1, 2, 4, 8, 16]


def test_free_graded_lie_truncation_one():
    assert free_graded_lie_ranks([7], 1) == [7]


def test_free_graded_lie_rejects_bad_series():
    with pytest.raises(NonIntegerRank):
        free_graded_lie_ranks([-1], 2)


def test_asphericity_full_rank_section():
    report = asphericity_test(SectionData(boolean_arrangement(4), 4))
    assert report.connectivity is INFINITE
    assert report.verdict == "ASPHERICAL"


def test_asphericity_hattori():
    report = asphericity_test(SectionData(boolean_arrangement(4), 3))
    assert report.connectivity == 2
    assert report.verdict == "FIRST_NONZERO"
    assert report.module_status == "GROUP_RING_FREE"


def test_asphericity_deep_section_never_projective():
    report = asphericity_test(SectionData(boolean_arrangement(5), 3))
    assert report.connectivity == 2
    assert report.module_status == "NEVER_PROJECTIVE"


def test_asphericity_pair_mode():
    arr = boolean_arrangement(4)
    u = Subspace(((1, 0, 0, 1), (0, 1, 0, 2), (0, 0, 1, 5)))
    report = asphericity_test(arr, u)
    assert report.connectivity == 2
    assert report.module_status == "GROUP_RING_FREE"
    whole = Subspace(tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4)))
    assert asphericity_test(arr, whole).verdict == "ASPHERICAL"


def test_asphericity_rejects_low_genericity():
    arr = boolean_arrangement(4)
    u = Subspace(((1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    with pytest.raises(FrameworkNotApplicable):
        asphericity_test(arr, u)


def test_asphericity_non_iterated_section_has_no_module_verdict():
    # the kernel of x0+x1+x2+x3 is 2-generic but not 3-generic for the
    # boolean arrangement of rank 5: the framework applies, but the
    # freeness dichotomy only covers iterated hyperplane sections
    arr = boolean_arrangement(5)
    u = Subspace((
        (1, -1, 0, 0, 0),
        (0, 1, -1, 0, 0),
        (0, 0, 1, -1, 0),
        (0, 0, 0, 0, 1),
    ))
    assert genericity_level(arr, u) == 2
    report = asphericity_test(arr, u)
    assert report.connectivity == 2
    assert report.verdict == "FIRST_NONZERO"
    assert report.module_status is None


def test_integer_audit_braid():
    audit = integer_audit(braid3(), 3)
    assert audit["free_over_integers"]
    assert audit["slices"][2]["rank"] == 6
    assert audit["slices"][3]["rank"] == 60


def test_envelope_dims_euler_identity():
    # alternating Betti series times envelope series telescopes to 1
    arr = braid3()
    env = holonomy_envelope(arr, 4)
    betti = [1, 5, 6]
    for t in range(1, 5):
        total = sum(
            (-1) ** q * betti[q] * env.dim(t - q)
            for q in range(min(t, 2) + 1)
        )
        assert total == 0
