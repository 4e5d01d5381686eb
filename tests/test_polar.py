import random
from itertools import combinations, product

import pytest

from arrtop import (
    affine_part_sphere_count,
    isolated_singularity_degree,
    isolated_singularity_report,
    lefschetz_euler_check,
    milnor_fiber_sphere_count,
    normalize,
    plane_curve_affine_b1,
    polar_degree,
    polar_invariant,
    quasihomogeneous_milnor,
    twisted_betti_bound,
)
from arrtop.errors import (
    InconsistentCount,
    InconsistentMilnorData,
    NonIntegerMu,
    NonIsolated,
    PreconditionError,
    ZeroForm,
)
from arrtop.polar import CLASS_NEARPENCIL_B2, _classify
from genutil import (
    boolean_arrangement,
    braid3,
    euler_projective_oracle,
    generic4,
    near_pencil,
    random_essential_arrangement,
    rank_oracle,
)


def test_boolean_is_homaloidal():
    for n in (2, 3, 4):
        rep = polar_degree(boolean_arrangement(n + 1))
        assert rep.degree == 1
        assert rep.classification == "BOOLEAN_B1"
        assert rep.essential
        assert rep.bound_satisfied


def test_near_pencil_degree_two():
    for n in (2, 3):
        rep = polar_degree(near_pencil(n))
        assert rep.degree == 2
        assert rep.classification == "NEARPENCIL_B2"


def test_near_pencil_class_matches_brute_force_circuit():
    """A corank-one essential arrangement is classed as a near-pencil exactly
    when its unique circuit, the smallest dependent set by minor ranks, has
    three hyperplanes."""
    rng = random.Random(17)
    sizes = []
    while len(sizes) < 40:
        n = rng.randint(2, 5)
        raw = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        support = rng.sample(range(n), rng.randint(2, n))
        raw.append([
            sum(rng.choice([-2, -1, 1, 2]) * raw[i][j] for i in support)
            for j in range(n)
        ])
        try:
            arr = normalize(raw, n)
        except ZeroForm:
            continue
        if arr.num_hyperplanes != n + 1 or arr.rank != n:
            continue
        size = next(
            k for k in range(2, n + 2)
            if any(rank_oracle([arr.forms[i] for i in s]) < k
                   for s in combinations(range(n + 1), k))
        )
        assert (_classify(arr, 2) == CLASS_NEARPENCIL_B2) == (size == 3)
        sizes.append(size)
    assert 3 in sizes and len(set(sizes)) > 1


def test_braid_degree():
    rep = polar_degree(braid3())
    assert rep.degree == 6
    assert rep.classification == "GENERAL"
    assert polar_invariant(braid3()) == 6 * 6


def test_nonessential_degree_zero():
    arr = normalize([[1, 0, 0], [0, 1, 0]], 3)
    rep = polar_degree(arr)
    assert rep.degree == 0
    assert not rep.essential
    assert rep.classification == "ZERO"
    assert polar_invariant(arr) == 0


def test_polar_invariants_small():
    assert polar_invariant(boolean_arrangement(3)) == 3
    assert polar_invariant(near_pencil(2)) == 8


def test_affine_sphere_count():
    assert affine_part_sphere_count(boolean_arrangement(3)) == 1
    assert affine_part_sphere_count(braid3()) == 6


def test_euler_check_agrees_with_oracle():
    rng = random.Random(8)
    for _ in range(4):
        arr = random_essential_arrangement(rng, max_hyperplanes=6)
        if arr.ambient_dim < 2:
            continue
        lhs, rhs = lefschetz_euler_check(arr, seed=rng.randint(0, 10 ** 6))
        assert lhs == rhs
        _, betti = euler_projective_oracle(arr.forms)
        n = arr.ambient_dim - 1
        expected_top = betti[n] if n < len(betti) else 0
        assert rhs == expected_top


def test_hyperplane_count_bound():
    rng = random.Random(13)
    for _ in range(8):
        arr = random_essential_arrangement(rng)
        rep = polar_degree(arr, verify=False)
        if rep.degree > 0:
            assert arr.num_hyperplanes <= arr.ambient_dim - 1 + rep.degree
            assert rep.bound_satisfied


def test_degree_invariant_under_duplication_and_rescaling():
    rng = random.Random(77)
    bases = [boolean_arrangement(3), near_pencil(2), braid3(), generic4()]
    for base in bases:
        reference = polar_degree(base, verify=False).degree
        for _ in range(5):
            raw = [list(f) for f in base.forms]
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(base.forms))
                scale = rng.choice([-3, -2, -1, 2, 3])
                raw.append([scale * x for x in base.forms[i]])
            rng.shuffle(raw)
            mutated = normalize(raw, base.ambient_dim)
            assert polar_degree(mutated, verify=False).degree == reference


def test_isolated_singularity_degree():
    assert isolated_singularity_degree(3, 2, []) == 4
    assert isolated_singularity_degree(3, 2, [1]) == 3
    assert isolated_singularity_degree(2, 2, [1]) == 0
    with pytest.raises(InconsistentMilnorData):
        isolated_singularity_degree(2, 2, [5])


def test_isolated_singularity_report_annotations():
    rep = isolated_singularity_report(2, 2, [1])
    assert rep["degree"] == 0
    assert any("cone" in note for note in rep["notes"])
    rep = isolated_singularity_report(3, 3, [7])
    assert rep["degree"] == 1
    assert any("advisory" in note for note in rep["notes"])


def test_quasihomogeneous_milnor():
    assert quasihomogeneous_milnor([1, 1], 2) == 1  # node
    assert quasihomogeneous_milnor([3, 2], 6) == 2  # cusp
    assert quasihomogeneous_milnor([1, 1, 1], 3) == 8


def test_cusp_matches_staircase_oracle():
    # x^2 + y^3: Jacobian ideal (x, y^2); monomials under the staircase
    def staircase_count(a, b):
        return sum(
            1 for i, j in product(range(a), range(b)) if i < a - 1 and j < b - 1
        )

    assert quasihomogeneous_milnor([3, 2], 6) == staircase_count(2, 3)


def test_quasihomogeneous_errors():
    with pytest.raises(NonIsolated):
        quasihomogeneous_milnor([2, 2], 2)
    with pytest.raises(NonIntegerMu):
        quasihomogeneous_milnor([2, 3], 7)


def test_plane_curve_affine_b1():
    assert plane_curve_affine_b1(0, 0, 2) == 1  # smooth conic, homaloidal
    assert plane_curve_affine_b1(0, 1, 3) == 3  # nodal cubic
    assert plane_curve_affine_b1(0, 0, 1) == 0  # line
    with pytest.raises(PreconditionError):
        plane_curve_affine_b1(0, 0, 0)


def test_nodal_cubic_cross_formula():
    assert isolated_singularity_degree(3, 2, [1]) == plane_curve_affine_b1(0, 1, 3)


def test_milnor_fiber_sphere_count():
    assert milnor_fiber_sphere_count(6, 1, 2) == 6
    assert milnor_fiber_sphere_count(10, 2, 2) == 9
    with pytest.raises(InconsistentCount):
        milnor_fiber_sphere_count(0, 2, 2)


def test_sphere_count_for_unit_degree_matches_polar():
    rep = polar_degree(braid3(), verify=False)
    assert milnor_fiber_sphere_count(rep.degree, 1, 2) == rep.affine_sphere_count


def test_twisted_betti_bound():
    assert twisted_betti_bound([1, 5, 6], 1) == [1, 5, 6]
    assert twisted_betti_bound([1, 3, 3], 2) == [2, 6, 6]
    with pytest.raises(PreconditionError):
        twisted_betti_bound([1, 2], 0)
