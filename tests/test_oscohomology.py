import gc
import os
import random
import types
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from arrtop import (
    Arrangement,
    SectionData,
    cup_matrix,
    graded_complex,
    homotopy_cokernel_ranks,
    holonomy_envelope,
    is_essential,
    left_cup_dual,
    left_graded_complex,
    nbc_basis,
    normalize,
    poincare_central,
    poincare_projective,
    reduced_diagonal,
    right_cup_dual,
    series_of_rational,
    torus_graded_complex,
)
from arrtop.cli import parse_arrangement
from arrtop.errors import RankOutOfRange, WorkBoundExceeded
from arrtop import exactalg, homotopy, oscohomology
from arrtop.exactalg import IntPolynomial, int_rank, linear_product, sub_scaled
from arrtop.homotopy import _delta_rows, is_acyclic
from arrtop.oscohomology import central_algebra, cohomology_view, sort_sign
from genutil import (
    boolean_arrangement,
    boundary_expansion,
    braid3,
    braid_arrangement,
    direct_sum,
    envelope_oracle,
    generic4,
    nbc_oracle,
    near_pencil,
    projective_cup_oracle,
    random_essential_arrangement,
    seeded_rank3_corpus,
    subset_ranks_oracle,
    unimodular_image,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


def triangle():
    # three concurrent lines in the plane: one circuit {0,1,2}
    return normalize([[1, 0], [0, 1], [1, 1]], 2)


def test_nbc_counts_match_poincare():
    for arr in [boolean_arrangement(3), braid3(), near_pencil(2), generic4()]:
        poly = poincare_central(arr)
        for q in range(arr.rank + 1):
            assert len(nbc_basis(arr, q).monomials) == poly.coefficient(q)


def test_nbc_degree_zero():
    assert nbc_basis(braid3(), 0).monomials == ((),)


def test_triangle_rewriting():
    alg = central_algebra(triangle())
    # the broken circuit {1,2} rewrites into the two NBC pairs through 0
    assert alg.expand((1, 2)) == {(0, 2): 1, (0, 1): -1}
    assert alg.nbc(2) == ((0, 1), (0, 2))
    # multiplication map from the wedge square onto degree two has rank 2
    products = [alg.multiply({(i,): 1}, {(j,): 1}) for i in range(3) for j in range(i + 1, 3)]
    index = {m: k for k, m in enumerate(alg.nbc(2))}
    rows = [
        [p.get(m, 0) for m in alg.nbc(2)]
        for p in products
    ]
    assert int_rank(rows) == 2
    del index


def _check_expand_is_os_reduction(arr):
    """expand fixes NBC monomials and kills the Orlik-Solomon ideal: the
    boundary of every dependent monomial, times any monomial, expands to
    zero.  Together these pin expand down, since NBC monomials are a basis
    of the quotient by that ideal.  Returns the number of products
    checked."""
    alg = central_algebra(arr)
    n = arr.num_hyperplanes
    for q in range(arr.rank + 1):
        for s in nbc_basis(arr, q).monomials:
            assert alg.expand(s) == {s: 1}
    checks = 0
    for size in range(2, arr.rank + 2):
        for dep in combinations(range(n), size):
            if alg.is_independent(dep):
                continue
            boundary = boundary_expansion(alg, dep)
            for t_size in range(arr.rank + 2 - size):
                for t in combinations(range(n), t_size):
                    assert alg.multiply(boundary, alg.expand(t)) == {}
                    checks += 1
    return checks


def test_expand_is_reduction_modulo_the_os_ideal():
    rng = random.Random(12)
    braid4 = normalize(
        [[(k == i) - (k == j) for k in range(5)] for i, j in combinations(range(5), 2)],
        5,
    )
    corpus = [braid3(), braid4, generic4(), near_pencil(3)]
    corpus += [random_essential_arrangement(rng, 7) for _ in range(4)]
    assert sum(map(_check_expand_is_os_reduction, corpus)) > 1000


def _data_arrangements():
    names = sorted(
        f[:-5] for f in os.listdir(DATA)
        if f.endswith(".json") and not f.startswith("golden_")
        and "subspace" not in f
    )
    return [(name, parse_arrangement(os.path.join(DATA, name + ".json")))
            for name in names]


def test_nbc_basis_and_expand_match_broken_circuit_oracle():
    corpus = [(f"A{n}", braid_arrangement(n)) for n in (3, 4, 5)]
    corpus += _data_arrangements()
    assert len(corpus) >= 8
    for name, arr in corpus:
        expected = nbc_oracle(subset_ranks_oracle(arr.forms))
        assert len(expected) == arr.rank + 1, name
        for q, monomials in enumerate(expected):
            assert nbc_basis(arr, q).monomials == monomials, (name, q)
        _check_expand_is_os_reduction(arr)


def _columns(rows, ncols):
    return [tuple(row[r] for row in rows) for r in range(ncols)]


def test_projective_cup_products_match_boundary_basis_oracle():
    """Cup matrices, both cup duals and the reduced diagonal on the
    projective side against products solved in the basis of boundaries of
    NBC sets through hyperplane 0."""
    corpus = _data_arrangements()
    corpus += [(f"A{n}", braid_arrangement(n)) for n in (3, 4, 5)]
    corpus += [(f"seeded {i}", arr)
               for i, arr in enumerate(seeded_rank3_corpus(31, 50))]
    assert any(not is_essential(arr) for _, arr in corpus)
    checked = 0
    for name, arr in corpus:
        b1, relations = 0, []
        for q in range(1, cohomology_view(arr, True).top + 1):
            labels, right, left = projective_cup_oracle(arr, q)
            slice_ = cup_matrix(arr, q, projective=True)
            assert slice_.column_labels == labels[q], (name, q)
            assert slice_.row_labels == tuple(
                (a, b) for a in labels[q - 1] for b in labels[1]
            ), (name, q)
            assert slice_.matrix == tuple(right), (name, q)
            dim = len(labels[q])
            assert right_cup_dual(arr, q, projective=True) == _columns(right, dim)
            assert left_cup_dual(arr, q, projective=True) == _columns(left, dim)
            checked += 1
            b1 = len(labels[1])
            for r in range(dim if q == 2 else 0):
                # the wedge x_i ^ x_j embeds as x_i (x) x_j - x_j (x) x_i
                anti = [0] * (b1 * b1)
                for i, j in combinations(range(b1), 2):
                    anti[i * b1 + j] = right[i * b1 + j][r]
                    anti[j * b1 + i] = -right[i * b1 + j][r]
                relations.append(tuple(anti))
        rel = reduced_diagonal(arr, projective=True)
        assert (rel.dim_h1, rel.relation_basis) == (b1, tuple(relations)), name
    assert checked > 100


def test_cup_identity_in_degree_one():
    for arr in [boolean_arrangement(3), braid3()]:
        for projective in (False, True):
            slice_ = cup_matrix(arr, 1, projective=projective)
            n = len(slice_.column_labels)
            assert len(slice_.matrix) == n
            for i, row in enumerate(slice_.matrix):
                expected = tuple(1 if j == i else 0 for j in range(n))
                assert row == expected


def test_boolean_cup_is_exterior_algebra():
    arr = boolean_arrangement(3)
    alg = central_algebra(arr)
    for i in range(3):
        assert alg.multiply({(i,): 1}, {(i,): 1}) == {}
        for j in range(3):
            if i < j:
                ab = alg.multiply({(i,): 1}, {(j,): 1})
                ba = alg.multiply({(j,): 1}, {(i,): 1})
                assert ab == {(i, j): 1}
                assert ba == {(i, j): -1}


def test_graded_commutativity_and_associativity():
    for arr in [braid3(), generic4()]:
        alg = central_algebra(arr)
        rng = random.Random(4)
        singles = [{(i,): 1} for i in range(arr.num_hyperplanes)]
        for _ in range(15):
            i, j, k = (rng.randrange(arr.num_hyperplanes) for _ in range(3))
            ab = alg.multiply(singles[i], singles[j])
            ba = alg.multiply(singles[j], singles[i])
            assert ab == {m: -c for m, c in ba.items()}
            left = alg.multiply(ab, singles[k])
            right = alg.multiply(singles[i], alg.multiply(singles[j], singles[k]))
            assert left == right


def test_reduced_diagonal_boolean_spans_wedge_square():
    arr = boolean_arrangement(3)
    rel = reduced_diagonal(arr)
    assert len(rel.relation_basis) == 3  # C(3, 2)
    assert int_rank(rel.relation_basis) == 3


def test_reduced_diagonal_triangle_central():
    rel = reduced_diagonal(triangle())
    assert len(rel.relation_basis) == 2
    assert int_rank(rel.relation_basis) == 2


def test_reduced_diagonal_rows_are_antisymmetric():
    for arr in [braid3(), generic4(), near_pencil(2)]:
        rel = reduced_diagonal(arr, projective=True)
        b1 = rel.dim_h1
        for row in rel.relation_basis:
            for i in range(b1):
                for j in range(b1):
                    assert row[i * b1 + j] == -row[j * b1 + i]


def test_reduced_diagonal_product_arrangement_kunneth():
    # product of the triangle with one extra coordinate line: relation
    # count is additive plus the mixed wedge part
    prod = normalize([[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]], 3)
    b2 = poincare_central(prod).coefficient(2)
    triangle_b2 = poincare_central(triangle()).coefficient(2)
    mixed = 3 * 1  # b1(triangle) * b1(line)
    assert b2 == triangle_b2 + mixed
    rel = reduced_diagonal(prod)
    assert len(rel.relation_basis) == b2
    assert int_rank(rel.relation_basis) == b2


def test_envelope_boolean_is_polynomial_algebra():
    env = holonomy_envelope(boolean_arrangement(3), 4)
    assert env.dims == [1, 2, 3, 4, 5]


def test_envelope_braid_matches_closed_form():
    env = holonomy_envelope(braid3(), 3)
    closed = series_of_rational(
        IntPolynomial.one(), linear_product([2, 3], sign=-1), 3
    )
    assert env.dims == closed.integer_coefficients()


def test_envelope_braid_a4_degree5_matches_closed_form():
    # projective braid A4 (exponents 1, 2, 3, 4); the last degree eliminates
    # 7410 relation rows, which is quick only when sparse rows go first
    a4 = normalize(
        [[(k == i) - (k == j) for k in range(4)] for i, j in combinations(range(5), 2)],
        4,
    )
    env = holonomy_envelope(a4, 5)
    closed = series_of_rational(
        IntPolynomial.one(), linear_product([2, 3, 4], sign=-1), 5
    )
    assert env.dims == closed.integer_coefficients() == [1, 9, 55, 285, 1351, 6069]


def test_envelope_near_pencil_matches_closed_form():
    # supersolvable with exponents {1, 1, 2}
    env = holonomy_envelope(near_pencil(2), 3)
    closed = series_of_rational(
        IntPolynomial.one(), linear_product([1, 2], sign=-1), 3
    )
    assert env.dims == closed.integer_coefficients() == [1, 3, 7, 15]


def test_envelope_degree_zero():
    env = holonomy_envelope(braid3(), 0)
    assert env.dims == [1]


def test_envelope_invariant_under_hyperplane_permutation():
    rng = random.Random(17)
    base = list(braid3().forms)
    reference = holonomy_envelope(braid3(), 3).dims
    for _ in range(3):
        shuffled = base[:]
        rng.shuffle(shuffled)
        arr = normalize(shuffled, 3)
        assert holonomy_envelope(arr, 3).dims == reference


def _assert_envelope_matches_oracle(arr, degree, projective):
    env = holonomy_envelope(arr, degree, projective=projective)
    oracle = envelope_oracle(arr, degree, projective)
    assert env.dims == oracle.dims
    assert env.basis_words == oracle.basis_words
    for k in range(degree):
        for w in range(env.dims[k]):
            for j in range(env.b1):
                for left in (True, False):
                    got = env.generator_product(j, k, w, left=left)
                    assert got == oracle.generator_product(j, k, w, left=left)
                    assert all(type(v) is Fraction for v in got.values())


def test_envelope_matches_tensor_oracle():
    names = ["boolean3", "braid3", "generic4", "hattori4", "nearpencil3"]
    corpus = [parse_arrangement(os.path.join(DATA, n + ".json")) for n in names]
    rng = random.Random(404)
    corpus += [random_essential_arrangement(rng, 6) for _ in range(12)]
    assert {arr.rank for arr in corpus} == {2, 3, 4}
    for arr in corpus:
        for projective in (True, False):
            _assert_envelope_matches_oracle(arr, 4, projective)


def test_envelope_matches_tensor_oracle_braid3_degree5():
    # projective only: the central oracle eliminates over 6^5 columns, too
    # slow for the suite; the corpus test covers the central side
    _assert_envelope_matches_oracle(braid3(), 5, True)


def test_complexes_match_tensor_oracle_braid3_degree5():
    arr = braid3()
    view = cohomology_view(arr, True)
    oracle = envelope_oracle(arr, 5)
    for left, complex_ in ((False, graded_complex(arr, 5)),
                           (True, left_graded_complex(arr, 5))):
        expected = {}
        for q in range(1, view.top + 1):
            sign = -1 if left else (-1) ** q
            for t in range(q, 6):
                rows = _delta_rows(view, oracle, q, t, sign, left)
                if rows:
                    expected[(q, t)] = rows
        assert complex_.u_dims == tuple(oracle.dims)
        assert complex_.blocks == expected


def _rescaled_permutation(data, arr):
    perm = data.draw(st.permutations(range(arr.num_hyperplanes)))
    scales = data.draw(st.lists(st.sampled_from([1, -1, 2, -2]),
                                min_size=arr.num_hyperplanes,
                                max_size=arr.num_hyperplanes))
    # built directly: normalize would undo the rescaling, so this way the
    # non-primitive forms reach every stage and make a new cache key
    return Arrangement(arr.ambient_dim, tuple(
        tuple(s * x for x in arr.forms[i]) for s, i in zip(scales, perm)
    ))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_envelope_dims_invariant_under_permutation_and_rescaling(data):
    arr = random_essential_arrangement(
        random.Random(data.draw(st.integers(0, 10 ** 6))), 6)
    moved = _rescaled_permutation(data, arr)
    for projective in (True, False):
        assert (holonomy_envelope(moved, 3, projective=projective).dims
                == holonomy_envelope(arr, 3, projective=projective).dims)


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_section_cokernels_invariant_under_permutation_and_rescaling(data):
    arr = boolean_arrangement(4)
    moved = _rescaled_permutation(data, arr)
    assert (homotopy_cokernel_ranks(SectionData(moved, 3), 4)
            == homotopy_cokernel_ranks(SectionData(arr, 3), 4))


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_section_cokernels_invariant_under_unimodular_coordinate_change(data):
    arr = data.draw(st.sampled_from([
        boolean_arrangement(4),
        braid_arrangement(4),
        near_pencil(3),
        direct_sum(braid3(), boolean_arrangement(1)),
    ]))
    assert is_essential(arr) and arr.rank >= 4
    dim = arr.ambient_dim
    steps = data.draw(st.lists(
        st.tuples(
            st.integers(0, dim - 1), st.integers(0, dim - 1), st.integers(-4, 4)
        ),
        max_size=12,
    ))
    moved = unimodular_image(arr, steps)
    assert (homotopy_cokernel_ranks(SectionData(moved, 3), 3)
            == homotopy_cokernel_ranks(SectionData(arr, 3), 3))


def test_envelope_work_bound():
    with pytest.raises(WorkBoundExceeded):
        holonomy_envelope(braid3(), 5, work_bound=100)


def test_envelope_generator_products_consistent():
    env = holonomy_envelope(braid3(), 3)
    # multiplying a degree-1 basis word by every generator and summing
    # dimensions must cover all of degree 2
    seen = set()
    for j in range(env.b1):
        for w in range(env.dims[1]):
            for pos, coeff in env.generator_product(j, 1, w).items():
                assert isinstance(coeff, Fraction)
                seen.add(pos)
    assert seen == set(range(env.dims[2]))


def test_generator_product_refuses_positions_outside_the_basis():
    # a table row is found by j * dim U_k + w, so an unchecked position
    # would read another generator's product
    env = holonomy_envelope(braid3(), 3)
    assert env.generator_product(env.b1 - 1, 1, env.dims[1] - 1)
    for j, k, w in [(0, 1, env.dims[1]), (0, 1, -1), (env.b1, 1, 0),
                    (-1, 1, 0), (0, -1, 0)]:
        with pytest.raises(RankOutOfRange):
            env.generator_product(j, k, w)
        with pytest.raises(RankOutOfRange):
            env.generator_product(j, k, w, left=False)


def _reachable(root):
    """Every object reachable from root through references, short of
    classes, modules and functions."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
                obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        yield obj
        stack.extend(gc.get_referents(obj))


def test_envelope_keeps_one_left_table_and_no_echelon():
    # once a degree is eliminated, its echelon goes; x_j w is read straight
    # off the degree's table, and block (1, k) is that table negated
    arr = parse_arrangement(os.path.join(DATA, "hattori4.json"))
    env = holonomy_envelope(arr, 4)
    assert env.dims[4]
    for view in (env, holonomy_envelope(arr, 3)):
        assert not any(isinstance(obj, exactalg.SparseEchelon)
                       for obj in _reachable(view))
    for k in range(4):
        for w in range(env.dims[k]):
            for j in range(env.b1):
                xw = env._left[k + 1][j * env.dims[k] + w]
                assert env._product(j, k, w) is xw
                assert env.generator_product(j, k, w) == xw
    for k in range(1, 5):
        assert env._left_block(k) == [
            {p: -v for p, v in xw.items()} for xw in env._left[k]
        ]


def test_integer_data_stays_int(monkeypatch):
    # the braid3 envelope, the assembly of its complex, its block ranks
    # (rows inserted sparsest first) and the torus ranks meet only unit
    # pivots, so no Fraction may reach the kernel there: a Fraction(...)
    # wrapper on any input (cohomology bases, relations, product seeds,
    # complex blocks, int_rank) or a return to generation-order insertion
    # would put the elimination back on Fraction arithmetic.
    fractions_seen = []

    def spy(acc, vec, coeff):
        if type(coeff) is Fraction or any(
                type(v) is Fraction for d in (acc, vec) for v in d.values()):
            fractions_seen.append((acc, vec, coeff))
        sub_scaled(acc, vec, coeff)

    for module in (exactalg, oscohomology, homotopy):
        monkeypatch.setattr(module, "sub_scaled", spy)
    # forms scaled by 3: a cache key no other test builds
    arr = Arrangement(3, tuple(tuple(3 * x for x in f) for f in braid3().forms))
    env = holonomy_envelope(arr, 4)
    complexes = [graded_complex(arr, 4), torus_graded_complex(3, 4)]
    assert all(map(is_acyclic, complexes))
    assert not fractions_seen
    for table in env._left.values():
        for xw in table:
            assert all(type(v) is int for v in xw.values())
    for complex_ in complexes:
        for rows in complex_.blocks.values():
            for row in rows:
                assert all(type(v) is int for v in row.values())


def test_right_cup_dual_degree_one_is_identity_pairing():
    for arr in [boolean_arrangement(3), braid3()]:
        for mat in (right_cup_dual(arr, 1), left_cup_dual(arr, 1)):
            for i, row in enumerate(mat):
                assert row[i] == 1
                assert sum(abs(x) for x in row) == 1


def test_boolean_right_dual_is_koszul_shaped():
    # boolean degree-2 dual: each degree-2 class maps to the two signed
    # generator pairs of the exterior square
    mat = right_cup_dual(boolean_arrangement(3), 2)
    for row in mat:
        nonzero = [x for x in row if x]
        assert sorted(nonzero) == [-1, 1]


def test_left_dual_is_swap_of_right_dual_up_to_sign():
    for arr in [boolean_arrangement(3), braid3()]:
        for projective in (False, True):
            view = cohomology_view(arr, projective)
            for q in range(2, view.top + 1):
                right = right_cup_dual(arr, q, projective=projective)
                left = left_cup_dual(arr, q, projective=projective)
                n_low = view.dim(q - 1)
                n_one = view.dim(1)
                sign = (-1) ** (q - 1)
                for r in range(view.dim(q)):
                    for t in range(n_low):
                        for j in range(n_one):
                            assert left[r][j * n_low + t] == sign * right[r][t * n_one + j]


def test_cup_rows_are_cached_per_degree_and_side():
    view = cohomology_view(braid3(), False)
    for q in range(1, view.top + 1):
        for left in (False, True):
            assert view.cup_rows(q, left) is view.cup_rows(q, left)
    assert view.cup_rows(2) is not view.cup_rows(2, left=True)


def test_projective_basis_dimensions():
    for arr in [braid3(), generic4(), boolean_arrangement(4)]:
        view = cohomology_view(arr, True)
        poly = poincare_projective(arr)
        for q in range(view.top + 1):
            assert view.dim(q) == poly.coefficient(q)
            assert view.basis(q).dim == poly.coefficient(q)


def test_wedge_square_surjects_onto_degree_two():
    # the multiplication out of the wedge square of degree one has rank b_2
    # in both the central and projective pictures
    for arr in [braid3(), generic4(), near_pencil(2)]:
        for projective in (False, True):
            view = cohomology_view(arr, projective)
            b1, b2 = view.dim(1), view.dim(2)
            if b2 == 0:
                continue
            rows = []
            cup = view.cup_rows(2)
            for i in range(b1):
                for j in range(i + 1, b1):
                    entry = cup[(i, j)]
                    rows.append([entry.get(r, 0) for r in range(b2)])
            assert int_rank(rows) == b2


def test_sort_sign():
    assert sort_sign((2, 1)) == ((1, 2), -1)
    assert sort_sign((1, 2)) == ((1, 2), 1)
    assert sort_sign((1, 1)) == (None, 0)
    assert sort_sign((3, 1, 2)) == ((1, 2, 3), 1)
