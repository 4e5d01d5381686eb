import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arrtop.exactalg import (
    IntPolynomial,
    SparseEchelon,
    TruncatedSeries,
    int_rank,
    linear_product,
    poly_divide_exact,
    series_of_rational,
    smith_invariant_factors,
)
from arrtop.errors import InexactDivision, ZeroConstantTerm
from genutil import FractionEchelon, rank_oracle


def test_int_rank_proportional_rows():
    assert int_rank([[1, 2], [2, 4]]) == 1


def test_int_rank_matches_minor_oracle():
    rng = random.Random(421)
    for _ in range(12):
        rows = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(5)]
        assert int_rank(rows) == rank_oracle(rows)


def test_rank_equals_transpose_rank():
    rng = random.Random(99)
    for _ in range(10):
        rows = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(6)]
        assert int_rank(rows) == int_rank(list(zip(*rows)))


def _narrowed(vec):
    return all(type(v) is int or v.denominator != 1 for v in vec.values())


_values = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)),
)
_rows = st.lists(
    st.dictionaries(st.integers(0, 9), _values, max_size=6).map(
        lambda row: {c: v for c, v in row.items() if v}),
    max_size=8,
)


def _check_normal_forms(ech, ref):
    """ech's normal forms are the reference's residuals of the unit vector
    at each pivot column, narrowed."""
    forms = ech.normal_forms()
    assert forms == {c: ref.reduce_coordinates({c: 1}) for c in ref.pivot_rows}
    assert all(_narrowed(nf) for nf in forms.values())


@settings(max_examples=200, deadline=None)
@given(_rows, _rows)
def test_sparse_echelon_matches_fraction_reference(rows, queries):
    # mixed int / Fraction rows with non-unit pivots against the
    # all-Fraction reference; values compare equal across the two types
    fast, ref = SparseEchelon(), FractionEchelon()
    for row in rows:
        assert fast.insert(row) == ref.insert(row)
        assert fast.rank == ref.rank
    assert set(fast.pivot_rows) == set(ref.pivot_rows)
    assert fast.pivot_rows == ref.pivot_rows
    assert all(_narrowed(row) for row in fast.pivot_rows.values())
    for vec in rows + queries:
        reduced = fast.reduce(vec)
        assert reduced == ref.reduce(vec) and _narrowed(reduced)
    _check_normal_forms(fast, ref)


@settings(max_examples=200, deadline=None)
@given(_rows, _rows, st.randoms(use_true_random=False))
def test_batch_insertion_order_changes_only_pivot_rows(rows, probes, rng):
    """The rank, the pivot columns (the leading columns of the row space),
    membership and the normal forms of the pivot columns (the unique
    representatives modulo the row space supported on non-pivot columns)
    depend only on the row space, so neither the sparsest-first order of
    `extend` nor any other insertion order may change them; only the
    stored pivot rows differ.  Rows mix ints and Fractions and have
    non-unit leads."""
    batch, shuffled, sequential = SparseEchelon(), SparseEchelon(), SparseEchelon()
    batch.extend(rows)
    permuted = list(rows)
    rng.shuffle(permuted)
    shuffled.extend(permuted)
    ref = FractionEchelon()
    for row in rows:
        sequential.insert(row)
        ref.insert(row)
    for ech in (batch, shuffled, sequential):
        assert ech.rank == ref.rank
        assert set(ech.pivot_rows) == set(ref.pivot_rows)
        for vec in rows + probes:
            assert (not ech.reduce(vec)) == ref.contains(vec)
        _check_normal_forms(ech, ref)


_operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _rows.map(lambda rows: rows[:1])),
        st.tuples(st.just("extend"), _rows),
        st.tuples(st.just("query"), _rows),
    ),
    max_size=8,
)


@settings(max_examples=100, deadline=None)
@given(_operations)
def test_interleaved_inserts_and_queries_match_fraction_reference(operations):
    """Queries between inserts: `reduce` and `normal_forms` read the pivot
    rows as they stand, so every row that enlarges the row space must show
    in the next answer of both."""
    fast, ref = SparseEchelon(), FractionEchelon()
    seen = []
    for op, rows in operations:
        if op == "query":
            for vec in rows + seen:
                reduced = fast.reduce(vec)
                assert reduced == ref.reduce(vec) and _narrowed(reduced)
            continue
        if op == "insert":
            for row in rows:
                assert fast.insert(row) == ref.insert(row)
        else:
            fast.extend(rows)
            for row in sorted(rows, key=len):
                ref.insert(row)
        seen += rows
        assert fast.pivot_rows == ref.pivot_rows
        _check_normal_forms(fast, ref)


def test_extend_inserts_shortest_rows_first():
    # generation order would store the long row as the pivot row of
    # column 0; sparsest first stores the short one there
    ech = SparseEchelon()
    ech.extend([{0: 1, 1: 1, 2: 1, 3: 1}, {0: 1, 1: 1}])
    assert ech.pivot_rows == {0: {0: 1, 1: 1}, 2: {2: 1, 3: 1}}
    ech = SparseEchelon()
    ech.extend([{0: 2, 1: 1}, {0: 3, 2: 1}])  # a stable sort: ties keep order
    assert ech.pivot_rows == {0: {0: 1, 1: Fraction(1, 2)},
                              1: {1: 1, 2: Fraction(-2, 3)}}


def test_geometric_series():
    s = series_of_rational(IntPolynomial.one(), IntPolynomial((1, -1)), 3)
    assert s.integer_coefficients() == [1, 1, 1, 1]


def test_series_product_of_two_factors():
    den = IntPolynomial((1, -2)) * IntPolynomial((1, -3))
    s = series_of_rational(IntPolynomial.one(), den, 4)
    # coefficient k is 3^(k+1) - 2^(k+1); also checked by multiplying back
    assert s.integer_coefficients() == [3 ** (k + 1) - 2 ** (k + 1) for k in range(5)]


def test_series_trivial_denominator():
    s = series_of_rational(IntPolynomial((1, 1)), IntPolynomial.one(), 2)
    assert s.integer_coefficients() == [1, 1, 0]


def test_series_zero_constant_term_rejected():
    with pytest.raises(ZeroConstantTerm):
        series_of_rational(IntPolynomial.one(), IntPolynomial((0, 1)), 3)


def test_series_convolution_identity():
    rng = random.Random(5)
    for _ in range(8):
        num = IntPolynomial(tuple(rng.randint(-4, 4) for _ in range(3)))
        den = IntPolynomial((rng.choice([1, -1, 2]),) + tuple(
            rng.randint(-3, 3) for _ in range(2)
        ))
        D = 6
        s = series_of_rational(num, den, D)
        den_series = TruncatedSeries.from_list(
            [Fraction(c) for c in den.coefficients], D
        )
        back = s.mul(den_series)
        for k in range(D + 1):
            assert back.coefficient(k) == num.coefficient(k)


def test_poly_divide_exact():
    cube = IntPolynomial((1, 1)) * IntPolynomial((1, 1)) * IntPolynomial((1, 1))
    assert poly_divide_exact(cube, IntPolynomial((1, 1))) == (
        IntPolynomial((1, 1)) * IntPolynomial((1, 1))
    )
    q = poly_divide_exact(IntPolynomial((1, 6, 11, 6)), IntPolynomial((1, 1)))
    assert q == IntPolynomial((1, 5, 6))
    assert q * IntPolynomial((1, 1)) == IntPolynomial((1, 6, 11, 6))


def test_poly_divide_inexact_raises():
    with pytest.raises(InexactDivision):
        poly_divide_exact(IntPolynomial((1, 1)), IntPolynomial((1, 2)))


def test_linear_product():
    assert linear_product([1, 2, 3]) == IntPolynomial((1, 6, 11, 6))
    assert linear_product([2, 3], sign=-1) == IntPolynomial((1, -5, 6))


def test_smith_invariant_factors():
    rows = [{0: 2, 1: 4}, {0: 0, 1: 6}]
    assert smith_invariant_factors(rows) == [2, 6]
    rows = [{0: 2, 1: 3}, {0: 3, 1: 2}]
    assert smith_invariant_factors(rows) == [1, 5]
    rows = [{0: 1, 1: 1}, {1: 1, 2: 1}]
    assert smith_invariant_factors(rows) == [1, 1]
    assert smith_invariant_factors([{}]) == []
