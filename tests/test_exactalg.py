import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arrtop import exactalg
from arrtop.exactalg import (
    IntPolynomial,
    SparseEchelon,
    TruncatedSeries,
    int_rank,
    linear_product,
    poly_divide_exact,
    series_of_rational,
    smith_invariant_factors,
    unit_split,
)
from arrtop.errors import InexactDivision, ZeroConstantTerm
from genutil import FractionEchelon, rank_oracle, smith_oracle


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


def test_sparse_rank_reads_distinct_leads_before_it_eliminates(monkeypatch):
    # rows with pairwise distinct leads are counted, with no echelon;
    # a shared lead sends the rows to elimination
    triangular = [{3: 5}, {0: 2, 3: 1}, {}, {1: Fraction(1, 2), 2: 1}]
    shared = [{0: 1, 1: 1}, {0: 2, 1: 2}, {0: 1, 2: 1}]
    assert exactalg.sparse_rank(shared) == 2
    monkeypatch.setattr(exactalg, "SparseEchelon", None)
    assert exactalg.sparse_rank(triangular) == 3
    assert exactalg.sparse_rank([]) == 0
    with pytest.raises(TypeError):
        exactalg.sparse_rank(shared)


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
    # no row leads with a unit, so every row reaches the integer loop
    assert smith_invariant_factors([{0: 2}, {1: 2}]) == [2, 2]
    assert smith_invariant_factors([{0: -2}, {0: 2, 1: 4}]) == [2, 4]
    # the first row is set aside before {1: 1, ...} becomes a pivot row, and
    # only its projection onto the non-pivot columns gives the factors
    assert smith_invariant_factors([{0: 2, 1: 1}, {1: 1, 2: 2}]) == [1, 2]
    rows = [{0: 3, 1: 1, 2: 1}, {1: 1, 2: -1, 3: 3}]
    assert smith_invariant_factors(rows) == [1, 1]


def test_unit_split_carries_the_other_rows_onto_the_non_pivot_columns():
    # {1: 1, 2: 2} is the one unit pivot; {0: 2, 1: 1} is carried onto
    # columns 0 and 2, renumbered 0 and 1, and the lead 2 is no unit
    forms, rest = unit_split([{0: 2, 1: 1}, {1: 1, 2: 2}])
    assert forms == {1: {2: -2}}
    assert rest == [{0: 2, 1: -2}]
    forms, rest = unit_split([{0: -1, 3: 4}, {0: 2, 2: 6}])
    assert forms == {0: {3: 4}}
    assert rest == [{1: 6, 2: 8}]
    assert unit_split([{0: 2}, {}]) == ({}, [{0: 2}])


@pytest.mark.parametrize("rows", [
    [{0: Fraction(1, 2)}], [{0: 2.7}], [{0: "3"}], [{0: 1, 1: Fraction(4)}],
], ids=["fraction", "float", "string", "integral-fraction"])
def test_smith_invariant_factors_refuse_non_integers(rows):
    with pytest.raises(TypeError):
        smith_invariant_factors(rows)


def _scrambled_diagonal(rng, nrows, ncols):
    """diag(factors), padded with zeros, times unimodular row and column
    operations: its invariant factors are chosen, units and non-units
    mixed, and its entries stay small."""
    diagonal = [rng.choice([1, 1, 2, 3, 4, 6]) for _ in range(min(nrows, ncols))]
    mat = [[diagonal[i] if i == j and i < len(diagonal) else 0
            for j in range(ncols)] for i in range(nrows)]
    for _ in range(3):
        c = rng.choice([-1, 1])
        if nrows > 1:
            i, j = rng.sample(range(nrows), 2)
            mat[i] = [a + c * b for a, b in zip(mat[i], mat[j])]
        if ncols > 1:
            i, j = rng.sample(range(ncols), 2)
            for row in mat:
                row[i] += c * row[j]
    return mat


def _set_aside_before_pivot(rng, ncols):
    """Two rows, the first no longer than the second: the first leads with
    a non-unit and holds column 1, where the second leads with a unit.
    Sparsest first, the first row is set aside before the second becomes
    the pivot row of column 1."""
    first = ([rng.choice([-3, -2, 2, 3, 4]), rng.choice([-2, -1, 1, 2, 3])]
             + [rng.randint(-3, 3) for _ in range(ncols - 3)] + [0])
    second = [0, rng.choice([-1, 1])] + [
        rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(ncols - 2)]
    return [first, second]


def test_smith_invariant_factors_match_determinantal_divisors():
    rng = random.Random(1801)
    seen = set()
    for case in range(800):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 5)
        if case % 4 == 3:
            ncols = rng.randint(3, 5)
            mat = _set_aside_before_pivot(rng, ncols)
            nrows = len(mat)
        elif case % 2:
            mat = _scrambled_diagonal(rng, nrows, ncols)
        else:
            mat = [[rng.randint(-4, 4) for _ in range(ncols)]
                   for _ in range(nrows)]
        if case % 4 == 2:  # no entry is a unit
            mat = [[2 * x for x in row] for row in mat]
        if nrows > 1 and rng.random() < 0.3:
            i, j = rng.sample(range(nrows), 2)
            mat[i] = list(mat[j])
            seen.add("repeated row")
        if rng.random() < 0.3:
            mat[rng.randrange(nrows)] = [0] * ncols
            seen.add("zero row")
        expected = smith_oracle(mat)
        rows = [{c: v for c, v in enumerate(row) if v} for row in mat]
        assert smith_invariant_factors(rows) == expected, mat
        if 1 in expected and any(f > 1 for f in expected):
            seen.add("mixed factors")
    assert seen == {"repeated row", "zero row", "mixed factors"}


def _fraction_det(mat):
    m = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for i in range(len(m)):
        p = next((r for r in range(i, len(m)) if m[r][i]), None)
        if p is None:
            return 0
        if p != i:
            m[i], m[p], det = m[p], m[i], -det
        det *= m[i][i]
        for r in range(i + 1, len(m)):
            f = m[r][i] / m[i][i]
            m[r] = [a - f * b for a, b in zip(m[r], m[i])]
    return det


def test_smith_form_of_a_dense_matrix_pivots_on_a_least_entry():
    # 60 x 60 with no unit entry, so all of it reaches the integer loop.
    # Pivoting on the first entry of the first row lets the entries grow
    # until the loop runs for minutes; on a least entry it takes a fraction
    # of a second.  The factors divide each other and multiply to |det|
    rng = random.Random(5)
    mat = [[rng.choice([-1, 1]) * rng.randint(2, 20) for _ in range(60)]
           for _ in range(60)]
    code = ("import json, sys; from arrtop.exactalg import "
            "smith_invariant_factors as smith; print(json.dumps(smith("
            "[dict(enumerate(row)) for row in json.load(sys.stdin)])))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run([sys.executable, "-c", code], input=json.dumps(mat),
                          env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    factors = json.loads(proc.stdout)
    assert len(factors) == 60
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
    assert math.prod(factors) == abs(_fraction_det(mat))
