"""Exact arithmetic substrate: sparse elimination over Q, integer Smith
forms, integer polynomials and truncated power series.

No floating point anywhere: the ground field is Q, integers are Python
ints.  `SparseEchelon` is the one elimination kernel over Q.  It holds an
exact value as an int when it is integral and as a fractions.Fraction
(canonically reduced, arbitrary precision) only when it is not: on the
matrices that arise here almost every entry is an integer, and int
arithmetic is many times cheaper than Fraction arithmetic.  A batch of
rows is inserted sparsest first (Markowitz's ordering), so that early long
rows do not fill in every later pivot row; the rank, the pivot columns,
`contains` and `reduce_coordinates` depend only on the row space, so the
order changes none of them, only the stored pivot rows.  Everything else
here is immutable and pure.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import InexactDivision, ZeroConstantTerm

Rational = Fraction


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exact arithmetic only: got {type(x).__name__}")


def int_entries(values, error, message):
    """values as a tuple of ints.  An entry that is not an integer (a
    Fraction, float or str has no __index__) raises error(message) rather
    than being truncated or parsed."""
    try:
        return tuple(operator.index(x) for x in values)
    except TypeError:
        raise error(message) from None


# ---------------------------------------------------------------------------
# sparse exact elimination (rows as {column: int or Fraction} dicts)

def narrowed(vec):
    """vec with every integral Fraction stored as an int (in place)."""
    for key, val in vec.items():
        if type(val) is Fraction and val.denominator == 1:
            vec[key] = val.numerator
    return vec


def sub_scaled(acc, vec, coeff):
    """acc -= coeff * vec in place, for sparse {key: value} vectors; entries
    that cancel are dropped, so acc never stores a zero.

    An integral Fraction coefficient is narrowed to an int once, so that
    integer vectors stay on int arithmetic.  Subtracting rather than adding
    lets elimination pass the pivot entry as it is."""
    if type(coeff) is Fraction and coeff.denominator == 1:
        coeff = coeff.numerator
    for key, val in vec.items():
        nv = acc.get(key, 0) - coeff * val
        if nv:
            acc[key] = nv
        else:
            acc.pop(key, None)


class SparseEchelon:
    """Incremental echelon basis of a row space over Q.

    Rows are dicts column -> nonzero exact value, an int when it is integral
    and a Fraction otherwise; inserted rows may mix both.  Each inserted row
    is reduced against the current pivots (pivot column = smallest column of
    the row, pivot entry normalized to 1), so membership tests and
    coordinate reductions are a single forward pass.  Stored pivot rows and
    returned residuals hold ints wherever their values are integral.

    `extend` inserts a batch shortest row first.  The pivot columns are the
    leading columns of the row space, so they, the rank, `contains` and
    `reduce_coordinates` (whose residual is the unique representative on
    the non-pivot columns) do not depend on the insertion order; the stored
    pivot rows and the residuals of `reduce` do.
    """

    def __init__(self):
        self.pivot_rows = {}  # pivot column -> row dict with row[col] == 1

    @property
    def rank(self):
        return len(self.pivot_rows)

    def reduce(self, vec):
        """Residual of vec modulo the current row space (fresh dict)."""
        v = dict(vec)
        while v:
            c = min(v)
            piv = self.pivot_rows.get(c)
            if piv is None:
                break
            sub_scaled(v, piv, v[c])
        return narrowed(v)

    def reduce_coordinates(self, vec):
        """Eliminate every pivot column from vec, not just a leading prefix.

        The residual is supported on non-pivot columns only, so it reads off
        coordinates modulo the row space in the non-pivot basis.  Terminates
        because eliminating at a pivot column only introduces larger columns.
        """
        v = dict(vec)
        while True:
            hits = [c for c in v if c in self.pivot_rows]
            if not hits:
                return narrowed(v)
            c = min(hits)
            sub_scaled(v, self.pivot_rows[c], v[c])

    def insert(self, vec) -> bool:
        """Insert a row; returns True if it enlarged the row space."""
        v = self.reduce(vec)
        if not v:
            return False
        c = min(v)
        lead = v[c]
        if lead == 1:
            row = v
        elif lead == -1:  # an integer row stays integer
            row = {col: -val for col, val in v.items()}
        else:
            inv = 1 / Fraction(lead)
            row = narrowed({col: val * inv for col, val in v.items()})
        self.pivot_rows[c] = row
        return True

    def extend(self, rows):
        """Insert a batch of rows, fewest entries first (a stable sort)."""
        for row in sorted(rows, key=len):
            self.insert(row)

    def contains(self, vec) -> bool:
        return not self.reduce(vec)


def sparse_rank(rows) -> int:
    ech = SparseEchelon()
    ech.extend(rows)
    return ech.rank


def sparse_compose(rows_a, rows_b):
    """Row-convention composition: source --A--> mid --B--> target.

    rows_a[i] maps source basis vector i to a vector over mid indices;
    the result maps source directly to target.
    """
    out = []
    for ra in rows_a:
        acc = {}
        for mid, ca in ra.items():
            sub_scaled(acc, rows_b[mid], -ca)
        out.append(acc)
    return out


def int_rank(vectors) -> int:
    """Rank over Q of a list of integer vectors."""
    return sparse_rank([{j: x for j, x in enumerate(v) if x} for v in vectors])


def smith_invariant_factors(rows):
    """Invariant factors of an integer matrix given as sparse rows.

    rows: list of {column: int}.  Returns the positive invariant factors in
    divisibility order (zeros dropped).  Unit pivots are preferred, which
    keeps fill-in and entry growth low on the matrices that arise here.
    """
    mat = {
        i: {c: int(v) for c, v in row.items() if v}
        for i, row in enumerate(rows)
        if any(row.values())
    }
    factors = []
    while mat:
        best = None
        for i, row in mat.items():
            for c, v in row.items():
                a = abs(v)
                if best is None or a < best[0]:
                    best = (a, i, c)
                if a == 1:
                    break
            if best and best[0] == 1:
                break
        _, pi, pc = best
        while True:
            # clear the pivot column with row operations; a nonzero
            # remainder becomes the new (smaller) pivot
            restart = False
            for i in list(mat):
                if i == pi:
                    continue
                row = mat[i]
                v = row.get(pc)
                if not v:
                    continue
                p = mat[pi][pc]
                q = v // p
                if q:
                    sub_scaled(row, mat[pi], q)
                if row.get(pc):
                    pi = i
                    restart = True
                    break
                if not row:
                    del mat[i]
            if restart:
                continue
            # the pivot column is zero off the pivot row, so clearing the
            # pivot row with column operations touches only that row
            p = mat[pi][pc]
            leftover = None
            for c2, v2 in list(mat[pi].items()):
                if c2 == pc:
                    continue
                r = v2 - (v2 // p) * p
                if r:
                    mat[pi][c2] = r
                    leftover = c2
                else:
                    del mat[pi][c2]
            if leftover is not None:
                pc = leftover
                continue
            break
        factors.append(abs(mat[pi][pc]))
        del mat[pi]
        for row in mat.values():
            row.pop(pc, None)
        for i in [k for k, row in mat.items() if not row]:
            del mat[i]
    # normalize to divisibility order
    from math import gcd

    factors.sort()
    changed = True
    while changed:
        changed = False
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                a, b = factors[i], factors[j]
                if b % a:
                    g = gcd(a, b)
                    factors[i], factors[j] = g, a // g * b
                    changed = True
        factors.sort()
    return factors


def covector_kernel_basis(covector):
    """Integer basis of the kernel of a single nonzero integer covector."""
    n = len(covector)
    p = next(i for i, x in enumerate(covector) if x)
    basis = []
    for j in range(n):
        if j == p:
            continue
        v = [0] * n
        v[j] = covector[p]
        v[p] = -covector[j]
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# integer polynomials

@dataclass(frozen=True)
class IntPolynomial:
    """Univariate polynomial with integer coefficients, index = degree."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls((1,))

    @property
    def degree(self):
        return len(self.coefficients) - 1 if self.coefficients else -1

    def is_zero(self):
        return not self.coefficients

    def coefficient(self, k):
        if 0 <= k < len(self.coefficients):
            return self.coefficients[k]
        return 0

    def __add__(self, other):
        n = max(len(self.coefficients), len(other.coefficients))
        return IntPolynomial(
            tuple(self.coefficient(k) + other.coefficient(k) for k in range(n))
        )

    def __neg__(self):
        return IntPolynomial(tuple(-c for c in self.coefficients))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return IntPolynomial.zero()
        out = [0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a:
                for j, b in enumerate(other.coefficients):
                    out[i + j] += a * b
        return IntPolynomial(tuple(out))

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coefficients):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                mono = "t" if k == 1 else f"t^{k}"
                parts.append(mono if c == 1 else f"-{mono}" if c == -1 else f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


def linear_product(scalars, sign=1) -> IntPolynomial:
    """Product of (1 + sign*c*t) over the given integer scalars."""
    out = IntPolynomial.one()
    for c in scalars:
        out = out * IntPolynomial((1, sign * c))
    return out


def poly_divide_exact(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """Exact division over Z; raises InexactDivision on nonzero remainder."""
    if q.is_zero():
        raise InexactDivision("division by the zero polynomial")
    rem = list(p.coefficients)
    qc = q.coefficients
    dq = q.degree
    lead = qc[-1]
    if len(rem) - 1 < dq:
        if any(rem):
            raise InexactDivision("degree of divisor exceeds dividend")
        return IntPolynomial.zero()
    quot = [0] * (len(rem) - dq)
    for k in range(len(rem) - 1, dq - 1, -1):
        c = rem[k]
        if c == 0:
            continue
        if c % lead:
            raise InexactDivision("leading coefficient does not divide")
        f = c // lead
        quot[k - dq] = f
        for j, b in enumerate(qc):
            rem[k - dq + j] -= f * b
    if any(rem):
        raise InexactDivision("nonzero remainder")
    return IntPolynomial(tuple(quot))


# ---------------------------------------------------------------------------
# truncated power series

@dataclass(frozen=True)
class TruncatedSeries:
    """Power series over Q truncated at a fixed degree (inclusive)."""

    coefficients: tuple
    truncation_degree: int

    def __post_init__(self):
        coeffs = tuple(_as_fraction(c) for c in self.coefficients)
        if len(coeffs) != self.truncation_degree + 1:
            raise ValueError("coefficient list must have truncation_degree + 1 entries")
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def from_list(cls, coeffs, truncation_degree=None):
        if truncation_degree is None:
            truncation_degree = len(coeffs) - 1
        coeffs = list(coeffs)[: truncation_degree + 1]
        coeffs += [Fraction(0)] * (truncation_degree + 1 - len(coeffs))
        return cls(tuple(coeffs), truncation_degree)

    def coefficient(self, k):
        return self.coefficients[k]

    def mul(self, other) -> "TruncatedSeries":
        d = min(self.truncation_degree, other.truncation_degree)
        return TruncatedSeries(
            tuple(series_mul(self.coefficients, other.coefficients, d)), d
        )

    def integer_coefficients(self):
        """Coefficients as ints; raises ValueError if any is non-integral."""
        out = []
        for c in self.coefficients:
            if c.denominator != 1:
                raise ValueError(f"non-integer coefficient {c}")
            out.append(c.numerator)
        return out


def series_of_rational(numerator: IntPolynomial, denominator: IntPolynomial,
                       max_degree: int) -> TruncatedSeries:
    """Expand numerator/denominator as a power series up to max_degree.

    Requires denominator(0) != 0.  The defining property (and the test
    oracle) is that the output convolved with the denominator reproduces the
    numerator through max_degree.
    """
    den = [denominator.coefficient(k) for k in range(max_degree + 1)]
    coeffs = series_mul(numerator.coefficients, series_inverse(den, max_degree),
                        max_degree)
    return TruncatedSeries(tuple(coeffs), max_degree)


def series_mul(a, b, max_degree):
    """Convolution of two Fraction coefficient lists, truncated."""
    out = [Fraction(0)] * (max_degree + 1)
    for i, x in enumerate(a[: max_degree + 1]):
        if x:
            for j in range(max_degree + 1 - i):
                if j < len(b) and b[j]:
                    out[i + j] += x * b[j]
    return out

def series_inverse(a, max_degree):
    """Multiplicative inverse of a series with unit constant term."""
    a0 = _as_fraction(a[0])
    if a0 == 0:
        raise ZeroConstantTerm("series has zero constant term")
    inv = [1 / a0]
    for k in range(1, max_degree + 1):
        acc = Fraction(0)
        for j in range(1, k + 1):
            aj = _as_fraction(a[j]) if j < len(a) else Fraction(0)
            if aj:
                acc += aj * inv[k - j]
        inv.append(-acc / a0)
    return inv
