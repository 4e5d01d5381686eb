"""Exact arithmetic substrate: sparse elimination over Q, integer Smith
forms, integer polynomials and truncated power series.

No floating point anywhere: the ground field is Q, integers are Python
ints.  `SparseEchelon` is the elimination kernel for sparse rows over Q;
Smith forms take their unit pivots from it.  It holds an exact value as
an int when it is integral and as a fractions.Fraction (canonically
reduced, arbitrary precision) only when it is not: on the matrices that
arise here almost every entry is an integer, and int arithmetic is many
times cheaper than Fraction arithmetic.  A batch of rows is inserted
sparsest first (Markowitz's ordering), so that early long rows do not
fill in every later pivot row; the rank, the pivot columns and the
normal forms depend only on the row space, so the order changes none of
them, only the stored pivot rows.  Dense integer vectors (the forms
of an arrangement, its lattice residuals, `int_rank`) are reduced instead
by one fraction-free step, `_eliminate`, that keeps them primitive
integer vectors.  The echelon caches nothing; everything else here
is immutable and pure.
"""

from __future__ import annotations

import operator
from bisect import bisect
from fractions import Fraction
from math import gcd

from .errors import InexactDivision, ZeroConstantTerm, _Record, _set

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
    the row, pivot entry normalized to 1), so a membership test is a single
    forward pass.  Stored pivot rows and returned residuals hold ints
    wherever their values are integral.

    `normal_forms` back-substitutes the pivot rows into a fully reduced
    copy, once per call: the normal form of a pivot column (its residual
    modulo the row space, supported on the non-pivot columns) is minus the
    tail of its reduced row.

    `extend` inserts a batch shortest row first.  The pivot columns are the
    leading columns of the row space, so they, the rank and the normal
    forms do not depend on the insertion order; the stored pivot rows and
    the residuals of `reduce` do.
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

    def normal_forms(self):
        """Pivot column -> its normal form, minus the tail of its fully
        reduced row; a fresh dict, built on every call.  In descending
        pivot order every later pivot column of a row already has its
        normal form, so one pass over the row resolves them all."""
        pivots = self.pivot_rows
        forms = {}
        for c in sorted(pivots, reverse=True):
            row = pivots[c]
            nf = {col: -val for col, val in row.items() if col not in pivots}
            for col, val in row.items():
                later = forms.get(col)
                if later is not None:
                    sub_scaled(nf, later, val)
            forms[c] = narrowed(nf)
        return forms

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


def sparse_rank(rows) -> int:
    """Rank over Q: the count of nonzero rows when each has its own
    leading (smallest) column, so that they are independent; else eliminate."""
    leads = [min(row) for row in rows if row]
    if len(set(leads)) == len(leads):
        return len(leads)
    ech = SparseEchelon()
    ech.extend(rows)
    return ech.rank


def sparse_compose(rows_a, rows_b):
    """Row-convention composition: source --A--> mid --B--> target.

    rows_a[i] maps source basis vector i to a vector over mid indices;
    the result maps source directly to target, yielded one row at a time.
    """
    for ra in rows_a:
        acc = {}
        for mid, ca in ra.items():
            sub_scaled(acc, rows_b[mid], -ca)
        yield acc


def _primitive(form):
    """The int vector `form` scaled primitive with a positive leading
    entry, or None when it is zero.  One gcd call; the sign of the first
    nonzero entry is folded into the divisor, and a form that is already
    primitive and positive comes back unchanged."""
    g = gcd(*form)
    if g == 0:
        return None
    if next(filter(None, form)) < 0:
        g = -g
    if g == 1:
        return form
    return tuple(x // g for x in form)


def _eliminate(residual, pivot, col):
    """Primitive direction of `residual` modulo `pivot`, fraction-free, at
    full length.

    Both are primitive integer vectors of equal length with a positive
    leading entry; `pivot` leads at `col`.  A residual zero at `col` comes
    back as the same object, not a copy.  Otherwise the combination that
    clears `col` is made primitive with a positive leading entry (one gcd,
    the sign folded into it); it is zero wherever both are, so a chain of
    steps keeps a zero at every pivot column met.  None when the two are
    proportional.
    """
    b = residual[col]
    if not b:
        return residual
    a = pivot[col]
    v = [a * x - b * y for x, y in zip(residual, pivot)]
    g = gcd(*v)
    if not g:
        return None
    if next(filter(None, v)) < 0:
        g = -g
    return tuple([x // g for x in v] if g != 1 else v)


def _extend(pivots, row):
    """The tuple `pivots` of (row, leading column) with the primitive `row`,
    reduced against each of them by _eliminate, added; None when `row`
    lies in their span.  A new tuple, so a caller may keep the old one."""
    for pivot, col in pivots:
        row = _eliminate(row, pivot, col)
        if row is None:
            return None
    return pivots + ((row, row.index(next(filter(None, row)))),)


def int_rank(vectors) -> int:
    """Rank over Q of integer vectors of equal length, by _extend."""
    pivots = ()
    for row in filter(None, map(_primitive, vectors)):
        pivots = _extend(pivots, row) or pivots
    return len(pivots)


def unit_split(rows):
    """Split an integer matrix, given as sparse rows {column: int}, at its
    unit pivots; a non-int entry raises TypeError.

    The rows pass through a SparseEchelon, sparsest first, and a residual
    that leads with +-1 becomes a pivot row.  With the unit vectors of the
    other columns these integral pivot rows are a basis of Z^n, so the
    normal forms of the pivot columns are integral.  Returns them and the
    other residuals, carried onto the non-pivot columns by the normal
    forms (an integral change) and renumbered by their place among those
    m columns: Z^n modulo the rows is Z^m modulo the carried rows.
    """
    ech = SparseEchelon()
    rest = []
    for row in sorted(rows, key=len):
        values = int_entries(row.values(), TypeError,
                             "integer Smith form: entries must be ints")
        v = ech.reduce({c: x for c, x in zip(row, values) if x})
        if v and abs(v[min(v)]) == 1:
            ech.insert(v)
        elif v:
            rest.append(v)
    forms = ech.normal_forms()
    pivots = sorted(forms)
    carried = []
    for v in rest:
        row = {}
        for c, x in v.items():
            sub_scaled(row, forms.get(c, {c: 1}), -x)
        if row:
            carried.append({c - bisect(pivots, c): x for c, x in row.items()})
    return forms, carried


def smith_invariant_factors(rows):
    """Positive invariant factors, in divisibility order, of an integer
    matrix given as sparse rows {column: int}; a non-int entry raises
    TypeError.

    Each unit pivot of unit_split is one factor 1; the carried rows go
    through the integer loop below.  It pivots on an entry of least
    absolute value, which keeps the entries small (on their growth see
    Kannan and Bachem, SIAM J. Comput. 8, 1979), and moves the pivot to
    the least remainder: first in its column, cleared by row operations,
    then in its row, cleared by column operations on that row only.
    """
    forms, rest = unit_split(rows)
    mat = dict(enumerate(rest))
    factors = []
    while mat:
        _, pi, pc = min((abs(v), i, c) for i, row in mat.items()
                        for c, v in row.items())
        while True:
            p = mat[pi][pc]
            for i in [i for i in mat if i != pi and pc in mat[i]]:
                sub_scaled(mat[i], mat[pi], mat[i][pc] // p)
                if not mat[i]:
                    del mat[i]
            column = [i for i in mat if i != pi and pc in mat[i]]
            if column:
                pi = min(column, key=lambda i: abs(mat[i][pc]))
                continue
            # the pivot column is zero off the pivot row, so clearing the
            # pivot row with column operations touches only that row
            row = mat[pi] = {c: v if c == pc else v % p
                             for c, v in mat[pi].items() if c == pc or v % p}
            if len(row) == 1:
                break
            pc = min((c for c in row if c != pc), key=lambda c: abs(row[c]))
        factors.append(abs(mat.pop(pi)[pc]))
    # one pass exchanging each pair i < j for its gcd and lcm leaves each
    # factor dividing every later one: factor i divides all later ones once
    # its round ends, and gcds and lcms of its multiples stay its multiples
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            g = gcd(factors[i], factors[j])
            factors[i], factors[j] = g, factors[i] // g * factors[j]
    return [1] * len(forms) + factors


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

class IntPolynomial(_Record):
    """Univariate polynomial with integer coefficients, index = degree."""

    __slots__ = _fields = ("coefficients",)

    def __init__(self, coefficients):
        coeffs = int_entries(coefficients, TypeError,
                             "polynomial coefficients must be integers")
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        _set(self, "coefficients", coeffs)

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

class TruncatedSeries(_Record):
    """Power series over Q truncated at a fixed degree (inclusive)."""

    __slots__ = _fields = ("coefficients", "truncation_degree")

    def __init__(self, coefficients, truncation_degree):
        coeffs = tuple(_as_fraction(c) for c in coefficients)
        if len(coeffs) != truncation_degree + 1:
            raise ValueError("coefficient list must have truncation_degree + 1 entries")
        _set(self, "coefficients", coeffs)
        _set(self, "truncation_degree", truncation_degree)

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
    """Convolution of two coefficient lists, truncated.  It keeps the
    inputs' types: int lists give an int list.  The work is the number of
    nonzero entries of a times max_degree, so a sparse factor goes first."""
    out = [0] * (max_degree + 1)
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
