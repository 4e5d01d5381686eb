"""Orlik-Solomon cohomology of arrangement complements.

The central complement carries the full Orlik-Solomon algebra, presented on
no-broken-circuit (NBC) monomials with circuit rewriting; the projective
complement is realized inside it as the kernel of the boundary derivation,
with basis the boundaries of NBC sets through the first hyperplane.  Cup
products, the reduced diagonal, the holonomy-relation space and degreewise
bases of the enveloping algebra of the holonomy Lie algebra are all
computed by exact linear algebra over Q.

Degree-one generated throughout: the projective side is the one that drives
the homotopy-group computations, the central side matches the classical NBC
combinatorics; functions take a `projective` flag where both make sense.
"""

from __future__ import annotations

import os as _os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .arrangement import (
    Arrangement, intersection_lattice, poincare_central, poincare_projective,
)
from .errors import (
    InternalInconsistency, ParseError, RankOutOfRange, WorkBoundExceeded,
)
from .exactalg import SparseEchelon, int_rank, narrowed, sub_scaled

DEFAULT_WORK_BOUND = 10 ** 6
WORK_BOUND_ENV = "ARRTOP_WORK_BOUND"


def _work_bound(override=None):
    """The work bound: the override, else ARRTOP_WORK_BOUND, else the
    default.  A set, nonempty ARRTOP_WORK_BOUND must be a positive decimal
    integer."""
    if override is not None:
        return override
    env = _os.environ.get(WORK_BOUND_ENV) or str(DEFAULT_WORK_BOUND)
    if not (env.isascii() and env.isdigit() and int(env) > 0):
        raise ParseError(
            f"{WORK_BOUND_ENV} must be a positive integer, got {env!r}"
        )
    return int(env)


def _check_work_bound(b1, degree, override=None):
    """Refuse a negative degree, and a tensor slice of dimension b1^degree
    above the work bound (see _work_bound)."""
    if degree < 0:
        raise RankOutOfRange("max_degree must be nonnegative")
    bound = _work_bound(override)
    if b1 > 1 and b1 ** degree > bound:
        raise WorkBoundExceeded(
            f"tensor slice dimension {b1}^{degree} exceeds bound {bound}"
        )


def sort_sign(word):
    """Sort a tuple of indices; returns (sorted tuple, permutation sign),
    or (None, 0) when an index repeats."""
    if len(set(word)) != len(word):
        return None, 0
    inversions = sum(
        1
        for a, b in combinations(range(len(word)), 2)
        if word[a] > word[b]
    )
    return tuple(sorted(word)), -1 if inversions % 2 else 1


class CentralAlgebra:
    """Orlik-Solomon algebra of the central complement on NBC monomials.

    Independence and closures are read from the intersection lattice; no
    linear algebra is done here.  An independent set s_1 < ... < s_q holds
    a broken circuit iff some c < s_i lies in the closure of s_i, ..., s_q.
    So it is NBC iff s_2, ..., s_q is NBC and s_1 is the least hyperplane
    of its closure (Bjoerner, "The homology and shellability of matroids
    and geometric lattices", 1992), and degree q is built from degree q - 1
    by one closure per candidate s_1."""

    def __init__(self, arr: Arrangement):
        self.arr = arr
        self.d = arr.num_hyperplanes
        self._lattice = intersection_lattice(arr)
        self._expand_cache = {}
        self._nbc_cache = {0: ((),)}

    def is_independent(self, subset):
        return self._lattice.is_independent(subset)

    def _broken_circuit(self, subset):
        """For a sorted independent subset: the least hyperplane of the
        closure of its first suffix whose closure reaches below the
        suffix's head, or None when the subset is NBC.  That hyperplane c
        is the least one in the span of the subset's elements above c."""
        for i, head in enumerate(subset):
            c = self._lattice.closure(subset[i:]).hyperplanes[0]
            if c < head:
                return c
        return None

    def is_nbc(self, subset):
        """subset must be sorted and independent."""
        return self._broken_circuit(subset) is None

    def nbc(self, q):
        out = self._nbc_cache.get(q)
        if out is None:
            closure = self._lattice.closure
            out = tuple(sorted(
                (c,) + s
                for s in self.nbc(q - 1)
                for c in range(s[0] if s else self.d)
                if closure((c,) + s).hyperplanes[0] == c
            ))
            self._nbc_cache[q] = out
        return out

    def expand(self, subset):
        """NBC expansion of the monomial e_subset (sorted, distinct).

        Returns {nbc tuple: integer coefficient}; dependent monomials give
        the empty dict.
        """
        cached = self._expand_cache.get(subset)
        if cached is not None:
            return cached
        if not self.is_independent(subset):
            result = {}
        elif (c := self._broken_circuit(subset)) is None:
            result = {subset: 1}
        else:
            tail = tuple(s for s in subset if s > c)
            # (c,) + tail is dependent, so its boundary lies in the
            # Orlik-Solomon ideal and rewrites e_tail; NBC expansions
            # are unique, so no minimal circuit is needed
            dependent = (c,) + tail
            rest = tuple(s for s in subset if s < c)
            _, base_sign = sort_sign(tail + rest)
            result = {}
            for r in range(1, len(dependent)):
                replaced = dependent[:r] + dependent[r + 1:]
                term_word = replaced + rest
                sorted_word, sgn = sort_sign(term_word)
                coeff = base_sign * ((-1) ** (r + 1)) * sgn
                sub_scaled(result, self.expand(sorted_word), -coeff)
        self._expand_cache[subset] = result
        return result

    def multiply(self, exp_a, exp_b):
        """Product of two NBC expansions, again as an NBC expansion."""
        acc = {}
        for word_a, ca in exp_a.items():
            for word_b, cb in exp_b.items():
                sorted_word, sgn = sort_sign(word_a + word_b)
                if not sgn:
                    continue
                sub_scaled(acc, self.expand(sorted_word), -ca * cb * sgn)
        return acc

    def boundary_expansion(self, subset):
        """Expansion of the boundary of e_subset (alternating face sum)."""
        acc = {}
        for r in range(len(subset)):
            face = subset[:r] + subset[r + 1:]
            sub_scaled(acc, self.expand(face), (-1) ** (r + 1))
        return acc


@lru_cache(maxsize=None)
def central_algebra(arr: Arrangement) -> CentralAlgebra:
    return CentralAlgebra(arr)


class _Basis:
    """A cohomology degree presented by basis expansions over NBC monomials,
    with an exact solver for expressing vectors in that basis."""

    def __init__(self, labels, expansions, monomials):
        self.labels = tuple(labels)
        self.expansions = tuple(expansions)
        self.monomials = tuple(monomials)
        self._index = {m: i for i, m in enumerate(self.monomials)}
        n = len(self.monomials)
        self._ncols = n
        self._ech = SparseEchelon()
        for pos, exp in enumerate(self.expansions):
            row = {self._index[m]: c for m, c in exp.items()}
            row[n + pos] = 1
            residual = self._ech.reduce(row)
            if not residual or min(residual) >= n:
                raise InternalInconsistency("cohomology basis candidates are dependent")
            self._ech.insert(residual)

    @property
    def dim(self):
        return len(self.labels)

    def represent(self, expansion):
        """Coordinates of an NBC expansion in this basis (exact: an int where
        integral, else a Fraction)."""
        vec = {self._index[m]: c for m, c in expansion.items()}
        res = self._ech.reduce_coordinates(vec)
        coords = [0] * self.dim
        for col, val in res.items():
            if col < self._ncols:
                raise InternalInconsistency("vector does not lie in the basis span")
            coords[col - self._ncols] = -val
        return coords


class CohomologyView:
    """Graded cohomology of the central or projective complement with cup
    products in fixed bases."""

    def __init__(self, arr: Arrangement, projective: bool):
        self.arr = arr
        self.projective = projective
        self.algebra = central_algebra(arr)
        self._bases = {}
        self._cup_rows = {}
        poly = poincare_projective(arr) if projective else poincare_central(arr)
        self.betti = list(poly.coefficients)
        self.top = len(self.betti) - 1

    def dim(self, q):
        return self.betti[q] if 0 <= q <= self.top else 0

    def basis(self, q) -> _Basis:
        b = self._bases.get(q)
        if b is not None:
            return b
        alg = self.algebra
        if not self.projective:
            monomials = alg.nbc(q)
            b = _Basis(monomials, [{m: 1} for m in monomials], monomials)
        else:
            gens = tuple(s for s in alg.nbc(q + 1) if s and s[0] == 0)
            expansions = [alg.boundary_expansion(s) for s in gens]
            b = _Basis(gens, expansions, alg.nbc(q))
        if b.dim != self.dim(q):
            raise InternalInconsistency(
                f"basis dimension {b.dim} != Betti number {self.dim(q)} at {q}"
            )
        self._bases[q] = b
        return b

    def degree_one_labels(self):
        return self.basis(1).labels

    def cup_rows(self, q, left=False):
        """Structure constants of H^(q-1) x H^1 -> H^q, or of the left
        action H^1 x H^(q-1) -> H^q when left is set.

        Returns {(a, b): {r: int}} over basis positions, a in the first
        factor, b in the second, r in H^q.  The dict is cached per
        (q, left) and shared between callers, which must not mutate it.
        """
        if not 1 <= q <= self.top:
            raise RankOutOfRange(f"degree {q} outside [1, {self.top}]")
        rows = self._cup_rows.get((q, left))
        if rows is not None:
            return rows
        low, one = self.basis(q - 1), self.basis(1)
        first, second = (one, low) if left else (low, one)
        target = self.basis(q)
        rows = {}
        for a, exp_a in enumerate(first.expansions):
            for b, exp_b in enumerate(second.expansions):
                coords = target.represent(self.algebra.multiply(exp_a, exp_b))
                entry = {}
                for r, c in enumerate(coords):
                    if c:
                        if c.denominator != 1:
                            raise InternalInconsistency("cup coefficient not integral")
                        entry[r] = c.numerator
                rows[(a, b)] = entry
        self._cup_rows[(q, left)] = rows
        return rows


@lru_cache(maxsize=None)
def cohomology_view(arr: Arrangement, projective: bool) -> CohomologyView:
    return CohomologyView(arr, projective)


# ---------------------------------------------------------------------------
# public data types and operations

@dataclass(frozen=True)
class NBCBasis:
    degree: int
    monomials: tuple


def nbc_basis(arr: Arrangement, q) -> NBCBasis:
    """NBC monomials of the central complement at degree q; their count is
    the central Betti number."""
    if not 0 <= q <= arr.rank:
        raise RankOutOfRange(f"degree {q} outside [0, rank]")
    monomials = central_algebra(arr).nbc(q)
    expected = poincare_central(arr).coefficient(q)
    if len(monomials) != expected:
        raise InternalInconsistency("NBC count disagrees with Poincare")
    return NBCBasis(q, monomials)


@dataclass(frozen=True)
class CupSlice:
    """Multiplication H^(q-1) x H^1 -> H^q as an integer matrix; rows are
    (lower basis element, degree-one element) pairs with the degree-one
    index fastest, columns the degree-q basis."""

    degree: int
    matrix: tuple
    row_labels: tuple
    column_labels: tuple


def cup_matrix(arr: Arrangement, q, projective=False) -> CupSlice:
    view = cohomology_view(arr, projective)
    rows = view.cup_rows(q)
    low, one, target = view.basis(q - 1), view.basis(1), view.basis(q)
    mat = []
    labels = []
    for t in range(low.dim):
        for j in range(one.dim):
            entry = rows[(t, j)]
            mat.append(tuple(entry.get(r, 0) for r in range(target.dim)))
            labels.append((low.labels[t], one.labels[j]))
    return CupSlice(q, tuple(mat), tuple(labels), target.labels)


@dataclass(frozen=True)
class HolonomyRelations:
    """Rows span the image of the reduced diagonal inside H_1 (x) H_1, in
    the antisymmetric embedding of the wedge square; dimension b_2."""

    dim_h1: int
    relation_basis: tuple


def reduced_diagonal(arr: Arrangement, projective=False) -> HolonomyRelations:
    """Dual of the surjection from the wedge square of H^1 onto H^2."""
    view = cohomology_view(arr, projective)
    b1 = view.dim(1)
    b2 = view.dim(2)
    rows = view.cup_rows(2) if b2 else {}
    relation_rows = []
    for r in range(b2):
        # the wedge x_i ^ x_j embeds as x_i (x) x_j - x_j (x) x_i
        anti = [0] * (b1 * b1)
        for i in range(b1):
            for j in range(i + 1, b1):
                c = rows[(i, j)].get(r, 0)
                if c:
                    anti[i * b1 + j] = c
                    anti[j * b1 + i] = -c
        relation_rows.append(tuple(anti))
    rel = HolonomyRelations(b1, tuple(relation_rows))
    if b2 and int_rank(rel.relation_basis) != b2:
        raise InternalInconsistency("holonomy relations do not have rank b_2")
    return rel


def _cup_dual(arr, q, projective, left):
    view = cohomology_view(arr, projective)
    rows = view.cup_rows(q, left)
    # columns flatten (first factor, second factor) pairs, second fastest
    second = view.dim(q - 1) if left else view.dim(1)
    out = [[0] * (view.dim(q - 1) * view.dim(1)) for _ in range(view.dim(q))]
    for (a, b), entry in rows.items():
        for r, c in entry.items():
            out[r][a * second + b] = c
    return [tuple(row) for row in out]


def right_cup_dual(arr: Arrangement, q, projective=False):
    """Matrix of H_q -> H_(q-1) (x) H_1 dual to the right cup action; rows
    indexed by the H_q basis, columns by (H_(q-1), H_1) pairs flattened with
    the H_1 index fastest. Integer entries."""
    return _cup_dual(arr, q, projective, left=False)


def left_cup_dual(arr: Arrangement, q, projective=False):
    """Matrix of H_q -> H_1 (x) H_(q-1) dual to the left cup action; columns
    flattened with the H_(q-1) index fastest."""
    return _cup_dual(arr, q, projective, left=True)


# ---------------------------------------------------------------------------
# enveloping algebra of the holonomy Lie algebra

class UEnvelope:
    """Degreewise bases of the quotient of the tensor algebra on H_1 by the
    two-sided ideal generated by the holonomy relations R.

    Degree k >= 2 is built as the quotient of U_(k-1) (x) H_1 by the image
    of U_(k-2) (x) R, never inside the full tensor power: column p*b1 + i
    stands for basis word p of degree k-1 followed by the letter x_i, so
    the column order is the lexicographic order of those words.  With the
    smallest column as pivot, the non-pivot columns are the normal words of
    degree k (a normal word's prefix is normal), listed in basis_words[k].
    The relation rows u (x) r of a degree are eliminated as one batch,
    sparsest first; the pivot columns, hence the normal words, and every
    normal-form reduction depend only on the row space, not on that order.
    Right multiplication by x_j is one normal-form reduction in the next
    degree's echelon; left multiplication recurses on the prefix,
    x_j (u x_i) = (x_j u) x_i.
    """

    def __init__(self, arr, max_degree, b1, relation_rows):
        self.arr = arr
        self.max_degree = max_degree
        self.b1 = b1
        self.dims = []
        self.basis_words = []
        self._echelons = {}  # degree -> echelon over U_(k-1) (x) H_1
        self._columns = {}  # degree -> column p*b1 + i of each basis word
        self._positions = {}  # degree -> {column: basis position}
        self._mult_cache = {}
        self._build(relation_rows)

    def _add_degree(self, ech, basis_cols):
        """Record the next degree from its echelon over U_(k-1) (x) H_1 and
        its non-pivot columns."""
        k = len(self.dims)
        prev = self.basis_words[-1]
        self.dims.append(len(basis_cols))
        self.basis_words.append(tuple(
            prev[c // self.b1] + (c % self.b1,) for c in basis_cols
        ))
        self._echelons[k] = ech
        self._columns[k] = basis_cols
        self._positions[k] = {c: pos for pos, c in enumerate(basis_cols)}

    def _build(self, relation_rows):
        b1 = self.b1
        self.dims.append(1)
        self.basis_words.append(((),))
        if self.max_degree == 0:
            return
        if b1 == 0:
            for _ in range(1, self.max_degree + 1):
                self.dims.append(0)
                self.basis_words.append(())
            return
        # degree one: U_0 (x) H_1 with no relations
        self._add_degree(SparseEchelon(), list(range(b1)))
        relations = [
            [(divmod(c, b1), v) for c, v in enumerate(row) if v]
            for row in relation_rows
        ]
        for k in range(2, self.max_degree + 1):
            # u (x) r for r = sum c_ab x_a x_b maps to sum c_ab NF(u x_a) (x) x_b
            rows = []
            for u in range(self.dims[k - 2]):
                for rel in relations:
                    row = {}
                    for (a, b), c in rel:
                        prefix = self._product(a, k - 2, u, left=False)
                        sub_scaled(row, {p * b1 + b: v for p, v in prefix.items()}, -c)
                    rows.append(row)
            ech = SparseEchelon()
            ech.extend(rows)
            total = self.dims[k - 1] * b1
            pivots = ech.pivot_rows
            self._add_degree(ech, [c for c in range(total) if c not in pivots])

    def dim(self, k):
        return self.dims[k] if 0 <= k <= self.max_degree else 0

    def generator_product(self, j, k, word_pos, left=True):
        """Coordinates of x_j * (basis word at degree k) inside degree k+1,
        or of (basis word) * x_j when left is false.

        Returns {position: Fraction}."""
        return {
            p: Fraction(v) for p, v in self._product(j, k, word_pos, left).items()
        }

    def _product(self, j, k, word_pos, left=True):
        """generator_product as the kernel holds it, for the package's own
        callers: an int where integral, else a Fraction.  Cached; callers
        must not mutate the dict."""
        key = (left, j, k, word_pos)
        out = self._mult_cache.get(key)
        if out is None:
            if k + 1 > self.max_degree:
                raise RankOutOfRange("product exceeds the truncation degree")
            if left and k:
                prefix, i = divmod(self._columns[k][word_pos], self.b1)
                out = {}
                for p, c in self._product(j, k - 1, prefix).items():
                    sub_scaled(out, self._product(i, k, p, left=False), -c)
                narrowed(out)
            else:  # at degree 0 the left and right products are both x_j
                col = word_pos * self.b1 + j
                res = self._echelons[k + 1].reduce_coordinates({col: 1})
                positions = self._positions[k + 1]
                out = {positions[c]: v for c, v in res.items()}
            self._mult_cache[key] = out
        return out


@lru_cache(maxsize=None)
def holonomy_envelope(arr: Arrangement, max_degree, projective=True,
                      work_bound=None) -> UEnvelope:
    """Enveloping algebra of the holonomy Lie algebra, degree by degree.

    Each degree is the quotient of the previous one tensored with H_1 by
    the image of the relations; dimensions are independent of the
    hyperplane order.  The work bound still refuses b1^max_degree above
    the bound, although no tensor power of that size is built.
    """
    b1 = cohomology_view(arr, projective).dim(1)
    _check_work_bound(b1, max_degree, work_bound)
    relations = reduced_diagonal(arr, projective=projective).relation_basis
    return UEnvelope(arr, max_degree, b1, relations)
