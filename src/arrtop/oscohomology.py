"""Orlik-Solomon cohomology of arrangement complements.

The central complement carries the full Orlik-Solomon algebra, presented on
no-broken-circuit (NBC) monomials with circuit rewriting; the projective
complement is realized inside it as the kernel of the boundary derivation,
with basis the boundaries of NBC sets through the first hyperplane, and
multiplied as the quotient by the first generator (see CohomologyView).  Cup
products are read off NBC expansions; the holonomy-relation space and
degreewise bases of the enveloping algebra of the holonomy Lie algebra are
computed by exact linear algebra over Q.

Degree-one generated throughout: the projective side is the one that drives
the homotopy-group computations, the central side matches the classical NBC
combinatorics; functions take a `projective` flag where both make sense.
"""

from __future__ import annotations

import copy
import os as _os
import weakref
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


@lru_cache(maxsize=None)
def central_algebra(arr: Arrangement) -> CentralAlgebra:
    return CentralAlgebra(arr)


@dataclass(frozen=True)
class _Basis:
    """One cohomology degree: labels name the basis elements, keys are the
    NBC monomials that stand for them in A (central) or A/e_0A
    (projective); see CohomologyView."""

    labels: tuple
    keys: tuple

    @property
    def dim(self):
        return len(self.labels)


class CohomologyView:
    """Graded cohomology of the central or projective complement with cup
    products in fixed bases.

    The central side is the Orlik-Solomon algebra A itself, with the NBC
    monomials as basis.  The projective side is the kernel of the boundary
    derivation d, which has d e_0 = 1, so d(e_0 x) + e_0 d(x) = x for every
    x.  Hence A = ker d + e_0A, a direct sum (z in both is
    d(e_0 z) + e_0 d(z) = 0, as e_0 z = 0), and the quotient map
    ker d -> A/e_0A is an algebra isomorphism taking d(e_0 e_S) to e_S.
    The NBC monomials through 0 span e_0A, and those avoiding 0 are a basis
    of A/e_0A.  So degree q has the keys S, the NBC q-sets avoiding 0, and
    the labels (0,) + S, the NBC sets whose boundaries form the basis; a
    product is read off the NBC expansion of e_S e_T by dropping the
    monomials through 0 (Orlik-Terao, Arrangements of Hyperplanes, ch. 3).
    """

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
        keys = self.algebra.nbc(q)
        if self.projective:
            keys = tuple(s for s in keys if s[:1] != (0,))
            b = _Basis(tuple((0,) + s for s in keys), keys)
        else:
            b = _Basis(keys, keys)
        if b.dim != self.dim(q):
            raise InternalInconsistency(
                f"basis dimension {b.dim} != Betti number {self.dim(q)} at {q}"
            )
        self._bases[q] = b
        return b

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
        position = {m: r for r, m in enumerate(self.basis(q).keys)}
        rows = {}
        for a, key_a in enumerate(first.keys):
            for b, key_b in enumerate(second.keys):
                entry = {}
                product = self.algebra.multiply({key_a: 1}, {key_b: 1})
                for m, c in product.items():
                    r = position.get(m)
                    if r is not None:
                        entry[r] = c
                    elif not self.projective or m[0] != 0:
                        raise InternalInconsistency(
                            f"product monomial {m} is not a basis key"
                        )
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
            row = [0] * target.dim
            for r, c in rows[(t, j)].items():
                row[r] = c
            mat.append(tuple(row))
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

    Degree k >= 2 is built by prepending letters, as the quotient of
    H_1 (x) U_(k-1) by the image of R (x) U_(k-2), never inside the full
    tensor power: column i*dim U_(k-1) + p stands for the letter x_i
    followed by basis word p of degree k-1, so the column order is the
    lexicographic order of those words.  With the smallest column as pivot,
    the non-pivot columns are the normal words of degree k, the standard
    monomials of the lexicographic order (a normal word's suffix is
    normal), listed in basis_words[k].  The row of r (x) u, for
    r = sum c_ab x_a x_b, is sum c_ab x_a (x) x_b u; the rows of a degree
    are kept in (relation, u) order, which is block (2, k) of the graded
    complex, and eliminated as one batch, sparsest first.  The pivot
    columns, hence the normal words, and every normal form depend only on
    the row space, not on that order.

    Once a degree is eliminated its echelon is dropped and one table is
    kept: the normal form of column j*dim U_(k-1) + w is x_j w, stored in
    basis positions.  Left multiplication by x_j is a lookup in it, and so
    are block (1, k) and the next degree's rows; right multiplication
    recurses on the suffix, (x_i u) x_j = x_i (u x_j), and is cached.

    Degree k needs only degrees below it, so an envelope grows in place
    (`_grow`) and hands out views truncated at a lower degree (`_capped`)
    that share its tables and its product cache.  Every product checks
    the view's own degree before it reads the shared data.
    """

    def __init__(self, arr, max_degree, b1, relation_rows):
        self.arr = arr
        self.max_degree = 0
        self.b1 = b1
        self.dims = [1]
        self.basis_words = [((),)]
        self._relations = [
            [(divmod(c, b1), v) for c, v in enumerate(row) if v]
            for row in relation_rows
        ]
        self._left = {}  # degree k -> x_j w at j*dim U_(k-1) + w, see _add_degree
        self._columns = {}  # degree -> column i*dim U_(k-1) + p of each word
        self._relation_blocks = {}  # degree -> (rows of R (x) U_(k-2), rank)
        self._right_cache = {}
        self._grow(max_degree)

    def _add_degree(self, forms):
        """Record the next degree k from the normal forms of the pivot
        columns over H_1 (x) U_(k-1): the other columns are its normal
        words, and its table holds the normal form of every column in
        basis positions."""
        k = len(self.dims)
        prev, width = self.basis_words[-1], self.dims[-1]
        columns = [c for c in range(self.b1 * width) if c not in forms]
        self.dims.append(len(columns))
        self.basis_words.append(tuple(
            (c // width,) + prev[c % width] for c in columns
        ))
        self._columns[k] = columns
        position = {c: pos for pos, c in enumerate(columns)}
        self._left[k] = [
            {position[c]: v for c, v in forms[col].items()} if col in forms
            else {position[col]: 1}
            for col in range(self.b1 * width)
        ]

    def _eliminate(self, k):
        """Eliminate the rows of R (x) U_(k-2) over H_1 (x) U_(k-1), keep
        them with their rank as relation_block(k), and return the normal
        forms of the pivot columns; the echelon goes with the call."""
        width, lower = self.dims[k - 1], self.dims[k - 2]
        table = self._left[k - 1]
        rows = []
        for rel in self._relations:
            for u in range(lower):
                row = {}
                for (a, b), c in rel:
                    shifted = {a * width + p: v for p, v in table[b * lower + u].items()}
                    sub_scaled(row, shifted, -c)
                rows.append(row)
        ech = SparseEchelon()
        ech.extend(rows)
        self._relation_blocks[k] = rows, ech.rank
        return ech.normal_forms()

    def _grow(self, max_degree):
        """Build degrees self.max_degree + 1 .. max_degree in place."""
        for k in range(self.max_degree + 1, max_degree + 1):
            if self.b1 == 0:
                self.dims.append(0)
                self.basis_words.append(())
            else:  # degree 1 is H_1 (x) U_0, with no relations
                self._add_degree(self._eliminate(k) if k > 1 else {})
            self.max_degree = k

    def _capped(self, max_degree):
        """This envelope truncated at max_degree <= self.max_degree; the
        view shares the tables, the relation blocks and the product cache."""
        view = copy.copy(self)
        view._shared = self
        view.max_degree = max_degree
        view.dims = self.dims[:max_degree + 1]
        view.basis_words = self.basis_words[:max_degree + 1]
        return view

    def dim(self, k):
        return self.dims[k] if 0 <= k <= self.max_degree else 0

    def relation_block(self, k):
        """The rows of R (x) U_(k-2) over H_1 (x) U_(k-1), in (relation, u)
        order, and their rank; k >= 2.  Shared with the caller, which must
        not mutate them."""
        return self._relation_blocks[k]

    def _left_block(self, k):
        """The rows -x_j w for every letter j and basis word w of degree
        k-1, in column order j*dim U_(k-1) + w: the negated table of
        degree k.  This is block (1, k) of the graded complex; k >= 1."""
        if k > self.max_degree:
            raise RankOutOfRange("block exceeds the truncation degree")
        return [{p: -v for p, v in xw.items()} for xw in self._left[k]]

    def generator_product(self, j, k, word_pos, left=True):
        """Coordinates of x_j * (basis word at degree k) inside degree k+1,
        or of (basis word) * x_j when left is false.

        Returns {position: Fraction}."""
        if not (0 <= j < self.b1 and 0 <= word_pos < self.dim(k)):
            raise RankOutOfRange(
                f"no generator {j} or basis word {word_pos} at degree {k}"
            )
        return {
            p: Fraction(v) for p, v in self._product(j, k, word_pos, left).items()
        }

    def _product(self, j, k, word_pos, left=True):
        """generator_product as the envelope holds it, for the package's own
        callers: an int where integral, else a Fraction.  Shared; callers
        must not mutate the dict."""
        if k + 1 > self.max_degree:  # before the data another view shares
            raise RankOutOfRange("product exceeds the truncation degree")
        if left or not k:  # at degree 0 the left and right products are both x_j
            return self._left[k + 1][j * self.dims[k] + word_pos]
        key = (j, k, word_pos)
        out = self._right_cache.get(key)
        if out is None:
            i, suffix = divmod(self._columns[k][word_pos], self.dims[k - 1])
            out = {}
            for p, c in self._product(j, k - 1, suffix, left=False).items():
                sub_scaled(out, self._product(i, k, p), -c)
            self._right_cache[key] = narrowed(out)
        return out


# (arr, projective) -> the envelope that holonomy_envelope's views share;
# each view holds it, so it lives exactly as long as a cached view does
_envelopes = weakref.WeakValueDictionary()


@lru_cache(maxsize=None)
def holonomy_envelope(arr: Arrangement, max_degree, projective=True,
                      work_bound=None) -> UEnvelope:
    """Enveloping algebra of the holonomy Lie algebra, degree by degree.

    Each degree is the quotient of H_1 tensored with the previous one by
    the image of the relations; dimensions are independent of the
    hyperplane order.  The work bound still refuses b1^max_degree above
    the bound, although no tensor power of that size is built.

    One envelope per (arr, projective), with its relations computed once,
    sits below this cache, however the arguments are spelled: a higher
    max_degree builds only the degrees not built yet, and every call
    returns a view truncated at max_degree.  `cache_clear()` drops the
    views, and with them the shared envelope.
    """
    b1 = cohomology_view(arr, projective).dim(1)
    _check_work_bound(b1, max_degree, work_bound)
    env = _envelopes.get((arr, projective))
    if env is None:
        relations = reduced_diagonal(arr, projective=projective).relation_basis
        env = _envelopes[(arr, projective)] = UEnvelope(arr, 0, b1, relations)
    env._grow(max_degree)
    return env._capped(max_degree)
