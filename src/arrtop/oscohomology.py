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

from fractions import Fraction
from itertools import combinations

from .arrangement import (
    Arrangement, intersection_lattice, matroid_cache, poincare_central,
    poincare_projective,
)
from .errors import (  # the work bound's names stay importable from here
    DEFAULT_WORK_BOUND, WORK_BOUND_ENV, InternalInconsistency,
    NotSupersolvable, RankOutOfRange, WorkBoundExceeded, _Record, _set,
    _work_bound,
)
from .exactalg import (
    SparseEchelon, int_rank, narrowed, sparse_compose, sparse_rank,
    sub_scaled,
)


def _check_work_bound(stage, b1, degree, override=None):
    """Refuse a negative degree, and a tensor slice of dimension b1^degree
    above the work bound (see _work_bound), naming the stage.  For b1 < 2
    the slices never grow, but the normal words of degrees 1 to degree
    hold about degree^2/2 letters (b1 = 1), so the square of the degree is
    counted against the bound."""
    if degree < 0:
        raise RankOutOfRange("max_degree must be nonnegative")
    bound = _work_bound(override)
    if b1 < 2:
        if degree ** 2 > bound:
            raise WorkBoundExceeded(f"{stage}: max_degree^2 = {degree}^2 "
                                    f"exceeds work bound {bound}")
        return
    size = 1
    for _ in range(degree):  # stop at the first power past the bound
        size *= b1
        if size > bound:
            raise WorkBoundExceeded(f"{stage}: tensor slice dimension "
                                    f"{b1}^{degree} exceeds bound {bound}")


def _check_square_bound(stage, name, n):
    """Refuse a negative n, and work growing as n^2 when n^2 exceeds the
    work bound."""
    if n < 0:
        raise RankOutOfRange(f"{name} must be nonnegative")
    if n ** 2 > (bound := _work_bound()):
        raise WorkBoundExceeded(f"{stage}: {name}^2 = {n}^2 exceeds work bound {bound}")


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


@matroid_cache
def central_algebra(arr: Arrangement) -> CentralAlgebra:
    return CentralAlgebra(arr)


class _Basis(_Record):
    """One cohomology degree: labels name the basis elements, keys are the
    NBC monomials that stand for them in A (central) or A/e_0A
    (projective); see CohomologyView."""

    __slots__ = _fields = ("labels", "keys")

    def __init__(self, labels, keys):
        _set(self, "labels", labels)
        _set(self, "keys", keys)

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

    The central side lists each degree in NBC order, and so does the
    projective side when the lattice has no modular chain.  When it has
    one (IntersectionLattice.modular_chain), block i of the chain holds
    the hyperplanes of X_i outside X_(i-1), and each projective degree is
    listed by the sorted (block, hyperplane) pairs of its keys: degree 1
    by block, ties by index.  These are the envelope's letters, and in
    that order the leading words of its degree-2 relations form a
    quadratic Groebner basis on every supersolvable input of the test
    data and the benchmark (see UEnvelope).
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
        self._block = None  # hyperplane -> chain block, or None
        if projective:
            try:
                chain = intersection_lattice(arr).modular_chain()
            except NotSupersolvable:
                pass
            else:
                self._block = {}
                for i, flat in enumerate(reversed(chain)):
                    for h in flat.hyperplanes:
                        self._block.setdefault(h, i)

    def dim(self, q):
        return self.betti[q] if 0 <= q <= self.top else 0

    def basis(self, q) -> _Basis:
        b = self._bases.get(q)
        if b is not None:
            return b
        keys = self.algebra.nbc(q)
        if self.projective:
            keys = tuple(s for s in keys if s[:1] != (0,))
            if self._block is not None:
                keys = tuple(sorted(keys, key=lambda s: sorted(
                    (self._block[h], h) for h in s)))
            b = _Basis(tuple((0,) + s for s in keys), keys)
        else:
            b = _Basis(keys, keys)
        if b.dim != self.dim(q):
            raise InternalInconsistency(
                f"basis dimension {b.dim} != Betti number {self.dim(q)} at {q}"
            )
        self._bases[q] = b
        return b

    def cup_rows(self, q):
        """Structure constants of H^(q-1) x H^1 -> H^q.

        Returns {(a, b): {r: int}} over basis positions, a in H^(q-1),
        b in H^1, r in H^q.  The dict is cached per q and shared between
        callers, which must not mutate it.
        """
        if not 1 <= q <= self.top:
            raise RankOutOfRange(f"degree {q} outside [1, {self.top}]")
        rows = self._cup_rows.get(q)
        if rows is not None:
            return rows
        low, one = self.basis(q - 1), self.basis(1)
        position = {m: r for r, m in enumerate(self.basis(q).keys)}
        rows = {}
        for a, key_a in enumerate(low.keys):
            for b, key_b in enumerate(one.keys):
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
        self._cup_rows[q] = rows
        return rows


@matroid_cache
def cohomology_view(arr: Arrangement, projective: bool) -> CohomologyView:
    """One view per ordered matroid, its .arr the first arrangement of it."""
    return CohomologyView(arr, projective)


# ---------------------------------------------------------------------------
# public data types and operations

class NBCBasis(_Record):
    """The NBC monomials of the central complement at one degree, each a
    sorted tuple of hyperplane indices; see nbc_basis."""

    __slots__ = _fields = ("degree", "monomials")

    def __init__(self, degree, monomials):
        _set(self, "degree", degree)
        _set(self, "monomials", monomials)


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


class CupSlice(_Record):
    """Multiplication H^(q-1) x H^1 -> H^q as an integer matrix; rows are
    (lower basis element, degree-one element) pairs with the degree-one
    index fastest, columns the degree-q basis."""

    __slots__ = _fields = ("degree", "matrix", "row_labels", "column_labels")

    def __init__(self, degree, matrix, row_labels, column_labels):
        _set(self, "degree", degree)
        _set(self, "matrix", matrix)
        _set(self, "row_labels", row_labels)
        _set(self, "column_labels", column_labels)


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


class HolonomyRelations(_Record):
    """Rows span the image of the reduced diagonal inside H_1 (x) H_1, in
    the antisymmetric embedding of the wedge square; dimension b_2."""

    __slots__ = _fields = ("dim_h1", "relation_basis")

    def __init__(self, dim_h1, relation_basis):
        _set(self, "dim_h1", dim_h1)
        _set(self, "relation_basis", relation_basis)


def reduced_diagonal(arr: Arrangement, projective=False) -> HolonomyRelations:
    """Dual of the surjection from the wedge square of H^1 onto H^2."""
    view = cohomology_view(arr, projective)
    b2 = view.dim(2)
    # x_j x_i = -x_i x_j and x_i x_i = 0, so the dual of the cup product
    # H^1 x H^1 -> H^2 is already antisymmetric
    relation_rows = right_cup_dual(arr, 2, projective) if b2 else []
    rel = HolonomyRelations(view.dim(1), tuple(relation_rows))
    if int_rank(rel.relation_basis) != b2:
        raise InternalInconsistency("holonomy relations do not have rank b_2")
    return rel


def right_cup_dual(arr: Arrangement, q, projective=False):
    """Matrix of H_q -> H_(q-1) (x) H_1 dual to the right cup action; rows
    indexed by the H_q basis, columns by (H_(q-1), H_1) pairs flattened with
    the H_1 index fastest. Integer entries."""
    view = cohomology_view(arr, projective)
    b1 = view.dim(1)
    out = [[0] * (view.dim(q - 1) * b1) for _ in range(view.dim(q))]
    for (a, b), entry in view.cup_rows(q).items():
        for r, c in entry.items():
            out[r][a * b1 + b] = c
    return [tuple(row) for row in out]


# ---------------------------------------------------------------------------
# enveloping algebra of the holonomy Lie algebra

def _delta_rows(view, env, q, t):
    """Block H_q (x) U_(t-q) -> H_(q-1) (x) U_(t-q+1), the dual cup
    structure extended by left multiplication: the row of basis class r
    and word w is sum c T (x) x_j w over the cup products T x_j = c r + ...,
    with x_j w read from env._product.

    The one builder of differential and relation rows, with three callers:
    the envelope being built at q = 2, over Q or Z, whose rows of degree t
    are the relations R (x) U_(t-2) it splits at degree 2 and wherever its
    rules fail, and composes with its rewritten table at degree 3;
    graded_complex at q >= 2; and the cokernel (homotopy_cokernel_ranks)
    at q = p + 2.

    Each x_j w is read once per call, and each row is summed in one pass
    straight into its final columns tt * dim U_(s+1) + w2.  A row in which
    an entry cancelled is copied once, so that it holds no freed slots."""
    s = t - q
    dim_q, dim_s = view.dim(q), env.dim(s)
    if dim_q == 0 or s < 0 or dim_s == 0:
        return []
    dim_u_next = env.dim(s + 1)
    products = [[env._product(j, s, w) for w in range(dim_s)]
                for j in range(view.dim(1))]
    # transpose once: for each H_q basis index, the (column offset of T,
    # products x_j w, coeff) triples over the cup products T x_j = c r + ...
    transposed = [[] for _ in range(dim_q)]
    for (tt, j), entry in view.cup_rows(q).items():
        for r, c in entry.items():
            transposed[r].append((tt * dim_u_next, products[j], c))
    rows = []
    for terms in transposed:
        for w in range(dim_s):
            row, cancelled = {}, False
            for offset, xw, c in terms:
                for w2, v in xw[w].items():
                    col = offset + w2
                    if (nv := row.get(col, 0) + c * v):
                        row[col] = nv
                    else:
                        del row[col]
                        cancelled = True
            rows.append(dict(row) if cancelled else row)
    return rows


class UEnvelope:
    """Degreewise bases of the quotient of the tensor algebra on H_1 by the
    two-sided ideal generated by the holonomy relations R, read from the
    cup products of the cohomology view (one relation per basis class of
    H^2).  The letters are the view's degree-1 basis, in modular-chain
    order when the lattice has a modular chain (see CohomologyView).

    Degree k is a quotient of H_1 (x) U_(k-1), never of the full tensor
    power: column j*dim U_(k-1) + w stands for the letter x_j followed by
    basis word w of degree k-1, so the column order is the lexicographic
    order of those words, and the smallest column of a relation is its
    leading word.  The normal words of degree k, the columns that lead no
    relation, are listed in basis_words[k] in column order.  Each degree
    keeps one table: its entry j*dim U_(k-1) + w is x_j w in basis
    positions, a unit row when x_j w is normal.  Multiplication by x_j
    (from the left) is a lookup in it.  The table of degree k is block
    (1, k) of the graded complex, shared with it, so it must not be
    mutated.

    Degree k is H_1 (x) U_(k-1) modulo R (x) T_(k-2), T the tensor algebra,
    so it is presented by the rows of R (x) U_(k-2), _delta_rows(view, self,
    2, k), and x_a times each row of lattice[k-1].  The envelope's ring
    splits them (_split): over Q into normal forms, leaving lattice[k]
    empty, over Z by unit_split (_IntegralEnvelope).  At degree 2 rows of
    rank other than b_2 raise InternalInconsistency, and the pivots are the
    rules x_a x_b -> NF(x_a x_b), one per leading 2-word, with coefficient
    1.  When lattice[2] is empty, each degree k >= 3 is filled from them
    without elimination (_rewrite): x_j w is normal iff x_j x_(w_1) leads no
    rule, and otherwise x_j x_(w_1) w' is sum c x_a NF(x_b w') over the
    rule's terms.  The words that hold no leading 2-word span every degree;
    they are a basis of every degree iff the overlaps x_a x_b x_c of the
    rules resolve (Bergman's diamond lemma, Adv. Math. 29, 1978, which holds
    over Z as the rules lead with 1), that is iff the rows of R (x) U_1
    compose to zero with the rewritten degree-3 table.  That is checked:
    then the rules are a quadratic Groebner basis, U is a PBW algebra
    (Priddy, Trans. AMS 152, 1970), `rewritten` is True and every lattice[k]
    is empty.  Otherwise each degree k >= 3 is split as degree 2 is.  On
    each ring both paths give the same normal words and tables.

    The degrees 1 .. max_degree are built once, in order, when the envelope
    is made; nothing changes it afterwards.
    """

    def __init__(self, view, max_degree):
        self._view = view
        self.arr = view.arr
        self.max_degree = 0
        self.b1 = view.dim(1)
        self.dims = [1]
        self.basis_words = [((),)]
        self.rewritten = False
        self.lattice = {0: []}  # degree k -> rows left over by the split
        self._left = {}  # degree k -> x_j w at j*dim U_(k-1) + w
        self._columns = [0]  # the top degree's normal words, as columns
        for k in range(1, max_degree + 1):
            self._add_degree(*self._build(k))
            self.max_degree = k  # _product reads degree k from here on

    def _build(self, k):
        """The normal words of degree k as columns over H_1 (x) U_(k-1),
        ascending, and the table of degree k; sets lattice[k]."""
        if self.rewritten:
            self.lattice[k] = []
            return self._rewrite(k)
        width = self.dims[-1]
        rows = _delta_rows(self._view, self, 2, k) + [
            {a * width + c: v for c, v in row.items()}
            for a in range(self.b1) for row in self.lattice[k - 1]]
        if k == 3 and not self.lattice[2]:
            built = self._rewrite(3)
            if not any(sparse_compose(rows, built[1])):
                self.rewritten, self.lattice[3] = True, []
                return built
        return self._eliminate(k, rows)

    def _add_degree(self, columns, table):
        """Record the next degree k: its normal words, the given columns
        over H_1 (x) U_(k-1), and its table."""
        width, prev = self.dims[-1], self.basis_words[-1]
        self._left[len(self.dims)] = table
        self.dims.append(len(columns))
        self.basis_words.append(tuple(
            (c // width,) + prev[c % width] for c in columns
        ))
        self._columns = columns

    def _rewrite(self, k):
        """Degree k >= 3 from the rules of degree 2, with no elimination.
        The normal words are the x_j w with x_j x_(w_1) normal, each a unit
        row.  Every other x_j w = x_j x_(w_1) w' is sum c x_a NF(x_b w')
        over the rule's terms c x_a x_b, each x_a x_b after x_j x_(w_1), so
        each column x_a w'' read here comes after x_j w and is filled
        first, in descending column order."""
        b1, width, lower = self.b1, self.dims[-1], self.dims[-2]
        heads = [divmod(c, lower) for c in self._columns]  # (w_1, w')
        pairs = self.basis_words[2]  # the normal 2-words (a, b)
        normal2 = {a * b1 + b for a, b in pairs}
        rules, prev = self._left[2], self._left[k - 1]
        columns = [j * width + w for j in range(b1)
                   for w, (first, _) in enumerate(heads)
                   if j * b1 + first in normal2]
        table = [None] * (b1 * width)
        for pos, c in enumerate(columns):
            table[c] = {pos: 1}
        for c in range(b1 * width - 1, -1, -1):
            if table[c] is None:
                j, w = divmod(c, width)
                first, tail = heads[w]
                acc = {}
                for p2, coeff in rules[j * b1 + first].items():
                    a, b = pairs[p2]
                    for w2, v in prev[b * lower + tail].items():
                        cv = coeff * v
                        for pos, x in table[a * width + w2].items():
                            if (nv := acc.get(pos, 0) + cv * x):
                                acc[pos] = nv
                            else:
                                del acc[pos]
                table[c] = narrowed(acc)
        return columns, table

    def _eliminate(self, k, rows):
        """Degree k from its relation rows split (_split); the rows left
        over go to lattice[k]."""
        forms, self.lattice[k] = self._split(rows)
        if k == 2 and len(forms) + sparse_rank(self.lattice[2]) != self._view.dim(2):
            raise InternalInconsistency("holonomy relations do not have rank b_2")
        size = self.b1 * self.dims[-1]
        columns = [c for c in range(size) if c not in forms]
        position = {c: pos for pos, c in enumerate(columns)}
        return columns, [
            {position[c]: v for c, v in forms[col].items()} if col in forms
            else {position[col]: 1}
            for col in range(size)
        ]

    def _split(self, rows):
        """The normal forms of the pivot columns over Q, and no row left."""
        ech = SparseEchelon()
        ech.extend(rows)
        return ech.normal_forms(), []

    def dim(self, k):
        return self.dims[k] if 0 <= k <= self.max_degree else 0

    def generator_product(self, j, k, word_pos):
        """Coordinates of x_j * (basis word at degree k) inside degree k+1.

        Returns {position: Fraction}."""
        if not (0 <= j < self.b1 and 0 <= word_pos < self.dim(k)):
            raise RankOutOfRange(
                f"no generator {j} or basis word {word_pos} at degree {k}"
            )
        return {p: Fraction(v) for p, v in self._product(j, k, word_pos).items()}

    def _product(self, j, k, word_pos):
        """generator_product as the envelope holds it, for the package's own
        callers: an int where integral, else a Fraction.  Shared; callers
        must not mutate the dict."""
        if k + 1 > self.max_degree:
            raise RankOutOfRange("product exceeds the truncation degree")
        return self._left[k + 1][j * self.dims[k] + word_pos]


@matroid_cache
def _envelope(arr, max_degree, projective):
    return UEnvelope(cohomology_view(arr, projective), max_degree)


def holonomy_envelope(arr: Arrangement, max_degree, projective=True,
                      work_bound=None) -> UEnvelope:
    """Enveloping algebra of the holonomy Lie algebra, degree by degree.

    Each degree is the quotient of H_1 tensored with the previous one by
    the image of the relations; dimensions are independent of the
    hyperplane order.  The work bound refuses b1^max_degree above the
    bound on every call, although no tensor power of that size is built;
    then one cache keyed by (arr's ordered matroid, max_degree,
    projective), with `cache_info()` and `cache_clear()`, builds each
    envelope once, never changed and shared however the call is spelled
    and by every realization of the matroid: its `.arr`, and its view's,
    is the first arrangement of its type (arrangement.matroid_cache).
    work_bound does not reach the lattice, which reads ARRTOP_WORK_BOUND
    only.
    """
    view = cohomology_view(arr, projective)
    _check_work_bound("envelope", view.dim(1), max_degree, work_bound)
    return _envelope(arr, max_degree, projective)


holonomy_envelope.cache_info = _envelope.cache_info
holonomy_envelope.cache_clear = _envelope.cache_clear
