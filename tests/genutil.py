"""Shared helpers for the test suite: brute-force oracles kept deliberately
independent of the library code paths they check, plus seeded generators
for random arrangements and subspaces."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from arrtop import (
    Arrangement, GradedChainComplex, Subspace, arrangement, homotopy,
    is_essential, normalize, oscohomology, polar,
)
from arrtop.errors import EmptyArrangement, ZeroForm
from arrtop.exactalg import sub_scaled
from arrtop.oscohomology import (
    UEnvelope, _delta_rows, central_algebra, cohomology_view,
    reduced_diagonal,
)


# ---------------------------------------------------------------------------
# determinant / rank oracle by minor expansion

def det_oracle(matrix):
    n = len(matrix)
    if n == 0:
        return 1
    if n == 1:
        return matrix[0][0]
    total = 0
    for j in range(n):
        if matrix[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        total += (-1) ** j * matrix[0][j] * det_oracle(minor)
    return total


def rank_oracle(vectors):
    """Rank as the largest k admitting a nonzero k x k minor."""
    vectors = [list(v) for v in vectors]
    if not vectors:
        return 0
    ncols = len(vectors[0])
    for k in range(min(len(vectors), ncols), 0, -1):
        for rows in combinations(range(len(vectors)), k):
            for cols in combinations(range(ncols), k):
                sub = [[vectors[r][c] for c in cols] for r in rows]
                if det_oracle(sub) != 0:
                    return k
    return 0


def rank_mod_p_oracle(rows, p):
    """Rank over GF(p) of sparse integer rows {column: int}, by Gaussian
    elimination on residues.  A prime p divides some invariant factor of
    the rows exactly when this rank falls below the rank over Q."""
    pivots = {}  # lead column -> residue row with 1 there
    for row in rows:
        v = {c: x % p for c, x in row.items() if x % p}
        while v:
            c = min(v)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(v[c], -1, p)
                pivots[c] = {k: x * inv % p for k, x in v.items()}
                break
            f = v[c]
            for k, x in piv.items():
                y = (v.get(k, 0) - f * x) % p
                if y:
                    v[k] = y
                else:
                    v.pop(k, None)
    return len(pivots)


def smith_oracle(matrix):
    """Invariant factors by determinantal divisors: d_k is the gcd of the
    k x k minors, and f_k = d_k / d_(k-1) for every k with d_k != 0."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if matrix else 0
    factors, previous = [], 1
    for k in range(1, min(nrows, ncols) + 1):
        d = 0
        for rows in combinations(range(nrows), k):
            for cols in combinations(range(ncols), k):
                d = _gcd(d, det_oracle([[matrix[r][c] for c in cols]
                                        for r in rows]))
        if d == 0:
            break
        d = abs(d)
        factors.append(d // previous)
        previous = d
    return factors


# ---------------------------------------------------------------------------
# brute-force lattice / Moebius oracle

def closure_oracle(forms, subset):
    r = rank_oracle([forms[i] for i in subset])
    return tuple(
        j
        for j in range(len(forms))
        if rank_oracle([forms[i] for i in subset] + [forms[j]]) == r
    )


def lattice_oracle(forms):
    """All closed sets with codim and Moebius value, by subset enumeration."""
    closed = {}
    for size in range(len(forms) + 1):
        for subset in combinations(range(len(forms)), size):
            c = closure_oracle(forms, subset)
            if c not in closed:
                closed[c] = rank_oracle([forms[i] for i in c])
    mobius = {}
    for s in sorted(closed, key=lambda s: (closed[s], s)):
        if not s:
            mobius[s] = 1
        else:
            mobius[s] = -sum(
                mobius[t] for t in mobius if t != s and set(t) <= set(s)
            )
    return closed, mobius


def nbc_oracle(rank):
    """NBC sets of every degree by brute force: the independent sets that
    hold no broken circuit, a circuit with its smallest hyperplane removed.

    rank maps every sorted index tuple of size at most r + 1 to its rank,
    r being the rank of the arrangement; circuits have at most r + 1
    elements.  Entry q of the result is the NBC q-sets in lexicographic
    order."""
    r = max(rank.values())
    n = max(s[0] for s in rank if len(s) == 1) + 1
    broken = [
        set(s[1:]) for s, k in rank.items()
        if k < len(s)
        and all(rank[t] == len(t) for t in combinations(s, len(s) - 1))
    ]
    return [
        tuple(
            s for s in combinations(range(n), q)
            if rank[s] == q and not any(b <= set(s) for b in broken)
        )
        for q in range(r + 1)
    ]


def subset_ranks_oracle(forms):
    """Rank by minors of every index tuple of size at most rank + 1, as
    nbc_oracle takes them."""
    r = rank_oracle(forms)
    return {
        s: rank_oracle([forms[i] for i in s])
        for size in range(r + 2)
        for s in combinations(range(len(forms)), size)
    }


def supersolvable_oracle(closed):
    """Exponents read off a maximal chain of modular flats, and the rank
    level at which a search with full backtracking gives up: (exponents,
    None) or (None, level).

    closed maps every closed index set to its codim (as lattice_oracle
    returns it).  A flat X is modular in the interval below a flat T when
    codim X + codim Y = codim(X v Y) + codim(X & Y) for every flat Y below
    T, the join being the smallest closed set holding both; the chain is
    searched top down through every modular coatom of each interval.  An
    interval with no modular coatom gives up at its rank; otherwise at the
    least level over its branches."""
    masks = {sum(1 << i for i in s): c for s, c in closed.items()}

    def join(a, b):
        u = a | b
        return min((m for m in masks if m & u == u), key=lambda m: masks[m])

    def chain(top):
        rank = masks[top]
        if rank == 1:
            return [bin(top).count("1")], None
        below = [m for m in masks if m & top == m]
        levels = []
        for x in below:
            if masks[x] != rank - 1:
                continue
            if all(masks[x] + masks[y] == masks[join(x, y)] + masks[x & y]
                   for y in below):
                exps, level = chain(x)
                if exps is not None:
                    return exps + [bin(top).count("1") - bin(x).count("1")], None
                levels.append(level)
        return None, min(levels, default=rank)

    exps, level = chain(max(masks, key=lambda m: masks[m]))
    return (sorted(exps) if exps is not None else None), level


def modular_oracle(closed, flat):
    """Modularity of a flat by the full definition: codim X + codim Y =
    codim(X v Y) + codim(X & Y) for every flat Y.  closed maps every closed
    index set to its codim (as lattice_oracle returns it); the join is the
    smallest closed set holding both, the meet their intersection."""
    x = set(flat)
    for y, codim_y in closed.items():
        union = x.union(y)
        join = min(c for s, c in closed.items() if union <= set(s))
        meet = closed[tuple(sorted(x.intersection(y)))]
        if closed[flat] + codim_y != join + meet:
            return False
    return True


def genericity_oracle(forms, basis):
    """Lattice genericity of the subspace spanned by basis, level by level:
    entry k is True iff every flat of codim <= k+1 (from lattice_oracle)
    keeps its codim on the subspace, its forms restricted to the basis
    ranked by minors.  One entry per level 0 <= k < rank."""
    closed, _ = _lattice_oracle_of(tuple(map(tuple, forms)))
    restricted = [
        [sum(a * b for a, b in zip(form, v)) for v in basis] for form in forms
    ]
    kept = {
        codim: all(
            rank_oracle([restricted[i] for i in s]) == codim
            for s, c in closed.items() if c == codim
        )
        for codim in set(closed.values())
    }
    rank = max(closed.values())
    return [all(kept[c] for c in range(1, k + 2)) for k in range(rank)]


@lru_cache(maxsize=None)
def _lattice_oracle_of(forms):
    return lattice_oracle(forms)


def poincare_oracle(forms):
    closed, mobius = lattice_oracle(forms)
    coeffs = [0] * (max(closed.values()) + 1)
    for s, codim in closed.items():
        coeffs[codim] += abs(mobius[s])
    return coeffs


def euler_projective_oracle(forms):
    """Euler characteristic of the projective complement from the oracle
    lattice: evaluate the deconed Poincare polynomial at -1."""
    central = poincare_oracle(forms)
    # divide by (1 + t) exactly
    quotient = []
    carry = 0
    for c in central:
        quotient.append(c - carry)
        carry = quotient[-1]
    if carry != 0:
        raise AssertionError("central Poincare polynomial not divisible by 1+t")
    quotient.pop()
    return sum(c * (-1) ** k for k, c in enumerate(quotient)), quotient


# ---------------------------------------------------------------------------
# all-Fraction elimination reference

class FractionEchelon:
    """Reference for arrtop.exactalg.SparseEchelon: the same incremental
    echelon (smallest column as pivot, pivot entry 1), with every value
    held as a Fraction."""

    def __init__(self):
        self.pivot_rows = {}

    @property
    def rank(self):
        return len(self.pivot_rows)

    @staticmethod
    def _sub_scaled(acc, vec, coeff):
        for key, val in vec.items():
            nv = acc.get(key, 0) - coeff * val
            if nv:
                acc[key] = nv
            else:
                acc.pop(key, None)

    def reduce(self, vec):
        v = {c: Fraction(x) for c, x in vec.items() if x}
        while v:
            c = min(v)
            piv = self.pivot_rows.get(c)
            if piv is None:
                break
            self._sub_scaled(v, piv, v[c])
        return v

    def reduce_coordinates(self, vec):
        v = {c: Fraction(x) for c, x in vec.items() if x}
        while True:
            hits = [c for c in v if c in self.pivot_rows]
            if not hits:
                return v
            c = min(hits)
            self._sub_scaled(v, self.pivot_rows[c], v[c])

    def insert(self, vec):
        v = self.reduce(vec)
        if not v:
            return False
        c = min(v)
        inv = 1 / v[c]
        self.pivot_rows[c] = {col: val * inv for col, val in v.items()}
        return True

    def contains(self, vec):
        return not self.reduce(vec)


# ---------------------------------------------------------------------------
# projective cup products in the boundary basis

def boundary_expansion(alg, subset):
    """NBC expansion of the boundary of e_subset, the alternating sum of its
    faces, in the central Orlik-Solomon algebra alg."""
    acc = {}
    for r in range(len(subset)):
        face = subset[:r] + subset[r + 1:]
        FractionEchelon._sub_scaled(acc, alg.expand(face), (-1) ** (r + 1))
    return acc


@lru_cache(maxsize=None)
def _nbc_oracle_of(forms):
    return nbc_oracle(subset_ranks_oracle(forms))


def projective_cup_oracle(arr, q):
    """Projective cup products H^(q-1) x H^1 -> H^q in the boundary basis.

    H^k of the projective complement is taken as the kernel of the boundary
    derivation on the central Orlik-Solomon algebra, with basis the
    boundaries of the NBC (k+1)-sets through hyperplane 0 (from
    nbc_oracle).  Each product of two basis elements is expanded on NBC
    monomials and solved for its coordinates in that basis on a
    FractionEchelon.

    Returns (labels, right, left): labels maps k in {q-1, 1, q} to the NBC
    sets that name the basis of H^k; right[t * b_1 + j] is the coordinate
    tuple of (basis t of H^(q-1)) * (basis j of H^1), and
    left[j * b_(q-1) + t] that of (basis j of H^1) * (basis t of H^(q-1)).
    Each degree is listed in the projective view's order, which must
    permute these NBC sets; test_projective_bases_follow_the_modular_chain
    checks that order."""
    nbc = _nbc_oracle_of(arr.forms)
    alg = central_algebra(arr)
    labels, expansions = {}, {}
    for k in {q - 1, 1, q}:
        labels[k] = cohomology_view(arr, True).basis(k).labels
        if sorted(labels[k]) != [s for s in nbc[k + 1] if s[0] == 0]:
            raise AssertionError(f"the view's basis of H^{k} is not NBC")
        expansions[k] = [boundary_expansion(alg, s) for s in labels[k]]
    index = {m: i for i, m in enumerate(nbc[q])}
    n = len(index)
    ech = FractionEchelon()
    for pos, exp in enumerate(expansions[q]):
        row = {index[m]: c for m, c in exp.items()}
        row[n + pos] = 1
        ech.insert(row)
    if any(c >= n for c in ech.pivot_rows):
        raise AssertionError("boundary basis candidates are dependent")

    def coordinates(exp_a, exp_b):
        product = alg.multiply(exp_a, exp_b)
        res = ech.reduce_coordinates({index[m]: c for m, c in product.items()})
        if any(c < n for c in res):
            raise AssertionError("product outside the boundary basis span")
        coords = [0] * len(labels[q])
        for c, v in res.items():
            coords[c - n] = -v
        return tuple(coords)

    low, one = expansions[q - 1], expansions[1]
    right = [coordinates(a, b) for a in low for b in one]
    left = [coordinates(b, a) for b in one for a in low]
    return labels, right, left


# ---------------------------------------------------------------------------
# enveloping-algebra oracle inside the full tensor powers

class TensorEnvelope:
    """Degreewise bases of the holonomy envelope by elimination over all
    b1^k words of each tensor power: the ideal slice of degree k is spanned
    by the degree k-1 slice times every generator and by every word of
    degree k-2 times every relation.  Words are encoded big-endian in base
    b1; the smallest column is the pivot, so the basis words are the
    lexicographically normal words.  Same interface as
    arrtop.oscohomology.UEnvelope, computed on FractionEchelon."""

    def __init__(self, max_degree, b1, relation_rows):
        self.max_degree = max_degree
        self.b1 = b1
        self.dims = [1]
        self.basis_words = [((),)]
        self._echelons = {}
        self._positions = {0: {0: 0}}
        if max_degree == 0:
            return
        if b1 == 0:
            self.dims += [0] * max_degree
            self.basis_words += [()] * max_degree
            return
        self.dims.append(b1)
        self.basis_words.append(tuple((j,) for j in range(b1)))
        self._positions[1] = {j: j for j in range(b1)}
        rel_sparse = [
            {c: Fraction(v) for c, v in enumerate(row) if v}
            for row in relation_rows
        ]
        prev = None
        for k in range(2, max_degree + 1):
            ech = FractionEchelon()
            if prev is not None:
                for row in prev.pivot_rows.values():
                    for j in range(b1):
                        ech.insert({c * b1 + j: v for c, v in row.items()})
            for w in range(b1 ** (k - 2)):
                base = w * b1 * b1
                for row in rel_sparse:
                    ech.insert({base + c: v for c, v in row.items()})
            basis_cols = [c for c in range(b1 ** k) if c not in ech.pivot_rows]
            self.dims.append(len(basis_cols))
            self.basis_words.append(tuple(self._decode(c, k) for c in basis_cols))
            self._positions[k] = {c: pos for pos, c in enumerate(basis_cols)}
            self._echelons[k] = ech
            prev = ech

    def _decode(self, idx, length):
        word = []
        for _ in range(length):
            idx, r = divmod(idx, self.b1)
            word.append(r)
        return tuple(reversed(word))

    def dim(self, k):
        return self.dims[k] if 0 <= k <= self.max_degree else 0

    def generator_product(self, j, k, word_pos, left=True):
        word = self.basis_words[k][word_pos]
        word = (j,) + word if left else word + (j,)
        idx = 0
        for letter in word:
            idx = idx * self.b1 + letter
        if k + 1 == 1:
            return {self._positions[1][idx]: Fraction(1)}
        res = self._echelons[k + 1].reduce_coordinates({idx: Fraction(1)})
        positions = self._positions[k + 1]
        return {positions[c]: v for c, v in res.items()}

    # the name under which arrtop's own callers (oscohomology._delta_rows) read
    # products; here the values are Fractions throughout
    _product = generator_product


class EliminatedEnvelope(UEnvelope):
    """UEnvelope with every degree eliminated, none rewritten: the
    envelope as it was built before the degree-2 rules were used, in the
    same letter order."""

    def _build(self, k):  # over Q no lattice row is left to shift
        return self._eliminate(k, _delta_rows(self._view, self, 2, k))


def envelope_oracle(arr, degree, projective=True) -> TensorEnvelope:
    b1 = cohomology_view(arr, projective).dim(1)
    relations = reduced_diagonal(arr, projective=projective).relation_basis
    return TensorEnvelope(degree, b1, relations)


def mirror_complex_oracle(arr, max_degree) -> GradedChainComplex:
    """The mirror of graded_complex: blocks U (x) H_q, the differential
    leaving (w, r) being minus the sum of c (w x_j) (x) T over the left cup
    products x_j T = c r + ... .  Built only from projective_cup_oracle's
    left products and TensorEnvelope's right products, so it shares no
    code with the complex it cross-checks; rows are indexed w-major, and
    the constructor checks every internal degree to square to zero."""
    view = cohomology_view(arr, True)
    env = envelope_oracle(arr, max_degree)
    blocks = {}
    for q in range(1, view.top + 1):
        labels, _, left = projective_cup_oracle(arr, q)
        dim_low, dim_q = len(labels[q - 1]), len(labels[q])
        for t in range(q, max_degree + 1):
            rows = []
            for w in range(env.dim(t - q)):
                for r in range(dim_q):
                    row = {}
                    for j in range(env.b1):
                        for low in range(dim_low):
                            c = left[j * dim_low + low][r]
                            if not c:
                                continue
                            product = env.generator_product(j, t - q, w, left=False)
                            for w2, v in product.items():
                                col = w2 * dim_low + low
                                row[col] = row.get(col, 0) - c * v
                    rows.append({col: v for col, v in row.items() if v})
            if rows:
                blocks[(q, t)] = rows
    return GradedChainComplex(view.betti, env.dims, max_degree, blocks)


def relation_rows_oracle(arr, env, k):
    """The rows of R (x) U_(k-2) over H_1 (x) U_(k-1), in (relation, u)
    order, assembled from reduced_diagonal's antisymmetric rows: relation
    r = sum c_ab x_a (x) x_b times word u is sum c_ab x_a (x) x_b u, with
    x_b u from env.generator_product.  It shares no row code with the
    envelope's own relation rows (block (2, k) of graded_complex)."""
    b1 = env.b1
    width, lower = env.dim(k - 1), env.dim(k - 2)
    rows = []
    for rel in reduced_diagonal(arr, projective=True).relation_basis:
        for u in range(lower):
            row = {}
            for col, c in enumerate(rel):
                if c:
                    a, b = divmod(col, b1)
                    for p, v in env.generator_product(b, k - 2, u).items():
                        row[a * width + p] = row.get(a * width + p, 0) + c * v
            rows.append({pos: v for pos, v in row.items() if v})
    return rows


def delta_rows_oracle(view, env, q, t):
    """Block H_q (x) U_(t-q) -> H_(q-1) (x) U_(t-q+1) the slow way, for
    arrtop.oscohomology._delta_rows: for each row (r, w), one dict per
    H_(q-1) class T, one env._product and one sub_scaled call per cup
    product T x_j = c r + ..., then the parts flattened into the columns
    T * dim U_(t-q+1) + w2.  Rows in (r, w) order."""
    s = t - q
    dim_q = view.dim(q)
    if dim_q == 0 or s < 0 or env.dim(s) == 0:
        return []
    transposed = [[] for _ in range(dim_q)]
    for (tt, j), entry in view.cup_rows(q).items():
        for r, c in entry.items():
            transposed[r].append((tt, j, c))
    dim_u_next = env.dim(s + 1)
    rows = []
    for r in range(dim_q):
        for w in range(env.dim(s)):
            parts = {}  # T -> coordinates in U^(s+1)
            for tt, j, c in transposed[r]:
                part = parts.setdefault(tt, {})
                sub_scaled(part, env._product(j, s, w), -c)
            rows.append({
                tt * dim_u_next + w2: f
                for tt, part in parts.items()
                for w2, f in part.items()
            })
    return rows


def audit_rows_oracle(arr, k):
    """The holonomy ideal slice of tensor degree k inside the b1^k words,
    split-major: for each split, every word of that length, then each
    relation of reduced_diagonal, then every word filling the rest.
    Words are encoded big-endian in base b1."""
    relations = reduced_diagonal(arr, projective=True).relation_basis
    b1 = cohomology_view(arr, True).dim(1)
    rows = []
    for split in range(k - 1):
        left = b1 ** split
        right = b1 ** (k - 2 - split)
        for wl in range(left):
            for rel in relations:
                for wr in range(right):
                    row = {}
                    for c, v in enumerate(rel):
                        if v:
                            i2, j2 = divmod(c, b1)
                            row[((wl * b1 + i2) * b1 + j2) * right + wr] = v
                    rows.append(row)
    return rows


def forget_types():
    """Empty the registry of ordered matroids (arrangement.first_of_type),
    so that the next arrangement of each type becomes its first, and the
    caches keyed by type build what they miss from its own forms."""
    arrangement.first_of_type.cache_clear()


def clear_envelope_caches():
    """Empty the caches of holonomy_envelope and graded_complex, and the
    registry of ordered matroids, so the next call builds from degree 0
    with the arrangement it is given."""
    oscohomology.holonomy_envelope.cache_clear()
    homotopy.graded_complex.cache_clear()
    forget_types()


def clear_arrangement_caches():
    """Empty every per-arrangement cache, the lattice's included, so the
    next call starts cold: the polar reports too, and with the lattices
    the Poincare polynomials they hold."""
    clear_envelope_caches()
    polar.polar_degree.cache_clear()
    homotopy.supersolvable_exponents.cache_clear()
    oscohomology.cohomology_view.cache_clear()
    oscohomology.central_algebra.cache_clear()
    arrangement.intersection_lattice.cache_clear()
    arrangement._form_rank.cache_clear()


# ---------------------------------------------------------------------------
# rank series the slow way: Moebius inversion and one series product per
# unit of rank, over Fraction

def _series_mul_oracle(a, b, max_degree):
    return [sum((a[i] * b[k - i] for i in range(k + 1)
                 if i < len(a) and k - i < len(b)), Fraction(0))
            for k in range(max_degree + 1)]


def _series_inverse_oracle(a, max_degree):
    inv = [1 / Fraction(a[0])]
    for k in range(1, max_degree + 1):
        inv.append(-sum((a[j] * inv[k - j] for j in range(1, min(k, len(a) - 1) + 1)),
                        Fraction(0)) / a[0])
    return inv


def moebius_oracle(n):
    """The number-theoretic Moebius function, by trial division."""
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def lcs_ranks_oracle(exponents, max_k):
    """phi_m = (1/m) sum over k | m of mu(m/k) p_k, p_k the k-th power sum
    of the exponents (a tuple)."""
    phis = []
    for m in range(1, max_k + 1):
        acc = sum(moebius_oracle(m // k) * sum(d ** k for d in exponents)
                  for k in range(1, m + 1) if m % k == 0)
        assert acc % m == 0
        phis.append(acc // m)
    return phis


def expand_lcs_product_oracle(phis, max_degree):
    """The product of (1 - t^k)^phi_k, multiplied out one factor
    (1 - t^k) or its inverse at a time."""
    coeffs = [Fraction(1)] + [Fraction(0)] * max_degree
    for k, phi in enumerate(phis[:max_degree], start=1):
        base = [Fraction(0)] * (max_degree + 1)
        base[0], base[k] = Fraction(1), Fraction(-1)
        if phi < 0:
            base = _series_inverse_oracle(base, max_degree)
        for _ in range(abs(phi)):
            coeffs = _series_mul_oracle(coeffs, base, max_degree)
    return [int(c) for c in coeffs]


def free_graded_lie_ranks_oracle(generator_dims, max_degree):
    """Graded PBW inversion: at each degree q, l_q is the coefficient of
    t^q in T / C, T = 1/(1 - g) and C the product of the factors found so
    far, each factor multiplied in l_q times."""
    one_minus_g = [Fraction(1)] + [Fraction(0)] * max_degree
    for deg, dim in enumerate(generator_dims[:max_degree], start=1):
        one_minus_g[deg] = -Fraction(dim)
    target = _series_inverse_oracle(one_minus_g, max_degree)
    current = [Fraction(1)] + [Fraction(0)] * max_degree
    ranks = []
    for q in range(1, max_degree + 1):
        quotient = _series_mul_oracle(
            target, _series_inverse_oracle(current, max_degree), q)
        l_q = quotient[q]
        assert l_q.denominator == 1 and l_q >= 0
        ranks.append(int(l_q))
        base = [Fraction(0)] * (max_degree + 1)
        base[0], base[q] = Fraction(1), Fraction(1 if q % 2 else -1)
        if q % 2 == 0:
            base = _series_inverse_oracle(base, max_degree)
        for _ in range(int(l_q)):
            current = _series_mul_oracle(current, base, max_degree)
    return ranks


# ---------------------------------------------------------------------------
# integer kernels (for constructing degenerate subspaces)

def int_kernel_basis_oracle(rows):
    """Integer basis of the joint kernel of integer covectors."""
    if not rows:
        return []
    ncols = len(rows[0])
    work = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        pv = work[r][c]
        work[r] = [x / pv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fcol in free:
        vec = [Fraction(0)] * ncols
        vec[fcol] = Fraction(1)
        for row_idx, pcol in enumerate(pivots):
            vec[pcol] = -work[row_idx][fcol]
        lcm = 1
        for x in vec:
            lcm = lcm * x.denominator // _gcd(lcm, x.denominator)
        basis.append(tuple(int(x * lcm) for x in vec))
    return basis


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


# ---------------------------------------------------------------------------
# seeded arrangement generators

BRAID3_FORMS = [
    [1, -1, 0], [1, 0, -1], [1, 0, 0], [0, 1, -1], [0, 1, 0], [0, 0, 1],
]


def boolean_arrangement(n) -> Arrangement:
    return normalize([[1 if i == j else 0 for j in range(n)] for i in range(n)], n)


def braid3() -> Arrangement:
    return normalize(BRAID3_FORMS, 3)


def braid_arrangement(n) -> Arrangement:
    """Braid arrangement A_n, the hyperplanes x_i = x_j for i < j <= n,
    essential in C^n: x_n is set to 0."""
    forms = []
    for i, j in combinations(range(n + 1), 2):
        v = [0] * n
        v[i] = 1
        if j < n:
            v[j] = -1
        forms.append(v)
    return normalize(forms, n)


def direct_sum(a: Arrangement, b: Arrangement) -> Arrangement:
    """Product arrangement in C^(n_a + n_b): the forms of a, then those of
    b, each padded with zeros.  Its lattice is the product of the two."""
    pad_a, pad_b = (0,) * b.ambient_dim, (0,) * a.ambient_dim
    return normalize(
        [f + pad_a for f in a.forms] + [pad_b + f for f in b.forms],
        a.ambient_dim + b.ambient_dim,
    )


def near_pencil(n) -> Arrangement:
    forms = [[1 if i == j else 0 for j in range(n + 1)] for i in range(n + 1)]
    extra = [0] * (n + 1)
    extra[0] = extra[1] = 1
    return normalize(forms + [extra], n + 1)


def generic4() -> Arrangement:
    return normalize([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], 3)


def random_essential_arrangement(rng, max_hyperplanes=8) -> Arrangement:
    while True:
        dim = rng.choice([2, 3, 4])
        d = rng.randint(dim, max_hyperplanes)
        raw = [
            [rng.randint(-2, 2) for _ in range(dim)] for _ in range(d)
        ]
        try:
            arr = normalize(raw, dim)
        except (ZeroForm, EmptyArrangement):
            continue
        if not is_essential(arr):
            continue
        return arr


def unimodular_image(arr, steps) -> Arrangement:
    """arr in other coordinates: forms f become f M for M in GL_n(Z), the
    product of the elementary matrices I + c e_ij for the (i, j, c) in
    steps with i != j.  The hyperplanes keep their order."""
    dim = arr.ambient_dim
    m = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for i, j, c in steps:
        if i != j:
            # right-multiply by I + c e_ij: column j gains c times column i
            for row in m:
                row[j] += c * row[i]
    return Arrangement(dim, tuple(
        tuple(sum(f[k] * m[k][j] for k in range(dim)) for j in range(dim))
        for f in arr.forms
    ))


def seeded_rank3_corpus(seed, count):
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


def random_subspace(rng, ambient, dim, bound=4) -> Subspace:
    while True:
        vecs = [
            tuple(rng.randint(-bound, bound) for _ in range(ambient))
            for _ in range(dim)
        ]
        if rank_oracle(vecs) == dim:
            return Subspace(tuple(vecs))
