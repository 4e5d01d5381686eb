"""Shared helpers for the test suite: brute-force oracles kept deliberately
independent of the library code paths they check, plus seeded generators
for random arrangements and subspaces."""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from arrtop import Arrangement, Subspace, is_essential, normalize
from arrtop.errors import EmptyArrangement, ZeroForm
from arrtop.oscohomology import cohomology_view, reduced_diagonal


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

    # the name under which arrtop's own callers (homotopy._delta_rows) read
    # products; here the values are Fractions throughout
    _product = generator_product


def envelope_oracle(arr, degree, projective=True) -> TensorEnvelope:
    b1 = cohomology_view(arr, projective).dim(1)
    relations = reduced_diagonal(arr, projective=projective).relation_basis
    return TensorEnvelope(degree, b1, relations)


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


def random_subspace(rng, ambient, dim, bound=4) -> Subspace:
    while True:
        vecs = [
            tuple(rng.randint(-bound, bound) for _ in range(ambient))
            for _ in range(dim)
        ]
        if rank_oracle(vecs) == dim:
            return Subspace(tuple(vecs))
