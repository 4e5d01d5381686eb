"""Associated-graded homotopy data of arrangement complements.

Everything lives at the level of the augmentation-ideal filtration of the
group ring: the graded equivariant chain complex of the universal cover has
free blocks H_q (x) U, with U the enveloping algebra of the holonomy Lie
algebra and differentials the duals of cup multiplication.  For
fiber-type (supersolvable) arrangements that complex resolves the trivial
module; for sufficiently generic sections of them, the cokernel of the top
visible differential computes the graded pieces of the first nontrivial
higher homotopy group, with a closed-form Hilbert series in terms of the
exponents.  This module builds the complexes, verifies exactness degree by
degree, and cross-checks the paired closed forms.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement

from .arrangement import (
    INFINITE,
    Arrangement,
    betti_agreement_order,
    genericity_level,
    intersection_lattice,
    is_essential,
    matroid_cache,
    poincare_central,
    poincare_projective,
    projective_betti,
)
from .errors import (
    FrameworkNotApplicable,
    InternalInconsistency,
    NegativeCoefficient,
    NonIntegerRank,
    NotEssential,
    NotProperSection,
    NotSupersolvable,
    RankOutOfRange,
    WorkBoundExceeded,
    _Record,
    _set,
)
from .exactalg import (
    IntPolynomial,
    int_entries,
    linear_product,
    series_mul,
    series_of_rational,
    smith_invariant_factors,
    sparse_compose,
    sparse_rank,
    unit_split,
)
from .oscohomology import (
    UEnvelope,
    _check_square_bound,
    _check_work_bound,
    _delta_rows,
    _envelope,
    _work_bound,
    cohomology_view,
    holonomy_envelope,
)


def minimal_cell_counts(arr: Arrangement, central=False):
    """Cell counts of a minimal CW-structure on the complement: they equal
    the Betti numbers (projective by default, coned/central on request)."""
    if central:
        return list(poincare_central(arr).coefficients)
    return projective_betti(arr)


# ---------------------------------------------------------------------------
# supersolvable recognition via modular coatom chains

class ExponentData(_Record):
    """Exponents of a supersolvable arrangement, ascending, first entry 1."""

    __slots__ = _fields = ("exponents",)

    def __init__(self, exponents):
        exps = int_entries(
            exponents, NonIntegerRank, "exponents must be positive integers"
        )
        _set(self, "exponents", exps)
        if not exps or any(x < 1 for x in exps):
            raise NonIntegerRank("exponents must be positive integers")
        if exps[0] != 1:
            raise NonIntegerRank("the first exponent is always 1")

    @property
    def length(self):
        return len(self.exponents)


def _chain_exponents(arr: Arrangement):
    """Exponents |X_i| - |X_(i-1)| down the lattice's modular chain
    (IntersectionLattice.modular_chain), the bottom flat X_1 counting
    its own hyperplanes."""
    chain = intersection_lattice(arr).modular_chain()
    return [len(x.hyperplanes) - len(y.hyperplanes)
            for x, y in zip(chain, chain[1:])] + [len(chain[-1].hyperplanes)]


@matroid_cache
def _chain_or_refusal(arr: Arrangement):
    """(ExponentData, None), checked against the hyperplane count and the
    Poincare polynomial, or (None, level): the cache stores no exception."""
    try:
        exps = sorted(_chain_exponents(arr))
    except NotSupersolvable as exc:
        return None, exc.level
    if sum(exps) != arr.num_hyperplanes:
        raise InternalInconsistency("exponents do not sum to the hyperplane count")
    if linear_product(exps) != poincare_central(arr):
        raise InternalInconsistency(
            "exponent factorization disagrees with the Poincare polynomial"
        )
    return ExponentData(tuple(exps)), None


def supersolvable_exponents(arr: Arrangement) -> ExponentData:
    """Exponents read off a maximal modular chain through the first
    modular coatom of each interval, all in the lattice of arr.  Raises
    NotSupersolvable with the rank level of the first interval that has
    no modular coatom.

    Other branches would end the same way: two modular coatoms X1, X2 of a
    rank-r lattice meet in a modular flat of rank r - 2 (Brylawski, Trans.
    AMS 203, 1975), a modular coatom of both [0, X1] and [0, X2], so by
    induction on the rank every branch reaches the same verdict and level.
    NotEssential is checked on every call; the verdict, a refusal's level
    too, is cached by arr's ordered matroid, shared by its realizations
    (arrangement.matroid_cache; `cache_info()`, `cache_clear()`).
    """
    if not is_essential(arr):
        raise NotEssential("supersolvable recognition expects an essential arrangement")
    exps, level = _chain_or_refusal(arr)
    if exps is None:
        raise NotSupersolvable(level)
    return exps


supersolvable_exponents.cache_info = _chain_or_refusal.cache_info
supersolvable_exponents.cache_clear = _chain_or_refusal.cache_clear


def is_supersolvable(arr: Arrangement) -> bool:
    try:
        supersolvable_exponents(arr)
        return True
    except NotSupersolvable:
        return False


# ---------------------------------------------------------------------------
# graded chain complexes

class GradedChainComplex:
    """Chain complex of free graded modules H_q (x) U with differentials
    raising the internal degree by exactly one.

    blocks[(q, t)] holds the differential leaving chain degree q in internal
    degree t, as sparse rows indexed by the source basis (h-index major,
    U-basis index minor); columns index the target block the same way.
    The complex is checked to square to zero when it is made.
    """

    def __init__(self, generator_ranks, u_dims, max_internal_degree, blocks):
        self.generator_ranks = tuple(generator_ranks)
        self.u_dims = tuple(u_dims)
        self.max_internal_degree = max_internal_degree
        self.blocks = blocks
        self._rank_cache = {}
        self.check_square_zero()

    @property
    def top(self):
        return len(self.generator_ranks) - 1

    def block_dim(self, q, t):
        if not 0 <= q <= self.top:
            return 0
        s = t - q
        if not 0 <= s <= self.max_internal_degree:
            return 0
        return self.generator_ranks[q] * self.u_dims[s]

    def block(self, q, t):
        return self.blocks.get((q, t), [])

    def block_rank(self, q, t):
        """L, the number of distinct leading columns of block (q, t), when
        it meets the square-zero bound dim(q-1, t) - rank(q-1, t): rows
        with distinct leads are independent.  Otherwise sparse_rank."""
        if (q, t) not in self.blocks:
            return 0
        r = self._rank_cache.get((q, t))
        if r is None:
            rows = self.blocks[(q, t)]
            leads = len({min(row) for row in rows if row})
            bound = self.block_dim(q - 1, t) - self.block_rank(q - 1, t)
            r = leads if leads == bound else sparse_rank(rows)
            self._rank_cache[(q, t)] = r
        return r

    def check_square_zero(self):
        """Raise unless every differential composes to zero with the next
        one, in every internal degree; the rows are composed one at a time,
        and the message names the first that is not sent to zero and the
        lead column of its image."""
        for (q, s), rows in self.blocks.items():
            nxt = self.blocks.get((q - 1, s))
            if not nxt:
                continue
            for i, image in enumerate(sparse_compose(rows, nxt)):
                if image:
                    raise InternalInconsistency(
                        f"differential square nonzero at (q={q}, t={s}), "
                        f"row {i}, lead column {min(image)}"
                    )


def graded_complex(arr: Arrangement, max_internal_degree=4,
                   work_bound=None) -> GradedChainComplex:
    """Associated-graded equivariant chain complex of the projective
    complement, blocks H_q (x) U with differentials the dual cup map
    extended by left multiplication, verified to square to zero in every
    internal degree.

    The work bound is checked on every call; one cache keyed by (arr's
    ordered matroid, max_internal_degree), with `cache_info()` and
    `cache_clear()`, builds the complex from the envelope of its degree,
    read past holonomy_envelope's check so that a higher work_bound
    holds.  Realizations of one ordered matroid share the entry, built
    from the first of them (arrangement.matroid_cache).  Block
    (1, t) is the envelope's table x_j w of degree t, shared and not
    copied, so callers must not mutate it; it has a unit row at each of
    its dim U_t columns, so its leads certify its rank, and exactness at
    q = 0 holds by construction.  Blocks with q >= 2, the relation rows
    R (x) U_(t-2) at q = 2 included, are _delta_rows of the envelope, in
    the view's bases: for a supersolvable input these follow the modular
    chain (see CohomologyView), where the leads of every block of braid
    A4 to degree 6 and A5 to degree 4 certify its rank.  What checks the
    complex is the constructor's square-zero test, the homology at
    q >= 1, read off the ranks of blocks with q >= 2, and the tensor
    oracle of the test suite.  work_bound does not reach the lattice,
    which reads ARRTOP_WORK_BOUND only."""
    _check_work_bound("complex", cohomology_view(arr, True).dim(1),
                      max_internal_degree, work_bound)
    return _complex(arr, max_internal_degree)


@matroid_cache
def _complex(arr, max_internal_degree):
    view = cohomology_view(arr, True)
    env = _envelope(arr, max_internal_degree, True)
    blocks = {}
    for q in range(1, view.top + 1):
        for t in range(q, max_internal_degree + 1):
            # block (1, t) is the table x_j w
            rows = env._left[t] if q == 1 else _delta_rows(view, env, q, t)
            if rows:
                blocks[(q, t)] = rows
    return GradedChainComplex(view.betti, env.dims, max_internal_degree,
                              blocks)


graded_complex.cache_info = _complex.cache_info
graded_complex.cache_clear = _complex.cache_clear


def torus_graded_complex(n, max_internal_degree=4) -> GradedChainComplex:
    """Graded chain complex of the minimal torus cell structure: exterior
    generators against the polynomial enveloping algebra on n commuting
    generators (a Koszul complex; augmented homology vanishes)."""
    if n < 1:
        raise RankOutOfRange("torus dimension must be at least 1")
    gen_ranks = [0] * (n + 1)
    subsets = {}
    for q in range(n + 1):
        subsets[q] = list(combinations(range(n), q))
        gen_ranks[q] = len(subsets[q])
    monos = {}
    index = {}
    for m in range(max_internal_degree + 1):
        monos[m] = list(combinations_with_replacement(range(n), m))
        index[m] = {w: i for i, w in enumerate(monos[m])}
    u_dims = [len(monos[m]) for m in range(max_internal_degree + 1)]
    blocks = {}
    for q in range(1, n + 1):
        sub_index = {s: i for i, s in enumerate(subsets[q - 1])}
        for t in range(q, max_internal_degree + 1):
            s_deg = t - q
            dim_next = u_dims[s_deg + 1]
            rows = []
            for subset in subsets[q]:
                for mono in monos[s_deg]:
                    row = {}
                    for r, gen in enumerate(subset):
                        face = subset[:r] + subset[r + 1:]
                        new_mono = tuple(sorted(mono + (gen,)))
                        col = sub_index[face] * dim_next + index[s_deg + 1][new_mono]
                        # the degree-one image of a deleted cell generator
                        # is minus the generator
                        coeff = -((-1) ** r)
                        row[col] = row.get(col, 0) + coeff
                    rows.append({c: v for c, v in row.items() if v})
            blocks[(q, t)] = rows
    return GradedChainComplex(gen_ranks, u_dims, max_internal_degree, blocks)


def verify_resolution(complex_: GradedChainComplex):
    """Exact homology ranks of the augmented complex per (chain degree,
    internal degree).  All zero means the complex resolves the trivial
    module through the truncation."""
    out = {}
    for t in range(complex_.max_internal_degree + 1):
        for q in range(complex_.top + 1):
            dim_q = complex_.block_dim(q, t)
            if dim_q == 0 and complex_.block_dim(q + 1, t) == 0:
                continue
            rank_out = complex_.block_rank(q, t) if q >= 1 else 0
            rank_in = complex_.block_rank(q + 1, t) if q + 1 <= complex_.top else 0
            hom = dim_q - rank_out - rank_in
            if q == 0 and t == 0:
                hom -= 1
            if hom < 0:
                raise InternalInconsistency(
                    f"negative homology rank at (q={q}, t={t})"
                )
            out[(q, t)] = hom
    return out


def is_acyclic(complex_: GradedChainComplex) -> bool:
    return all(v == 0 for v in verify_resolution(complex_).values())


# ---------------------------------------------------------------------------
# generic sections of fiber-type arrangements

class SectionData(_Record):
    """An iterated generic section of an essential supersolvable arrangement,
    recorded by its rank.  The section itself is combinatorial: its Betti
    numbers are truncations, its graded homotopy data is computed from the
    ambient arrangement."""

    __slots__ = _fields = ("ambient", "section_rank")

    def __init__(self, ambient, section_rank):
        supersolvable_exponents(ambient)  # raises when not applicable
        if not 3 <= section_rank <= ambient.rank:
            raise RankOutOfRange(
                f"section rank must lie in [3, {ambient.rank}]"
            )
        _set(self, "ambient", ambient)
        _set(self, "section_rank", section_rank)

    @property
    def connectivity(self):
        """First degree with a nontrivial higher homotopy group."""
        return self.section_rank - 1


def homotopy_cokernel_ranks(section: SectionData, max_degree=5, work_bound=None):
    """Graded ranks of the first nontrivial higher homotopy group of the
    section, as the cokernel of the dual-cup differential out of chain
    degree p+2 of the ambient complex, desuspended so index 0 is the lowest
    graded piece.

    After the envelope's work bound, the rows to be built are counted
    against the same bound: the sum of b_(p+2) dim U_(i-1) over i, where
    dim U_k is h_k of the exponents beyond the first (the ambient is
    supersolvable), so nothing is built before the check.  A refusal names
    the stage `cokernel` and the count.  work_bound does not reach the
    lattice, which reads ARRTOP_WORK_BOUND only."""
    if section.section_rank >= section.ambient.rank:
        raise NotProperSection(
            "section rank equals the ambient rank; the complement is aspherical"
        )
    p = section.connectivity
    arr = section.ambient
    view = cohomology_view(arr, True)
    _check_work_bound("envelope", view.dim(1), max_degree, work_bound)
    tail = supersolvable_exponents(arr).exponents[1:]
    u_dims = series_of_rational(IntPolynomial.one(), linear_product(tail, -1),
                                max_degree).integer_coefficients()
    rows = view.dim(p + 2) * sum(u_dims[:max_degree])
    if rows > (bound := _work_bound(work_bound)):
        raise WorkBoundExceeded(f"cokernel: {rows} rows in chain degree "
                                f"{p + 2} exceed work bound {bound}")
    env = _envelope(arr, max_degree, True)
    ranks = []
    for i in range(max_degree + 1):
        target = view.dim(p + 1) * env.dim(i)
        t = p + 1 + i
        ranks.append(target - sparse_rank(_delta_rows(view, env, p + 2, t)))
    if ranks[0] != view.dim(p + 1):
        raise InternalInconsistency("lowest cokernel rank differs from b_(p+1)")
    return ranks


def homotopy_hilbert_series(exponents: ExponentData, connectivity, max_degree=5):
    """Closed-form Hilbert series of the graded first higher homotopy group
    of a rank-(connectivity+1) generic section, from the exponents alone.

    Returns ((numerator, denominator), series).  The numerator collects the
    ambient Betti numbers above the connectivity with alternating signs; the
    denominator is the product of (1 - d_i t) over the exponents beyond the
    first.  All coefficients must come out nonnegative integers.  The work,
    about max_degree^2, is refused above the work bound.
    """
    p = connectivity
    ell = exponents.length
    if not 2 <= p <= ell - 1:
        raise RankOutOfRange(f"connectivity must lie in [2, {ell - 1}]")
    _check_square_bound("series", "max_degree", max_degree)
    tail = exponents.exponents[1:]
    betti_poly = linear_product(tail, sign=1)
    num_coeffs = [
        (-1) ** m * betti_poly.coefficient(p + 1 + m)
        for m in range(max(0, betti_poly.degree - p))
    ]
    numerator = IntPolynomial(tuple(num_coeffs))
    denominator = linear_product(tail, sign=-1)
    series = series_of_rational(numerator, denominator, max_degree)
    try:
        ints = series.integer_coefficients()
    except ValueError as exc:
        raise NegativeCoefficient(str(exc))
    if any(c < 0 for c in ints):
        raise NegativeCoefficient(f"negative rank in {ints}")
    return (numerator, denominator), series


def consistency_suite(section: SectionData, max_degree=4,
                      exponents_override=None, work_bound=None):
    """Cross-check the interlocking closed-form identities for a section of
    a supersolvable arrangement.

    Checks, each to max_degree: the factorization of the ambient projective
    Poincare polynomial by the exponents; the Euler pairing between the
    cohomology series and the enveloping dimensions; and for proper sections
    the boundary-series identity tying the cokernel ranks to the Betti/
    enveloping data, plus the match between cokernel ranks and the
    closed-form series.  Failures are report entries, not exceptions.
    """
    arr = section.ambient
    exps = exponents_override or supersolvable_exponents(arr)
    report = []

    def record(name, diffs):
        first_bad = next((i for i, d in enumerate(diffs) if d), None)
        report.append(
            {
                "identity": name,
                "passed": first_bad is None,
                "first_failing_degree": first_bad,
            }
        )

    betti = projective_betti(arr)
    # exponent factorization of the projective Poincare polynomial
    factored = linear_product(exps.exponents[1:], sign=1)
    diffs = [
        poincare_projective(arr).coefficient(k) - factored.coefficient(k)
        for k in range(max_degree + 1)
    ]
    record("poincare_factorization", diffs)

    env = holonomy_envelope(arr, max_degree, projective=True,
                            work_bound=work_bound)
    u_series = [env.dim(k) for k in range(max_degree + 1)]
    signed_betti = [(-1) ** k * (betti[k] if k < len(betti) else 0)
                    for k in range(max_degree + 1)]
    pairing = series_mul(signed_betti, u_series, max_degree)
    diffs = [pairing[0] - 1] + pairing[1:]
    record("euler_pairing", diffs)

    if section.section_rank < arr.rank:
        p = section.connectivity
        coker = homotopy_cokernel_ranks(section, max_degree, work_bound=work_bound)
        # boundary series two ways: shifted cokernel ranks against the
        # alternating Betti/enveloping convolution
        conv = series_mul(signed_betti[:p + 1], u_series, max_degree)
        rhs = [(-1) ** (p + 1) * ((1 if k == 0 else 0) - conv[k])
               for k in range(max_degree + 1)]
        lhs = [coker[k - p - 1] if k > p else 0 for k in range(max_degree + 1)]
        record("boundary_series", [a - b for a, b in zip(lhs, rhs)])

        _, series = homotopy_hilbert_series(exps, p, max_degree)
        diffs = [a - b for a, b in zip(coker, series.integer_coefficients())]
        record("cokernel_matches_closed_form", diffs)
    return report


# ---------------------------------------------------------------------------
# rank series

def lcs_ranks(exponents: ExponentData, max_k):
    """Lower-central-series ranks phi_k with product of (1 - t^k)^phi_k equal
    to the product of (1 - d_i t).  Taking logarithms, the sum of k phi_k
    over the divisors k of m is the power sum p_m of the exponents, so
    phi_m is what the ranks below it leave of p_m, divided by m.  The work
    grows about as max_k^2 (the power sums have about max_k digits), so a
    max_k whose square exceeds the work bound (see errors._work_bound) is
    refused."""
    _check_square_bound("lcs", "max_k", max_k)
    # rest[m] is p_m less k phi_k for the divisors k of m found so far
    rest = [None] + [sum(d ** m for d in exponents.exponents)
                     for m in range(1, max_k + 1)]
    phis = []
    for m in range(1, max_k + 1):
        if rest[m] % m:
            raise NonIntegerRank(f"rank at level {m} is {rest[m]}/{m}")
        phis.append(rest[m] // m)
        for n in range(2 * m, max_k + 1, m):
            rest[n] -= rest[m]
    return phis


def _binomial_factor(q, e, s, max_degree):
    """(1 + s t^q)^e to max_degree, for an integer e (of either sign) and
    s = +-1: the coefficient c_m of t^(qm) is s^m binom(e, m), from
    c_(m+1) = c_m (e - m) s / (m + 1), an exact integer division."""
    out = [0] * (max_degree + 1)
    c = 1
    for m in range(max_degree // q + 1):
        out[q * m] = c
        c = c * (e - m) * s // (m + 1)
    return out


def expand_lcs_product(phis, max_degree):
    """Expand the product of (1 - t^k)^phi_k to max_degree (integer list),
    one binomial factor per k <= max_degree; a negative phi_k is the true
    power.  A phi_k that is not an integer raises NonIntegerRank; a
    negative max_degree, or one whose square exceeds the work bound, is
    refused."""
    _check_square_bound("lcs_product", "max_degree", max_degree)
    phis = int_entries(phis, NonIntegerRank, "LCS ranks must be integers")
    coeffs = [1] + [0] * max_degree
    for k, phi in enumerate(phis[:max_degree], start=1):
        coeffs = series_mul(_binomial_factor(k, phi, -1, max_degree), coeffs,
                            max_degree)
    return coeffs


def free_graded_lie_ranks(generator_dims, max_degree):
    """Degreewise ranks of the free graded Lie algebra on generators with
    the given dimensions (index 0 = degree 1), recovered from the tensor
    algebra series T = 1/(1 - g) by graded Poincare-Birkhoff-Witt
    inversion.

    Parity convention: a homotopy group in topological dimension q+1
    contributes to Lie degree q; odd Lie degrees contribute exterior
    factors (1 + t^q)^l, even ones symmetric factors (1 - t^q)^(-l).
    Either factor is 1 + l t^q + (higher terms), so with C the product of
    the factors below q, which agrees with T below q, l_q = T_q - C_q.
    A dimension that is not an integer, or a negative rank, raises
    NonIntegerRank; a negative max_degree, or one whose square exceeds
    the work bound, is refused.
    """
    _check_square_bound("lie", "max_degree", max_degree)
    g = int_entries(generator_dims, NonIntegerRank,
                    "generator dimensions must be integers")[:max_degree]
    tensor = [1]
    for n in range(1, max_degree + 1):
        tensor.append(sum(x * tensor[n - i] for i, x in enumerate(g[:n], 1)))
    current = [1] + [0] * max_degree
    ranks = []
    for q in range(1, max_degree + 1):
        l_q = tensor[q] - current[q]
        if l_q < 0:
            raise NonIntegerRank(f"rank at degree {q} came out {l_q}")
        ranks.append(l_q)
        s = 1 if q % 2 else -1
        current = series_mul(_binomial_factor(q, s * l_q, s, max_degree),
                             current, max_degree)
    return ranks


# ---------------------------------------------------------------------------
# asphericity / first nontrivial homotopy verdicts

VERDICT_ASPHERICAL = "ASPHERICAL"
VERDICT_FIRST_NONZERO = "FIRST_NONZERO"

MODULE_FREE = "GROUP_RING_FREE"
MODULE_NEVER_PROJECTIVE = "NEVER_PROJECTIVE"


class AsphericityReport(_Record):
    """Verdict of asphericity_test.  connectivity is the first degree with
    a nontrivial higher homotopy group, or INFINITE when there is none;
    verdict is VERDICT_ASPHERICAL or VERDICT_FIRST_NONZERO; genericity is
    the section's genericity level; module_status says whether that group
    is free over the group ring (MODULE_FREE, MODULE_NEVER_PROJECTIVE), or
    is None where the test does not tell."""

    __slots__ = _fields = ("connectivity", "verdict", "genericity",
                           "module_status")

    def __init__(self, connectivity, verdict, genericity=None, module_status=None):
        _set(self, "connectivity", connectivity)
        _set(self, "verdict", verdict)
        _set(self, "genericity", genericity)
        _set(self, "module_status", module_status)


def asphericity_test(section_or_arrangement, subspace=None) -> AsphericityReport:
    """Asphericity verdict for a generic section.

    Either pass a SectionData (combinatorial iterated section) or an
    (arrangement, subspace) pair.  The verdict is ASPHERICAL exactly when
    the connectivity order is infinite (the section is the whole space);
    otherwise the first nontrivial higher homotopy group sits at the
    connectivity order.  For iterated sections the report also says whether
    that module is free over the group ring (exactly when the section rank
    is one below the ambient rank) or can never be projective.
    """
    if subspace is None:
        section = section_or_arrangement
        if not isinstance(section, SectionData):
            raise FrameworkNotApplicable("need SectionData or (arrangement, subspace)")
        rank = section.ambient.rank
        if section.section_rank == rank:
            return AsphericityReport(INFINITE, VERDICT_ASPHERICAL, INFINITE, None)
        p = section.connectivity
        status = MODULE_FREE if section.section_rank == rank - 1 else MODULE_NEVER_PROJECTIVE
        return AsphericityReport(p, VERDICT_FIRST_NONZERO, p, status)

    arr = section_or_arrangement
    u = subspace
    k = genericity_level(arr, u)
    if k is INFINITE:
        return AsphericityReport(INFINITE, VERDICT_ASPHERICAL, INFINITE, None)
    if k < 2:
        raise FrameworkNotApplicable(
            f"section is only {k}-generic; the framework needs at least 2"
        )
    p = betti_agreement_order(arr, u)
    status = None
    if k == u.dim - 1:
        status = MODULE_FREE if u.dim == arr.rank - 1 else MODULE_NEVER_PROJECTIVE
    return AsphericityReport(p, VERDICT_FIRST_NONZERO, k, status)


# ---------------------------------------------------------------------------
# integer-coefficient audit

class _IntegralEnvelope(UEnvelope):
    """The holonomy quotient over Z, for integer_audit.  unit_split pivots
    on the +-1 leads, whose normal forms are integral, so the table is
    built as over Q; the other rows, carried onto the non-pivot columns,
    are lattice[k], and T_k/I_k is Z^dims[k] modulo them (T the tensor
    algebra on H_1 over Z, I the ideal of R)."""

    def _split(self, rows):
        return unit_split(rows)


def integer_audit(arr: Arrangement, max_degree=3, work_bound=None):
    """Certify that the graded data of this arrangement is torsion-free.

    For each tensor degree k up to max_degree, the Smith invariant factors
    of the holonomy ideal slice I_k inside T_k, the tensor power of
    dimension b1^k, must all be 1: then every enveloping-algebra slice,
    hence every block of the graded complex, is a free abelian group and
    the rational ranks are valid integrally.  No slice is built: T_k/I_k
    is Z^dims[k] modulo lattice[k] of _IntegralEnvelope, so slice k has
    rank b1^k - dims[k] + rank(lattice[k]) and the non-unit factors of
    lattice[k].  Each rank must equal b1^k - dim U_k of holonomy_envelope,
    or InternalInconsistency is raised.  The work bound refuses
    b1^max_degree, as for the envelope; work_bound does not reach the
    lattice, which reads ARRTOP_WORK_BOUND only.
    """
    view = cohomology_view(arr, True)
    b1 = view.dim(1)
    _check_work_bound("integer_audit", b1, max_degree, work_bound)
    rational = holonomy_envelope(arr, max_degree, work_bound=work_bound)
    env = _IntegralEnvelope(view, max_degree)
    slices = {}
    for k in range(2, max_degree + 1):
        factors = smith_invariant_factors(env.lattice[k])
        rank = b1 ** k - env.dims[k] + len(factors)
        if rank != (expected := b1 ** k - rational.dim(k)):
            raise InternalInconsistency(f"integer_audit: slice {k} has rank "
                                        f"{rank}, not b1^k - dim U_k = {expected}")
        nonunit = [f for f in factors if f != 1]
        slices[k] = {
            "rank": rank,
            "free_over_integers": not nonunit,
            "nonunit_factors": nonunit,
        }
    return {"free_over_integers": all(s["free_over_integers"]
                                      for s in slices.values()),
            "slices": slices}
