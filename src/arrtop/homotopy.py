"""Associated-graded homotopy data of arrangement complements.

Everything lives at the level of the augmentation-ideal filtration of the
group ring: the graded equivariant chain complex of the universal cover has
free blocks H_q (x) U, with U the enveloping algebra of the holonomy Lie
algebra and differentials the signed duals of cup multiplication.  For
fiber-type (supersolvable) arrangements that complex resolves the trivial
module; for sufficiently generic sections of them, the cokernel of the top
visible differential computes the graded pieces of the first nontrivial
higher homotopy group, with a closed-form Hilbert series in terms of the
exponents.  This module builds the complexes, verifies exactness degree by
degree, and cross-checks the paired closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement

from .arrangement import (
    INFINITE,
    Arrangement,
    betti_agreement_order,
    genericity_level,
    intersection_lattice,
    is_essential,
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
)
from .exactalg import (
    IntPolynomial,
    int_entries,
    linear_product,
    series_inverse,
    series_mul,
    series_of_rational,
    smith_invariant_factors,
    sparse_compose,
    sparse_rank,
    sub_scaled,
)
from .oscohomology import (
    _check_work_bound,
    _work_bound,
    cohomology_view,
    holonomy_envelope,
    reduced_diagonal,
)


def minimal_cell_counts(arr: Arrangement, central=False):
    """Cell counts of a minimal CW-structure on the complement: they equal
    the Betti numbers (projective by default, coned/central on request)."""
    if central:
        return list(poincare_central(arr).coefficients)
    return projective_betti(arr)


# ---------------------------------------------------------------------------
# supersolvable recognition via modular coatom chains

@dataclass(frozen=True)
class ExponentData:
    """Exponents of a supersolvable arrangement, ascending, first entry 1."""

    exponents: tuple

    def __post_init__(self):
        exps = int_entries(
            self.exponents, NonIntegerRank, "exponents must be positive integers"
        )
        object.__setattr__(self, "exponents", exps)
        if not exps or any(x < 1 for x in exps):
            raise NonIntegerRank("exponents must be positive integers")
        if exps[0] != 1:
            raise NonIntegerRank("the first exponent is always 1")

    @property
    def length(self):
        return len(self.exponents)


def _is_modular(lat, closed, coatom):
    """Modularity of a coatom X by the line criterion: a hyperplane of a
    geometric lattice is modular iff it meets every line (Oxley, Matroid
    Theory, 6.9).  A line with at most one atom outside X already holds an
    atom of X, so X is modular iff every two hyperplanes outside X span a
    line holding a hyperplane of X.  That line is their closure in the
    lattice; the intersection of two closed index sets is closed, so each
    meet is checked against `closed`, the hyperplane tuples of the flats."""
    fs = set(coatom.hyperplanes)
    # the top flat holds every hyperplane
    outside = [i for i in lat.flats[-1].hyperplanes if i not in fs]
    for pair in combinations(outside, 2):
        meet = tuple(k for k in lat.closure(pair).hyperplanes if k in fs)
        if meet not in closed:
            raise InternalInconsistency("intersection of two flats is not a flat")
        if not meet:
            return False
    return True


def _chain_exponents(sub: Arrangement):
    r = sub.rank
    if r == 1:
        return [sub.num_hyperplanes]
    lat = intersection_lattice(sub)
    closed = {f.hyperplanes for f in lat.flats}
    for coatom in lat.flats_of_codim(r - 1):
        if _is_modular(lat, closed, coatom):
            local = Arrangement(
                sub.ambient_dim, tuple(sub.forms[i] for i in coatom.hyperplanes)
            )
            exps = _chain_exponents(local)
            exps.append(sub.num_hyperplanes - local.num_hyperplanes)
            return exps
    raise NotSupersolvable(r)


@lru_cache(maxsize=None)
def supersolvable_exponents(arr: Arrangement) -> ExponentData:
    """Exponents read off a maximal modular chain through the first
    modular coatom of each interval.  Raises NotSupersolvable with the rank
    level of the first interval that has no modular coatom.

    Other branches would end the same way: two modular coatoms X1, X2 of a
    rank-r lattice meet in a modular flat of rank r - 2 (Brylawski, Trans.
    AMS 203, 1975), a modular coatom of both [0, X1] and [0, X2], so by
    induction on the rank every branch reaches the same verdict and level.
    """
    if not is_essential(arr):
        raise NotEssential("supersolvable recognition expects an essential arrangement")
    exps = sorted(_chain_exponents(arr))
    if sum(exps) != arr.num_hyperplanes:
        raise InternalInconsistency("exponents do not sum to the hyperplane count")
    if linear_product(exps) != poincare_central(arr):
        raise InternalInconsistency(
            "exponent factorization disagrees with the Poincare polynomial"
        )
    return ExponentData(tuple(exps))


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
    """

    def __init__(self, generator_ranks, u_dims, max_internal_degree, blocks):
        self.generator_ranks = tuple(generator_ranks)
        self.u_dims = tuple(u_dims)
        self.max_internal_degree = max_internal_degree
        self.blocks = blocks
        self._rank_cache = {}

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
        key = (q, t)
        r = self._rank_cache.get(key)
        if r is None:
            r = sparse_rank(self.block(q, t))
            self._rank_cache[key] = r
        return r

    def check_square_zero(self):
        for (q, t), rows in self.blocks.items():
            nxt = self.blocks.get((q - 1, t))
            if not nxt:
                continue
            if any(sparse_compose(rows, nxt)):
                raise InternalInconsistency(
                    f"differential square nonzero at (q={q}, t={t})"
                )


def _delta_rows(view, env, q, t, sign=1, left=False):
    """Differential block H_q (x) U^(t-q) -> H_(q-1) (x) U^(t-q+1) assembled
    from the dual cup structure extended by generator multiplication; with
    left set, the mirror block U (x) H_q -> U (x) H_(q-1) from the left cup
    action and right multiplication."""
    s = t - q
    dim_q = view.dim(q)
    if dim_q == 0 or s < 0 or env.dim(s) == 0:
        return []
    # transpose once: for each H_q basis index, the (T, j, coeff) triples
    # with T in H_(q-1) and j in H_1
    transposed = [[] for _ in range(dim_q)]
    for (a, b), entry in view.cup_rows(q, left).items():
        tt, j = (b, a) if left else (a, b)
        for r, c in entry.items():
            transposed[r].append((tt, j, sign * c))
    dim_low, dim_u_next = view.dim(q - 1), env.dim(s + 1)
    if left:
        sources = [(r, w) for w in range(env.dim(s)) for r in range(dim_q)]
    else:
        sources = [(r, w) for r in range(dim_q) for w in range(env.dim(s))]
    rows = []
    for r, w in sources:
        parts = {}  # T -> coordinates in U^(s+1)
        for tt, j, c in transposed[r]:
            part = parts.setdefault(tt, {})
            sub_scaled(part, env._product(j, s, w, left=not left), -c)
        rows.append({
            w2 * dim_low + tt if left else tt * dim_u_next + w2: f
            for tt, part in parts.items()
            for w2, f in part.items()
        })
    return rows


def _assemble_complex(arr, max_internal_degree, work_bound, left):
    view = cohomology_view(arr, True)
    env = holonomy_envelope(arr, max_internal_degree, projective=True,
                            work_bound=work_bound)
    blocks = {}
    for q in range(1, view.top + 1):
        sign = -1 if left else (-1) ** q
        for t in range(q, max_internal_degree + 1):
            rows = _delta_rows(view, env, q, t, sign, left)
            if rows:
                blocks[(q, t)] = rows
    complex_ = GradedChainComplex(
        view.betti, [env.dim(k) for k in range(max_internal_degree + 1)],
        max_internal_degree, blocks,
    )
    complex_.check_square_zero()
    return complex_


@lru_cache(maxsize=None)
def graded_complex(arr: Arrangement, max_internal_degree=4,
                   work_bound=None) -> GradedChainComplex:
    """Associated-graded equivariant chain complex of the projective
    complement, blocks H_q (x) U with differentials (-1)^q times the dual
    cup map, verified to square to zero in every internal degree."""
    return _assemble_complex(arr, max_internal_degree, work_bound, left=False)


def left_graded_complex(arr: Arrangement, max_internal_degree=4,
                        work_bound=None) -> GradedChainComplex:
    """Mirror complex U (x) H_q with differentials minus the dual of the
    left cup action; used to cross-check homology against the right-handed
    complex."""
    return _assemble_complex(arr, max_internal_degree, work_bound, left=True)


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
    complex_ = GradedChainComplex(gen_ranks, u_dims, max_internal_degree, blocks)
    complex_.check_square_zero()
    return complex_


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

@dataclass(frozen=True)
class SectionData:
    """An iterated generic section of an essential supersolvable arrangement,
    recorded by its rank.  The section itself is combinatorial: its Betti
    numbers are truncations, its graded homotopy data is computed from the
    ambient arrangement."""

    ambient: Arrangement
    section_rank: int

    def __post_init__(self):
        supersolvable_exponents(self.ambient)  # raises when not applicable
        if not 3 <= self.section_rank <= self.ambient.rank:
            raise RankOutOfRange(
                f"section rank must lie in [3, {self.ambient.rank}]"
            )

    @property
    def connectivity(self):
        """First degree with a nontrivial higher homotopy group."""
        return self.section_rank - 1


def homotopy_cokernel_ranks(section: SectionData, max_degree=5, work_bound=None):
    """Graded ranks of the first nontrivial higher homotopy group of the
    section, as the cokernel of the dual-cup differential out of chain
    degree p+2 of the ambient complex, desuspended so index 0 is the lowest
    graded piece."""
    if section.section_rank >= section.ambient.rank:
        raise NotProperSection(
            "section rank equals the ambient rank; the complement is aspherical"
        )
    p = section.connectivity
    arr = section.ambient
    view = cohomology_view(arr, True)
    env = holonomy_envelope(arr, max_degree, projective=True,
                            work_bound=work_bound)
    ranks = []
    for i in range(max_degree + 1):
        target = view.dim(p + 1) * env.dim(i)
        t = p + 1 + i
        if p + 2 <= view.top and i >= 1:
            rows = _delta_rows(view, env, p + 2, t)
            rank = sparse_rank(rows)
        else:
            rank = 0
        ranks.append(target - rank)
    if ranks[0] != view.dim(p + 1):
        raise InternalInconsistency("lowest cokernel rank differs from b_(p+1)")
    return ranks


def homotopy_hilbert_series(exponents: ExponentData, connectivity, max_degree=5):
    """Closed-form Hilbert series of the graded first higher homotopy group
    of a rank-(connectivity+1) generic section, from the exponents alone.

    Returns ((numerator, denominator), series).  The numerator collects the
    ambient Betti numbers above the connectivity with alternating signs; the
    denominator is the product of (1 - d_i t) over the exponents beyond the
    first.  All coefficients must come out nonnegative integers.
    """
    p = connectivity
    ell = exponents.length
    if not 2 <= p <= ell - 1:
        raise RankOutOfRange(f"connectivity must lie in [2, {ell - 1}]")
    if max_degree < 0:
        raise RankOutOfRange("max_degree must be nonnegative")
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
    u_series = [Fraction(env.dim(k)) for k in range(max_degree + 1)]
    signed_betti = [
        Fraction((-1) ** k * (betti[k] if k < len(betti) else 0))
        for k in range(max_degree + 1)
    ]
    pairing = series_mul(signed_betti, u_series, max_degree)
    diffs = [pairing[0] - 1] + pairing[1:]
    record("euler_pairing", diffs)

    if section.section_rank < arr.rank:
        p = section.connectivity
        coker = homotopy_cokernel_ranks(section, max_degree, work_bound=work_bound)
        # boundary series two ways: shifted cokernel ranks against the
        # alternating Betti/enveloping convolution
        truncated_betti = [
            Fraction((-1) ** k * (betti[k] if k < len(betti) else 0))
            if k <= p
            else Fraction(0)
            for k in range(max_degree + 1)
        ]
        conv = series_mul(truncated_betti, u_series, max_degree)
        rhs = [Fraction((-1) ** (p + 1)) * ((1 if k == 0 else 0) - conv[k])
               for k in range(max_degree + 1)]
        lhs = [
            Fraction(coker[k - (p + 1)]) if k >= p + 1 else Fraction(0)
            for k in range(max_degree + 1)
        ]
        record("boundary_series", [a - b for a, b in zip(lhs, rhs)])

        _, series = homotopy_hilbert_series(exps, p, max_degree)
        diffs = [
            Fraction(coker[i]) - series.coefficient(i)
            for i in range(max_degree + 1)
        ]
        record("cokernel_matches_closed_form", diffs)
    return report


# ---------------------------------------------------------------------------
# rank series

def _moebius_mu(n):
    if n == 1:
        return 1
    out = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    if m > 1:
        out = -out
    return out


def lcs_ranks(exponents: ExponentData, max_k):
    """Lower-central-series ranks phi_k with product of (1 - t^k)^phi_k equal
    to the product of (1 - d_i t), by power-sum Moebius inversion.  The
    work grows about as max_k^2, so a max_k whose square exceeds the work
    bound (see oscohomology._work_bound) is refused."""
    if max_k < 0:
        raise RankOutOfRange("max_k must be nonnegative")
    bound = _work_bound()
    if max_k ** 2 > bound:
        raise WorkBoundExceeded(
            f"lcs: max_k^2 = {max_k}^2 exceeds work bound {bound}"
        )
    phis = []
    exps = exponents.exponents
    for m in range(1, max_k + 1):
        acc = 0
        for k in range(1, m + 1):
            if m % k == 0:
                acc += _moebius_mu(m // k) * sum(d ** k for d in exps)
        if acc % m:
            raise NonIntegerRank(f"rank at level {m} is {acc}/{m}")
        phis.append(acc // m)
    return phis


def expand_lcs_product(phis, max_degree):
    """Expand the product of (1 - t^k)^phi_k to max_degree (integer list)."""
    coeffs = [Fraction(1)] + [Fraction(0)] * max_degree
    for k, phi in enumerate(phis, start=1):
        base = [Fraction(1)] + [Fraction(0)] * max_degree
        if k <= max_degree:
            base[k] = Fraction(-1)
        for _ in range(phi):
            coeffs = series_mul(coeffs, base, max_degree)
    return [int(c) for c in coeffs]


def free_graded_lie_ranks(generator_dims, max_degree):
    """Degreewise ranks of the free graded Lie algebra on generators with
    the given dimensions (index 0 = degree 1), recovered from the tensor
    algebra series by graded Poincare-Birkhoff-Witt inversion.

    Parity convention: a homotopy group in topological dimension q+1
    contributes to Lie degree q; odd Lie degrees contribute exterior
    factors (1 + t^q)^l, even ones symmetric factors (1 - t^q)^(-l).
    """
    g = [Fraction(0)] * (max_degree + 1)
    for i, dim in enumerate(generator_dims):
        deg = i + 1
        if deg <= max_degree:
            g[deg] = Fraction(dim)
    one_minus_g = [Fraction(1)] + [-x for x in g[1:]]
    target = series_inverse(one_minus_g, max_degree)
    current = [Fraction(1)] + [Fraction(0)] * max_degree
    ranks = []
    for q in range(1, max_degree + 1):
        quotient = series_mul(target, series_inverse(current, max_degree), q)
        l_q = quotient[q]
        if l_q.denominator != 1 or l_q < 0:
            raise NonIntegerRank(f"rank at degree {q} came out {l_q}")
        l_q = l_q.numerator
        ranks.append(l_q)
        if l_q:
            if q % 2:
                factor = [Fraction(1)] + [Fraction(0)] * max_degree
                if q <= max_degree:
                    factor[q] = Fraction(1)
                for _ in range(l_q):
                    current = series_mul(current, factor, max_degree)
            else:
                base = [Fraction(1)] + [Fraction(0)] * max_degree
                if q <= max_degree:
                    base[q] = Fraction(-1)
                inv = series_inverse(base, max_degree)
                for _ in range(l_q):
                    current = series_mul(current, inv, max_degree)
    return ranks


# ---------------------------------------------------------------------------
# asphericity / first nontrivial homotopy verdicts

VERDICT_ASPHERICAL = "ASPHERICAL"
VERDICT_FIRST_NONZERO = "FIRST_NONZERO"

MODULE_FREE = "GROUP_RING_FREE"
MODULE_NEVER_PROJECTIVE = "NEVER_PROJECTIVE"


@dataclass(frozen=True)
class AsphericityReport:
    connectivity: object  # int or INFINITE
    verdict: str
    genericity: object = None
    module_status: str = None


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

def integer_audit(arr: Arrangement, max_degree=3, work_bound=None):
    """Certify that the graded data of this arrangement is torsion-free.

    For each tensor degree up to max_degree, the Smith invariant factors of
    the holonomy ideal slice must all be 1: then every enveloping-algebra
    slice, hence every block of the graded complex, is a free abelian group
    and the rational ranks are valid integrally.
    """
    b1 = cohomology_view(arr, True).dim(1)
    _check_work_bound(b1, max_degree, work_bound)
    relations = reduced_diagonal(arr, projective=True).relation_basis
    slices = {}
    all_free = True
    for k in range(2, max_degree + 1):
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
                                col = (
                                    ((wl * b1 + i2) * b1 + j2) * right + wr
                                )
                                row[col] = v
                        rows.append(row)
        factors = smith_invariant_factors(rows)
        free = all(f == 1 for f in factors)
        all_free = all_free and free
        slices[k] = {
            "rank": len(factors),
            "free_over_integers": free,
            "nonunit_factors": [f for f in factors if f != 1],
        }
    return {"free_over_integers": all_free, "slices": slices}
