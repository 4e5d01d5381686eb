"""Central hyperplane arrangements over Q: normalization, intersection
lattice, Moebius function, characteristic / Poincare polynomials, sections
and genericity invariants.

An arrangement is stored as a reduced list of primitive integer covectors
(no zero form, no proportional pair) in a fixed ambient dimension; every
invariant in the package is derived from this single representation.
"""

from __future__ import annotations

import random
from functools import lru_cache, wraps
from itertools import combinations

from .errors import (
    EmptyArrangement,
    HyperplaneContainsSubspace,
    InternalInconsistency,
    NotEssential,
    NotL0Generic,
    NotSupersolvable,
    RankOutOfRange,
    SamplingFailed,
    WorkBoundExceeded,
    ZeroForm,
    _Record,
    _set,
    _work_bound,
)
from .exactalg import (
    IntPolynomial,
    SparseEchelon,
    _eliminate,
    _extend,
    _primitive,
    int_entries,
    int_rank,
    poly_divide_exact,
)


class _Infinite:
    """Distinguished sentinel for 'all genericity levels hold' (U = V).

    Compares strictly greater than every integer; not itself a number.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITE"

    def __gt__(self, other):
        return isinstance(other, int)

    def __ge__(self, other):
        return isinstance(other, int) or other is self

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __hash__(self):
        return hash("arrtop.INFINITE")


INFINITE = _Infinite()


class Arrangement(_Record):
    """Reduced central arrangement: primitive covectors, none proportional.

    labels and multiplicities are bookkeeping collected by normalize(); they
    do not take part in equality.  The hash is computed once: every cache
    of the package is keyed by arrangements.
    """

    _fields = ("ambient_dim", "forms", "labels", "multiplicities")
    __slots__ = _fields + ("_hash",)

    def __init__(self, ambient_dim, forms, labels=None, multiplicities=None):
        """Refuse what normalize() would not produce: no forms
        (EmptyArrangement), forms that are not a sequence, a non-integer
        ambient dimension or entry, a form of the wrong length, a zero form
        or a proportional pair (ZeroForm).  Forms need not be primitive."""
        if not forms:
            raise EmptyArrangement("no forms given")
        int_entries((ambient_dim,), ZeroForm, "ambient_dim is not an integer")
        try:
            rows = tuple(forms)
        except TypeError:
            raise ZeroForm("forms is not a sequence of forms") from None
        forms = tuple(
            int_entries(f, ZeroForm, f"form {i} has a non-integer entry")
            for i, f in enumerate(rows)
        )
        seen = {}
        for i, f in enumerate(forms):
            if len(f) != ambient_dim:
                raise ZeroForm(
                    f"form {i} has length {len(f)}, expected {ambient_dim}"
                )
            vec = _primitive(f)
            if vec is None:
                raise ZeroForm(f"form {i} is zero")
            if vec in seen:
                raise ZeroForm(f"forms {seen[vec]} and {i} are proportional")
            seen[vec] = i
        _set(self, "ambient_dim", ambient_dim)
        _set(self, "forms", forms)
        _set(self, "labels", labels)
        _set(self, "multiplicities", multiplicities)
        _set(self, "_hash", hash((ambient_dim, forms)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.ambient_dim, self.forms) == (other.ambient_dim, other.forms)
        return NotImplemented

    def __hash__(self):
        return self._hash

    @property
    def num_hyperplanes(self):
        return len(self.forms)

    @property
    def rank(self):
        return _form_rank(self.forms)

    def delete(self, index) -> "Arrangement":
        forms = self.forms[:index] + self.forms[index + 1:]
        if not forms:
            raise EmptyArrangement("deletion removed the last hyperplane")
        return Arrangement(self.ambient_dim, forms)


@lru_cache(maxsize=None)
def _form_rank(forms):
    return int_rank(forms)


def normalize(raw_forms, ambient_dim, labels=None, multiplicities=None) -> Arrangement:
    """Canonical reduced arrangement from raw integer covectors.

    Zero covectors are rejected; each form is scaled primitive with positive
    leading entry; proportional duplicates collapse (first occurrence wins,
    multiplicities accumulate).
    """
    if labels is not None and len(labels) != len(raw_forms):
        raise ZeroForm("labels length does not match forms")
    seen = {}
    order = []
    for i, raw in enumerate(raw_forms):
        if len(raw) != ambient_dim:
            raise ZeroForm(
                f"form {i} has length {len(raw)}, expected {ambient_dim}"
            )
        vec = _primitive(
            int_entries(raw, ZeroForm, f"form {i} has a non-integer entry")
        )
        if vec is None:
            raise ZeroForm(f"form {i} is zero")
        weight = multiplicities[i] if multiplicities is not None else 1
        if vec in seen:
            mult, label = seen[vec]
            seen[vec] = (mult + weight, label)
        else:
            seen[vec] = (weight, labels[i] if labels is not None else None)
            order.append(vec)
    mults = tuple(seen[v][0] for v in order)
    labs = tuple(seen[v][1] for v in order)
    return Arrangement(
        ambient_dim,
        tuple(order),
        labs if labels is not None else None,
        mults,
    )


# ---------------------------------------------------------------------------
# intersection lattice

class Flat(_Record):
    """Closed set of hyperplane indices together with its codimension."""

    __slots__ = _fields = ("hyperplanes", "codim")

    def __init__(self, hyperplanes, codim):
        _set(self, "hyperplanes", hyperplanes)
        _set(self, "codim", codim)


class IntersectionLattice:
    """All flats of a central arrangement with their Moebius values.

    Flats are identified with closed index sets, ordered by inclusion of
    those sets (equivalently reverse inclusion of subspaces).  The empty
    flat (the whole space) is the bottom element.  Flats are kept sorted by
    (codim, hyperplanes).  mobius maps each flat's hyperplane tuple to its
    Moebius value.  One bitmask per hyperplane, over the flats holding it,
    answers closures and subset ranks.  key, the tuple of the flats'
    hyperplane tuples in that order, names the ordered matroid: the flats
    determine every rank.
    """

    def __init__(self, flats, mobius):
        self.flats = tuple(sorted(flats, key=lambda f: (f.codim, f.hyperplanes)))
        self.key = tuple(f.hyperplanes for f in self.flats)
        self._by_codim = {}
        for f in self.flats:
            self._by_codim.setdefault(f.codim, []).append(f)
        # the top flat holds every hyperplane
        self._containing = [0] * len(self.flats[-1].hyperplanes)
        for k, f in enumerate(self.flats):
            for i in f.hyperplanes:
                self._containing[i] |= 1 << k
        self._mobius = dict(mobius)
        self._chain = None  # modular_chain's verdict, once walked
        self._poincare = None  # the central Poincare polynomial, once summed
        self._projective = None  # and the projective one, once divided
        self.first = (None, None)  # first_of_type's registry and answer

    @property
    def rank(self):
        return max(self._by_codim)

    def flats_of_codim(self, k):
        return tuple(self._by_codim.get(k, ()))

    def mobius(self, flat):
        return self._mobius[flat.hyperplanes]

    def leq(self, f1, f2):
        return set(f1.hyperplanes) <= set(f2.hyperplanes)

    @property
    def bottom(self):
        return self._by_codim[0][0]

    def _closure(self, subset):
        """Position of the closure of subset: flats are closed under
        intersection and sorted by codim, so it is the first flat holding
        every hyperplane of subset."""
        mask = -1
        for i in subset:
            mask &= self._containing[i]
        return (mask & -mask).bit_length() - 1

    def closure(self, subset) -> Flat:
        """Smallest flat holding every hyperplane of subset."""
        return self.flats[self._closure(subset)]

    def closure_codim(self, subset) -> int:
        """Rank of a set of hyperplane indices."""
        return self.closure(subset).codim

    def is_independent(self, subset) -> bool:
        return self.closure_codim(subset) == len(subset)

    def in_span(self, index, subset) -> bool:
        return self._containing[index] >> self._closure(subset) & 1 == 1

    def basis(self, flat):
        """codim(flat) independent hyperplanes of the flat, greedily in
        index order; a flat of exactly codim(flat) hyperplanes is its own
        basis, so every flat below the top of a generic arrangement."""
        if len(flat.hyperplanes) == flat.codim:
            return list(flat.hyperplanes)
        basis = []
        for i in flat.hyperplanes:
            if len(basis) == flat.codim:
                break
            if not self.in_span(i, basis):
                basis.append(i)
        return basis

    def modular_chain(self):
        """The flats X_l > ... > X_1 of _modular_chain, top first; raises
        NotSupersolvable with the level of the first interval that has no
        modular coatom.  Walked once per lattice, refusal included."""
        if self._chain is None:
            try:
                self._chain = _modular_chain(self)
            except NotSupersolvable as exc:
                self._chain = exc.level
        if isinstance(self._chain, int):
            raise NotSupersolvable(self._chain)
        return self._chain


def _is_modular(lat, closed, top, coatom):
    """Modularity of a coatom X of the interval [0, top] by the line
    criterion: a hyperplane of a geometric lattice is modular iff it meets
    every line (Oxley, Matroid Theory, 6.9).  A line with at most one atom
    outside X already holds an atom of X, so X is modular iff every two
    hyperplanes of top outside X span a line holding a hyperplane of X.
    That line is their closure in the lattice, which stays below top; the
    intersection of two closed index sets is closed, so each meet is
    checked against `closed`, the hyperplane tuples of the flats."""
    fs = set(coatom.hyperplanes)
    outside = [i for i in top.hyperplanes if i not in fs]
    for pair in combinations(outside, 2):
        meet = tuple(k for k in lat.closure(pair).hyperplanes if k in fs)
        if meet not in closed:
            raise InternalInconsistency("intersection of two flats is not a flat")
        if not meet:
            return False
    return True


def _modular_chain(lat):
    """A maximal chain of modular flats, walked down from the top flat:
    each X_(i-1) is the first modular coatom of [0, X_i] in the lattice's
    (codim, hyperplanes) order.  The interval below a flat is the lattice
    of the arrangement of its hyperplanes (Stanley, "Supersolvable
    lattices", Algebra Universalis 2, 1972), so no smaller lattice is
    built; a modular flat of a modular flat is modular in the lattice.

    The order puts the coatoms through hyperplane 0 first, so hyperplane 0
    stays in every X_i, hence in the bottom block X_1, exactly when each
    interval on the way has a modular coatom through it.  That can fail:
    with the lines y = 0, y = x, y = 2x - 2 first and the four lines x = c
    for c = 0, 1, 2, 3, only the point at infinity of the x = c lines is
    modular, so hyperplane 0 falls in the top block."""
    closed = {f.hyperplanes for f in lat.flats}
    top = lat.flats[-1]
    chain = [top]
    while top.codim > 1:
        below = set(top.hyperplanes)
        coatom = next((
            x for x in lat.flats_of_codim(top.codim - 1)
            if below.issuperset(x.hyperplanes)
            and _is_modular(lat, closed, top, x)
        ), None)
        if coatom is None:
            raise NotSupersolvable(top.codim)
        chain.append(coatom)
        top = coatom
    return tuple(chain)


def _count_flats(n, bound):
    """Refuse the n-th flat of a lattice when n exceeds the work bound."""
    if n > bound:
        raise WorkBoundExceeded(f"lattice: {n} flats exceed work bound {bound}")


@lru_cache(maxsize=None)
def intersection_lattice(arr: Arrangement) -> IntersectionLattice:
    """Enumerate flats cover by cover, with their Moebius values.

    Each flat X of the current frontier keeps, for every hyperplane j
    outside it, the primitive integer direction of form j modulo span(X),
    at full length and zero at the pivot columns of span(X).  The covers
    of X are the lines of V*/span(X) that forms span: the hyperplanes
    outside X sharing one direction, added to X, make one cover of codim
    codim(X) + 1 (Orlik-Terao, Arrangements of Hyperplanes, ch. 2).  A new
    cover's residuals are X's after one _eliminate step against that
    direction, so those zero at its leading column are shared.  Only the
    current and the next frontier hold residuals; a flat of codim rank - 1
    has one cover, the top flat, so it gets none.  Flats are counted as
    they are made, against the environment's work bound (stage
    `lattice`); a caller's `work_bound` argument does not reach here.

    Moebius values come from Weisner's theorem (Trans. AMS 38, 1935;
    Stanley, Enumerative Combinatorics I, 3.9): for an atom a below X,
    mu(X) = -sum mu(Y) over the flats Y covered by X that miss a.  With a
    the smallest hyperplane of X, each (flat, cover) pair met adds its
    term; a flat's value is complete before its own covers are met.
    """
    bound = _work_bound()
    rank = arr.rank
    flats = {(): 0}
    mobius = {(): 1}
    frontier = {(): {j: _primitive(f) for j, f in enumerate(arr.forms)}}
    for codim in range(1, rank):
        nxt = {}
        for flat, residuals in frontier.items():
            covers = {}
            for j, direction in residuals.items():
                covers.setdefault(direction, []).append(j)
            for direction, group in covers.items():
                cover = tuple(sorted(flat + tuple(group)))
                if cover not in flats:
                    flats[cover] = codim
                    mobius[cover] = 0
                    _count_flats(len(flats), bound)
                    if codim < rank - 1:
                        # the first nonzero entry's value first occurs at
                        # its column
                        col = direction.index(next(filter(None, direction)))
                        nxt[cover] = {
                            j: _eliminate(r, direction, col)
                            for j, r in residuals.items()
                            if r != direction
                        }
                # the flat misses the cover's smallest hyperplane
                if flat[:1] != cover[:1]:
                    mobius[cover] -= mobius[flat]
        frontier = nxt
    top = tuple(range(arr.num_hyperplanes))
    if top in flats or rank - 1 not in flats.values():
        raise InternalInconsistency(
            f"lattice enumeration does not reach codim {rank}, the arrangement rank"
        )
    flats[top] = rank
    _count_flats(len(flats), bound)
    mobius[top] = -sum(
        mobius[f] for f, c in flats.items() if c == rank - 1 and f[:1] != (0,)
    )
    return IntersectionLattice([Flat(s, c) for s, c in flats.items()], mobius)


_types = {}  # lattice key -> the first arrangement seen with it


def first_of_type(arr: Arrangement) -> Arrangement:
    """The first arrangement seen with arr's ordered matroid (its lattice's
    key).  The registry is read once per lattice, which keeps the answer
    with the registry it came from; first_of_type.cache_clear() starts a
    new registry, so every lattice reads it again."""
    lat = intersection_lattice(arr)
    registry, first = lat.first
    if registry is not _types:
        first = _types.setdefault(lat.key, arr)
        lat.first = (_types, first)
    return first


def _forget_types():
    global _types
    _types = {}


first_of_type.cache_clear = _forget_types


def matroid_cache(fn):
    """lru_cache for a function of an arrangement's ordered matroid (and
    further arguments): each call is keyed by first_of_type of its
    arrangement, so realizations of one matroid share one entry, built
    from the first of them.  The wrapper exposes cache_info() and
    cache_clear()."""
    cached = lru_cache(maxsize=None)(fn)

    @wraps(fn)
    def wrapper(arr, *args, **kwargs):
        return cached(first_of_type(arr), *args, **kwargs)

    wrapper.cache_info = cached.cache_info
    wrapper.cache_clear = cached.cache_clear
    return wrapper


def poincare_central(arr: Arrangement) -> IntPolynomial:
    """Poincare polynomial of the central complement: sum |mu(X)| t^codim,
    summed once per lattice and kept there."""
    lat = intersection_lattice(arr)
    if lat._poincare is None:
        coeffs = [0] * (lat.rank + 1)
        for f in lat.flats:
            coeffs[f.codim] += abs(lat.mobius(f))
        lat._poincare = IntPolynomial(tuple(coeffs))
    return lat._poincare


def poincare_projective(arr: Arrangement) -> IntPolynomial:
    """Poincare polynomial of the projective complement, divided once per
    lattice and kept there.

    The central polynomial always carries an exact (1+t) factor; the
    quotient is the projective one.
    """
    lat = intersection_lattice(arr)
    if lat._projective is None:
        lat._projective = poly_divide_exact(poincare_central(arr),
                                            IntPolynomial((1, 1)))
    return lat._projective


def characteristic_polynomial(arr: Arrangement) -> IntPolynomial:
    """chi(t) = sum mu(X) t^(dim X), over the ambient space."""
    lat = intersection_lattice(arr)
    coeffs = [0] * (arr.ambient_dim + 1)
    for f in lat.flats:
        coeffs[arr.ambient_dim - f.codim] += lat.mobius(f)
    return IntPolynomial(tuple(coeffs))


def projective_betti(arr: Arrangement):
    return list(poincare_projective(arr).coefficients)


def is_essential(arr: Arrangement) -> bool:
    return arr.rank == arr.ambient_dim


def essentialize(arr: Arrangement) -> Arrangement:
    """Quotient away the common intersection of all hyperplanes.

    Restricting every form to the coordinate subspace spanned by the pivot
    columns of the form matrix is injective on the row span, so all subset
    ranks (hence the lattice) are preserved.  A column is a pivot when it
    is independent of the columns before it.
    """
    if is_essential(arr):
        return arr
    ech = SparseEchelon()
    pivots = [
        j for j in range(arr.ambient_dim)
        if ech.insert({i: f[j] for i, f in enumerate(arr.forms) if f[j]})
    ]
    new_forms = [tuple(f[j] for j in pivots) for f in arr.forms]
    return normalize(new_forms, len(pivots))


def restrict_to_hyperplane(arr: Arrangement, index) -> Arrangement:
    """Arrangement induced on one of its own hyperplanes."""
    from .exactalg import covector_kernel_basis

    basis = covector_kernel_basis(arr.forms[index])
    rows = []
    for i, f in enumerate(arr.forms):
        if i == index:
            continue
        rows.append(tuple(sum(a * b for a, b in zip(f, v)) for v in basis))
    return normalize(rows, len(basis))


# ---------------------------------------------------------------------------
# subspaces and genericity

class Subspace(_Record):
    """Integer-spanned subspace given by an independent basis."""

    __slots__ = _fields = ("basis",)

    def __init__(self, basis):
        basis = tuple(
            int_entries(v, ZeroForm, "subspace basis has a non-integer entry")
            for v in basis
        )
        _set(self, "basis", basis)
        if not basis:
            raise ZeroForm("subspace needs at least one basis vector")
        if len({len(v) for v in basis}) != 1:
            raise ZeroForm("subspace basis vectors have unequal lengths")
        if int_rank(basis) != len(basis):
            raise ZeroForm("subspace basis vectors are dependent")

    @property
    def dim(self):
        return len(self.basis)

    @property
    def ambient_dim(self):
        return len(self.basis[0])


def _check_ambient(arr: Arrangement, u: Subspace):
    if u.ambient_dim != arr.ambient_dim:
        raise ZeroForm("subspace lives in the wrong ambient dimension")


def _restricted_forms(arr: Arrangement, u: Subspace):
    _check_ambient(arr, u)
    return [
        tuple(sum(a * b for a, b in zip(form, v)) for v in u.basis)
        for form in arr.forms
    ]


def restrict_to_subspace(arr: Arrangement, u: Subspace) -> Arrangement:
    """Arrangement cut out on the subspace; proportional traces collapse."""
    rows = _restricted_forms(arr, u)
    for i, r in enumerate(rows):
        if not any(r):
            raise HyperplaneContainsSubspace(i)
    return normalize(rows, u.dim)


def is_lattice_generic(arr: Arrangement, u: Subspace, level) -> bool:
    """True iff every flat of codim <= level+1 meets the subspace U with the
    same codimension.

    A flat X keeps its codimension on U iff span(X) meets the annihilator
    of U only in 0, that is iff the forms of X, restricted to U, span a
    space of dimension codim X.  Spans only grow up the lattice, and in a
    geometric lattice every flat of codim <= level+1 lies below one of
    codim exactly level+1 (one exists, as level < rank), so only those are
    tested.  Restriction is linear, so the restricted span of X is that of
    any basis of X: codim X independent hyperplanes of X, read off the
    lattice.  Their restricted forms are tested for independence by the
    lattice's _eliminate step (see _extend).  Bases are greedy in index
    order, so flats share prefixes, and each prefix is reduced once.
    """
    if not 0 <= level < arr.rank:
        raise RankOutOfRange(f"level must lie in [0, rank), got {level}")
    restricted = [_primitive(r) for r in _restricted_forms(arr, u)]
    if None in restricted:
        # a hyperplane holding U: its flat of codim 1 drops to codim 0
        return False
    lat = intersection_lattice(arr)
    reduced = {}  # basis prefix -> the _extend pivots of its rows
    for flat in lat.flats_of_codim(level + 1):
        basis = tuple(lat.basis(flat))
        pivots = ()
        for m in range(1, len(basis) + 1):
            prefix = basis[:m]
            if prefix in reduced:
                pivots = reduced[prefix]
                continue
            pivots = _extend(pivots, restricted[basis[m - 1]])
            if pivots is None:
                return False
            reduced[prefix] = pivots
    return True


def genericity_level(arr: Arrangement, u: Subspace):
    """Largest level of lattice genericity; INFINITE when the subspace is
    the whole space."""
    _check_ambient(arr, u)
    if u.dim == arr.ambient_dim:
        return INFINITE
    if not is_lattice_generic(arr, u, 0):
        raise NotL0Generic("a hyperplane contains the subspace")
    best = 0
    for level in range(1, arr.rank):
        if is_lattice_generic(arr, u, level):
            best = level
        else:
            break
    return best


def betti_agreement_order(arr: Arrangement, u: Subspace):
    """Largest q such that the projective Betti numbers of the arrangement
    and of its restriction agree in all degrees <= q; INFINITE if they agree
    everywhere."""
    b_full = projective_betti(arr)
    b_rest = projective_betti(restrict_to_subspace(arr, u))
    n = max(len(b_full), len(b_rest))
    b_full += [0] * (n - len(b_full))
    b_rest += [0] * (n - len(b_rest))
    if b_full == b_rest:
        return INFINITE
    q = -1
    for i in range(n):
        if b_full[i] != b_rest[i]:
            break
        q = i
    return q


def generic_section_betti(arr: Arrangement, section_rank):
    """Betti numbers of an iterated generic hyperplane section of the given
    rank, computed combinatorially as truncation of the projective Betti
    numbers (exact; no subspace needs to be sampled)."""
    if not is_essential(arr):
        raise NotEssential("generic sections are defined for essential arrangements")
    if not 1 <= section_rank <= arr.rank:
        raise RankOutOfRange(
            f"section rank must lie in [1, {arr.rank}], got {section_rank}"
        )
    betti = projective_betti(arr)
    return betti[:section_rank]


# ---------------------------------------------------------------------------
# seeded generic subspace sampling

def sample_generic_subspace(arr: Arrangement, dim, seed, level=None) -> Subspace:
    """Deterministic rejection sampling of a lattice-generic subspace.

    Genericity is an open dense condition; integer bases drawn from a seeded
    generator and validated by is_lattice_generic realize it constructively.
    The required level defaults to the strongest one a proper subspace of
    this dimension can satisfy.
    """
    if not 1 <= dim <= arr.ambient_dim:
        raise RankOutOfRange(f"subspace dimension {dim} out of range")
    if level is None:
        level = min(dim, arr.rank, arr.ambient_dim - 1) - 1
    if 0 <= level < arr.rank and level + 1 > dim:
        # forms restricted to the subspace have rank at most dim, so a flat
        # of codim level + 1 (one exists, as level < rank) can never keep
        # its codimension
        raise SamplingFailed(
            f"no {dim}-dimensional subspace can be generic at level {level}: "
            f"flats of codim {level + 1} exceed its dimension"
        )
    rng = random.Random(seed)
    bound = 3
    attempts = 1000
    for attempt in range(attempts):
        if attempt and attempt % 50 == 0:
            bound += 2
        vecs = [
            tuple(rng.randint(-bound, bound) for _ in range(arr.ambient_dim))
            for _ in range(dim)
        ]
        try:
            u = Subspace(tuple(vecs))
        except ZeroForm:  # dependent: draw again
            continue
        if is_lattice_generic(arr, u, level):
            return u
    raise SamplingFailed(
        f"no {dim}-dimensional subspace generic at level {level} found in "
        f"{attempts} attempts"
    )
