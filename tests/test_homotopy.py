import copy
import hashlib
import os
import random
import subprocess
import sys

import pytest

from arrtop import (
    INFINITE,
    Arrangement,
    ExponentData,
    GradedChainComplex,
    SectionData,
    asphericity_test,
    consistency_suite,
    expand_lcs_product,
    free_graded_lie_ranks,
    graded_complex,
    holonomy_envelope,
    homotopy_cokernel_ranks,
    homotopy_hilbert_series,
    integer_audit,
    intersection_lattice,
    is_acyclic,
    is_essential,
    is_supersolvable,
    lcs_ranks,
    minimal_cell_counts,
    normalize,
    supersolvable_exponents,
    torus_graded_complex,
    verify_resolution,
)
from arrtop.cli import parse_arrangement
from arrtop.errors import (
    FrameworkNotApplicable,
    InternalInconsistency,
    NonIntegerRank,
    NotEssential,
    NotProperSection,
    NotSupersolvable,
    RankOutOfRange,
    WorkBoundExceeded,
)
from arrtop.exactalg import (
    SparseEchelon, linear_product, smith_invariant_factors, sparse_rank,
)
from arrtop import arrangement, homotopy, oscohomology
from arrtop.arrangement import _is_modular
from arrtop.oscohomology import CohomologyView, _delta_rows, cohomology_view
from arrtop import Subspace, genericity_level
from genutil import (
    audit_rows_oracle,
    boolean_arrangement,
    braid3,
    clear_arrangement_caches,
    clear_envelope_caches,
    braid_arrangement,
    direct_sum,
    expand_lcs_product_oracle,
    forget_types,
    free_graded_lie_ranks_oracle,
    generic4,
    lattice_oracle,
    lcs_ranks_oracle,
    mirror_complex_oracle,
    modular_oracle,
    near_pencil,
    rank_mod_p_oracle,
    relation_rows_oracle,
    seeded_rank3_corpus,
    unimodular_image,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_minimal_cell_counts():
    assert minimal_cell_counts(boolean_arrangement(3)) == [1, 2, 1]
    assert minimal_cell_counts(braid3()) == [1, 5, 6]
    assert minimal_cell_counts(normalize([[1, 0, 0]], 3)) == [1]
    assert minimal_cell_counts(braid3(), central=True) == [1, 6, 11, 6]


def test_supersolvable_exponents_boolean():
    for n in (2, 3, 4):
        exps = supersolvable_exponents(boolean_arrangement(n))
        assert exps.exponents == tuple([1] * n)


def test_supersolvable_exponents_braid():
    exps = supersolvable_exponents(braid3())
    assert exps.exponents == (1, 2, 3)


def test_supersolvable_exponents_near_pencil():
    exps = supersolvable_exponents(near_pencil(2))
    assert linear_product(exps.exponents) == linear_product([1, 1, 2])


def test_generic4_not_supersolvable():
    with pytest.raises(NotSupersolvable) as err:
        supersolvable_exponents(generic4())
    assert err.value.level == 3
    assert not is_supersolvable(generic4())


def braid4():
    forms = []
    for i in range(5):
        for j in range(i + 1, 5):
            v = [0] * 5
            v[i], v[j] = 1, -1
            forms.append(v)
    from arrtop import essentialize

    return essentialize(normalize(forms, 5))


def test_braid4_classical_values():
    arr = braid4()
    assert supersolvable_exponents(arr).exponents == (1, 2, 3, 4)
    assert lcs_ranks(supersolvable_exponents(arr), 4) == [10, 10, 30, 81]
    env = holonomy_envelope(arr, 3)
    assert env.dims == [1, 9, 55, 285]  # 1/((1-2t)(1-3t)(1-4t))
    assert is_acyclic(graded_complex(arr, 3))


def test_fan_times_line_is_supersolvable():
    # four concurrent lines crossed with a coordinate line: supersolvable
    # with exponents {1, 1, 3}, and the graded complex resolves
    fan = normalize(
        [[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, 2, 0], [0, 0, 1]], 3
    )
    exps = supersolvable_exponents(fan)
    assert exps.exponents == (1, 1, 3)
    env = holonomy_envelope(fan, 3)
    assert env.dims == [1, 4, 13, 40]  # 1/((1-t)(1-3t))
    assert is_acyclic(graded_complex(fan, 4))


def _coatom_verdicts(arr):
    """(line criterion, full definition) for every coatom of arr."""
    closed, _ = lattice_oracle(arr.forms)
    lat = intersection_lattice(arr)
    assert {f.hyperplanes: f.codim for f in lat.flats} == closed
    flats = {f.hyperplanes for f in lat.flats}
    return [
        (_is_modular(lat, flats, lat.flats[-1], x),
         modular_oracle(closed, x.hyperplanes))
        for x in lat.flats_of_codim(arr.rank - 1)
    ]


def _interval_verdicts(arr):
    """(line criterion, full definition) for every coatom y of every
    interval [0, x] below a coatom x of arr, both read in the lattice of
    arr; the definition runs over the closed sets inside x."""
    closed, _ = lattice_oracle(arr.forms)
    lat = intersection_lattice(arr)
    flats = {f.hyperplanes for f in lat.flats}
    verdicts = []
    for x in lat.flats_of_codim(arr.rank - 1):
        inside = {s: c for s, c in closed.items() if set(s) <= set(x.hyperplanes)}
        for y in lat.flats_of_codim(arr.rank - 2):
            if y.hyperplanes in inside:
                verdicts.append((_is_modular(lat, flats, x, y),
                                 modular_oracle(inside, y.hyperplanes)))
    return verdicts


def test_coatom_modularity_matches_full_definition():
    corpus = seeded_rank3_corpus(2027, 50)
    assert any(arr.rank < arr.ambient_dim for arr in corpus)
    verdicts = []
    interval_verdicts = []
    for arr in corpus:
        verdicts += _coatom_verdicts(arr)
        interval_verdicts += _interval_verdicts(arr)
        # the sub-arrangements _chain_exponents recurses into: the
        # hyperplanes of one coatom, non-essential in the same ambient space
        lat = intersection_lattice(arr)
        for x in lat.flats_of_codim(arr.rank - 1):
            sub = Arrangement(
                arr.ambient_dim, tuple(arr.forms[i] for i in x.hyperplanes)
            )
            verdicts += _coatom_verdicts(sub)
    for found in (verdicts, interval_verdicts):
        for fast, full in found:
            assert fast == full
        assert any(full for _, full in found)
        assert not all(full for _, full in found)


def test_chain_asks_only_coatoms_of_each_interval(monkeypatch):
    """The chain walks down intervals [0, top] of the input's lattice and
    asks the line criterion only about coatoms of the interval it is in.
    A flat X of codim c - 1 outside [0, top] (codim c) would be refused
    anyway: X meets top in a flat Y of codim at most c - 2, some line of
    [0, top] misses Y, and the meet of that line with X lies in Y.  So
    asking about X only spends work."""
    asked = []

    def spy(lat, closed, top, coatom):
        asked.append((top, coatom))
        return _is_modular(lat, closed, top, coatom)

    monkeypatch.setattr(arrangement, "_is_modular", spy)
    corpus = [braid_arrangement(n) for n in (3, 4, 5, 6)]
    corpus += [direct_sum(generic4(), boolean_arrangement(2))]
    corpus += seeded_rank3_corpus(2028, 30)
    for arr in corpus:
        try:
            # the walker itself: the lattice keeps the verdict of its walk
            arrangement._modular_chain(intersection_lattice(arr))
        except NotSupersolvable:
            pass
    # every input has rank >= 3, so codim-2 tops lie below the lattice top
    assert any(top.codim == 2 for top, _ in asked)
    for top, coatom in asked:
        assert coatom.codim == top.codim - 1
        assert set(coatom.hyperplanes) <= set(top.hyperplanes)


def test_torus_complex_ranks_and_acyclicity():
    c1 = torus_graded_complex(1, 4)
    assert c1.generator_ranks == (1, 1)
    assert is_acyclic(c1)
    c2 = torus_graded_complex(2, 4)
    assert c2.generator_ranks == (1, 2, 1)
    hom = verify_resolution(c2)
    assert all(v == 0 for v in hom.values())
    for n in (3, 4):
        assert is_acyclic(torus_graded_complex(n, 5))


def test_graded_complex_boolean_matches_torus_blocks():
    n = 3
    torus = torus_graded_complex(n - 1, 4)
    arrangement_complex = graded_complex(boolean_arrangement(n), 4)
    assert arrangement_complex.generator_ranks == torus.generator_ranks
    assert arrangement_complex.u_dims == torus.u_dims
    for q in range(1, n):
        for t in range(q, 5):
            assert arrangement_complex.block_rank(q, t) == torus.block_rank(q, t)
    assert is_acyclic(arrangement_complex)


def test_graded_complex_braid_blocks():
    c = graded_complex(braid3(), 4)
    assert c.generator_ranks == (1, 5, 6)
    assert c.u_dims == (1, 5, 19, 65, 211)
    assert is_acyclic(c)


def test_graded_complex_rank_one():
    # b1 == 0: the envelope's general path builds empty degrees, with
    # empty relation blocks
    arr = normalize([[1, 0]], 2)
    c = graded_complex(arr, 3)
    assert c.generator_ranks == (1,)
    assert c.u_dims == (1, 0, 0, 0)
    assert not c.blocks
    assert verify_resolution(c) == {(0, 0): 0}
    env = holonomy_envelope(arr, 4)
    assert env.dims == [1, 0, 0, 0, 0]
    assert env.basis_words == [((),), (), (), (), ()]
    assert env.rewritten  # no rule, so nothing to resolve at degree 3
    assert integer_audit(arr, 4)["free_over_integers"]


def test_resolution_fails_for_generic4():
    c = graded_complex(generic4(), 5)
    hom = verify_resolution(c)
    nonzero = {k: v for k, v in hom.items() if v}
    assert nonzero
    # the failure sits at the top chain degree and quantifies the graded
    # first higher homotopy group of the Hattori section
    assert nonzero == {(2, 3): 1, (2, 4): 3, (2, 5): 6}


def test_left_and_right_complexes_same_homology():
    # boolean4 and near_pencil(2) are tests/data/hattori4 and nearpencil3;
    # the mirror complex is built from oracle cups and tensor products
    corpus = [(braid3(), 3), (generic4(), 3), (boolean_arrangement(4), 3),
              (near_pencil(2), 3), (braid3(), 5), (braid_arrangement(4), 3)]
    for arr, degree in corpus:
        mirror = mirror_complex_oracle(arr, degree)
        right = graded_complex(arr, degree)
        assert mirror.u_dims == right.u_dims
        assert verify_resolution(mirror) == verify_resolution(right)
        assert mirror.blocks.keys() == right.blocks.keys()
        for q, t in right.blocks:
            assert mirror.block_rank(q, t) == right.block_rank(q, t)


def test_blocks_taken_from_the_envelope_match_the_dual_cup_blocks():
    # block (1, t) of graded_complex is the envelope's table and block
    # (2, t) is built from it; they must be the dual cup blocks, block
    # (2, t) as assembled from reduced_diagonal's rows apart from the row
    # builder, and every rank, certified by leads or eliminated, must be
    # the block's; no rank is seeded
    names = ["boolean3", "braid3", "generic4", "hattori4", "nearpencil3",
             "pencil3"]
    corpus = [(parse_arrangement(os.path.join(DATA, n + ".json")), 5)
              for n in names]
    corpus += [(braid_arrangement(3), 5), (braid_arrangement(4), 4)]
    seeded = seeded_rank3_corpus(1313, 32)
    assert not all(map(is_essential, seeded))
    corpus += [(arr, 4) for arr in seeded]
    for arr, degree in corpus:
        complex_ = graded_complex(arr, degree)
        view = cohomology_view(arr, True)
        env = holonomy_envelope(arr, degree)
        for q in range(1, complex_.top + 1):
            for t in range(q, degree + 1):
                if q == 1:
                    assert (complex_.block(q, t)
                            == _delta_rows(view, env, q, t))
                elif q == 2:
                    assert (complex_.block(q, t)
                            == relation_rows_oracle(arr, env, t))
                assert (complex_.block_rank(q, t)
                        == sparse_rank(complex_.block(q, t)))


def _growth_snapshot(arr, degree, spelled):
    """Everything the envelope and the complex of one degree
    expose, asked with either spelling of the arguments."""
    if spelled:
        env = holonomy_envelope(arr, degree, projective=True, work_bound=None)
        complex_ = graded_complex(arr, max_internal_degree=degree, work_bound=None)
    else:
        env = holonomy_envelope(arr, degree)
        complex_ = graded_complex(arr, degree)
    products = {
        (j, k, w): env.generator_product(j, k, w)
        for k in range(degree) for w in range(env.dim(k))
        for j in range(env.b1)
    }
    ranks = {key: complex_.block_rank(*key) for key in complex_.blocks}
    return (env.max_degree, env.dims, env.basis_words, products, env.rewritten,
            complex_.u_dims, complex_.max_internal_degree,
            list(complex_.blocks.items()), ranks,
            verify_resolution(complex_))


def test_envelope_and_complex_grown_by_degree_equal_cold_builds():
    """Each envelope and complex is cached at its own degree, sharing the
    degrees already built on its view; whatever order the degrees are
    asked in, and however the arguments are spelled, each answer equals a
    build from cold caches."""
    names = ["boolean3", "braid3", "generic4", "hattori4", "nearpencil3",
             "pencil3"]
    corpus = [(parse_arrangement(os.path.join(DATA, n + ".json")), 5)
              for n in names]
    # braid A4 stops at degree 4, where its products are still cheap
    corpus += [(braid_arrangement(3), 5), (braid_arrangement(4), 4)]
    corpus += [(arr, 5) for arr in seeded_rank3_corpus(1414, 6)]
    for arr, top in corpus:
        cold = {}
        for degree in range(2, top + 1):
            clear_envelope_caches()
            cold[degree] = _growth_snapshot(arr, degree, spelled=False)
        for sequence in [(3, 5), (5, 3), (3, 4, 5), (4, 2, 5)]:
            for spelled in (False, True):
                clear_envelope_caches()
                for i, degree in enumerate(sequence):
                    degree = min(degree, top)
                    got = _growth_snapshot(arr, degree, spelled ^ bool(i % 2))
                    assert got == cold[degree], (arr, sequence, degree)


def test_capped_views_refuse_what_lies_above_their_degree():
    # a product above an envelope's degree is refused even when a larger
    # envelope is cached, and a complex built from an envelope has no rank
    # beyond its own degree
    arr = braid3()
    clear_envelope_caches()
    small_env, small = holonomy_envelope(arr, 3), graded_complex(arr, 3)
    large_env, large = holonomy_envelope(arr, 5), graded_complex(arr, 5)
    assert large_env.generator_product(0, 3, 0)
    with pytest.raises(RankOutOfRange):
        small_env.generator_product(0, 3, 0)
    with pytest.raises(RankOutOfRange):
        holonomy_envelope(arr, 2).generator_product(0, 2, 0)
    assert small_env.dims == large_env.dims[:4] and small_env.dim(4) == 0
    for q in range(1, small.top + 1):
        assert small.block_rank(q, 5) == 0 < large.block_rank(q, 5)
        assert small.block_rank(q, 4) == 0 < large.block_rank(q, 4)
    assert small.u_dims == large.u_dims[:4]
    assert set(small.blocks) == {key for key in large.blocks if key[1] <= 3}


def _complexes_in_order(arr, first, second, eliminated):
    """graded_complex at two degrees in that order from cold caches: the
    first call eliminates degrees 1 and 2 and rewrites the rest, the second
    eliminates nothing, as it shares the degrees the first built, and each
    complex holds the tables of the envelope of its own degree."""
    clear_envelope_caches()
    complexes = []
    for i, degree in enumerate((first, second)):
        eliminated.clear()
        complex_ = graded_complex(arr, degree)
        # degree 1 has no relation rows
        assert eliminated == ([] if i else [1, 2])
        # graded_complex's own spelling, so this is its cached envelope
        env = holonomy_envelope(arr, degree, projective=True, work_bound=None)
        assert env.rewritten
        for (q, t), rows in complex_.blocks.items():
            if q == 1:
                assert rows is env._left[t]
        complexes.append(complex_)
    return sorted(complexes, key=lambda c: c.max_internal_degree)


def test_complexes_of_two_degrees_share_their_lower_degrees(monkeypatch):
    # each cached complex holds the tables of the envelope of its own
    # degree, and in either order the second degree shares the blocks of
    # the first up to the lower degree, by reference: the envelope
    # eliminates no degree again
    eliminated = []
    eliminate = oscohomology.UEnvelope._eliminate

    def spy(self, k, rows):
        eliminated.append(k)
        return eliminate(self, k, rows)

    monkeypatch.setattr(oscohomology.UEnvelope, "_eliminate", spy)
    # boolean4 is tests/data/hattori4, with blocks at q = 3
    for arr in (braid3(), boolean_arrangement(4)):
        for first, second in ((3, 5), (5, 3)):
            small, large = _complexes_in_order(arr, first, second, eliminated)
            assert set(small.blocks) == {key for key in large.blocks
                                         if key[1] <= 3}
            for key, rows in small.blocks.items():
                assert rows is large.blocks[key]
                assert small.block_rank(*key) == large.block_rank(*key)
            assert small._rank_cache is not large._rank_cache
            assert any(q == 3 for q, _ in small.blocks) == (arr != braid3())
    monkeypatch.undo()
    clear_envelope_caches()


def test_cached_envelope_and_complex_are_unchanged_by_a_higher_degree():
    # nothing built at degree 5 (envelope, complex, cokernel) may change
    # the degree-3 envelope and complex already cached in the process
    arr = boolean_arrangement(4)
    clear_envelope_caches()
    env = holonomy_envelope(arr, 3, projective=True, work_bound=None)
    complex_ = graded_complex(arr, 3)
    verify_resolution(complex_)  # ranks every block, so the memo is full

    def snapshot():
        state = {k: v for k, v in vars(env).items() if k != "_view"}
        return copy.deepcopy((state, vars(complex_)))

    before = snapshot()
    holonomy_envelope(arr, 5)
    verify_resolution(graded_complex(arr, 5))
    homotopy_cokernel_ranks(SectionData(arr, 3), 5)
    assert snapshot() == before
    assert holonomy_envelope(arr, 3, projective=True, work_bound=None) is env
    assert graded_complex(arr, 3) is complex_
    clear_envelope_caches()


def test_a_higher_degree_is_unchanged_by_a_lower_one_built_after_it():
    # a lower envelope and complex made from a higher one's degrees hold
    # containers and a rank memo of their own
    arr = boolean_arrangement(4)
    clear_envelope_caches()
    env = holonomy_envelope(arr, 5)
    complex_ = graded_complex(arr, 5)

    def snapshot():
        state = {k: v for k, v in vars(env).items() if k != "_view"}
        return copy.deepcopy((state, vars(complex_)))

    before = snapshot()
    small_env = holonomy_envelope(arr, 3)
    small = graded_complex(arr, 3)
    verify_resolution(small)
    assert small_env.dims == env.dims[:4] and small_env.max_degree == 3
    assert small_env._left[3] is env._left[3]
    assert snapshot() == before
    clear_envelope_caches()


def _spy_builds(monkeypatch):
    """Record the envelope degrees built, the complex blocks built and the
    blocks composed by square-zero (by id of their rows)."""
    built, made, composed = [], [], []
    build = oscohomology.UEnvelope._build
    delta_rows = homotopy._delta_rows
    compose = homotopy.sparse_compose

    def spy_build(self, k):
        built.append(k)
        return build(self, k)

    def spy_delta_rows(view, env, q, t):
        made.append((q, t))
        return delta_rows(view, env, q, t)

    def spy_compose(rows, nxt):
        composed.append(id(rows))
        return compose(rows, nxt)

    monkeypatch.setattr(oscohomology.UEnvelope, "_build", spy_build)
    monkeypatch.setattr(homotopy, "_delta_rows", spy_delta_rows)
    monkeypatch.setattr(homotopy, "sparse_compose", spy_compose)
    return built, made, composed


def test_a_later_degree_builds_and_checks_only_what_it_misses(monkeypatch):
    # each request builds only the envelope degrees and the complex blocks
    # above those already built on the view, and square-zero composes each
    # block of a new internal degree exactly once; a lower request builds
    # and composes nothing
    built, made, composed = _spy_builds(monkeypatch)
    for arr in (braid3(), boolean_arrangement(4)):
        clear_envelope_caches()
        for degree, low in ((3, 0), (5, 3), (4, 5), (6, 5)):
            del built[:], made[:], composed[:]
            complex_ = graded_complex(arr, degree)
            new = [t for t in range(low + 1, degree + 1)]
            assert built == new, (arr, degree)
            assert made == [(q, t) for q in range(2, complex_.top + 1)
                            for t in range(q, degree + 1) if t in new]
            checked = [key for key in complex_.blocks
                       if key[1] in new and (key[0] - 1, key[1]) in complex_.blocks]
            assert sorted(composed) == sorted(id(complex_.blocks[key])
                                              for key in checked)
            assert checked or not new
    monkeypatch.undo()
    clear_envelope_caches()


def test_a_shared_complex_refuses_a_new_degree_that_does_not_square_to_zero(
        monkeypatch):
    # the degrees shared from a checked complex are not composed again, but
    # a new degree is: one sign flipped in its relation rows is refused
    arr = boolean_arrangement(4)
    clear_envelope_caches()
    graded_complex(arr, 3)
    delta_rows = homotopy._delta_rows

    def flipped(view, env, q, t):
        rows = delta_rows(view, env, q, t)
        if (q, t) == (2, 5):
            row = rows[0] = dict(rows[0])
            row[min(row)] = -row[min(row)]
        return rows

    monkeypatch.setattr(homotopy, "_delta_rows", flipped)
    with pytest.raises(InternalInconsistency,
                       match=r"square nonzero at \(q=2, t=5\), row 0"):
        graded_complex(arr, 5)
    monkeypatch.undo()
    clear_envelope_caches()


def test_degrees_are_shared_only_on_one_view_object(monkeypatch):
    # a complex or envelope asked on another view object of the same
    # arrangement builds every degree on it: nothing built on the cached
    # view is lent to it, even where the envelope's degrees are shared
    arr = braid3()
    clear_envelope_caches()
    env = holonomy_envelope(arr, 3)
    complex_ = graded_complex(arr, 3)
    built, made, _ = _spy_builds(monkeypatch)
    fresh = CohomologyView(arr, True)
    monkeypatch.setattr(homotopy, "cohomology_view",
                        lambda arr, projective: fresh)
    larger = graded_complex(arr, 5)
    assert built == [4, 5]  # the envelope stays on the cached view
    assert (2, 2) in made and (2, 3) in made
    assert larger.blocks[(2, 3)] == complex_.blocks[(2, 3)]
    assert larger.blocks[(2, 3)] is not complex_.blocks[(2, 3)]
    del built[:]
    monkeypatch.setattr(oscohomology, "cohomology_view",
                        lambda arr, projective: fresh)
    other = holonomy_envelope(arr, 6)
    assert built == [1, 2, 3, 4, 5, 6]
    assert other._left[3] == env._left[3] and other._left[3] is not env._left[3]
    monkeypatch.undo()
    clear_envelope_caches()


def test_differently_spelled_calls_share_one_cache_entry():
    # the cache keys hold what is built, not how the call is spelled or
    # the work bound it was checked against
    arr = braid3()
    clear_envelope_caches()
    env = holonomy_envelope(arr, 3)
    assert holonomy_envelope(arr, 3, projective=True, work_bound=None) is env
    assert holonomy_envelope(arr, 3, work_bound=10 ** 9) is env
    assert holonomy_envelope.cache_info().misses == 1
    complex_ = graded_complex(arr, 3)
    assert graded_complex(arr, max_internal_degree=3) is complex_
    assert graded_complex.cache_info().misses == 1
    assert holonomy_envelope.cache_info().misses == 1
    clear_envelope_caches()


def test_realizations_of_one_ordered_matroid_share_cache_entries():
    # braid A3 with its forms mapped by a matrix of GL_3(Z) keeps the
    # ordered matroid, so it reads the entries built for braid A3; two
    # hyperplanes swapped make another ordered matroid, with its own entries
    arr = braid3()
    moved = unimodular_image(arr, [(0, 1, 2), (2, 0, -1), (1, 2, 3)])
    swapped = Arrangement(3, (arr.forms[1], arr.forms[0]) + arr.forms[2:])
    assert moved != arr and swapped != arr
    assert intersection_lattice(moved).key == intersection_lattice(arr).key
    assert intersection_lattice(swapped).key != intersection_lattice(arr).key
    clear_arrangement_caches()
    caches = (holonomy_envelope, graded_complex, cohomology_view,
              supersolvable_exponents)

    def built(a):
        return (holonomy_envelope(a, 4), graded_complex(a, 4),
                cohomology_view(a, True), supersolvable_exponents(a))

    def misses():
        return [cache.cache_info().misses for cache in caches]

    start = misses()
    first = built(arr)
    assert all(x is y for x, y in zip(built(moved), first))
    assert [m - s for m, s in zip(misses(), start)] == [1, 1, 1, 1]
    env, _, view, _ = first
    assert env.arr is view.arr is arr  # the first of its type
    other = built(swapped)
    assert not any(x is y for x, y in zip(other[:3], first[:3]))
    assert other[2].arr is swapped
    assert [m - s for m, s in zip(misses(), start)] == [2, 2, 2, 2]
    assert cohomology_view(moved, projective=True).arr is arr  # keywords
    # each lattice keeps its answer until the registry is started anew
    forget_types()
    assert arrangement.first_of_type(moved) is moved
    assert arrangement.first_of_type(arr) is moved
    clear_arrangement_caches()


def test_work_bound_override_above_the_environment_reaches_the_build(
        monkeypatch):
    # the complex takes its envelope past holonomy_envelope's own check,
    # which would read the environment's bound of 50 < 5^4
    monkeypatch.setenv("ARRTOP_WORK_BOUND", "50")
    clear_envelope_caches()
    complex_ = graded_complex(braid3(), 4, work_bound=10 ** 6)
    assert complex_.u_dims == (1, 5, 19, 65, 211)
    clear_envelope_caches()


def test_every_work_bound_refusal_names_its_stage(monkeypatch):
    # from cold caches, so the outcome does not hang on what earlier tests
    # built: braid A5's lattice (203 flats) is built before the bound is
    # lowered, and its section is then refused at the cokernel
    clear_arrangement_caches()
    a5_section = SectionData(braid_arrangement(5), 3)
    monkeypatch.setenv("ARRTOP_WORK_BOUND", "100")
    arr, exps = braid3(), ExponentData((1, 2, 3))
    section = SectionData(boolean_arrangement(5), 3)
    envelope = "envelope: tensor slice dimension 4^4 exceeds bound 100"
    refusals = [
        ("lattice: 101 flats exceed work bound 100",
         lambda: intersection_lattice(boolean_arrangement(7))),
        ("envelope: tensor slice dimension 5^3 exceeds bound 100",
         lambda: holonomy_envelope(arr, 3)),
        (envelope, lambda: homotopy_cokernel_ranks(section, 4)),
        (envelope, lambda: consistency_suite(section, 4)),
        ("cokernel: 120 rows in chain degree 4 exceed work bound 100",
         lambda: homotopy_cokernel_ranks(a5_section, 1)),
        ("complex: tensor slice dimension 5^3 exceeds bound 100",
         lambda: graded_complex(arr, 3)),
        ("integer_audit: tensor slice dimension 5^3 exceeds bound 100",
         lambda: integer_audit(arr, 3)),
        ("lcs: max_k^2 = 11^2 exceeds work bound 100",
         lambda: lcs_ranks(exps, 11)),
        ("series: max_degree^2 = 11^2 exceeds work bound 100",
         lambda: homotopy_hilbert_series(exps, 2, 11)),
        ("lcs_product: max_degree^2 = 11^2 exceeds work bound 100",
         lambda: expand_lcs_product([1], 11)),
        ("lie: max_degree^2 = 11^2 exceeds work bound 100",
         lambda: free_graded_lie_ranks([1], 11)),
    ]
    for message, call in refusals:
        with pytest.raises(WorkBoundExceeded) as err:
            call()
        assert str(err.value) == message


def test_cokernel_rows_are_counted_against_the_work_bound(monkeypatch):
    # the rows of blocks (p+2, p+1+i), b_(p+2) dim U_(i-1) summed over i,
    # come from the exponents before anything is built: braid A5 section
    # 3 builds 120 * (1 + 14) rows to degree 2 and 834,120 to degree 5,
    # under the default bound; A6 is refused at once at degree 4
    monkeypatch.delenv("ARRTOP_WORK_BOUND", raising=False)
    a5, a6 = braid_arrangement(5), braid_arrangement(6)
    section = SectionData(a5, 3)
    assert (homotopy_cokernel_ranks(section, 2, work_bound=1800)
            == [154, 2036, 17570])
    refusals = [
        ("cokernel: 1800 rows in chain degree 4 exceed work bound 1799",
         lambda: homotopy_cokernel_ranks(section, 2, work_bound=1799)),
        ("cokernel: 834120 rows in chain degree 4 exceed work bound 834119",
         lambda: homotopy_cokernel_ranks(section, 5, work_bound=834119)),
        ("cokernel: 2762424 rows in chain degree 4 exceed work bound 1000000",
         lambda: homotopy_cokernel_ranks(SectionData(a6, 3), 4)),
        ("cokernel: 1905120 rows in chain degree 5 exceed work bound 1000000",
         lambda: homotopy_cokernel_ranks(SectionData(a6, 4), 4)),
    ]
    misses = holonomy_envelope.cache_info().misses
    for message, call in refusals:
        with pytest.raises(WorkBoundExceeded) as err:
            call()
        assert str(err.value) == message
    assert holonomy_envelope.cache_info().misses == misses  # nothing built


def test_refusal_is_memoized_with_its_level(monkeypatch):
    calls = []

    def spy(arr):
        calls.append(arr)
        return chain(arr)

    chain = homotopy._chain_exponents
    monkeypatch.setattr(homotopy, "_chain_exponents", spy)
    homotopy._chain_or_refusal.cache_clear()
    misses = supersolvable_exponents.cache_info().misses
    arr = generic4()
    for _ in range(2):
        with pytest.raises(NotSupersolvable) as err:
            supersolvable_exponents(arr)
        assert err.value.level == 3
    assert not is_supersolvable(arr)
    assert calls == [arr]
    assert supersolvable_exponents.cache_info().misses == misses + 1
    # NotEssential is checked in front of the cache, on every call
    pencil = normalize([[1, 0, 0], [0, 1, 0], [1, 1, 0]], 3)
    for _ in range(2):
        with pytest.raises(NotEssential):
            supersolvable_exponents(pencil)
    assert supersolvable_exponents.cache_info().misses == misses + 1


def _eliminated_rank(rows):
    ech = SparseEchelon()
    ech.extend(rows)
    return ech.rank


def test_unit_row_certificate_checks_every_row():
    # block (1, 3) of braid3 has a unit row at each of its 65 columns,
    # which certifies its rank by the leads; a tampered copy keeps only
    # those rows and then repeats a lead, either losing a rank (a lead
    # counted twice would still read 65) or keeping it (65 rows, 64
    # distinct leads: L falls short of the bound and must be eliminated)
    complex_ = graded_complex(braid3(), 3)
    rows = complex_.block(1, 3)
    dim = complex_.block_dim(0, 3)
    unit = {}
    for i, row in enumerate(rows):
        if len(row) == 1 and 1 in row.values():
            unit.setdefault(next(iter(row)), i)
    assert sorted(unit) == list(range(dim)) and dim == 65
    assert complex_.block_rank(1, 3) == _eliminated_rank(rows) == dim
    kept = [row if i in unit.values() else {} for i, row in enumerate(rows)]
    for bad, rank in (({0: 1}, dim - 1), ({0: 1, dim - 1: 1}, dim),
                      ({dim - 1: -1}, dim)):
        tampered = list(kept)
        tampered[unit[dim - 1]] = bad
        c = GradedChainComplex(complex_.generator_ranks, complex_.u_dims, 3,
                               {(1, 3): tampered})
        assert c.block_rank(1, 3) == _eliminated_rank(tampered) == rank
        homology = verify_resolution(c)
        assert homology[(0, 3)] == dim - rank
        assert homology[(1, 3)] == c.block_dim(1, 3) - rank


def test_block_ranks_equal_the_eliminated_ranks():
    # every block rank, certified by its leads or eliminated, is the
    # echelon's; in modular-chain order no block of braid A4 or A5 falls
    # short of its rank in leads (in hyperplane order A4's block (3, 5)
    # had 1305 for rank 1320), while the non-Fano arrangement's block
    # (2, 3) has 52 for rank 53, so it must reach elimination, and its
    # complex is not exact
    names = ["boolean3", "braid3", "generic4", "hattori4", "nearpencil3",
             "pencil3", "nonfano"]
    corpus = [(parse_arrangement(os.path.join(DATA, n + ".json")), 5)
              for n in names]
    corpus += [(braid_arrangement(4), 5), (braid_arrangement(5), 4)]
    corpus += [(arr, 4) for arr in seeded_rank3_corpus(1313, 32)]
    short = set()
    for arr, degree in corpus:
        complex_ = graded_complex(arr, degree)
        for (q, t), rows in complex_.blocks.items():
            rank = _eliminated_rank(rows)
            assert complex_.block_rank(q, t) == rank
            if len({min(row) for row in rows if row}) < rank:
                short.add((arr, q, t))
    braids = {braid_arrangement(4), braid_arrangement(5)}
    assert not any(arr in braids for arr, _, _ in short)
    nonfano_arr = corpus[names.index("nonfano")][0]
    assert (nonfano_arr, 2, 3) in short
    nonfano = graded_complex(nonfano_arr, 5)
    assert {key: h for key, h in verify_resolution(nonfano).items() if h} == {
        (2, 3): 1, (2, 4): 6, (2, 5): 27}


def test_braid_a5_section_cokernel_is_ranked_by_its_leads(monkeypatch):
    # in modular-chain order every row of the cokernel blocks (4, 3 + i)
    # of braid A5's section of rank 3 has its own lead for i <= 3, so
    # sparse_rank counts the rows and never eliminates
    arr = braid_arrangement(5)
    view, env = cohomology_view(arr, True), holonomy_envelope(arr, 3)
    assert env.rewritten
    for t in range(4, 7):
        rows = _delta_rows(view, env, 4, t)
        assert len({min(row) for row in rows}) == len(rows) > 0

    def refuse(self, rows):
        raise AssertionError("the cokernel eliminated")

    monkeypatch.setattr(SparseEchelon, "extend", refuse)
    section = SectionData(arr, 3)
    assert homotopy_cokernel_ranks(section, 3) == [154, 2036, 17570, 125140]


def test_graded_complex_refuses_blocks_that_do_not_square_to_zero(
        monkeypatch):
    # one cup product T x_j = c r + ... at q = 3 of a fresh view flipped:
    # row r of block (3, 3) gains -2c at column (T, x_j), so it alone no
    # longer composes to zero with the envelope's relation rows, and its
    # image leads where the relation row of that column does
    arr = boolean_arrangement(4)
    fresh = CohomologyView(arr, True)
    products = {key: dict(entry) for key, entry in fresh.cup_rows(3).items()}
    key = next(key for key, entry in products.items() if entry)
    r = next(iter(products[key]))
    products[key][r] = -products[key][r]
    fresh._cup_rows[3] = products
    env = holonomy_envelope(arr, 3)
    tt, j = key
    relation_rows = _delta_rows(cohomology_view(arr, True), env, 2, 3)
    lead = min(relation_rows[tt * env.dim(1) + j])
    monkeypatch.setattr(homotopy, "cohomology_view",
                        lambda arr, projective: fresh)
    homotopy.graded_complex.cache_clear()
    try:
        with pytest.raises(InternalInconsistency) as err:
            graded_complex(arr, 3)
        assert str(err.value) == (
            "differential square nonzero at (q=3, t=3), "
            f"row {r}, lead column {lead}")
    finally:
        homotopy.graded_complex.cache_clear()


def test_square_zero_check_runs_under_optimize_flag():
    # python -O drops assert statements; making a complex that does not
    # square to zero must still raise
    code = "\n".join([
        "from fractions import Fraction",
        "from arrtop import GradedChainComplex",
        "from arrtop.errors import InternalInconsistency",
        "blocks = {(2, 2): [{0: Fraction(1)}], (1, 2): [{0: Fraction(1)}]}",
        "try:",
        "    GradedChainComplex([1, 1, 1], [1, 1, 1], 2, blocks)",
        "except InternalInconsistency:",
        "    raise SystemExit(0)",
        "raise SystemExit(1)",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_differentials_raise_internal_degree_by_one():
    # every block at (q, t) maps H_q (x) U^(t-q) into H_(q-1) (x) U^(t-q+1):
    # row counts and column supports must match those dims exactly
    c = graded_complex(braid3(), 4)
    for (q, t), rows in c.blocks.items():
        assert len(rows) == c.block_dim(q, t)
        target = c.block_dim(q - 1, t)
        for row in rows:
            assert all(0 <= col < target for col in row)


def test_section_data_validation():
    with pytest.raises(RankOutOfRange):
        SectionData(boolean_arrangement(4), 2)
    with pytest.raises(NotSupersolvable):
        SectionData(generic4(), 3)
    with pytest.raises(RankOutOfRange):
        SectionData(braid3(), 4)


def test_hattori_cokernel():
    section = SectionData(boolean_arrangement(4), 3)
    assert homotopy_cokernel_ranks(section, 5) == [1, 3, 6, 10, 15, 21]


def test_cokernel_rejects_full_rank_section():
    with pytest.raises(NotProperSection):
        homotopy_cokernel_ranks(SectionData(braid3(), 3), 3)


def test_hattori_hilbert_series():
    exps = ExponentData((1, 1, 1, 1))
    (num, den), series = homotopy_hilbert_series(exps, 2, 5)
    assert series.integer_coefficients() == [1, 3, 6, 10, 15, 21]
    assert num.coefficients == (1,)
    assert den == linear_product([1, 1, 1], sign=-1)


def test_hilbert_series_rejects_negative_degree():
    with pytest.raises(RankOutOfRange):
        homotopy_hilbert_series(ExponentData((1, 2, 3)), 2, -3)


def test_lcs_and_integer_audit_reject_negative_degree():
    with pytest.raises(RankOutOfRange):
        lcs_ranks(ExponentData((1, 2, 3)), -1)
    with pytest.raises(RankOutOfRange):
        integer_audit(braid3(), -1)
    with pytest.raises(RankOutOfRange):
        expand_lcs_product([1], -1)
    with pytest.raises(RankOutOfRange):
        free_graded_lie_ranks([1], -1)


def test_hilbert_series_leading_coefficient_is_next_betti():
    exps = ExponentData((1, 1, 1, 1, 1))
    (_, _), series = homotopy_hilbert_series(exps, 2, 4)
    betti = linear_product([1, 1, 1, 1])
    assert series.integer_coefficients()[0] == betti.coefficient(3)


def test_hilbert_series_vanishes_for_full_rank_fiber_type():
    exps = ExponentData((1, 2, 3))
    (_, _), series = homotopy_hilbert_series(exps, 2, 4)
    assert series.integer_coefficients() == [0, 0, 0, 0, 0]


def test_cokernel_matches_series_boolean5():
    section = SectionData(boolean_arrangement(5), 3)
    coker = homotopy_cokernel_ranks(section, 4)
    exps = supersolvable_exponents(boolean_arrangement(5))
    (_, _), series = homotopy_hilbert_series(exps, section.connectivity, 4)
    assert coker == series.integer_coefficients()


def test_cokernel_matches_series_boolean6():
    # three surviving Betti numbers above the connectivity, so the closed
    # form has a genuinely alternating numerator
    section = SectionData(boolean_arrangement(6), 3)
    coker = homotopy_cokernel_ranks(section, 3)
    exps = supersolvable_exponents(boolean_arrangement(6))
    (num, _), series = homotopy_hilbert_series(exps, section.connectivity, 3)
    assert num.coefficients == (10, -5, 1)
    assert coker == series.integer_coefficients() == [10, 45, 126, 280]


def test_consistency_suite_boolean5():
    report = consistency_suite(SectionData(boolean_arrangement(5), 3), 4)
    assert all(entry["passed"] for entry in report)


def test_consistency_suite_hattori():
    report = consistency_suite(SectionData(boolean_arrangement(4), 3), 5)
    assert len(report) == 4
    assert all(entry["passed"] for entry in report)


def test_consistency_suite_braid_improper_section():
    report = consistency_suite(SectionData(braid3(), 3), 4)
    names = [entry["identity"] for entry in report]
    assert names == ["poincare_factorization", "euler_pairing"]
    assert all(entry["passed"] for entry in report)


def test_consistency_suite_corrupted_exponents():
    report = consistency_suite(
        SectionData(braid3(), 3), 4, exponents_override=ExponentData((1, 2, 4))
    )
    entry = next(e for e in report if e["identity"] == "poincare_factorization")
    assert not entry["passed"]
    assert entry["first_failing_degree"] == 1


def test_lcs_ranks():
    assert lcs_ranks(ExponentData((1, 2, 3)), 3) == [6, 4, 10]
    assert lcs_ranks(ExponentData((1,)), 4) == [1, 0, 0, 0]
    assert lcs_ranks(ExponentData((1, 1)), 3) == [2, 0, 0]


def test_lcs_reexpansion():
    phis = lcs_ranks(ExponentData((1, 2, 3)), 3)
    expanded = expand_lcs_product(phis, 3)
    target = linear_product([1, 2, 3], sign=-1)
    assert expanded == [target.coefficient(k) for k in range(4)]


def test_free_graded_lie_single_even_sphere():
    # one generator in degree 1 = a single 2-sphere; its square survives
    assert free_graded_lie_ranks([1], 5) == [1, 1, 0, 0, 0]


def test_free_graded_lie_two_generators():
    ranks = free_graded_lie_ranks([2], 4)
    assert ranks[0] == 2
    assert ranks[1] == 3  # both squares and the bracket
    # PBW expansion reproduces the tensor algebra dimensions 1/(1-2t)
    from fractions import Fraction

    from arrtop.exactalg import series_inverse, series_mul

    current = [Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0)]
    for q, l in enumerate(ranks, start=1):
        if q % 2:
            factor = [Fraction(0)] * 5
            factor[0] = Fraction(1)
            factor[q] = Fraction(1)
            for _ in range(l):
                current = series_mul(current, factor, 4)
        else:
            base = [Fraction(0)] * 5
            base[0] = Fraction(1)
            base[q] = Fraction(-1)
            inv = series_inverse(base, 4)
            for _ in range(l):
                current = series_mul(current, inv, 4)
    assert [int(c) for c in current] == [1, 2, 4, 8, 16]


def test_free_graded_lie_truncation_one():
    assert free_graded_lie_ranks([7], 1) == [7]


def test_free_graded_lie_rejects_bad_series():
    with pytest.raises(NonIntegerRank):
        free_graded_lie_ranks([-1], 2)


def _seeded_exponents(rng):
    return (1,) + tuple(sorted(rng.randint(1, 9) for _ in range(rng.randint(0, 4))))


def test_lcs_ranks_match_the_moebius_oracle():
    rng = random.Random(20261020)
    for _ in range(200):
        exps = _seeded_exponents(rng)
        assert lcs_ranks(ExponentData(exps), 30) == lcs_ranks_oracle(exps, 30)


def test_rank_series_match_the_repeated_product_oracles():
    # small dimensions and degrees: the oracles' work grows with the ranks
    rng = random.Random(24)
    for _ in range(50):
        dims = [rng.randint(0, 3) for _ in range(rng.randint(1, 4))]
        degree = rng.randint(0, 6)
        assert (free_graded_lie_ranks(dims, degree)
                == free_graded_lie_ranks_oracle(dims, degree))
        phis = [rng.randint(-3, 6) for _ in range(rng.randint(0, 9))]
        degree = rng.randint(0, 8)
        assert (expand_lcs_product(phis, degree)
                == expand_lcs_product_oracle(phis, degree))


def test_lcs_product_round_trip_to_degree_12():
    rng = random.Random(12)
    for _ in range(60):
        exps = _seeded_exponents(rng)
        target = linear_product(exps, sign=-1)
        assert expand_lcs_product(lcs_ranks(ExponentData(exps), 12), 12) == [
            target.coefficient(k) for k in range(13)]


def test_rank_series_end_quickly_at_degree_10():
    # the work must not grow with the ranks, which reach about 10^6 here;
    # both calls take about a millisecond.  Degree 10 on five odd generators
    # is (5^10 + 5^5 - 5^2 - 5)/10 by the Witt formula for Lie superalgebras
    code = "\n".join([
        "from arrtop import ExponentData, expand_lcs_product, "
        "free_graded_lie_ranks, lcs_ranks",
        "assert free_graded_lie_ranks([5], 10)[-1] == 976872",
        "phis = lcs_ranks(ExponentData((1, 5, 6)), 10)",
        "assert expand_lcs_product(phis, 10) == [1, -12, 41, -30] + [0] * 7",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr


def test_rank_series_refuse_non_integers_and_expand_negative_powers():
    # a float is refused, not truncated or accepted as an integer
    for call in (lambda: free_graded_lie_ranks([2.0], 3),
                 lambda: expand_lcs_product([1, 0.5], 3)):
        with pytest.raises(NonIntegerRank):
            call()
    # a negative phi_k is the true power: (1 - t)^-2 = sum (k + 1) t^k
    assert expand_lcs_product([-2], 4) == [1, 2, 3, 4, 5]
    assert expand_lcs_product([0, -1], 5) == [1, 0, 1, 0, 1, 0]


def test_asphericity_full_rank_section():
    report = asphericity_test(SectionData(boolean_arrangement(4), 4))
    assert report.connectivity is INFINITE
    assert report.verdict == "ASPHERICAL"


def test_asphericity_hattori():
    report = asphericity_test(SectionData(boolean_arrangement(4), 3))
    assert report.connectivity == 2
    assert report.verdict == "FIRST_NONZERO"
    assert report.module_status == "GROUP_RING_FREE"


def test_asphericity_deep_section_never_projective():
    report = asphericity_test(SectionData(boolean_arrangement(5), 3))
    assert report.connectivity == 2
    assert report.module_status == "NEVER_PROJECTIVE"


def test_asphericity_pair_mode():
    arr = boolean_arrangement(4)
    u = Subspace(((1, 0, 0, 1), (0, 1, 0, 2), (0, 0, 1, 5)))
    report = asphericity_test(arr, u)
    assert report.connectivity == 2
    assert report.module_status == "GROUP_RING_FREE"
    whole = Subspace(tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4)))
    assert asphericity_test(arr, whole).verdict == "ASPHERICAL"


def test_asphericity_rejects_low_genericity():
    arr = boolean_arrangement(4)
    u = Subspace(((1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    with pytest.raises(FrameworkNotApplicable):
        asphericity_test(arr, u)


def test_asphericity_non_iterated_section_has_no_module_verdict():
    # the kernel of x0+x1+x2+x3 is 2-generic but not 3-generic for the
    # boolean arrangement of rank 5: the framework applies, but the
    # freeness dichotomy only covers iterated hyperplane sections
    arr = boolean_arrangement(5)
    u = Subspace((
        (1, -1, 0, 0, 0),
        (0, 1, -1, 0, 0),
        (0, 0, 1, -1, 0),
        (0, 0, 0, 0, 1),
    ))
    assert genericity_level(arr, u) == 2
    report = asphericity_test(arr, u)
    assert report.connectivity == 2
    assert report.verdict == "FIRST_NONZERO"
    assert report.module_status is None


def test_integer_audit_braid():
    audit = integer_audit(braid3(), 3)
    assert audit["free_over_integers"]
    assert audit["slices"][2]["rank"] == 6
    assert audit["slices"][3]["rank"] == 60


def test_integer_audit_reaches_braid4_degree_6():
    # no tensor slice is built, so the audit's one bound is b1^max_degree:
    # braid A4 (b1 = 9) is admitted at degree 6, with slice ranks
    # 9^k - h_k(2, 3, 4) read off 1/((1 - 2t)(1 - 3t)(1 - 4t)), and braid3
    # (b1 = 5) is refused at degree 3 by a bound of 100 < 5^3
    audit = integer_audit(braid_arrangement(4), 6)
    assert audit["free_over_integers"]
    h = [sum(2 ** a * 3 ** b * 4 ** (k - a - b)
             for a in range(k + 1) for b in range(k + 1 - a))
         for k in range(7)]
    assert [audit["slices"][k]["rank"] for k in range(2, 7)] == [
        9 ** k - h[k] for k in range(2, 7)]
    assert audit["slices"][6]["rank"] == 505106
    with pytest.raises(WorkBoundExceeded) as err:
        integer_audit(braid3(), 3, work_bound=100)
    assert str(err.value) == (
        "integer_audit: tensor slice dimension 5^3 exceeds bound 100")


def test_integer_audit_finds_the_torsion_of_the_non_fano_arrangement():
    # seven planes, six triple lines, not supersolvable: slices 4 and 5
    # have nonunit factors, checked apart from the Smith form by ranks of
    # the split-major rows over Q, GF(2) and GF(3)
    arr = parse_arrangement(os.path.join(DATA, "nonfano.json"))
    lattice = intersection_lattice(arr)
    assert arr.num_hyperplanes == 7 and not is_supersolvable(arr)
    assert sum(len(f.hyperplanes) == 3 for f in lattice.flats_of_codim(2)) == 6
    audit = integer_audit(arr, 5)
    slices = audit["slices"]
    assert not audit["free_over_integers"]
    assert [slices[k]["rank"] for k in range(2, 6)] == [9, 107, 879, 6228]
    assert [slices[k]["nonunit_factors"] for k in range(2, 6)] == [
        [], [], [2], [2] * 11 + [8]]
    for k, drop in ((4, 1), (5, 12)):
        rows = audit_rows_oracle(arr, k)
        rank = slices[k]["rank"]
        assert sparse_rank(rows) == rank_mod_p_oracle(rows, 3) == rank
        assert rank_mod_p_oracle(rows, 2) == rank - drop


def test_audit_equals_the_smith_form_of_the_split_major_rows():
    # the slices of the tensor power are the reference: the Smith form of
    # the split-major rows of I_k inside the b1^k words gives the rank and
    # the non-unit factors that the envelope over Z reports
    for name, degree in (("braid3", 4), ("generic4", 4), ("hattori4", 4),
                         ("nonfano", 5)):
        arr = parse_arrangement(os.path.join(DATA, name + ".json"))
        slices = integer_audit(arr, degree)["slices"]
        for k in range(2, degree + 1):
            factors = smith_invariant_factors(audit_rows_oracle(arr, k))
            assert slices[k] == {
                "rank": len(factors),
                "free_over_integers": all(f == 1 for f in factors),
                "nonunit_factors": [f for f in factors if f != 1],
            }, (name, k)


def test_non_fano_torsion_at_degree_6_is_read_without_the_smith_form():
    # T_6/I_6 is Z^dims[6] modulo lattice[6]; its ranks over Q, GF(3) and
    # GF(2) give 102 invariant factors of which 89 are even and none is
    # divisible by 3, as the Smith form reports (test_cli pins it), and
    # slice 6 has rank 6^6 - dim U_6
    arr = parse_arrangement(os.path.join(DATA, "nonfano.json"))
    env = homotopy._IntegralEnvelope(cohomology_view(arr, True), 6)
    lattice = env.lattice[6]
    assert sparse_rank(lattice) == rank_mod_p_oracle(lattice, 3) == 102
    assert rank_mod_p_oracle(lattice, 2) == 13
    assert holonomy_envelope(arr, 6).dim(6) == 5645
    assert 6 ** 6 - env.dims[6] + 102 == 6 ** 6 - 5645 == 41011
    # the rules fail the degree-3 check over Z as over Q, so degrees 3 and
    # up are eliminated, and lattice[6] is the one the elimination has
    # always carried, row for row
    assert not env.rewritten
    assert [len(env.lattice[k]) for k in range(2, 7)] == [0, 0, 1, 13, 112]
    assert sum(map(len, lattice)) == 7555
    assert hashlib.sha256(repr(lattice).encode()).hexdigest()[:16] == (
        "5cd8fce4922cb73b")


def test_integral_envelope_rewrites_as_the_rational_one():
    # degree 2 leaves no lattice row on these inputs, so the Z envelope
    # takes the rational one's path: rewritten wherever the degree-3 check
    # holds, every slice free, and the same tables, list for list and
    # entry type for entry type, every entry an int
    corpus = [(braid3(), 5), (braid_arrangement(4), 5)]
    corpus += [(arr, 4) for arr in seeded_rank3_corpus(2626, 40)]
    paths = set()
    for i, (arr, degree) in enumerate(corpus):
        view = cohomology_view(arr, True)
        rational = oscohomology.UEnvelope(view, degree)
        env = homotopy._IntegralEnvelope(view, degree)
        assert env.rewritten == rational.rewritten
        assert env.rewritten or i >= 2  # braid A3 and A4 are rewritten
        assert env.lattice == {k: [] for k in range(degree + 1)}
        assert env.dims == rational.dims
        assert env.basis_words == rational.basis_words
        assert env._left == rational._left
        for k, table in env._left.items():
            assert [{p: type(v) for p, v in xw.items()} for xw in table] == [
                {p: type(v) for p, v in xw.items()}
                for xw in rational._left[k]]
            assert all(type(v) is int for xw in table for v in xw.values())
        paths.add(env.rewritten)
    assert paths == {True, False}


def test_a_degree_2_lattice_row_makes_the_integral_envelope_eliminate(
        monkeypatch):
    # the rules certify the Z quotient only when every degree-2 relation
    # is a unit pivot; a split that keeps one relation, doubled, as a
    # lattice row sends degree 3 and up to elimination, with no rewriting
    # tried
    eliminated = []
    eliminate = oscohomology.UEnvelope._eliminate
    split = homotopy._IntegralEnvelope._split

    def refuse(self, k):
        raise AssertionError(f"degree {k} rewritten")

    def doubled(self, rows):
        if len(self.dims) == 2 and rows:
            rows = [{c: 2 * v for c, v in rows[0].items()}] + rows[1:]
        return split(self, rows)

    def spy(self, k, rows):
        eliminated.append(k)
        return eliminate(self, k, rows)

    monkeypatch.setattr(homotopy._IntegralEnvelope, "_split", doubled)
    monkeypatch.setattr(oscohomology.UEnvelope, "_eliminate", spy)
    monkeypatch.setattr(oscohomology.UEnvelope, "_rewrite", refuse)
    env = homotopy._IntegralEnvelope(cohomology_view(braid3(), True), 4)
    assert env.lattice[2]
    assert not env.rewritten and eliminated == [1, 2, 3, 4]
    monkeypatch.undo()
    assert holonomy_envelope(braid3(), 4).rewritten


def test_integer_audit_ranks_are_checked_against_the_rational_envelope(
        monkeypatch):
    # a builder over Z that loses a lattice row loses rank there; the audit
    # compares every slice rank with b1^k - dim U_k over Q and raises
    split = homotopy.unit_split

    def lossy(rows):
        forms, rest = split(rows)
        return forms, rest[1:]

    monkeypatch.setattr(homotopy, "unit_split", lossy)
    arr = parse_arrangement(os.path.join(DATA, "nonfano.json"))
    with pytest.raises(InternalInconsistency) as err:
        integer_audit(arr, 4)
    assert str(err.value) == (
        "integer_audit: slice 4 has rank 878, not b1^k - dim U_k = 879")


def test_envelope_dims_euler_identity():
    # alternating Betti series times envelope series telescopes to 1
    arr = braid3()
    env = holonomy_envelope(arr, 4)
    betti = [1, 5, 6]
    for t in range(1, 5):
        total = sum(
            (-1) ** q * betti[q] * env.dim(t - q)
            for q in range(min(t, 2) + 1)
        )
        assert total == 0
