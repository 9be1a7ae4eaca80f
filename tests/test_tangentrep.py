from itertools import combinations
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flagquiver import (
    FULL,
    Arrow,
    BudgetExceeded,
    InducedQuiver,
    NotMultiplicityFree,
    QuiverRep,
    SigmaCharacter,
    borel,
    build_parabolic,
    build_root_system,
    closed_subsets,
    dominant_sum_check,
    hom_dimension,
    is_sigma_semistable,
    simplicity_report,
    structure_report,
    tangent_rep,
    verify_flatness,
)
from flagquiver import tangentrep
from flagquiver.rootsys import RootSystemData, is_dominant
from flagquiver.tangentrep import (
    VERDICT_INCONCLUSIVE,
    VERDICT_SIMPLE,
    VERDICT_WEAKLY_SIMPLE_ONLY,
    verdict_for,
)

from conftest import all_parabolics
from hom_oracle import hom_dimension as oracle_hom_dimension
from quiver_oracle import map_is_nonzero


def little_rep(n_vertices, arrows, dims=None, scalars=None, rank=2):
    # fabricate a small quiver on negative roots of A_rank; vertex weights do
    # not matter for these graph-level operations
    system = build_root_system("A", rank)
    p = borel(system)
    label = system.simple_root(1)
    verts = [-r for r in system.positive_roots][:n_vertices]
    if len(verts) < n_vertices:
        raise ValueError(f"A{rank} has fewer than {n_vertices} positive roots")
    quiver = InducedQuiver(
        verts, [Arrow(s, t, label) for s, t in arrows], FULL, p
    )
    dims = dims or (1,) * n_vertices
    maps = {}
    for k in range(len(arrows)):
        if scalars and scalars[k] == 0:
            continue
        maps[k] = tuple(
            tuple(
                (1 if i == j else 0)
                for j in range(dims[quiver.arrows[k].src])
            )
            for i in range(dims[quiver.arrows[k].dst])
        )
    return QuiverRep(quiver, dims, maps)


def test_a2_borel_tangent_rep():
    a2 = build_root_system("A", 2)
    trep = tangent_rep(borel(a2))
    assert len(trep.rep.quiver.vertices) == 3
    nonzero = [k for k in trep.rep.maps if map_is_nonzero(trep.rep, k)]
    assert len(nonzero) == 2
    assert structure_report(trep.rep) == (True, 1)


def test_a3_borel_reduced_view_matches_display():
    a3 = build_root_system("A", 3)
    trep = tangent_rep(borel(a3))
    simple_arrows = [
        a for a in trep.rep.quiver.arrows if a3.height(a.label) == 1
    ]
    assert len(simple_arrows) == 6
    by_label = {}
    for a in simple_arrows:
        by_label.setdefault(a.label, []).append(a)
    assert {a3.height(l) for l in by_label} == {1}
    assert sorted(len(v) for v in by_label.values()) == [2, 2, 2]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_point_hyperplane_levi_rep_shape(n):
    system = build_root_system("A", n)
    p = build_parabolic(system, [1, n])
    trep = tangent_rep(p)
    q = trep.levi_rep.quiver
    assert len(q.vertices) == 3
    assert len(q.arrows) == 2
    ranks = [c.rank for c in trep.components]
    assert sorted(ranks) == sorted([n - 1, 1, n - 1])
    sources = {a.src for a in q.arrows}
    assert len(sources) == 1
    center = trep.components[sources.pop()]
    assert center.weights == (-system.positive_roots[-1],)


def _levi_arrows_by_weight_sums(p, comps):
    """Levi arrows rebuilt from weight sums: the first nilradical label that
    joins two components, scanning their weights in order."""
    comp_of = {w: ci for ci, c in enumerate(comps) for w in c.weights}
    first = {}
    for ci, c in enumerate(comps):
        for w in c.weights:
            for alpha in p.nilradical_weights:
                cj = comp_of.get(w + alpha)
                if cj is not None and cj != ci:
                    first.setdefault((ci, cj), alpha)
    return sorted((ci, cj, alpha.coords2) for (ci, cj), alpha in first.items())


def _quotient_cases():
    for rank in range(1, 6):
        yield from all_parabolics(build_root_system("A", rank))
    for rank in (4, 5):
        yield from all_parabolics(build_root_system("D", rank))
    e6 = build_root_system("E", 6)
    yield borel(e6)
    yield build_parabolic(e6, [1, 6])
    yield borel(build_root_system("E", 7))


def test_levi_quiver_is_the_quotient_of_the_borel_quiver():
    for p in _quotient_cases():
        trep = tangent_rep(p)
        arrows = [(a.src, a.dst, a.label.coords2) for a in trep.levi_rep.quiver.arrows]
        assert arrows == _levi_arrows_by_weight_sums(p, trep.components), p


def test_tangent_arrow_scalars_are_units(sweep_parabolics):
    for p in sweep_parabolics[:40]:
        rep = tangent_rep(p).rep
        for k in rep.maps:
            assert rep.maps[k][0][0] in (1, -1)


def test_structure_report_synthetic_cases():
    assert structure_report(little_rep(1, [], dims=(2,))) == (False, 1)
    assert structure_report(little_rep(2, [])) == (True, 2)
    assert structure_report(little_rep(2, [(0, 1)])) == (True, 1)
    # a zero map does not connect
    assert structure_report(little_rep(2, [(0, 1)], scalars=[0])) == (True, 2)


def test_hom_dimension_cases():
    a3 = build_root_system("A", 3)
    assert hom_dimension(tangent_rep(borel(a3)).rep) == 1
    assert hom_dimension(little_rep(2, [])) == 2
    assert oracle_hom_dimension(little_rep(1, [], dims=(2,))) == 4
    # identity map forces equal scalars on both sides
    assert hom_dimension(little_rep(2, [(0, 1)])) == 1
    # a zero map does not
    assert hom_dimension(little_rep(2, [(0, 1)], scalars=[0])) == 2


def test_hom_dimension_requires_multiplicity_free():
    with pytest.raises(NotMultiplicityFree):
        hom_dimension(little_rep(1, [], dims=(2,)))


def test_hom_dimension_matches_row_reduction_oracle(sweep_parabolics):
    # every parabolic of A1-A5, D4 and D5, and the E6/E7 Borels
    for p in sweep_parabolics:
        if p.system.series == "E" and p.system.rank == 8:
            continue
        trep = tangent_rep(p)
        for rep in (trep.rep, trep.levi_rep):
            assert hom_dimension(rep) == oracle_hom_dimension(rep), p


def test_closed_subsets_point_hyperplane():
    a2 = build_root_system("A", 2)
    p = build_parabolic(a2, [1, 2])
    trep = tangent_rep(p)
    unreduced = closed_subsets(trep.levi_rep)
    reduced = closed_subsets(trep.levi_rep, reduce=True)
    assert len(unreduced) == 3
    assert len(reduced) == 2
    assert all(len(s) == 1 for s in reduced)


def test_closed_subsets_single_vertex_and_errors():
    assert closed_subsets(little_rep(1, [])) == []
    assert closed_subsets(little_rep(2, [(1, 0)])) == [(0,)]
    with pytest.raises(NotMultiplicityFree):
        closed_subsets(little_rep(1, [], dims=(2,)))
    # an arrow to a higher vertex, a loop and a cycle
    with pytest.raises(ValueError):
        closed_subsets(little_rep(2, [(0, 1)]))
    with pytest.raises(ValueError):
        closed_subsets(little_rep(1, [(0, 0)]))
    with pytest.raises(ValueError):
        closed_subsets(little_rep(2, [(0, 1), (1, 0)]))


def brute_force_closed(rep, reduce=False):
    support = rep.support
    arrows = [
        (a.src, a.dst)
        for k, a in enumerate(rep.quiver.arrows)
        if map_is_nonzero(rep, k)
    ]
    out = []
    for size in range(1, len(support)):
        for sub in combinations(support, size):
            s = set(sub)
            if all(dst in s for src, dst in arrows if src in s):
                if reduce and not _connected(s, arrows):
                    continue
                out.append(tuple(sorted(s)))
    return sorted(out, key=lambda t: (len(t), t))


def _connected(vertices, arrows):
    seen, todo = set(), [min(vertices)]
    while todo:
        v = todo.pop()
        if v not in seen:
            seen.add(v)
            todo.extend(
                w for a, b in arrows for u, w in ((a, b), (b, a))
                if u == v and w in vertices
            )
    return seen == vertices


@st.composite
def dag_reps(draw, shuffled=True):
    """Random one-dimensional reps on at most 12 vertices, acyclic in a
    shuffled vertex order, with some arrows carrying the zero map.  Unless
    ``shuffled``, every arrow points to a lower vertex."""
    n = draw(st.integers(1, 12))
    order = draw(st.permutations(range(n))) if shuffled else range(n - 1, -1, -1)
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda e: e[0] < e[1]),
        unique=True, max_size=3 * n,
    ))
    arrows = [(order[i], order[j]) for i, j in edges]
    scalars = draw(st.lists(st.sampled_from([0, 1, 1]),
                            min_size=len(arrows), max_size=len(arrows)))
    return little_rep(n, arrows, scalars=scalars, rank=5)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(dag_reps(shuffled=False))
def test_closed_subsets_match_brute_force_on_random_dags(rep):
    assert closed_subsets(rep) == brute_force_closed(rep)
    assert closed_subsets(rep, reduce=True) == brute_force_closed(rep, reduce=True)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(dag_reps())
def test_hom_dimension_matches_oracle_on_random_dags(rep):
    assert hom_dimension(rep) == oracle_hom_dimension(rep)


@st.composite
def unordered_reps(draw):
    """One-dimensional reps on at most 12 vertices, acyclic, with some
    nonzero arrow from a lower to a higher vertex (so the reverse vertex
    order is not topological), zero maps and zero-dimensional vertices."""
    n = draw(st.integers(2, 12))
    order = draw(st.permutations(range(n)))
    ascents = [(i, j) for i, j in combinations(range(n), 2) if order[i] < order[j]]
    assume(ascents)
    up = draw(st.sampled_from(ascents))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda e: e[0] < e[1] and e != up),
        unique=True, max_size=3 * n,
    ))
    arrows = [(order[i], order[j]) for i, j in [up] + edges]
    scalars = [1] + draw(st.lists(st.sampled_from([0, 1, 1]),
                                  min_size=len(edges), max_size=len(edges)))
    dims = draw(st.lists(st.sampled_from([1, 1, 1, 0]), min_size=n, max_size=n))
    dims[arrows[0][0]] = dims[arrows[0][1]] = 1
    return little_rep(n, arrows, dims=tuple(dims), scalars=scalars, rank=5)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(unordered_reps())
def test_closed_subsets_and_king_refuse_unordered_reps(rep):
    # the walk runs over the vertex order itself, so a nonzero arrow to a
    # higher vertex is refused rather than walked
    for reduce in (False, True):
        with pytest.raises(ValueError):
            closed_subsets(rep, reduce=reduce)
    with pytest.raises(ValueError):
        is_sigma_semistable(rep, SigmaCharacter((0,) * len(rep.dims), (1,)))


def coxeter_catalan(series, rank):
    """The number of order ideals of the positive-root poset."""
    if series == "A":
        return comb(2 * rank + 2, rank + 1) // (rank + 2)
    if series == "D":
        count, rest = divmod((3 * rank - 2) * comb(2 * rank - 2, rank - 1), rank)
        assert not rest
        return count
    return {6: 833, 7: 4160, 8: 25080}[rank]


@pytest.mark.parametrize(
    "series,rank",
    [("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 9)]
    + [("E", n) for n in (6, 7, 8)],
)
def test_borel_closed_subsets_are_the_catalan_many_root_ideals(series, rank):
    # the Levi rep of the Borel has one vertex -alpha per positive root and
    # its arrows lower the root, so a closed subset is an order ideal of the
    # root poset; those number Cat(W) (Cellini-Papi 2000), the empty and
    # the full one included
    levi = tangent_rep(borel(build_root_system(series, rank))).levi_rep
    assert len(closed_subsets(levi)) == coxeter_catalan(series, rank) - 2


def test_closed_subsets_on_a_long_path():
    # one closed subset per proper prefix; a walk that recursed once per
    # vertex would overflow the interpreter stack here
    n = 1500
    rep = little_rep(n, [(i + 1, i) for i in range(n - 1)], rank=60)
    for reduce in (False, True):
        sets = closed_subsets(rep, reduce=reduce)
        assert len(sets) == n - 1
        assert sets[0] == (0,) and sets[-1] == tuple(range(n - 1))


def _points_down(rep):
    """Whether every nonzero arrow of ``rep`` points to a lower vertex."""
    return all(a.src > a.dst for k, a in enumerate(rep.quiver.arrows) if map_is_nonzero(rep, k))


def test_tangent_reps_point_every_arrow_to_a_lower_vertex():
    # the order closed_subsets requires holds at both levels of every
    # parabolic of rank <= 8, and of the A24 and D24 Borels
    cases = [(s, r) for s in "AD" for r in range(1, 9) if s == "A" or r >= 4]
    cases += [("E", 6), ("E", 7), ("E", 8)]
    parabolics = [p for s, r in cases for p in all_parabolics(build_root_system(s, r))]
    parabolics += [borel(build_root_system(s, 24)) for s in "AD"]
    assert len(parabolics) == 1440
    for p in parabolics:
        trep = tangent_rep(p)
        assert _points_down(trep.rep) and _points_down(trep.levi_rep), p


def test_closed_subsets_are_refused_past_the_budget_before_any_tuple(monkeypatch):
    # the walk counts the sets it keeps and refuses one past the budget,
    # before any set is read into a tuple
    levi = tangent_rep(borel(build_root_system("A", 4))).levi_rep
    count = coxeter_catalan("A", 4) - 2
    reduced = len(closed_subsets(levi, reduce=True))
    assert closed_subsets(levi, budget=count) == closed_subsets(levi)
    assert closed_subsets(levi, reduce=True, budget=reduced) == closed_subsets(levi, reduce=True)

    def refuse(*args):
        raise AssertionError("a tuple was built")

    monkeypatch.setattr(tangentrep, "_byte_tables", refuse)
    for reduce, budget in ((False, count - 1), (True, reduced - 1), (False, 0)):
        with pytest.raises(BudgetExceeded, match=f"exceeds the budget {budget}"):
            closed_subsets(levi, reduce=reduce, budget=budget)


def test_e7_borel_levi_closed_subset_counts():
    levi = tangent_rep(borel(build_root_system("E", 7))).levi_rep
    assert len(closed_subsets(levi)) == 4158
    assert len(closed_subsets(levi, reduce=True)) == 2291


def test_sl4_borel_closed_subsets_against_exhaustive_scan():
    a3 = build_root_system("A", 3)
    trep = tangent_rep(borel(a3))
    unreduced = closed_subsets(trep.rep)
    assert unreduced == brute_force_closed(trep.rep)
    assert len(unreduced) == 12
    reduced = closed_subsets(trep.rep, reduce=True)
    assert len(reduced) == 6

    verts = trep.rep.quiver.vertices
    idx = {w: i for i, w in enumerate(verts)}
    a1, a2, a3r = (a3.simple_root(i) for i in (1, 2, 3))
    as_sets = {frozenset(s) for s in reduced}
    expected = {
        frozenset({idx[-a1]}),
        frozenset({idx[-a2]}),
        frozenset({idx[-a3r]}),
        frozenset({idx[-a1], idx[-a2], idx[-(a1 + a2)]}),
        frozenset({idx[-a2], idx[-a3r], idx[-(a2 + a3r)]}),
        frozenset(set(range(6)) - {idx[-(a1 + a2 + a3r)]}),
    }
    assert as_sets == expected


def test_closed_subsets_form_a_lattice():
    for series, rank, sigma in [("A", 3, (1, 2, 3)), ("A", 4, (1, 2, 3, 4))]:
        trep = tangent_rep(build_parabolic(build_root_system(series, rank), sigma))
        sets = [frozenset(s) for s in closed_subsets(trep.rep)]
        pool = set(sets) | {frozenset(), frozenset(trep.rep.support)}
        for x in sets:
            for y in sets:
                assert x | y in pool
                assert x & y in pool


@pytest.mark.parametrize(
    "series,rank",
    [("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 9)] + [("E", 6)],
)
def test_dominant_sums_are_trivial_for_borels(series, rank):
    system = build_root_system(series, rank)
    sums = dominant_sum_check(borel(system))
    zero = system.weight((0,) * system.ambient_dim)
    assert sums == frozenset({zero})


def test_dominant_sums_contain_zero_for_parabolics():
    a4 = build_root_system("A", 4)
    for sigma in [(1,), (2, 3), (1, 4)]:
        sums = dominant_sum_check(build_parabolic(a4, sigma))
        zero = a4.weight((0,) * 5)
        assert zero in sums


def weight_dominant_sums(p):
    """The dominant sums by Weight addition and is_dominant, pair by pair."""
    return frozenset(
        a + b
        for a in p.nilradical_weights
        for b in p.tangent_weights
        if is_dominant(a + b)
    )


def test_dominant_sums_match_weight_arithmetic():
    systems = [("A", n) for n in range(1, 7)] + [("D", n) for n in range(4, 7)]
    for series, rank in systems:
        for p in all_parabolics(build_root_system(series, rank)):
            assert dominant_sum_check(p) == weight_dominant_sums(p), p
    for rank in (6, 7, 8):
        p = borel(build_root_system("E", rank))
        assert dominant_sum_check(p) == weight_dominant_sums(p), p


@pytest.mark.parametrize("series,rank", [("A", 3), ("D", 5), ("E", 8)])
def test_dominant_sum_check_needs_the_highest_root_last(series, rank):
    # a fresh system, not the cached one: its columns are reversed after
    # the parabolic has read them, so the last root is a simple root
    system = RootSystemData(series, rank)
    p = build_parabolic(system, range(1, rank + 1))
    assert dominant_sum_check(p) == weight_dominant_sums(p)
    system._columns = tuple(column[::-1] for column in system._columns)
    with pytest.raises(ArithmeticError):
        dominant_sum_check(p)


def test_verdict_rule():
    zero = build_root_system("A", 1).weight((0, 0))
    only_zero = frozenset({zero})
    extra = frozenset({zero, build_root_system("A", 1).simple_root(1)})
    assert verdict_for(True, 1, only_zero, zero) == VERDICT_SIMPLE
    assert verdict_for(True, 1, extra, zero) == VERDICT_WEAKLY_SIMPLE_ONLY
    assert verdict_for(True, 2, only_zero, zero) == VERDICT_INCONCLUSIVE
    assert verdict_for(False, 1, only_zero, zero) == VERDICT_INCONCLUSIVE


def test_simplicity_report_samples():
    for series, rank, sigma in [
        ("A", 5, (2, 4)),
        ("D", 5, tuple(range(1, 6))),
        ("E", 6, tuple(range(1, 7))),
    ]:
        p = build_parabolic(build_root_system(series, rank), sigma)
        report = simplicity_report(p)
        assert report.verdict == VERDICT_SIMPLE
        assert report.multiplicity_free
        assert report.connected_components == 1
        assert report.hom_dimension == 1


def test_flatness_holds_for_parabolic_tangent_reps():
    for series, rank, sigma in [("A", 4, (1, 3)), ("D", 4, (2,)), ("A", 5, (5,))]:
        p = build_parabolic(build_root_system(series, rank), sigma)
        assert verify_flatness(tangent_rep(p).rep).ok
