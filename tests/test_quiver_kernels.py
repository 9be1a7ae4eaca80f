"""The integer kernels of the tangent quiver against the Weight-arithmetic oracle.

Arrows, arrow scalars, relations, flatness verdicts, dominant sums and the
reduced closed subsets must agree exactly, in order, with the direct loops
of ``quiver_oracle``.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagquiver import (
    FULL,
    REDUCED,
    QuiverRep,
    borel,
    build_parabolic,
    build_root_system,
    closed_subsets,
    dominant_sum_check,
    levi_components,
    relation_instances,
    tangent_rep,
    verify_flatness,
)
from flagquiver.tangentrep import _borel_arrows

import quiver_oracle as oracle
from quiver_oracle import induced_quiver
from conftest import all_parabolics

ALL_PARABOLICS = (
    [("A", n) for n in range(1, 7)] + [("D", n) for n in range(4, 7)] + [("E", 6)]
)


def oracle_parabolics(series, rank, data):
    """Every parabolic, or five drawn ones for E7 and E8."""
    system = build_root_system(series, rank)
    if rank < 7:
        return list(all_parabolics(system))
    sigmas = st.frozensets(st.integers(1, rank), min_size=1)
    return [build_parabolic(system, sigma)
            for sigma in data.draw(st.lists(sigmas, min_size=5, max_size=5, unique=True))]


def triples(q):
    return [(a.src, a.dst, a.label) for a in q.arrows]


@pytest.mark.parametrize("series,rank", ALL_PARABOLICS + [("E", 7), ("E", 8)])
@settings(derandomize=True, max_examples=2, deadline=None, database=None)
@given(data=st.data())
def test_tangent_quiver_kernels_match_the_oracle(series, rank, data):
    for p in oracle_parabolics(series, rank, data):
        trep = tangent_rep(p)
        rep, q = trep.rep, trep.rep.quiver
        b = q.parabolic
        assert triples(q) == oracle.arrows(b, p.tangent_weights), p
        reduced = induced_quiver(b, p.tangent_weights, REDUCED)
        assert triples(reduced) == oracle.arrows(b, p.tangent_weights, REDUCED), p
        assert rep.maps == oracle.tangent_maps(q), p
        rels = oracle.relations(q, range(len(q.vertices)))
        assert relation_instances(q) == rels, p
        assert relation_instances(reduced) == oracle.relations(
            reduced, range(len(reduced.vertices))
        ), p
        assert verify_flatness(rep) == oracle.flatness(rep, rels) == (True, None), p
        if q.arrows:
            flipped = oracle.with_flipped_map(rep, data.draw(st.integers(0, len(q.arrows) - 1)))
            assert verify_flatness(flipped) == oracle.flatness(flipped, rels), p
        assert dominant_sum_check(p) == oracle.dominant_sums(p), p

        # the Levi quiver of p itself: its own labels and nilradical pairs
        tops = [c.highest_weight for c in levi_components(p)]
        for mode in (REDUCED, FULL):
            levi = induced_quiver(p, tops, mode)
            assert triples(levi) == oracle.arrows(p, tops, mode), (p, mode)
        ones = QuiverRep(
            levi, (1,) * len(tops), dict.fromkeys(range(len(levi.arrows)), ((1,),))
        )
        levi_rels = oracle.relations(levi, range(len(tops)))
        assert verify_flatness(ones) == oracle.flatness(ones, levi_rels), p


@pytest.mark.parametrize(
    "series,rank",
    [("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("A", 24), ("D", 24)],
)
def test_borel_arrow_table_is_the_induced_borel_quiver(series, rank):
    system = build_root_system(series, rank)
    table = _borel_arrows(system)
    b = borel(system)
    q = induced_quiver(b, b.tangent_weights, FULL)
    index = {r: i for i, r in enumerate(system.positive_roots)}
    assert table.src == tuple(a.src for a in q.arrows)
    assert table.dst == tuple(a.dst for a in q.arrows)
    assert table.weights == tuple(a.label for a in q.arrows)
    assert table.label == tuple(index[a.label] for a in q.arrows)
    maps = oracle.tangent_maps(q)
    assert table.maps == tuple(maps[k] for k in range(len(q.arrows)))


def _ball(b, start, top):
    """Weights within two nilradical steps of ``start`` whose entries stay within ``top``."""
    steps = list(b.nilradical_weights) + [-r for r in b.nilradical_weights]
    ball = {start}
    for _ in range(2):
        ball |= {w + s for w in ball for s in steps}
    return sorted((w for w in ball if max(map(abs, w.coords2)) <= top), key=lambda v: v.coords2)


@settings(derandomize=True, max_examples=10, deadline=None, database=None)
@given(data=st.data())
def test_packed_arrow_search_on_large_non_root_weights(data):
    top = 10**6
    for series, rank in (("D", 5), ("E", 6)):
        b = borel(build_root_system(series, rank))
        start = b.system.weight(
            (top, -top, top - 2, 2 - top) + (0,) * (b.system.ambient_dim - 4)
        )
        ball = _ball(b, start, top)
        vertices = data.draw(st.lists(st.sampled_from(ball), min_size=60, max_size=60, unique=True))
        vertices.sort(key=lambda v: v.coords2)
        for mode in (FULL, REDUCED):
            q = induced_quiver(b, vertices, mode)
            assert triples(q) == oracle.arrows(b, vertices, mode)
            assert len(q.arrows) > 10
    # (0, -top) + a1 = (2, -top - 2) packs onto (1, top - 1) in base 2 * top + 1,
    # so a base that only covers the vertices' own box finds a false arrow
    a1 = build_root_system("A", 1)
    far = [a1.weight(c) for c in
           ((0, -top), (1, top - 1), (-top, top), (top, -top), (top - 2, 2 - top))]
    q = induced_quiver(borel(a1), far, FULL)
    assert triples(q) == oracle.arrows(borel(a1), far) == [(4, 3, a1.simple_root(1))]


@pytest.mark.parametrize(
    "series,rank,sigma",
    [(s, r, None) for s, r in ALL_PARABOLICS] + [("E", 7, "borel"), ("E", 8, "borel")],
)
def test_reduced_closed_subsets_match_the_connectivity_filter(series, rank, sigma):
    system = build_root_system(series, rank)
    cases = [borel(system)] if sigma == "borel" else all_parabolics(system)
    for p in cases:
        trep = tangent_rep(p)
        for rep in (trep.levi_rep, trep.rep) if rank < 7 else (trep.levi_rep,):
            reduced = closed_subsets(rep, reduce=True)
            assert reduced == oracle.connected_sets(rep, closed_subsets(rep)), p
    if (series, rank) == ("E", 8):
        assert len(reduced) == 16513
