import pytest

from flagquiver import (
    ComponentVerificationFailed,
    EmptySigma,
    borel,
    build_parabolic,
    build_root_system,
    degree_cone,
    levi_components,
)
from conftest import all_parabolics, root_combo
from quiver_oracle import is_levi_dominant


def test_borel_tangent_weights_are_all_negative_roots():
    a3 = build_root_system("A", 3)
    p = borel(a3)
    assert len(p.tangent_weights) == 6
    assert set(p.tangent_weights) == set(a3.negative_roots)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_point_hyperplane_flag_dimension(n):
    system = build_root_system("A", n)
    p = build_parabolic(system, [1, n])
    assert p.dim == 2 * n - 1


def test_grassmannian_dimension():
    p = build_parabolic(build_root_system("A", 3), [2])
    assert p.dim == 4


def test_empty_sigma_rejected():
    with pytest.raises(EmptySigma):
        build_parabolic(build_root_system("A", 2), [])


def test_sigma_out_of_range_rejected():
    with pytest.raises(ValueError):
        build_parabolic(build_root_system("A", 2), [3])


@pytest.mark.parametrize(
    "series,rank,sigma",
    [("A", 3, (1, 3)), ("A", 4, (2,)), ("D", 4, (1,)), ("D", 5, (2, 4))],
)
def test_tangent_weights_negate_nilradical_and_partition_roots(series, rank, sigma):
    system = build_root_system(series, rank)
    p = build_parabolic(system, sigma)
    assert set(p.tangent_weights) == set(-w for w in p.nilradical_weights)
    levi_all = set(p.levi_positive) | set(-w for w in p.levi_positive)
    pieces = levi_all | set(p.nilradical_weights) | set(p.tangent_weights)
    assert pieces == set(system.roots)
    assert len(levi_all) + len(p.nilradical_weights) + len(p.tangent_weights) == len(
        system.roots
    )


def test_levi_dominance():
    a3 = build_root_system("A", 3)
    b = borel(a3)
    for w in a3.roots:
        assert is_levi_dominant(w, b)  # no unmarked roots, empty condition
    p13 = build_parabolic(a3, [1, 3])
    assert not is_levi_dominant(-a3.simple_root(2), p13)
    assert is_levi_dominant(root_combo(a3, (0, 1, 1)), p13)


def test_borel_components_are_singletons():
    d4 = build_root_system("D", 4)
    comps = levi_components(borel(d4))
    assert len(comps) == 12
    assert all(c.rank == 1 for c in comps)
    assert all(c.highest_weight == c.weights[0] for c in comps)


def test_point_hyperplane_component_ranks():
    a3 = build_root_system("A", 3)
    comps = levi_components(build_parabolic(a3, [1, 3]))
    assert sorted(c.rank for c in comps) == [1, 2, 2]


def test_grassmannian_single_component_matches_brute_force():
    a3 = build_root_system("A", 3)
    p = build_parabolic(a3, [2])
    comps = levi_components(p)
    assert [c.rank for c in comps] == [4]
    # brute-force connectivity over the 4 weights under Levi root shifts
    weights = set(p.tangent_weights)
    levi = list(p.levi_positive) + [-g for g in p.levi_positive]
    start = next(iter(weights))
    seen = {start}
    stack = [start]
    while stack:
        w = stack.pop()
        for g in levi:
            v = w + g
            if v in weights and v not in seen:
                seen.add(v)
                stack.append(v)
    assert seen == weights


@pytest.mark.parametrize("series,ranks", [("A", range(2, 6)), ("D", (4, 5))])
def test_component_ranks_sum_to_dimension(series, ranks):
    for rank in ranks:
        system = build_root_system(series, rank)
        for p in all_parabolics(system):
            comps = levi_components(p)
            assert sum(c.rank for c in comps) == p.dim
            for c in comps:
                maximal = [
                    w
                    for w in c.weights
                    if all((w + g) not in set(c.weights) for g in p.levi_positive)
                ]
                assert maximal == [c.highest_weight]


def test_generator_weights_degree_one():
    a3 = build_root_system("A", 3)
    p2 = build_parabolic(a3, [2])
    assert set(p2.generator_weights) == set(p2.nilradical_weights)
    b = borel(a3)
    assert set(b.generator_weights) == set(a3.simple_roots)


def _levi_connected_parts(p):
    """Tangent weights joined by adding or subtracting Levi roots (union-find)."""
    weights = p.tangent_weights
    index = {w: i for i, w in enumerate(weights)}
    parent = list(range(len(weights)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, w in enumerate(weights):
        for g in p.levi_positive:
            for v in (w + g, w - g):
                if v in index:
                    parent[find(index[v])] = find(i)
    parts = {}
    for i, w in enumerate(weights):
        parts.setdefault(find(i), []).append(w)
    return sorted(parts.values(), key=lambda ws: index[ws[0]])


@pytest.mark.parametrize(
    "series,ranks", [("A", range(1, 7)), ("D", (4, 5, 6)), ("E", (6,))]
)
def test_components_are_the_levi_connected_parts(series, ranks):
    # the marked-degree grouping equals connectivity under the Levi roots,
    # order included
    for rank in ranks:
        for p in all_parabolics(build_root_system(series, rank)):
            comps = levi_components(p)
            assert [list(c.weights) for c in comps] == _levi_connected_parts(p)


def _grading_cases():
    for rank in range(1, 7):
        yield from all_parabolics(build_root_system("A", rank))
    for rank in (4, 5, 6):
        yield from all_parabolics(build_root_system("D", rank))
    yield borel(build_root_system("E", 6))


def _marked_coefficients(p, root):
    exp = p.system.expansion(root)
    return tuple(exp[i - 1] for i in p.sigma)


def test_marked_degrees_match_the_root_expansions():
    # the grading is computed once, in ParabolicData; every reader of it
    # must see the coefficients an expansion gives
    for p in _grading_cases():
        expanded = tuple(_marked_coefficients(p, r) for r in p.nilradical_weights)
        assert p.marked_degrees == expanded
        assert p.generator_weights == tuple(
            r for r, d in zip(p.nilradical_weights, expanded) if sum(d) == 1
        )
        comps = levi_components(p)
        for c in comps:
            for w in c.weights:
                assert c.degree == _marked_coefficients(p, -w), (p, c)
        assert degree_cone(p).forms == tuple(
            _marked_coefficients(p, -c.highest_weight) for c in comps
        ), p


def test_levi_components_refuse_groupings_that_are_not_irreducible():
    # A3{1,3} with every weight in one group: -a1, -a3 and -(a1+a2+a3) are
    # all Levi-maximal, since a2 is the only Levi root
    p = build_parabolic(build_root_system("A", 3), (1, 3))
    p.marked_degrees = ((1,),) * p.dim
    with pytest.raises(ComponentVerificationFailed, match="3 Levi-maximal weights"):
        levi_components(p)
    # A3{2} split by the coefficient of a3: {-a2, -(a1+a2)} has the unique
    # top -a2, whose module under the Levi A1 x A1 has dimension 4
    p = build_parabolic(build_root_system("A", 3), (2,))
    p.marked_degrees = tuple(
        (1 + p.system.expansion(r)[2],) for r in p.nilradical_weights
    )
    with pytest.raises(ComponentVerificationFailed, match="size 2 but Weyl dimension 4"):
        levi_components(p)
