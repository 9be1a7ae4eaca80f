import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagquiver import (
    BudgetExceeded,
    IntPoly,
    borel,
    build_parabolic,
    build_root_system,
    coset_count,
    intersection_number,
    intersection_polynomial,
    minimal_coset_reps,
    multinomial,
)
from flagquiver.rootsys import _dot2

from conftest import all_parabolics
from schubert_oracle import chevalley_multiply, multiply_by_divisors, unit_cycle


def reflect_in(system, root, coords):
    q = _dot2(coords, root.coords2) // 4
    return tuple(c - q * r for c, r in zip(coords, root.coords2))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_projective_space_cells(n):
    system = build_root_system("A", n)
    p = build_parabolic(system, [1])
    reps = minimal_coset_reps(p, p.dim)
    assert len(reps) == n + 1
    assert sorted(w.length for w in reps) == list(range(n + 1))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_point_hyperplane_cell_count(n):
    system = build_root_system("A", n)
    p = build_parabolic(system, [1, n])
    reps = minimal_coset_reps(p, p.dim)
    assert len(reps) == (n + 1) * n
    assert coset_count(p) == (n + 1) * n


def test_borel_a2_weyl_group():
    p = borel(build_root_system("A", 2))
    assert len(minimal_coset_reps(p, p.dim)) == 6


def test_coset_count_from_heights_matches_enumeration():
    systems = [("A", r) for r in range(1, 6)] + [("D", 4), ("D", 5), ("E", 6)]
    checked = 0
    for series, rank in systems:
        for p in all_parabolics(build_root_system(series, rank)):
            count = coset_count(p)
            if count <= 2000:
                assert count == len(minimal_coset_reps(p, p.dim)), p
                checked += 1
    assert checked == 119


def test_budget_checks_read_the_heights_once(monkeypatch):
    # every intersection_number checks the budget; a cached volume
    # polynomial keeps its parabolic's count beside it, so no check of a
    # cached parabolic reads a root height again
    system = build_root_system("A", 4)
    calls = []
    height = system.height
    monkeypatch.setattr(system, "height", lambda root: calls.append(root) or height(root))

    def intersections():
        p = borel(system)
        for exps in intersection_polynomial(p)[0].terms:
            intersection_number(p, (exps[0] + 1,) + exps[1:])

    intersections()
    before = len(calls)
    intersections()
    assert len(calls) == before
    assert coset_count(borel(system)) == 120


@pytest.mark.parametrize("rank,order", [(7, 2903040), (8, 696729600)])
def test_coset_count_of_e7_e8_borel_is_the_weyl_group_order(rank, order):
    assert coset_count(borel(build_root_system("E", rank))) == order


def test_minimal_reps_length_bound_and_validation():
    p = borel(build_root_system("A", 2))
    assert len(minimal_coset_reps(p, 1)) == 3  # identity plus two reflections
    with pytest.raises(ValueError):
        minimal_coset_reps(p, p.dim + 1)


def test_budget_exceeded():
    e7 = borel(build_root_system("E", 7))
    with pytest.raises(BudgetExceeded):
        minimal_coset_reps(e7, 2)
    with pytest.raises(BudgetExceeded):
        minimal_coset_reps(borel(build_root_system("A", 3)), 2, budget=10)


def test_divisor_multiplication_on_p1():
    system = build_root_system("A", 1)
    p = borel(system)
    cycle = chevalley_multiply(unit_cycle(p), 1)
    s1_rho = reflect_in(system, system.simple_root(1), system.rho.coords2)
    assert cycle.coefficients == {s1_rho: 1}
    assert cycle.codimension == 1
    # beyond the top degree everything dies
    assert chevalley_multiply(cycle, 1).coefficients == {}


def test_divisor_multiplication_monk_a2():
    system = build_root_system("A", 2)
    p = borel(system)
    rho = system.rho.coords2
    a1, a2 = system.simple_roots
    s1_rho = reflect_in(system, a1, rho)
    s2s1_rho = reflect_in(system, a2, s1_rho)
    once = chevalley_multiply(unit_cycle(p), 1)
    assert once.coefficients == {s1_rho: 1}
    twice = chevalley_multiply(once, 1)
    assert twice.coefficients == {s2s1_rho: 1}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_projective_space_degree(n):
    p = build_parabolic(build_root_system("A", n), [1])
    assert intersection_number(p, (n,)) == 1


def test_flag_sl3_intersections():
    p = build_parabolic(build_root_system("A", 2), [1, 2])
    assert intersection_number(p, (1, 2)) == 1
    assert intersection_number(p, (2, 1)) == 1
    assert intersection_number(p, (3, 0)) == 0
    assert intersection_number(p, (0, 3)) == 0


SL4_TABLE = {
    (1, 4, 1): 2,
    (2, 2, 2): 2,
    (1, 3, 2): 2,
    (2, 3, 1): 2,
    (3, 2, 1): 1,
    (1, 2, 3): 1,
    (3, 1, 2): 1,
    (2, 1, 3): 1,
}


def test_sl4_borel_table():
    p = borel(build_root_system("A", 3))
    seen = {}
    for e0 in range(7):
        for e1 in range(7 - e0):
            e2 = 6 - e0 - e1
            v = intersection_number(p, (e0, e1, e2))
            if v:
                seen[(e0, e1, e2)] = v
    assert seen == SL4_TABLE


def test_intersection_number_validation():
    p = borel(build_root_system("A", 2))
    with pytest.raises(ValueError):
        intersection_number(p, (1, 1))  # wrong total
    with pytest.raises(ValueError):
        intersection_number(p, (3,))  # wrong arity


@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(st.permutations([1, 2, 2, 2, 2, 3]))  # FG^4H
def test_multiplication_order_invariance(order):
    p = borel(build_root_system("A", 3))
    reference = multiply_by_divisors(p, [1, 2, 2, 2, 2, 3]).coefficients
    assert multiply_by_divisors(p, order).coefficients == reference


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_point_hyperplane_table_and_reversal_symmetry(n):
    p = build_parabolic(build_root_system("A", n), [1, n])
    dim = 2 * n - 1
    for i in range(dim + 1):
        j = dim - i
        expected = 1 if {i, j} == {n - 1, n} else 0
        assert intersection_number(p, (i, j)) == expected
        assert intersection_number(p, (j, i)) == expected


def test_intersection_polynomial_flag_sl3():
    p = build_parabolic(build_root_system("A", 2), [1, 2])
    q = intersection_polynomial(p)
    assert q[0] == IntPoly(2, {(0, 2): 1, (1, 1): 2})
    assert q[1] == IntPoly(2, {(2, 0): 1, (1, 1): 2})
    assert q[0].evaluate((1, 1)) == q[1].evaluate((1, 1)) == 3


def test_intersection_polynomial_p2():
    p = build_parabolic(build_root_system("A", 2), [1])
    q = intersection_polynomial(p)
    assert q[0] == IntPoly(1, {(1,): 1})


def test_intersection_polynomial_validation():
    # the second argument is the budget: |W/W_P| > dim always, so a call
    # that still passes the old degree dim - 1 there is refused
    for series, rank, sigma in [("A", 1, (1,)), ("A", 2, (1, 2)), ("D", 4, (2,))]:
        p = build_parabolic(build_root_system(series, rank), sigma)
        with pytest.raises(BudgetExceeded):
            intersection_polynomial(p, p.dim - 1)
        assert intersection_polynomial(p, coset_count(p)) == intersection_polynomial(p)


@pytest.mark.parametrize("sigma", [(1, 2), (1,)])
def test_euler_degree_identity(sigma):
    # sum_i a_i q_i(a) must expand to (sum a_i H_i)^dim
    p = build_parabolic(build_root_system("A", 2), sigma)
    k = len(sigma)
    q = intersection_polynomial(p)
    lhs = {}
    for pos in range(k):
        for exps, coeff in q[pos].terms.items():
            shifted = list(exps)
            shifted[pos] += 1
            lhs[tuple(shifted)] = lhs.get(tuple(shifted), 0) + coeff
    rhs = {}
    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest
    for exps in compositions(p.dim, k):
        v = intersection_number(p, exps)
        if v:
            rhs[exps] = multinomial(p.dim, exps) * v
    assert {e: c for e, c in lhs.items() if c} == rhs


def test_euler_degree_identity_sl4():
    p = borel(build_root_system("A", 3))
    q = intersection_polynomial(p)
    lhs = {}
    for pos in range(3):
        for exps, coeff in q[pos].terms.items():
            shifted = list(exps)
            shifted[pos] += 1
            key = tuple(shifted)
            lhs[key] = lhs.get(key, 0) + coeff
    lhs = {e: c for e, c in lhs.items() if c}
    rhs = {e: multinomial(6, e) * v for e, v in SL4_TABLE.items()}
    assert lhs == rhs
