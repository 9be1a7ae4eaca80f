"""The volume polynomial against the Schubert divisor chain, exactly.

The oracle for a monomial H^e is the top coefficient of
``multiply_by_divisors`` along the divisor sequence of e; the volume
polynomial must carry it times multinomial(dim, e).
"""
import functools
import itertools
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagquiver import (
    BudgetExceeded,
    IntPoly,
    borel,
    build_parabolic,
    build_root_system,
    intersection_number,
    intersection_polynomial,
    minimal_coset_reps,
    multinomial,
    volume_polynomial,
)
from flagquiver import schubert

from conftest import all_parabolics
from schubert_oracle import multiply_by_divisors


def compositions(total, parts):
    """Every exponent tuple of ``parts`` entries summing to ``total``."""
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        edges = (-1,) + bars + (total + parts - 1,)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def chain_number(p, exps):
    """Top intersection number by iterated divisor multiplication."""
    sequence = [i for i, e in zip(p.sigma, exps) for _ in range(e)]
    cycle = multiply_by_divisors(p, sequence)
    # a codimension-dim cycle lives on the unique longest coset rep
    assert len(cycle.coefficients) <= 1
    return sum(cycle.coefficients.values())


def check_against_chains(p, monomials):
    volume = volume_polynomial(p)
    chains = {}
    for exps in monomials:
        chains[exps] = chain_number(p, exps)
        assert volume.terms.get(exps, 0) == multinomial(p.dim, exps) * chains[exps]
        assert intersection_number(p, exps) == chains[exps]
    return chains


def check_every_monomial(p):
    k = len(p.sigma)
    chains = check_against_chains(p, list(compositions(p.dim, k)))
    assert volume_polynomial(p) == IntPoly(
        k, {e: multinomial(p.dim, e) * v for e, v in chains.items()}
    )
    polys = intersection_polynomial(p)
    for pos in range(k):
        expected = {}
        for exps in compositions(p.dim - 1, k):
            raised = exps[:pos] + (exps[pos] + 1,) + exps[pos + 1:]
            expected[exps] = multinomial(p.dim - 1, exps) * chains[raised]
        assert polys[pos] == IntPoly(k, expected)


def small_parabolics():
    for rank in range(1, 5):
        yield from all_parabolics(build_root_system("A", rank))
    yield from all_parabolics(build_root_system("D", 4))
    yield build_parabolic(build_root_system("A", 5), (1, 5))
    yield build_parabolic(build_root_system("D", 5), (2, 4))
    yield build_parabolic(build_root_system("E", 6), (1, 6))


@pytest.mark.parametrize("p", list(small_parabolics()), ids=repr)
def test_every_monomial_matches_the_schubert_chain(p):
    check_every_monomial(p)


@functools.cache
def borel_monomials(series, rank):
    """The Borel parabolic, the support of its volume polynomial, and the rest."""
    p = borel(build_root_system(series, rank))
    support = sorted(volume_polynomial(p).terms)
    zeros = sorted(set(compositions(p.dim, rank)) - set(support))
    return p, support, zeros


@pytest.mark.parametrize("series,rank", [("A", 5), ("D", 5)])
@settings(derandomize=True, max_examples=3, deadline=None, database=None)
@given(data=st.data())
def test_sampled_borel_monomials_match_the_schubert_chain(series, rank, data):
    p, support, zeros = borel_monomials(series, rank)
    nonzero = data.draw(st.lists(st.sampled_from(support), min_size=1, max_size=8, unique=True))
    zero = data.draw(st.lists(st.sampled_from(zeros), min_size=1, max_size=4, unique=True))
    chains = check_against_chains(p, nonzero + zero)
    assert all(chains[e] for e in nonzero)
    assert not any(chains[e] for e in zero)


@pytest.mark.parametrize(
    "series,rank",
    [("A", r) for r in range(1, 7)] + [("D", 4), ("D", 5)],
)
def test_borel_volume_at_rho_is_dim_factorial(series, rank):
    # at a = (1,...,1) the class is rho and every factor of the product is 1
    p = borel(build_root_system(series, rank))
    assert volume_polynomial(p).evaluate((1,) * rank) == factorial(p.dim)


def test_caches_are_keyed_on_the_parabolic_not_the_budget():
    p = borel(build_root_system("A", 3))
    for budget in (10**6, 10**5):
        minimal_coset_reps(p, 2, budget=budget)
        volume_polynomial(p, budget=budget)
    key = ("A", 3, (1, 2, 3))
    assert [k for k in schubert._TABLE_CACHE if k[:3] == key] == [key]
    assert [k for k in schubert._VOLUME_CACHE if k[:3] == key] == [key]
    # a cached parabolic is still refused under a smaller budget
    with pytest.raises(BudgetExceeded):
        minimal_coset_reps(p, 2, budget=10)
    with pytest.raises(BudgetExceeded):
        volume_polynomial(p, budget=10)
    with pytest.raises(BudgetExceeded):
        intersection_number(p, (2, 2, 2), budget=10)


def test_volume_cache_keeps_only_the_most_recent_parabolics():
    bound = schubert._VOLUME_CACHE_SIZE
    schubert._VOLUME_CACHE.clear()
    parabolics = list(all_parabolics(build_root_system("A", 4)))[: bound + 3]
    assert len(parabolics) == bound + 3
    first = parabolics[0]
    kept = volume_polynomial(first)
    for p in parabolics:
        volume_polynomial(p)
        assert len(schubert._VOLUME_CACHE) <= bound
    keys = list(schubert._VOLUME_CACHE)
    assert keys == [("A", 4, p.sigma) for p in parabolics[-bound:]]
    # the evicted parabolic is expanded again, to the same polynomial
    again = volume_polynomial(first)
    assert again == kept and again is not kept
    assert list(schubert._VOLUME_CACHE)[-1] == ("A", 4, first.sigma)
    assert volume_polynomial(first) is again
    with pytest.raises(BudgetExceeded):
        volume_polynomial(first, budget=1)
