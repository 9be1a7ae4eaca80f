"""Exact Surd arithmetic against sympy's algebraic numbers."""
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagquiver.stability import Surd

sympy = pytest.importorskip("sympy")

_surds = st.tuples(
    st.integers(-40, 40),
    st.integers(-40, 40),
    st.integers(0, 50),
    st.integers(-12, 12).filter(bool),
)


def _sympy_value(p, q, r, s):
    return (sympy.Integer(p) + q * sympy.sqrt(r)) / s


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_surds, _surds)
def test_surd_order_and_equality_match_sympy(u, v):
    x, y = Surd(*u), Surd(*v)
    diff = sympy.expand(_sympy_value(*u) - _sympy_value(*v))
    assert (x == y) == (diff == 0), (u, v)
    assert (x < y) == bool(diff < 0), (u, v)
    assert (x <= y) == bool(diff <= 0), (u, v)
    if x == y:
        assert hash(x) == hash(y)
    assert x.is_rational == _sympy_value(*u).is_rational, u


def _primes_above(low, count):
    """The first ``count`` primes above ``low``."""
    out = []
    n = low + 1
    while len(out) < count:
        if all(n % d for d in range(2, isqrt(n) + 1)):
            out.append(n)
        n += 1
    return out


# trial division stops at the cube root of what is left of the radicand,
# so a cofactor of two primes above that root is settled by one isqrt test
_BIG_PRIMES = _primes_above(10**4, 8) + _primes_above(10**6, 8)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.integers(1, 300),
    st.sampled_from(_BIG_PRIMES),
    st.sampled_from(_BIG_PRIMES),
    st.integers(-40, 40),
    st.integers(-40, 40).filter(bool),
    st.integers(1, 12),
)
def test_radicands_with_two_large_prime_factors_match_sympy(k, a, b, p, q, s):
    r = k * k * a * b
    surd = Surd(p, q, r, s)
    value = _sympy_value(p, q, r, s)
    assert sympy.expand(_sympy_value(surd.p, surd.q, surd.r, surd.s) - value) == 0
    # the normal form's radicand is square-free, and 0 for a rational surd
    assert all(e == 1 for e in sympy.factorint(surd.r).values())
    assert surd.is_rational == (a == b) == value.is_rational
