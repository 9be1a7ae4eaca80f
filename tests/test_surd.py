"""Exact Surd arithmetic against sympy's algebraic numbers."""
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
