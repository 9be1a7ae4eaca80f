"""``IntPoly.normalized`` and the cone polynomials against their oracles.

``cone_oracle.normalized`` divides variable by variable through the
validating constructor; ``stability_cone`` must equal the term-by-term
sum of the partial derivatives along each slope gap, normalized by it.
"""
from math import gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st

from flagquiver import (
    IntPoly,
    borel,
    build_parabolic,
    build_root_system,
    c1_picard,
    closed_subsets,
    intersection_polynomial,
    stability_cone,
    tangent_rep,
)

from cone_oracle import normalized
from conftest import all_parabolics


@st.composite
def _polys(draw):
    """A polynomial times a positive content and a common monomial."""
    n = draw(st.integers(1, 6))
    exps = st.tuples(*[st.integers(0, 4)] * n)
    coeffs = st.integers(-(10**6), 10**6).filter(bool) | st.integers(-(2**70), 2**70).filter(bool)
    terms = draw(st.dictionaries(exps, coeffs, max_size=8))
    content = draw(st.sampled_from([1, 2, 6, 35]) | st.integers(1, 2**40))
    shift = draw(st.tuples(*[st.integers(0, 3)] * n))
    return IntPoly(n, {
        tuple(e + s for e, s in zip(x, shift)): c * content for x, c in terms.items()
    })


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(_polys())
@example(IntPoly(3))
@example(IntPoly(1, {(5,): -12}))
@example(IntPoly(6, {(1, 2, 0, 0, 3, 1): 4, (1, 1, 1, 0, 3, 2): -6}))
def test_normalized_matches_the_oracle(poly):
    got = poly.normalized()
    assert got == normalized(poly)
    assert got.normalized() == got
    if not got.is_zero:
        # nothing is left to divide out
        assert gcd(*got.terms.values()) == 1
        assert all(min(col) == 0 for col in zip(*got.terms))


def _cone_by_accumulation(p):
    """``stability_cone`` summed term by term from c1 of each subbundle."""
    qpolys = intersection_polynomial(p, p.dim - 1)
    trep = tangent_rep(p)
    c1_tangent = c1_picard(p.tangent_weights, p)
    k = len(p.sigma)
    out = []
    for subset in closed_subsets(trep.levi_rep, reduce=True):
        weights = [w for ci in subset for w in trep.components[ci].weights]
        c1_sub = c1_picard(weights, p)
        gap = [len(weights) * t - p.dim * s for t, s in zip(c1_tangent, c1_sub)]
        terms = {}
        for pos, d in enumerate(gap):
            for exps, coeff in qpolys[pos].terms.items():
                terms[exps] = terms.get(exps, 0) + d * coeff
        out.append((subset, normalized(IntPoly(k, terms)), True))
    return out


def test_cone_polynomials_match_term_by_term_accumulation():
    cases = [p for r in range(1, 5) for p in all_parabolics(build_root_system("A", r))]
    cases += list(all_parabolics(build_root_system("D", 4)))
    cases += [borel(build_root_system("A", 5)),
              build_parabolic(build_root_system("D", 5), (2, 4))]
    for p in cases:
        cone = stability_cone(p)
        assert [tuple(iq) for iq in cone] == _cone_by_accumulation(p), p.sigma
