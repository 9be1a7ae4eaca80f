"""The cone kernel and the cone polynomials against their oracles.

``cone_oracle.normalized`` divides variable by variable through the
validating constructor.  On random tables, the kernel
(``stability._normalized_sum``) must agree with it on the term-by-term
sum of the columns, and ``cli._cone_chunks`` must write the kernel's
result as ``json.dumps`` writes the oracle's document.
``stability_cone`` must equal the term-by-term sum of the partial
derivatives along each slope gap, normalized by the oracle.
"""
import json
from math import gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st

from flagquiver import (
    ConeInequality,
    IntPoly,
    borel,
    build_parabolic,
    build_root_system,
    c1_picard,
    cli,
    closed_subsets,
    intersection_polynomial,
    stability_cone,
    tangent_rep,
)
from flagquiver.stability import _normalized_sum

from cone_oracle import cone_json, normalized
from conftest import all_parabolics


@st.composite
def _tables(draw):
    """Sorted exponent rows and k coefficient columns, with a common
    monomial and a content drawn into every row, and a slope gap."""
    k = draw(st.integers(1, 6))
    shift = draw(st.tuples(*[st.integers(0, 3)] * k))
    exps = sorted(
        tuple(e + s for e, s in zip(x, shift))
        for x in draw(st.sets(st.tuples(*[st.integers(0, 4)] * k), max_size=8))
    )
    coeffs = st.integers(-(10**6), 10**6) | st.integers(-(2**70), 2**70) | st.just(0)
    content = draw(st.sampled_from([1, 2, 6, 35]) | st.integers(1, 2**40))
    columns = [
        [c * content for c in draw(st.lists(coeffs, min_size=len(exps), max_size=len(exps)))]
        for _ in range(k)
    ]
    gap = draw(st.tuples(*[st.integers(-5, 5) | st.integers(-(2**64), 2**64)] * k))
    return exps, columns, list(gap)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(_tables())
# a zero gap: the empty polynomial, written as "monomials": []
@example(([(0, 1), (1, 0)], [[3, 4], [5, 6]], [0, 0]))
# an empty table
@example(([], [[]], [7]))
# content 6 and the common monomial x0 * x1^2, a negative coefficient
@example(([(1, 2, 0), (1, 3, 1)], [[12, -18], [0, 6], [6, 0]], [1, 0, 0]))
# coefficients past 2^63 of both signs, one cancelled row
@example(([(0, 2), (1, 1), (2, 0)], [[2**64, 3, 2**70], [-(2**65), 0, 5]], [2, 1]))
def test_normalized_matches_the_oracle(table):
    exps, columns, gap = table
    rows, coeffs, shift = _normalized_sum(columns, list(zip(*exps)), gap)
    sums = {
        e: sum(g * column[i] for g, column in zip(gap, columns))
        for i, e in enumerate(exps)
    }
    want = normalized(IntPoly(len(columns), sums))
    keys = [tuple(a - b for a, b in zip(exps[r], shift)) for r in rows]
    assert rows == sorted(rows)
    assert list(zip(keys, coeffs)) == sorted(want.terms.items())
    if coeffs:
        # nothing is left to divide out
        assert gcd(*coeffs) == 1
        assert all(min(col) == 0 for col in zip(*keys))
    inequality = ((0, 2), rows, coeffs, shift)
    written = "".join(cli._cone_chunks((exps, [inequality]), None))
    oracle = cone_json([ConeInequality((0, 2), want, True)])
    assert written == json.dumps(oracle, indent=2) + "\n"


def _cone_by_accumulation(p):
    """``stability_cone`` summed term by term from c1 of each subbundle."""
    qpolys = intersection_polynomial(p)
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
