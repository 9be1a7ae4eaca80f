import functools
import itertools
from math import isqrt, prod
from operator import mul

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from flagquiver import (
    BOUNDARY,
    Arrow,
    BudgetExceeded,
    InducedQuiver,
    IntPoly,
    KingVerdict,
    NotAmple,
    NotLeviTrivialDeterminant,
    NotMultiplicityFree,
    NotQuadratic,
    NotTwoParameter,
    QuiverRep,
    STABLE,
    SigmaCharacter,
    UNSTABLE,
    boundary_2d,
    borel,
    build_parabolic,
    build_root_system,
    c1_picard,
    closed_subsets,
    degree_cone,
    degree_membership,
    equivalence_check,
    intersection_polynomial,
    is_sigma_semistable,
    levi_components,
    sigma_from_polarization,
    stability_cone,
    tangent_rep,
)
from flagquiver import schubert, stability
from flagquiver.stability import ConeInequality, Surd, _line_runs
from cone_oracle import cone_membership
from conftest import all_parabolics
from test_tangentrep import little_rep


def test_c1_of_full_tangent_bundles():
    a3 = build_root_system("A", 3)
    assert c1_picard(borel(a3).tangent_weights, borel(a3)) == (2, 2, 2)
    for n in (2, 3, 4):
        system = build_root_system("A", n)
        p = build_parabolic(system, [1, n])
        assert c1_picard(p.tangent_weights, p) == (n, n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_c1_of_point_hyperplane_components(n):
    system = build_root_system("A", n)
    p = build_parabolic(system, [1, n])
    tuples = sorted(c1_picard(c.weights, p) for c in levi_components(p))
    assert tuples == sorted([(-1, n), (n, -1), (1, 1)])


def test_c1_requires_levi_trivial_determinant():
    a3 = build_root_system("A", 3)
    p = build_parabolic(a3, [1, 3])
    bad = -(a3.simple_root(1) + a3.simple_root(2))
    with pytest.raises(NotLeviTrivialDeterminant):
        c1_picard([bad], p)


def test_stability_cone_flag_sl3_exact():
    p = build_parabolic(build_root_system("A", 2), [1, 2])
    cone = stability_cone(p)
    polys = sorted(tuple(iq.polynomial.sorted_items()) for iq in cone)
    assert polys == sorted(
        [
            tuple(IntPoly(2, {(0, 2): 5, (1, 1): 2, (2, 0): -4}).sorted_items()),
            tuple(IntPoly(2, {(0, 2): -4, (1, 1): 2, (2, 0): 5}).sorted_items()),
        ]
    )
    assert all(iq.strict for iq in cone)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_stability_cone_point_hyperplane_quadratics(n):
    p = build_parabolic(build_root_system("A", n), [1, n])
    cone = stability_cone(p)
    polys = {tuple(iq.polynomial.sorted_items()) for iq in cone}
    quad = IntPoly(2, {(0, 2): n * n + n - 1, (1, 1): n, (2, 0): -n * n})
    swap = IntPoly(2, {(2, 0): n * n + n - 1, (1, 1): n, (0, 2): -n * n})
    assert polys == {tuple(quad.sorted_items()), tuple(swap.sorted_items())}


def test_stability_cone_sl4_borel_has_six_inequalities():
    cone = stability_cone(borel(build_root_system("A", 3)))
    assert len(cone) == 6
    assert all(iq.polynomial.degree <= 5 for iq in cone)


def test_cone_membership_examples():
    p = build_parabolic(build_root_system("A", 2), [1, 2])
    cone = stability_cone(p)
    assert cone_membership(cone, (1, 1)) == STABLE
    assert cone_membership(cone, (1, 10)) == UNSTABLE
    assert cone_membership(cone, (10, 1)) == UNSTABLE
    with pytest.raises(NotAmple):
        cone_membership(cone, (1, 0))
    cone3 = stability_cone(borel(build_root_system("A", 3)))
    assert cone_membership(cone3, (2, 2, 2)) == STABLE


def test_cone_membership_boundary_value():
    fake = [ConeInequality((0,), IntPoly(2, {(1, 0): 1, (0, 1): -1}), True)]
    assert cone_membership(fake, (2, 2)) == BOUNDARY
    assert cone_membership(fake, (3, 2)) == STABLE
    assert cone_membership(fake, (2, 3)) == UNSTABLE


def surd_m(n):
    return Surd(-n, n, 4 * n * n + 4 * n - 3, 2 * (n * n + n - 1))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_boundary_closed_form(n):
    p = build_parabolic(build_root_system("A", n), [1, n])
    bounds = boundary_2d(stability_cone(p))
    assert bounds.lower == surd_m(n)
    assert bounds.upper == Surd(1, 1, 4 * n * n + 4 * n - 3, 2 * n)
    assert not bounds.has_rational_endpoint
    approx = float(bounds.lower) * float(bounds.upper)
    assert abs(approx - 1.0) < 1e-12  # the endpoints are reciprocal slopes


def test_boundary_numeric_value_n2():
    p = build_parabolic(build_root_system("A", 2), [1, 2])
    bounds = boundary_2d(stability_cone(p))
    assert abs(float(bounds.lower) - 0.716515) < 1e-6


def test_radicand_is_never_a_perfect_square():
    for n in range(1, 1001):
        r = 4 * n * n + 4 * n - 3
        assert isqrt(r) ** 2 != r


def test_boundary_errors():
    cone3 = stability_cone(borel(build_root_system("A", 3)))
    with pytest.raises(NotTwoParameter):
        boundary_2d(cone3)
    quartic = [ConeInequality((0,), IntPoly(2, {(0, 4): 1, (4, 0): -1}), True)]
    with pytest.raises(NotQuadratic):
        boundary_2d(quartic)


def test_surd_ordering_and_normalization():
    assert Surd(0, 1, 8, 2) == Surd(0, 2, 2, 2) == Surd(0, 1, 2, 1)
    assert Surd(1, 0, 0, 2) < Surd(0, 1, 2, 1)         # 1/2 < sqrt(2)
    assert Surd(0, 1, 2, 1) < Surd(0, 1, 3, 1)         # sqrt(2) < sqrt(3)
    assert Surd(-1, 1, 21, 5) < Surd(1, 1, 21, 4)      # m(2) < 1/m(2)
    assert Surd(7, 0, 0, 5) < Surd(0, 1, 2, 1)         # 1.4 < sqrt(2)
    assert Surd(0, 1, 2, 1) < Surd(3, 0, 0, 2)         # sqrt(2) < 1.5
    assert Surd(2, 0, 0, 1).is_rational
    assert Surd(0, 3, 4, 1) == Surd(6, 0, 0, 1)        # 3*sqrt(4) = 6


def test_surd_with_zero_radicand_is_rational():
    # q*sqrt(0) vanishes, so the surd is the rational p/s
    assert Surd(1, 1, 0, 1) == Surd(1, 0, 0, 1)
    assert hash(Surd(1, 1, 0, 1)) == hash(Surd(1, 0, 0, 1))
    assert Surd(3, -5, 0, 6).is_rational
    assert (Surd(3, -5, 0, 6).p, Surd(3, -5, 0, 6).s) == (1, 2)
    # -(b - a)^2 has a double root: the closed cone is the rational slope 1
    double = IntPoly(2, {(2, 0): -1, (1, 1): 2, (0, 2): -1})
    bounds = boundary_2d([ConeInequality((0,), double, True)])
    assert bounds.lower == bounds.upper == Surd(1, 0, 0, 1)
    assert bounds.has_rational_endpoint


IDENTITY_CASES = [
    ("A", 2, (1, 2)),
    ("A", 3, (1, 3)),
    ("A", 3, (1, 2, 3)),
    ("A", 4, (1, 2, 3, 4)),
    ("A", 4, (1, 4)),
    ("D", 4, (1, 2, 3, 4)),
    ("D", 5, (2, 4)),
    ("E", 6, (1, 6)),
]


@functools.cache
def _identity_case(case):
    series, rank, sigma = case
    p = build_parabolic(build_root_system(series, rank), sigma)
    return p, tangent_rep(p).levi_rep, stability_cone(p)


def _case_points(cases, high, arity=lambda case: len(case[2])):
    """A case and an ample point of its arity with entries up to ``high``."""
    return st.sampled_from(cases).flatmap(
        lambda case: st.tuples(st.just(case), st.tuples(*[st.integers(1, high)] * arity(case)))
    )


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(_case_points(IDENTITY_CASES, 9))
@example((("A", 2, (1, 2)), (1, 1)))
@example((("A", 2, (1, 2)), (1, 10)))
@example((("A", 2, (1, 2)), (3, 2)))
@example((("A", 3, (1, 3)), (1, 1)))
@example((("A", 3, (1, 3)), (2, 5)))
@example((("A", 3, (1, 3)), (7, 1)))
def test_sigma_character_identity_with_cone_polynomials(case_h):
    # the character value of a subbundle is the negated inequality value up
    # to the positive factor dropped by normalization: both read one slope
    # gap per component, and a subbundle's gap is the sum of its components'
    case, h = case_h
    p, rep, cone = _identity_case(case)
    character = sigma_from_polarization(rep, p, h)
    assert sum(character.values) == 0
    for iq in cone:
        sig = sum(character.values[v] for v in iq.subbundle)
        val = iq.polynomial.evaluate(h)
        assert (sig > 0) == (val < 0)
        assert (sig == 0) == (val == 0)


def _king_oracle_cases():
    """Every parabolic of A1..A5, D4, D5 and E6 but E6/B.

    E6/B's expanded intersection polynomials (1.6 M terms) take seconds
    and hundreds of MB, too much for the suite.
    """
    systems = [("A", rank) for rank in range(1, 6)] + [("D", 4), ("D", 5), ("E", 6)]
    return [(series, rank, p.sigma)
            for series, rank in systems
            for p in all_parabolics(build_root_system(series, rank))
            if not (series == "E" and p.is_borel)]


@functools.lru_cache(maxsize=1)
def _expanded_intersections(case):
    series, rank, sigma = case
    p = build_parabolic(build_root_system(series, rank), sigma)
    qpolys = intersection_polynomial(p)
    return p, [qpolys[pos] for pos in range(len(sigma))]


@pytest.mark.parametrize("case", _king_oracle_cases(),
                         ids=lambda case: f"{case[0]}{case[1]}-{case[2]}")
@settings(derandomize=True, max_examples=2, deadline=None, database=None)
@given(data=st.data())
def test_factored_intersections_match_the_expanded_polynomials(case, data):
    # the King character's q(h) read off the factored volume, against the
    # derivatives of the expanded volume polynomial evaluated at h
    p, qpolys = _expanded_intersections(case)
    comps = levi_components(p)
    point = st.tuples(*[st.integers(1, 30)] * len(p.sigma))
    for h in data.draw(st.lists(point, min_size=1, max_size=3)):
        assert schubert._top_intersections(p, comps, h) == [q.evaluate(h) for q in qpolys]


def test_sigma_requires_ample():
    p = build_parabolic(build_root_system("A", 2), [1, 2])
    trep = tangent_rep(p)
    with pytest.raises(NotAmple):
        sigma_from_polarization(trep.levi_rep, p, (0, 1))


def test_sigma_requires_the_levi_rep_in_component_order():
    # the character is read off the components in order, so any other rep
    # is refused: the Borel-level rep, and the Levi rep with two vertices
    # swapped
    p = build_parabolic(build_root_system("A", 3), [1, 3])
    trep = tangent_rep(p)
    q = trep.levi_rep.quiver
    swap = [1, 0] + list(range(2, len(q.vertices)))
    swapped = QuiverRep(
        InducedQuiver(
            [q.vertices[v] for v in swap],
            [Arrow(swap[a.src], swap[a.dst], a.label) for a in q.arrows],
            q.mode,
            p,
        ),
        trep.levi_rep.dims,
        trep.levi_rep.maps,
    )
    assert sigma_from_polarization(trep.levi_rep, p, (1, 1)).polarization == (1, 1)
    for rep in (trep.rep, swapped):
        with pytest.raises(ValueError):
            sigma_from_polarization(rep, p, (1, 1))


def test_polarization_entries_must_be_integers():
    # an entry was truncated once: (1.5, 2, 3) got the verdict of (1, 2, 3)
    p = borel(build_root_system("A", 3))
    degrees = degree_cone(p)
    for entry in (1.5, "2"):
        with pytest.raises(ValueError, match=f"entry {entry!r} is not an integer"):
            degree_membership(degrees, (entry, 2, 3))
    assert degree_membership(degrees, (np.int64(1), 2, 3)) == degree_membership(
        degrees, (1, 2, 3)
    )
    p2 = build_parabolic(build_root_system("A", 2), [1, 2])
    rep = tangent_rep(p2).levi_rep
    with pytest.raises(ValueError):
        sigma_from_polarization(rep, p2, (1, 2.0))
    assert sigma_from_polarization(rep, p2, (np.int32(1), 1)) == sigma_from_polarization(
        rep, p2, (1, 1)
    )


def test_king_verdicts_flag_sl3():
    p = build_parabolic(build_root_system("A", 2), [1, 2])
    trep = tangent_rep(p)
    good = is_sigma_semistable(
        trep.levi_rep, sigma_from_polarization(trep.levi_rep, p, (1, 1))
    )
    assert good == (True, True, None)
    bad = is_sigma_semistable(
        trep.levi_rep, sigma_from_polarization(trep.levi_rep, p, (1, 10))
    )
    assert not bad.semistable and not bad.stable
    assert bad.witness is not None
    witness_weights = [trep.components[v].weights for v in bad.witness]
    assert c1_picard(
        [w for ws in witness_weights for w in ws], p
    ) == (2, -1)


def test_king_zero_character_is_semistable_not_stable():
    from flagquiver.stability import SigmaCharacter

    p = build_parabolic(build_root_system("A", 2), [1, 2])
    trep = tangent_rep(p)
    zero = SigmaCharacter((0,) * 3, (1, 1))
    verdict = is_sigma_semistable(trep.levi_rep, zero)
    assert verdict.semistable and not verdict.stable
    assert verdict.witness is not None


def test_king_requires_multiplicity_free():
    from flagquiver.stability import SigmaCharacter

    rep = little_rep(1, [], dims=(2,))
    with pytest.raises(NotMultiplicityFree):
        is_sigma_semistable(rep, SigmaCharacter((0,), (1,)))


def _two_pass_king(rep, subsets, sigma):
    """The King rule in two passes over the subsets, as the oracle.

    The witness is the first subset of positive slope, or else the first
    subset of slope zero, each slope weighted by the dimension vector.
    """
    values = sigma.values
    if sum(v * d for v, d in zip(values, rep.dims)) != 0:
        return KingVerdict(False, False, None)
    for s in subsets:
        if sum(values[v] * rep.dims[v] for v in s) > 0:
            return KingVerdict(False, False, s)
    for s in subsets:
        if sum(values[v] * rep.dims[v] for v in s) == 0:
            return KingVerdict(True, False, s)
    return KingVerdict(True, True, None)


@functools.lru_cache(maxsize=None)
def _king_rep(case):
    series, rank, sigma = case
    p = build_parabolic(build_root_system(series, rank), sigma)
    rep = tangent_rep(p).levi_rep
    return p, rep, closed_subsets(rep, reduce=False)


KING_CASES = [(series, rank, p.sigma)
              for series, rank in [("A", 2), ("A", 3), ("A", 4), ("D", 4)]
              for p in all_parabolics(build_root_system(series, rank))] + [
    ("A", 5, (1, 2, 3, 4, 5)), ("D", 5, (1, 2, 3, 4, 5))]


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_one_pass_king_matches_the_two_pass_rule(data):
    # characters from drawn polarizations, and small drawn characters whose
    # total is zero, so that slope-zero witnesses come up often
    p, rep, subsets = _king_rep(data.draw(st.sampled_from(KING_CASES)))
    n = len(rep.dims)
    if data.draw(st.booleans()):
        h = data.draw(st.tuples(*[st.integers(1, 30)] * len(p.sigma)))
        sigma = sigma_from_polarization(rep, p, h)
    else:
        values = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        if data.draw(st.booleans()):
            values[-1] -= sum(map(mul, values, rep.dims))
        sigma = SigmaCharacter(tuple(values), ())
    assert stability._king(rep, subsets, sigma) == _two_pass_king(rep, subsets, sigma)


def test_equivalence_check_degenerate_grid():
    p = build_parabolic(build_root_system("A", 2), [1, 2])
    report = equivalence_check(p, [(1, 1)])
    assert report.disagreements == ()
    assert len(report.entries) == 1
    assert report.entries[0][3] == STABLE


def test_equivalence_check_builds_no_symbolic_cone(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the symbolic cone was built")

    monkeypatch.setattr(stability, "stability_cone", refuse)
    p = borel(build_root_system("A", 3))
    report = equivalence_check(p, [(1, 1, 1), (1, 10, 1), (2, 2, 2)])
    assert report.disagreements == ()
    assert [e[3] for e in report.entries] == [STABLE, UNSTABLE, STABLE]


def test_equivalence_check_reports_a_lying_slope_side(monkeypatch):
    # the King side is untouched, so every point where the slope side
    # contradicts it must come back as a disagreement
    p = build_parabolic(build_root_system("A", 2), [1, 2])
    grid = [(1, 1), (1, 10), (4, 5), (10, 1)]
    honest = equivalence_check(p, grid)
    assert honest.disagreements == ()
    monkeypatch.setattr(stability, "degree_membership", lambda cone, h: STABLE)
    lying = equivalence_check(p, grid)
    assert [e[3] for e in lying.entries] == [STABLE] * 4
    assert [d[0] for d in lying.disagreements] == [(1, 10), (10, 1)]
    for h, semistable, stable, verdict in lying.disagreements:
        assert (semistable, stable, verdict) == (False, False, STABLE)


def diagram_automorphisms(system):
    """Nontrivial permutations of the simple roots fixing the Cartan matrix."""
    cartan = system.cartan_matrix
    n = system.rank
    for perm in itertools.permutations(range(n)):
        if perm != tuple(range(n)) and all(
            cartan[perm[i]][perm[j]] == cartan[i][j]
            for i in range(n)
            for j in range(n)
        ):
            yield perm


def test_dynkin_reversal_symmetry_of_the_two_parameter_cones():
    for n in (2, 3, 4):
        p = build_parabolic(build_root_system("A", n), [1, n])
        cone = stability_cone(p)
        for h in [(1, 2), (3, 1), (5, 4), (2, 7)]:
            swapped = (h[1], h[0])
            assert cone_membership(cone, h) == cone_membership(cone, swapped)


# Borel cases whose symbolic cone is too slow for the suite: A_n reversal,
# the D_n end swap, D4 triality and the E6 flip, with their automorphism
# counts
SYMMETRY_CASES = [
    ("A", 5, 1), ("A", 6, 1), ("D", 4, 5), ("D", 5, 1), ("D", 6, 1), ("E", 6, 1),
]


@functools.cache
def _borel_symmetries(series, rank):
    system = build_root_system(series, rank)
    return degree_cone(borel(system)), list(diagram_automorphisms(system))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_case_points(SYMMETRY_CASES, 6, arity=lambda case: case[1]))
@example((("A", 5, 1), (1, 1, 1, 1, 6)))
@example((("D", 4, 5), (1, 6, 1, 1)))
@example((("E", 6, 1), (6, 1, 1, 1, 1, 1)))
def test_dynkin_reversal_symmetry_of_the_cone(case_h):
    (series, rank, count), h = case_h
    cone, perms = _borel_symmetries(series, rank)
    assert len(perms) == count
    verdict = degree_membership(cone, h)
    for perm in perms:
        image = tuple(h[perm[i]] for i in range(rank))
        assert degree_membership(cone, image) == verdict
    if max(h) == 6 and h.count(1) == rank - 1:
        # one entry 6 among ones is UNSTABLE on each of these cones (the
        # examples above), so the symmetry is not checked only between
        # STABLE points
        assert verdict == UNSTABLE


def test_anticanonical_polarization_is_stable():
    cases = [
        ("A", 2, (1, 2)),
        ("A", 3, (1, 2, 3)),
        ("A", 3, (1, 3)),
        ("A", 4, (1, 4)),
        ("A", 3, (2,)),
        ("D", 4, (1,)),
    ]
    for series, rank, sigma in cases:
        p = build_parabolic(build_root_system(series, rank), sigma)
        cone = stability_cone(p)
        anticanonical = c1_picard(p.tangent_weights, p)
        assert all(x > 0 for x in anticanonical)
        assert cone_membership(cone, anticanonical) == STABLE
        assert degree_membership(degree_cone(p), anticanonical) == STABLE
    # Borel cases decided from the degree forms; of these only A5/B's
    # expanded cone (38 polynomials, ~43 000 terms) is small enough for
    # the suite
    for series, rank in [("A", 5), ("A", 6), ("D", 5), ("D", 6), ("E", 6)]:
        p = borel(build_root_system(series, rank))
        anticanonical = c1_picard(p.tangent_weights, p)
        assert anticanonical == (2,) * rank
        assert degree_membership(degree_cone(p), anticanonical) == STABLE
        if (series, rank) == ("A", 5):
            assert cone_membership(stability_cone(p), anticanonical) == STABLE


def test_irreducible_tangent_gives_empty_cone():
    # the 6-dimensional quadric: a single Levi component, no proper
    # invariant subbundles, stable for every ample class
    p = build_parabolic(build_root_system("D", 4), [1])
    cone = stability_cone(p)
    assert cone == []
    assert cone_membership(cone, (1,)) == STABLE
    degrees = degree_cone(p)
    assert degrees.rows == ()
    assert degrees.forms == ((1,),)
    assert {degree_membership(degrees, (h,)) for h in range(1, 20)} == {STABLE}


def oracle_parabolics():
    """Every parabolic of A1..A4 and D4."""
    for rank in range(1, 5):
        yield from all_parabolics(build_root_system("A", rank))
    yield from all_parabolics(build_root_system("D", 4))


def test_degree_membership_agrees_with_cone_membership():
    points = 0
    boundary = set()
    for p in oracle_parabolics():
        k = len(p.sigma)
        cone, degrees = stability_cone(p), degree_cone(p)
        assert len(degrees.rows) == len(cone)
        assert len(degrees.forms) == len(levi_components(p))
        for h in itertools.product(range(1, 7 if k < 4 else 5), repeat=k):
            verdict = cone_membership(cone, h)
            assert degree_membership(degrees, h) == verdict, (p, h)
            points += 1
            if verdict == BOUNDARY:
                boundary.add((p.system.series, p.system.rank, p.sigma, h))
    assert points == 3116
    assert len(boundary) == 24
    assert ("A", 3, (1, 2), (1, 2)) in boundary
    assert ("D", 4, (1, 2), (1, 1)) in boundary


def test_degree_membership_agrees_on_larger_parabolics():
    # the A5/B points of `cone --section 14`, and a D5{2,4} grid
    p = borel(build_root_system("A", 5))
    cone, degrees = stability_cone(p), degree_cone(p)
    verdicts = set()
    for cut in itertools.combinations(range(1, 14), 4):
        h = tuple(b - a for a, b in zip((0,) + cut, cut + (14,)))
        verdict = degree_membership(degrees, h)
        assert verdict == cone_membership(cone, h), h
        verdicts.add(verdict)
    assert verdicts == {STABLE, UNSTABLE}
    p = build_parabolic(build_root_system("D", 5), [2, 4])
    cone, degrees = stability_cone(p), degree_cone(p)
    verdicts = set()
    for h in itertools.product(range(1, 13), repeat=2):
        verdict = degree_membership(degrees, h)
        assert verdict == cone_membership(cone, h), h
        verdicts.add(verdict)
    assert verdicts == {STABLE, UNSTABLE}


def test_degree_membership_errors_and_budget():
    p = borel(build_root_system("A", 3))
    degrees = degree_cone(p)
    with pytest.raises(NotAmple):
        degree_membership(degrees, (1, 0, 2))
    with pytest.raises(ValueError):
        degree_membership(degrees, (1, 2))
    with pytest.raises(BudgetExceeded):
        degree_cone(p, budget=10)
    with pytest.raises(BudgetExceeded):
        degree_cone(borel(build_root_system("E", 8)))


HOMOGENEITY_CASES = [
    ("A", 3, (1, 2, 3)),
    ("A", 3, (1, 2)),
    ("A", 4, (1, 4)),
    ("D", 4, (1, 2, 3, 4)),
    ("D", 4, (2, 4)),
    ("E", 6, (1, 6)),
    ("A", 6, (1, 2, 3, 4, 5, 6)),
]


@st.composite
def scaled_lines(draw):
    """A cone, an ample line of up to 400 points, and a scale g >= 2."""
    case = draw(st.sampled_from(HOMOGENEITY_CASES))
    k = len(case[2])
    count = draw(st.integers(1, 400))
    step = draw(st.tuples(*[st.integers(-6, 6)] * k))
    low = draw(st.tuples(*[st.integers(1, 6)] * k))
    start = tuple(x + max(0, -(count - 1) * d) for x, d in zip(low, step))
    return case, (start, step, count), draw(st.integers(2, 60))


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scaled_lines())
def test_verdicts_are_homogeneous(case_line):
    case, (start, step, count), g = case_line
    degrees = _line_cone(case)
    verdict = degree_membership(degrees, start)
    multiple = tuple(g * x for x in start)
    assert degree_membership(degrees, multiple) == verdict
    if len(case[2]) < 6:  # A6/B's expanded cone is 282 MB of JSON
        assert cone_membership(_oracle_cones(case)[0], multiple) == verdict
    # the scaled line's points are g times the line's: the same verdicts,
    # decided on larger degrees
    scaled = tuple(g * x for x in start), tuple(g * d for d in step)
    assert _expand(_line_runs(degrees, *scaled, count)) == (
        _expand(_line_runs(degrees, start, step, count))
    )


def test_boundary_survives_scaling():
    p = build_parabolic(build_root_system("A", 3), [1, 2])
    degrees = degree_cone(p)
    assert {degree_membership(degrees, (k, 2 * k)) for k in (1, 5, 40)} == {BOUNDARY}


ORACLE_CASES = [
    (p.system.series, p.system.rank, p.sigma) for p in oracle_parabolics()
]


@functools.cache
def _oracle_cones(case):
    series, rank, sigma = case
    p = build_parabolic(build_root_system(series, rank), sigma)
    return stability_cone(p), degree_cone(p)


@st.composite
def large_points(draw):
    """A parabolic of A1..A4 or D4 and an ample point with entries up to 10^6.

    Half the points are small points scaled up, so that boundary points
    (which random large points all but never hit) occur at large entries.
    """
    case = draw(st.sampled_from(ORACLE_CASES))
    k = len(case[2])
    if draw(st.booleans()):
        h = draw(st.tuples(*[st.integers(1, 10**6)] * k))
    else:
        scale = draw(st.integers(1, 10**5))
        h = tuple(scale * x for x in draw(st.tuples(*[st.integers(1, 6)] * k)))
    return case, h


@settings(max_examples=400, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(large_points())
def test_degree_membership_matches_the_oracle_at_large_points(case_point):
    case, h = case_point
    cone, degrees = _oracle_cones(case)
    assert degree_membership(degrees, h) == cone_membership(cone, h)


@st.composite
def line_cases(draw, least=1, most=5):
    """A parabolic of A2..A5 or D4 with ``least`` to ``most`` marked roots."""
    series, rank = draw(st.sampled_from([("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 4)]))
    size = draw(st.integers(least, min(most, rank)))
    sigma = draw(st.lists(st.integers(1, rank), min_size=size, max_size=size, unique=True))
    return series, rank, tuple(sorted(sigma))


@functools.cache
def _line_cone(case):
    series, rank, sigma = case
    return degree_cone(build_parabolic(build_root_system(series, rank), sigma))


# two-parameter cones whose boundary is a rational ray, with its primitive
# point: lines through a multiple of it hit exact BOUNDARY points
BOUNDARY_RAYS = [
    (("A", 3, (1, 2)), (1, 2)),
    (("A", 3, (2, 3)), (2, 1)),
    (("D", 4, (1, 2)), (1, 1)),
    (("D", 4, (2, 4)), (1, 1)),
]

# short lines go point by point; a line of more than 4 points per row is
# decided in certified runs
LINE_COUNTS = st.one_of(st.integers(1, 12), st.integers(13, 400))


def _row_sums(cone, h):
    """Each row sum at h times D(h), by plain integer arithmetic."""
    degrees = [sum(f * x for f, x in zip(form, h)) for form in cone.forms]
    total = prod(degrees)
    return [sum(r * total // degree for r, degree in zip(row, degrees)) for row in cone.rows]


def _plain_verdict(cone, h):
    sums = _row_sums(cone, h)
    if any(value < 0 for value in sums):
        return UNSTABLE
    return BOUNDARY if 0 in sums else STABLE


@st.composite
def sample_lines(draw):
    """A parabolic and a few lattice lines in its ample cone.

    Steps may have negative entries; a start is raised by what its line
    loses on the way, so the last point, and every point, stays ample.
    """
    case = draw(line_cases())
    k = len(case[2])
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        count = draw(LINE_COUNTS)
        step = draw(st.tuples(*[st.integers(-6, 6)] * k))
        low = draw(st.tuples(*[st.integers(1, 12)] * k))
        start = tuple(x + max(0, -(count - 1) * d) for x, d in zip(low, step))
        lines.append((start, step, count))
    return case, lines


@st.composite
def boundary_lines(draw):
    """A cone of ``BOUNDARY_RAYS`` and lines through multiples of its ray.

    Point m of a line is g * ray, with g just large enough (or larger)
    that every point stays ample.  A step along the ray keeps the whole
    line on the boundary; any other step crosses it at point m.
    """
    case, ray = draw(st.sampled_from(BOUNDARY_RAYS))
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        count = draw(LINE_COUNTS)
        m = draw(st.integers(0, count - 1))
        step = draw(st.one_of(st.just(ray), st.tuples(*[st.integers(-6, 6)] * 2)))
        g = draw(st.integers(1, 3)) + max(
            (max(m * d, (m + 1 - count) * d) + r - 1) // r for r, d in zip(ray, step)
        )
        start = tuple(g * r - m * d for r, d in zip(ray, step))
        lines.append((start, step, count))
    return case, lines


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(sample_lines(), boundary_lines()))
def test_line_kernel_matches_degree_membership_at_every_point(case_lines):
    case, lines = case_lines
    cone = _line_cone(case)
    for start, step, count in lines:
        points = [tuple(a + i * d for a, d in zip(start, step)) for i in range(count)]
        verdicts = [degree_membership(cone, h) for h in points]
        assert verdicts == [_plain_verdict(cone, h) for h in points]
        assert _expand(_line_runs(cone, start, step, count)) == verdicts


def test_certified_runs_keep_boundary_points():
    cone = _line_cone(("A", 3, (1, 2)))
    assert 400 >= 8 * len(cone.rows)
    # every point of the ray (k, 2k) is on the boundary
    assert _expand(_line_runs(cone, (1, 2), (1, 2), 400)) == [BOUNDARY] * 400
    # (1 + i, 100 + i) crosses it at i = 98, from UNSTABLE to STABLE
    verdicts = _expand(_line_runs(cone, (1, 100), (1, 1), 400))
    assert verdicts == [UNSTABLE] * 98 + [BOUNDARY] + [STABLE] * 301
    assert verdicts == [_plain_verdict(cone, (1 + i, 100 + i)) for i in range(400)]


@st.composite
def line_runs(draw):
    """A cone, an ample line of it and a run i..j of its points."""
    case, lines = draw(st.one_of(sample_lines(), boundary_lines()))
    start, step, count = lines[0]
    i = draw(st.integers(0, count - 1))
    return case, start, step, i, draw(st.integers(i, count - 1))


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(line_runs())
def test_interval_bounds_hold_at_every_point_of_the_run(run):
    # with ends Q // L_c at points i and j, Q = D(i) * D(j), each row's
    # doubled bounds enclose 2 * Q times its sum_c row[c] / L_c at every
    # point between, so a positive lower or a negative upper bound
    # certifies the sign
    case, start, step, i, j = run
    cone = _line_cone(case)
    points = [tuple(a + x * d for a, d in zip(start, step)) for x in range(i, j + 1)]
    degrees = [[sum(f * x for f, x in zip(form, h)) for form in cone.forms] for h in points]
    q = prod(degrees[0]) * prod(degrees[-1])
    ends = stability._ends(degrees[0], degrees[-1])
    sums = [_row_sums(cone, h) for h in points]
    for r, row in enumerate(cone.rows):
        low, high = stability._doubled_bounds(row, ends)
        for h_degrees, h_sums in zip(degrees, sums):
            d = prod(h_degrees)
            assert low * d <= 2 * q * h_sums[r] <= high * d
        if low > 0:
            assert all(h_sums[r] > 0 for h_sums in sums)
        if high < 0:
            assert all(h_sums[r] < 0 for h_sums in sums)
        if i == j:
            assert low == high == 2 * prod(degrees[0]) * sums[0][r]


@st.composite
def slab_rectangles(draw, most=40):
    """A cone, a slab prefix and a rectangle of the slab's last two coordinates.

    The rectangle has its low corner at (a, b) and spans ``lines`` values
    of the second-to-last coordinate and ``count`` of the last.  Half the
    draws take a cone of ``BOUNDARY_RAYS`` (k = 2) and put a multiple of
    its ray inside the rectangle, so that its boundary crosses it.
    """
    if draw(st.booleans()):
        # a slab of k = 2, 3 or 4 parameters: the last two coordinates vary
        case = draw(line_cases(2, 4))
        prefix = draw(st.tuples(*[st.integers(1, 12)] * (len(case[2]) - 2)))
        a, b = draw(st.integers(1, 40)), draw(st.integers(1, 40))
        return case, prefix, a, b, draw(st.integers(1, most)), draw(st.integers(1, most))
    case, ray = draw(st.sampled_from(BOUNDARY_RAYS))
    g = draw(st.integers(1, 30))
    below = [draw(st.integers(0, min(g * r, most) - 1)) for r in ray]
    a, b = (g * r - x for r, x in zip(ray, below))
    return (case, (), a, b) + tuple(draw(st.integers(x + 1, most)) for x in below)


def _expand(runs):
    """The verdict of each point of a line, from its ``(stop, verdict)`` runs."""
    verdicts = []
    for stop, verdict in runs:
        assert stop > len(verdicts)
        verdicts += [verdict] * (stop - len(verdicts))
    return verdicts


def _rectangle_degrees(cone, prefix, a, b):
    """The kernel's L_c at the low corner, and its steps along the two coordinates."""
    firsts = [sum(f * x for f, x in zip(form, prefix + (a, b))) for form in cone.forms]
    return firsts, [form[-2] for form in cone.forms], [form[-1] for form in cone.forms]


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(slab_rectangles())
def test_rectangle_kernel_matches_the_plain_verdict_at_every_point(rect):
    case, prefix, a, b, lines, count = rect
    cone = _line_cone(case)
    runs = stability._runs(list(cone.rows), *_rectangle_degrees(cone, prefix, a, b), lines, count)
    assert len(runs) == lines
    for i, line in enumerate(runs):
        assert _expand(line) == [
            _plain_verdict(cone, prefix + (a + i, b + j)) for j in range(count)
        ]


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(slab_rectangles(most=12))
def test_rectangle_bounds_hold_at_every_point_of_the_rectangle(rect):
    # each L_c has non-negative coefficients, so over the rectangle it lies
    # between its values at the low and the high corner, and the doubled
    # bounds from the two corners enclose 2 * Q * sum_c row[c] / L_c at
    # every point of the rectangle
    case, prefix, a, b, lines, count = rect
    cone = _line_cone(case)
    points = [prefix + (a + i, b + j) for i in range(lines) for j in range(count)]
    degrees = [[sum(f * x for f, x in zip(form, h)) for form in cone.forms] for h in points]
    q = prod(degrees[0]) * prod(degrees[-1])
    ends = stability._ends(degrees[0], degrees[-1])
    sums = [_row_sums(cone, h) for h in points]
    for r, row in enumerate(cone.rows):
        low, high = stability._doubled_bounds(row, ends)
        for h_degrees, h_sums in zip(degrees, sums):
            d = prod(h_degrees)
            assert low * d <= 2 * q * h_sums[r] <= high * d
        if low > 0:
            assert all(h_sums[r] > 0 for h_sums in sums)
        if high < 0:
            assert all(h_sums[r] < 0 for h_sums in sums)
        if len(points) == 1:
            assert low == high == 2 * prod(degrees[0]) * sums[0][r]


def _line_points(k, prefix, grid, section, count):
    """The points of one line of a sample, as ``sample_lines`` lays them out."""
    if grid:
        return [prefix + (j,) for j in range(1, count + 1)]
    if k == 1:
        return [(section,)]
    rest = section - sum(prefix)
    return [prefix + (j, rest - j) for j in range(1, count + 1)]


def _counting_runs(monkeypatch):
    """Count the calls of the rectangle kernel; returns the list of counts."""
    calls = [0]
    runs = stability._runs

    def counted(*args):
        calls[0] += 1
        return runs(*args)

    monkeypatch.setattr(stability, "_runs", counted)
    return calls


@pytest.mark.parametrize("band_lines", [1, 2, 5])
def test_bands_of_any_size_list_the_sample_in_order(monkeypatch, band_lines):
    # a grid slab is decided in bands of at most _RECTANGLE_LINES lines, one
    # rectangle each; small ones split every slab, and every point of the
    # stream is checked against the plain verdict, in sample order
    samples = [(("A", 2, (1,)), 7, 0), (("A", 2, (1,)), 0, 5),
               (("A", 3, (1, 2)), 9, 0), (("A", 3, (1, 2)), 0, 11),
               (("A", 3, (1, 2, 3)), 5, 0), (("A", 3, (1, 2, 3)), 0, 9),
               (("A", 4, (1, 2, 3, 4)), 3, 0), (("A", 4, (1, 2, 3, 4)), 0, 9),
               (("A", 5, (1, 2, 3, 4, 5)), 0, 8), (("A", 3, (1, 2, 3)), 0, 2)]
    monkeypatch.setattr(stability, "_RECTANGLE_LINES", band_lines)
    calls = _counting_runs(monkeypatch)
    for case, grid, section in samples:
        cone = _line_cone(case)
        k = len(case[2])
        if grid:
            expected = list(itertools.product(range(1, grid + 1), repeat=k))
        else:
            expected = [tuple(b - a for a, b in zip((0,) + c, c + (section,)))
                        for c in itertools.combinations(range(1, section), k - 1)]
        calls[0] = 0
        listed = []
        lines = 0
        for prefix, runs in stability.sample_lines(cone, grid, section):
            verdicts = _expand(runs)
            points = _line_points(k, prefix, grid, section, len(verdicts))
            assert verdicts == [_plain_verdict(cone, h) for h in points]
            listed += points
            lines += 1
        assert listed == expected, (case, grid, section)
        # one kernel call per rectangle of a grid slab, or per section line
        if grid and k > 1:
            assert calls[0] == grid ** (k - 2) * -(-grid // band_lines)
        else:
            assert calls[0] == lines


def test_sample_lines_takes_one_sample_size():
    # a bad pair is refused at the call, before the first line is asked for
    cone = _line_cone(("A", 3, (1, 2)))
    for grid, section in ((0, 0), (3, 3), (-1, 0), (0, -2), (-1, 4)):
        with pytest.raises(ValueError):
            stability.sample_lines(cone, grid, section)


def test_sample_lines_decides_a_line_when_it_is_read(monkeypatch):
    # A4/B --section 45 has 903 lines: the first takes one kernel call
    cone = degree_cone(borel(build_root_system("A", 4)))
    calls = _counting_runs(monkeypatch)
    lines = stability.sample_lines(cone, 0, 45)
    assert calls[0] == 0
    prefix, runs = next(lines)
    assert calls[0] == 1
    assert prefix == (1, 1)
    assert _expand(runs) == [_plain_verdict(cone, (1, 1, j, 43 - j)) for j in range(1, 43)]


@pytest.mark.parametrize("case,grid,section", [
    (("A", 4, (1, 4)), 300, 0),
    (("A", 3, (1, 2, 3)), 24, 0),
    (("E", 6, (1, 2, 6)), 20, 0),
    (("A", 4, (1, 2, 3, 4)), 0, 45),
])
def test_sample_runs_are_maximal(case, grid, section):
    # adjacent runs of a line never share a verdict
    for prefix, runs in stability.sample_lines(_line_cone(case), grid, section):
        verdicts = [verdict for _, verdict in runs]
        assert all(map(str.__ne__, verdicts, verdicts[1:])), prefix
