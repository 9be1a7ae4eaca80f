from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flagquiver import (
    MismatchedSystem,
    OppositeRoots,
    UnsupportedType,
    build_root_system,
    chevalley_constant,
    coroot_pairing,
    h0_dimension,
    is_dominant,
)
from conftest import root_combo
from quiver_oracle import structure_constant

ALL_SYSTEMS = (
    [("A", n) for n in range(1, 9)]
    + [("D", n) for n in range(4, 9)]
    + [("E", n) for n in (6, 7, 8)]
)


def expected_count(series, rank):
    if series == "A":
        return (rank + 1) * rank // 2
    if series == "D":
        return rank * (rank - 1)
    return {6: 36, 7: 63, 8: 120}[rank]


@pytest.mark.parametrize("series,rank", ALL_SYSTEMS)
def test_positive_root_counts(series, rank):
    system = build_root_system(series, rank)
    assert len(system.positive_roots) == expected_count(series, rank)


def test_e8_roots_against_direct_enumeration():
    # independent oracle: two +-1 pairs plus half-sum vectors with an even
    # number of minus signs, doubled; positives are one of each +- pair
    oracle = set()
    for i, j in combinations(range(8), 2):
        for si, sj in product((2, -2), repeat=2):
            v = [0] * 8
            v[i], v[j] = si, sj
            oracle.add(tuple(v))
    for signs in product((1, -1), repeat=8):
        if signs.count(-1) % 2 == 0:
            oracle.add(signs)
    assert len(oracle) == 240
    system = build_root_system("E", 8)
    mine = set(r.coords2 for r in system.roots)
    assert mine == oracle
    assert len(system.positive_roots) == 120


@pytest.mark.parametrize("series,rank", ALL_SYSTEMS)
def test_root_invariants(series, rank):
    system = build_root_system(series, rank)
    for r in system.positive_roots:
        assert sum(c * c for c in r.coords2) == 8
        exp = system.expansion(r)
        assert all(c >= 0 for c in exp) and any(exp)
        if series == "A":
            assert sum(r.coords2) == 0
    mat = system.cartan_matrix
    for i in range(rank):
        assert mat[i][i] == 2
        for j in range(rank):
            if i != j:
                assert mat[i][j] in (0, -1)
                assert mat[i][j] == mat[j][i]


def test_a3_cartan_matrix():
    system = build_root_system("A", 3)
    assert system.cartan_matrix == ((2, -1, 0), (-1, 2, -1), (0, -1, 2))


@pytest.mark.parametrize(
    "series,rank",
    [("B", 2), ("C", 3), ("F", 4), ("G", 2), ("D", 3), ("E", 5), ("E", 9), ("A", 0)],
)
def test_unsupported_types(series, rank):
    with pytest.raises(UnsupportedType):
        build_root_system(series, rank)


def test_coroot_pairing_values():
    a3 = build_root_system("A", 3)
    a2 = build_root_system("A", 2)
    assert coroot_pairing(a3.simple_root(1), a3.simple_root(1)) == 2
    assert coroot_pairing(a2.simple_root(1), a2.simple_root(2)) == -1
    highest = root_combo(a3, (1, 1, 1))
    assert highest.coords2 == (2, 0, 0, -2)  # L1 - L4, doubled
    assert coroot_pairing(highest, a3.simple_root(2)) == 0
    with pytest.raises(MismatchedSystem):
        coroot_pairing(a2.simple_root(1), a3.simple_root(1))


def test_dominance_examples():
    a3 = build_root_system("A", 3)
    assert is_dominant(a3.weight((2, 0, 0, -2)))
    assert is_dominant(a3.weight((0, 0, 0, 0)))
    d4 = build_root_system("D", 4)
    assert not is_dominant(d4.weight((2, 2, 0, -2)))


@pytest.mark.parametrize("series,rank", [("A", n) for n in (2, 3, 5)] + [("D", n) for n in (4, 5)])
@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(
    halves=st.lists(st.integers(-5, 5), min_size=6, max_size=6),
    odd=st.booleans(),
    ordered=st.booleans(),
)
def test_dominance_matches_coordinate_chains(series, rank, halves, odd, ordered):
    # half the draws are sorted, so that both verdicts come up at every rank
    system = build_root_system(series, rank)
    halves = halves[:system.ambient_dim]
    if ordered:
        halves.sort(reverse=True)
    coords = tuple(2 * x + (odd and series == "D") for x in halves)
    w = system.weight(coords)
    if series == "A":
        chain = all(coords[i] >= coords[i + 1] for i in range(len(coords) - 1))
    else:
        chain = (
            all(coords[i] >= coords[i + 1] for i in range(len(coords) - 2))
            and coords[-2] >= abs(coords[-1])
        )
    assert is_dominant(w) == chain


def test_chevalley_type_a_matrix_unit_convention():
    a3 = build_root_system("A", 3)
    e12 = a3.weight((2, -2, 0, 0))
    e23 = a3.weight((0, 2, -2, 0))
    e34 = a3.weight((0, 0, 2, -2))
    assert chevalley_constant(e12, e23) == 1
    assert chevalley_constant(e12, e34) == 0
    # [e_ij, e_hi] = -e_hj with all three positive: [e_24, e_12] = -e_14
    e24 = a3.weight((0, 2, 0, -2))
    assert chevalley_constant(e24, e12) == -1


def test_chevalley_opposite_roots():
    a2 = build_root_system("A", 2)
    with pytest.raises(OppositeRoots):
        chevalley_constant(a2.simple_root(1), -a2.simple_root(1))


@pytest.mark.parametrize("series,rank", ALL_SYSTEMS)
def test_dominant_pair_table_is_the_diagonal(series, rank):
    # a nonzero dominant element of the root lattice lies above the highest
    # root (Stembridge 1998), so no other difference of positive roots is
    # dominant
    system = build_root_system(series, rank)
    roots = system.positive_roots
    diagonal = tuple((i, i) for i in range(len(roots)))
    assert diagonal == tuple(
        (i, j)
        for i, a in enumerate(roots)
        for j, b in enumerate(roots)
        if is_dominant(a - b)
    )


@pytest.mark.parametrize("series,rank", ALL_SYSTEMS + [("A", 24), ("D", 24)])
def test_root_sum_table_matches_weight_arithmetic(series, rank):
    system = build_root_system(series, rank)
    tables = system._root_tables()
    roots = system.positive_roots
    position = {r: i for i, r in enumerate(roots)}
    assert tables.index == {r.coords2: i for i, r in enumerate(roots)}
    by_sum = [[] for _ in roots]
    for i, j in combinations(range(len(roots)), 2):
        s = roots[i] + roots[j]
        if s.is_root:
            n = structure_constant(roots[i], roots[j])
            by_sum[position[s]].append((i, j, n))
    # the pairs listed by their sum, and the i with alpha_s - alpha_i positive
    assert tables.brackets == tuple(map(tuple, by_sum))
    positive = set(roots)
    for s, root in enumerate(roots):
        below = [i for i, r in enumerate(roots) if root - r in positive]
        assert tables.parts[s] == sum(1 << i for i in below)


def closed_form_positive_roots(series, rank):
    """``(height, doubled coordinates)`` of each positive root of A or D.

    A_n: e_i - e_j (i < j) of height j - i in n + 1 coordinates.  D_n: the
    same in n coordinates, and e_i + e_j (i < j) of height 2n - i - j,
    counting from 1.
    """
    dim = rank + 1 if series == "A" else rank
    out = []
    for i, j in combinations(range(1, dim + 1), 2):
        for sign, height in ((-2, j - i), (2, 2 * dim - i - j)):
            if sign == 2 and series == "A":
                continue
            c = [0] * dim
            c[i - 1], c[j - 1] = 2, sign
            out.append((height, tuple(c)))
    return sorted(out)


@pytest.mark.parametrize(
    "series,rank", [("A", n) for n in range(1, 25)] + [("D", n) for n in range(4, 25)]
)
def test_positive_roots_match_their_closed_forms(series, rank):
    system = build_root_system(series, rank)
    expected = closed_form_positive_roots(series, rank)
    assert [r.coords2 for r in system.positive_roots] == [c for _, c in expected]
    assert [system.height(r) for r in system.positive_roots] == [h for h, _ in expected]


@pytest.mark.parametrize(
    "series,rank",
    [("A", n) for n in range(1, 7)] + [("D", n) for n in range(4, 7)]
    + [("E", n) for n in (6, 7, 8)],
)
def test_chevalley_pairs_exhaustive(series, rank):
    # negative roots too: the library reads a negative root's sign from the
    # row of its negative, the oracle from its own coefficients
    system = build_root_system(series, rank)
    for a in system.roots:
        for b in system.roots:
            s = a + b
            if s.is_zero:
                with pytest.raises(OppositeRoots):
                    chevalley_constant(a, b)
                continue
            n = chevalley_constant(a, b)
            assert n == structure_constant(a, b)
            if s.is_root:
                assert n in (1, -1)
                assert chevalley_constant(b, a) == -n
            else:
                assert n == 0


@pytest.mark.parametrize("series,rank", [("A", 2), ("A", 3), ("D", 4)])
def test_chevalley_triple_identity(series, rank):
    # alpha + beta + gamma = 0 forces equal constants around the triangle
    system = build_root_system(series, rank)
    for a in system.roots:
        for b in system.roots:
            s = a + b
            if s.is_zero or not s.is_root:
                continue
            c = -s
            n = chevalley_constant(a, b)
            assert chevalley_constant(b, c) == n
            assert chevalley_constant(c, a) == n


@pytest.mark.parametrize("series,rank", [("A", 3), ("A", 5), ("D", 4), ("D", 5), ("E", 6)])
@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_chevalley_jacobi_random(series, rank, data):
    system = build_root_system(series, rank)
    a, b, c = data.draw(st.tuples(*[st.sampled_from(system.roots)] * 3))
    assume(not any((x + y).is_zero for x, y in ((a, b), (b, c), (a, c))))
    assume(not (a + b + c).is_zero)

    def bracket_term(x, y, z):
        s = x + y
        if s.is_zero or not s.is_root:
            return 0
        return chevalley_constant(x, y) * chevalley_constant(s, z)

    assert bracket_term(a, b, c) + bracket_term(b, c, a) + bracket_term(c, a, b) == 0


def test_h0_dimension_examples():
    a3 = build_root_system("A", 3)
    assert h0_dimension(a3.weight((0, 0, 0, 0))) == 1
    a1 = build_root_system("A", 1)
    assert h0_dimension(a1.weight((2, 0))) == 2
    # adjoint representation: count its weights directly (roots plus the
    # Cartan directions)
    highest = a3.weight((2, 0, 0, -2))
    assert h0_dimension(highest) == len(a3.roots) + a3.rank == 15


def test_h0_zero_for_non_dominant():
    a2 = build_root_system("A", 2)
    assert h0_dimension(-a2.simple_root(1)) == 0


@pytest.mark.parametrize("series,rank", [("A", n) for n in (1, 2, 3, 4)] + [("D", 4), ("E", 6)])
def test_h0_highest_root_is_adjoint_dimension(series, rank):
    system = build_root_system(series, rank)
    highest = system.positive_roots[-1]
    assert h0_dimension(highest) == len(system.roots) + system.rank


def fraction_weyl_dimension(lam):
    """prod_alpha <lam + rho, alpha> / <rho, alpha>, as an exact Fraction."""
    rho2 = lam.system.rho.coords2
    num2 = tuple(a + b for a, b in zip(lam.coords2, rho2))
    num = den = 1
    for alpha in lam.system.positive_roots:
        num *= sum(x * y for x, y in zip(num2, alpha.coords2))
        den *= sum(x * y for x, y in zip(rho2, alpha.coords2))
    return Fraction(num, den)


def dominant_conjugate(w):
    """The dominant weight of w's Weyl orbit, by simple reflections.

    Each reflection adds a positive multiple of a simple root, so the walk
    climbs the finite orbit and ends at its dominant weight.
    """
    system = w.system
    while True:
        for a in system.simple_roots:
            c = coroot_pairing(w, a)
            if c < 0:
                w = system.weight(tuple(x - c * y for x, y in zip(w.coords2, a.coords2)))
                break
        else:
            return w


@pytest.mark.parametrize(
    "series,rank",
    [("A", n) for n in range(1, 7)] + [("D", n) for n in range(4, 7)]
    + [("E", n) for n in (6, 7, 8)],
)
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(coeffs=st.lists(st.integers(-3, 3), min_size=8, max_size=8))
def test_h0_at_least_one_on_dominant_lattice_weights(series, rank, coeffs):
    # the integer product of h0_dimension against the Fraction formula, on
    # a root-lattice weight and on the dominant weight of its orbit
    system = build_root_system(series, rank)
    w = root_combo(system, coeffs[:rank])
    if not is_dominant(w):
        assert h0_dimension(w) == 0
        w = dominant_conjugate(w)
    expected = fraction_weyl_dimension(w)
    assert expected.denominator == 1
    assert h0_dimension(w) == expected >= 1


def test_chevalley_sign_table_small():
    a2 = build_root_system("A", 2)
    for a in a2.roots:
        for b in a2.roots:
            if (a + b).is_zero:
                with pytest.raises(OppositeRoots):
                    chevalley_constant(a, b)
                continue
            n = chevalley_constant(a, b)
            assert (n != 0) == (a + b).is_root
            assert chevalley_constant(b, a) == -n


def test_weight_arithmetic_and_fundamental_coords():
    a2 = build_root_system("A", 2)
    a, b = a2.simple_roots
    assert (a + b).fundamental == (1, 1)
    assert (-a).fundamental == (-2, 1)
    assert (a - a).is_zero
    with pytest.raises(MismatchedSystem):
        a + build_root_system("A", 3).simple_root(1)


def test_weyl_vector_is_dominant_everywhere():
    for series, rank in ALL_SYSTEMS:
        system = build_root_system(series, rank)
        assert is_dominant(system.rho)
        assert all(coroot_pairing(system.rho, a) == 1 for a in system.simple_roots)
