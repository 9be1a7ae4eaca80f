import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagquiver import (
    FULL,
    REDUCED,
    ModeMismatch,
    NotMultiplicityFree,
    QuiverRep,
    RelationInstance,
    UnsupportedParabolic,
    borel,
    build_parabolic,
    build_root_system,
    relation_instances,
    tangent_rep,
    to_dot,
    verify_flatness,
)

import quiver_oracle as oracle
from quiver_oracle import NotLeviDominant, induced_quiver


def brute_force_arrows(p, vertices, labels):
    out = set()
    vset = set(vertices)
    for i, w in enumerate(vertices):
        for a in labels:
            if w + a in vset:
                out.add((i, vertices.index(w + a), a))
    return out


def test_a2_borel_reduced_quiver_matches_brute_force():
    a2 = build_root_system("A", 2)
    b = borel(a2)
    q = induced_quiver(b, b.tangent_weights, REDUCED)
    assert len(q.vertices) == 3
    assert len(q.arrows) == 2
    expected = brute_force_arrows(b, list(b.tangent_weights), a2.simple_roots)
    assert set((a.src, a.dst, a.label) for a in q.arrows) == expected
    theta = a2.positive_roots[-1]
    pairs = {(-theta + a.label, a.label) for a in q.arrows}
    assert pairs == {
        (-a2.simple_root(2), a2.simple_root(1)),
        (-a2.simple_root(1), a2.simple_root(2)),
    }


def test_a3_borel_arrow_counts():
    a3 = build_root_system("A", 3)
    b = borel(a3)
    reduced = induced_quiver(b, b.tangent_weights, REDUCED)
    full = induced_quiver(b, b.tangent_weights, FULL)
    assert (len(reduced.vertices), len(reduced.arrows)) == (6, 6)
    assert len(full.arrows) == 8
    labels = {a3.height(a.label) for a in reduced.arrows}
    assert labels == {1}
    expected_full = brute_force_arrows(b, list(b.tangent_weights), a3.positive_roots)
    assert set((a.src, a.dst, a.label) for a in full.arrows) == expected_full


def test_full_contains_reduced_and_labels_are_differences():
    from flagquiver import levi_components

    a3 = build_root_system("A", 3)
    for sigma in [(1, 2, 3), (1, 3), (2,)]:
        p = build_parabolic(a3, sigma)
        # vertices must be Levi-dominant: use the component highest weights
        vertices = [c.highest_weight for c in levi_components(p)]
        reduced = induced_quiver(p, vertices, REDUCED)
        full = induced_quiver(p, vertices, FULL)
        red_set = set((a.src, a.dst, a.label) for a in reduced.arrows)
        full_set = set((a.src, a.dst, a.label) for a in full.arrows)
        assert red_set <= full_set
        for q in (reduced, full):
            for a in q.arrows:
                assert q.vertices[a.dst] - q.vertices[a.src] == a.label
        assert len(full_set) == len(full.arrows)  # no duplicate triples
        for a in reduced.arrows:
            exp = a3.expansion(a.label)
            assert sum(exp[i - 1] for i in p.sigma) == 1


def test_not_levi_dominant_vertex_rejected():
    a3 = build_root_system("A", 3)
    p = build_parabolic(a3, [1, 3])
    with pytest.raises(NotLeviDominant):
        induced_quiver(p, [-a3.simple_root(2)], FULL)


def test_relations_only_for_borel():
    from flagquiver import levi_components

    a3 = build_root_system("A", 3)
    p = build_parabolic(a3, [1, 3])
    vertices = [c.highest_weight for c in levi_components(p)]
    q = induced_quiver(p, vertices, FULL)
    with pytest.raises(UnsupportedParabolic):
        relation_instances(q)


def test_relation_commutative_square_a3():
    a3 = build_root_system("A", 3)
    b = borel(a3)
    q = induced_quiver(b, b.tangent_weights, FULL)
    theta = a3.positive_roots[-1]
    src = q.vertices.index(-theta)
    a1, a3r = a3.simple_root(1), a3.simple_root(3)
    match = [
        r
        for r in relation_instances(q)
        if r.source == src and {r.alpha, r.beta} == {a1, a3r}
    ]
    assert len(match) == 1
    rel = match[0]
    assert rel.chevalley == 0
    assert rel.path_via_alpha is not None
    assert rel.path_via_beta is not None
    assert rel.bracket_arrow is None


def test_relation_truncated_to_nothing_in_a2():
    # every two-step path out of the lowest vertex leaves the vertex set,
    # so the relation at (alpha1, alpha2) has no terms and is omitted
    a2 = build_root_system("A", 2)
    b = borel(a2)
    q = induced_quiver(b, b.tangent_weights, FULL)
    assert relation_instances(q) == []


def test_relation_with_only_a_bracket_term():
    # on the vertices {-theta, 0} of A2 no simple root leaves -theta, so
    # the relation of the two simple roots is n * bracket alone
    a2 = build_root_system("A", 2)
    b = borel(a2)
    alpha, beta, theta = b.nilradical_weights
    q = induced_quiver(b, [-theta, theta - theta], FULL)
    n = oracle.structure_constant(alpha, beta)
    assert relation_instances(q) == [
        RelationInstance(0, alpha, beta, n, None, None, 0)
    ]
    assert verify_flatness(QuiverRep(q, (1, 1), {0: ((0,),)})).ok
    result = verify_flatness(QuiverRep(q, (1, 1), {0: ((1,),)}))
    assert result == (False, (-theta, alpha, beta))


@pytest.mark.parametrize("series,rank", [("A", 3), ("A", 4), ("D", 4)])
def test_relation_count_matches_brute_force(series, rank):
    system = build_root_system(series, rank)
    b = borel(system)
    q = induced_quiver(b, b.tangent_weights, FULL)
    vset = set(b.tangent_weights)
    pos = list(system.positive_roots)
    count = 0
    for w in b.tangent_weights:
        for i in range(len(pos)):
            for j in range(i + 1, len(pos)):
                a, bb = pos[i], pos[j]
                nu_in = (w + a + bb) in vset
                pa = (w + a) in vset and nu_in
                pb = (w + bb) in vset and nu_in
                br = (a + bb).is_root and nu_in
                if pa or pb or br:
                    count += 1
    assert len(relation_instances(q)) == count > 0


def all_pairs_relations(q):
    """Every nilradical pair at every source, kept when a term is realizable."""
    nil = q.parabolic.nilradical_weights
    index = oracle.out_by_label(q)

    def arrow(src, label):
        return index.get(src, {}).get(label.coords2)

    def path(k1, second):
        k2 = None if k1 is None else arrow(q.arrows[k1].dst, second)
        return None if k2 is None else (k1, k2)

    out = []
    for src in range(len(q.vertices)):
        for ia, alpha in enumerate(nil):
            for beta in nil[ia + 1:]:
                s = alpha + beta
                n = oracle.structure_constant(alpha, beta)
                ka, kb = arrow(src, alpha), arrow(src, beta)
                bracket = arrow(src, s) if n else None
                path_a, path_b = path(ka, beta), path(kb, alpha)
                if path_a or path_b or bracket is not None:
                    out.append(
                        RelationInstance(src, alpha, beta, n, path_a, path_b, bracket)
                    )
    return out


def test_relations_match_all_pairs_scan_on_induced_subquivers():
    # subquivers drop vertices, so a pair can have a term through beta alone
    # (A3: the pair a3, a1 at -(a1+a2+a3) without -(a1+a2)); every vertex
    # set of A3, then drawn ones of A4 and D4
    b = borel(build_root_system("A", 3))
    weights = b.tangent_weights
    for mask in range(1, 1 << len(weights)):
        vertices = [w for i, w in enumerate(weights) if mask >> i & 1]
        q = induced_quiver(b, vertices, FULL)
        assert relation_instances(q) == all_pairs_relations(q), vertices
    relations_match_on_drawn_subquivers()


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(data=st.data())
def relations_match_on_drawn_subquivers(data):
    b = borel(build_root_system(*data.draw(st.sampled_from([("A", 4), ("D", 4)]))))
    weights = b.tangent_weights
    vertices = data.draw(
        st.lists(st.sampled_from(weights), min_size=2, max_size=len(weights), unique=True)
    )
    q = induced_quiver(b, vertices, FULL)
    assert relation_instances(q) == all_pairs_relations(q)


def test_flatness_zero_rep_and_tangent_reps():
    a2 = build_root_system("A", 2)
    b = borel(a2)
    q = induced_quiver(b, b.tangent_weights, FULL)
    zero_rep = QuiverRep(q, (1,) * 3, {})
    assert verify_flatness(zero_rep).ok
    assert verify_flatness(tangent_rep(b).rep).ok


@pytest.mark.parametrize("series,rank,sigma", [("A", 3, (1, 3)), ("D", 4, (2,))])
def test_flatness_of_non_borel_levi_reps(series, rank, sigma):
    # the Levi-level rep lives on a FULL-mode quiver of a non-Borel
    # parabolic: relation_instances refuses it, verify_flatness accepts it
    # (no relation has a two-step path or a bracket arrow here)
    p = build_parabolic(build_root_system(series, rank), sigma)
    levi_rep = tangent_rep(p).levi_rep
    assert levi_rep.quiver.arrows
    assert verify_flatness(levi_rep).ok


def test_flatness_detects_a_flipped_sign():
    a3 = build_root_system("A", 3)
    trep = tangent_rep(borel(a3))
    rep = trep.rep
    for k in sorted(rep.maps):
        flipped = dict(rep.maps)
        flipped[k] = ((-rep.maps[k][0][0],),)
        broken = QuiverRep(rep.quiver, rep.dims, flipped)
        result = verify_flatness(broken)
        assert not result.ok
        w, alpha, beta = result.violation
        assert w in rep.quiver.vertices
        assert alpha.is_root and beta.is_root


def test_flatness_refuses_a_vertex_of_dimension_two():
    b = borel(build_root_system("A", 2))
    q = induced_quiver(b, b.tangent_weights, FULL)
    for dims in [(2, 1, 1), (1, 0, 2)]:
        with pytest.raises(NotMultiplicityFree):
            verify_flatness(QuiverRep(q, dims, {}))


def test_flatness_with_a_zero_dimensional_vertex_matches_the_oracle():
    # the maps at a zero-dimensional vertex are empty: () into it, ((),) out
    rep = tangent_rep(borel(build_root_system("A", 3))).rep
    q = rep.quiver
    rels = oracle.relations(q, range(len(q.vertices)))
    verdicts = []
    for v in range(len(q.vertices)):
        dims = tuple(0 if i == v else 1 for i in range(len(q.vertices)))
        maps = dict(rep.maps)
        for k, a in enumerate(q.arrows):
            if a.dst == v:
                maps[k] = ()
            elif a.src == v:
                maps[k] = ((),)
        cut = QuiverRep(q, dims, maps)
        result = verify_flatness(cut)
        assert result == oracle.flatness(cut, rels), v
        verdicts.append(result.ok)
    assert True in verdicts and False in verdicts


def test_flatness_mode_mismatch():
    a2 = build_root_system("A", 2)
    b = borel(a2)
    q = induced_quiver(b, b.tangent_weights, REDUCED)
    rep = QuiverRep(q, (1,) * 3, {k: ((1,),) for k in range(len(q.arrows))})
    with pytest.raises(ModeMismatch):
        verify_flatness(rep)


def test_dot_export_shape_and_determinism():
    a3 = build_root_system("A", 3)
    b = borel(a3)
    q = induced_quiver(b, b.tangent_weights, REDUCED)
    dot = to_dot(q)
    assert dot == to_dot(q)
    assert dot.count("label=") == 12  # 6 nodes + 6 edges
    assert dot.count("->") == 6
    assert dot.startswith("digraph")


def test_quiver_rep_refuses_wrong_dims_shapes_and_keys():
    b = borel(build_root_system("A", 2))
    q = induced_quiver(b, b.tangent_weights, FULL)
    # vertex 2 is -(a1+a2); its arrows reach vertex 1 (label a1) and 0 (a2)
    assert [(a.src, a.dst) for a in q.arrows] == [(2, 1), (2, 0)]
    with pytest.raises(ValueError, match="dims length"):
        QuiverRep(q, (1, 1), {})
    for bad in ((), ((),), ((1, 0),), ((1,), (0,))):
        with pytest.raises(ValueError, match="arrow 1 has the wrong shape"):
            QuiverRep(q, (1, 1, 1), {0: ((1,),), 1: bad})
    with pytest.raises(IndexError):
        QuiverRep(q, (1, 1, 1), {2: ((1,),)})
    with pytest.raises(ValueError, match="arrow 0 has the wrong shape"):
        QuiverRep(q, (1, 1, 2), {0: ((1,),)})
    assert QuiverRep(q, (1, 1, 2), {0: ((1, 0),), 1: ((0, 1),)}).dims == (1, 1, 2)
    assert QuiverRep(q, (0, 1, 1), {0: ((1,),), 1: ()}).maps[1] == ()
