"""Weight-arithmetic routes for the tangent quiver: the independent oracle.

The library reads arrows, relation pairs, Chevalley signs, arrow scalars
and dominant sums from the root system's pair tables, and decides the
connectivity of closed subsets inside their walk.  These are the direct
searches and loops over ``Weight`` objects that the tables replaced; the
tests compare the two exactly.
"""
from flagquiver import (
    FULL,
    REDUCED,
    Arrow,
    FlagQuiverError,
    InducedQuiver,
    MismatchedSystem,
    QuiverRep,
    RelationInstance,
    coroot_pairing,
)


class NotLeviDominant(FlagQuiverError):
    """A quiver vertex weight is not dominant for the Levi subgroup."""


def map_is_nonzero(rep, k):
    """Whether arrow ``k`` of ``rep`` carries a map with a nonzero entry."""
    m = rep.maps.get(k)
    return m is not None and any(any(x for x in row) for row in m)


def structure_constant(alpha, beta):
    """N in [e_alpha, e_beta] = N e_{alpha+beta}, coefficient by coefficient.

    0 unless alpha + beta is a root.  Otherwise N = eps(alpha, beta) for
    the bimultiplicative eps on the root lattice (Kac, 7.8) with
    eps(alpha_i, alpha_j) = -1 when i = j, or when j < i and the Cartan
    matrix joins them, and +1 otherwise: -1 to the number of pairs of odd
    coefficients (i of alpha, j of beta) with such an (i, j).
    """
    system = alpha.system
    if not (alpha + beta).is_root:
        return 0
    cartan = system.cartan_matrix
    odd_b = [j for j, c in enumerate(system.expansion(beta)) if c % 2]
    parity = 0
    for i, c in enumerate(system.expansion(alpha)):
        if c % 2:
            parity += sum(i == j or j < i and cartan[i][j] == -1 for j in odd_b)
    return -1 if parity % 2 else 1


def is_levi_dominant(lam, p):
    """Dominance against the unmarked simple coroots only."""
    return all(
        coroot_pairing(lam, p.system.simple_root(i)) >= 0
        for i in p.levi_simple_indices
    )


def induced_quiver(p, vertex_weights, mode=FULL):
    """Arrows between the given weights along nilradical weights.

    FULL mode uses every nilradical weight as a possible arrow label;
    REDUCED mode only the marked-degree-one generators.

    Arrows are found on packed integers.  With ``top`` the largest absolute
    coordinate among the vertices and labels, a weight packs to the integer
    whose digits in base ``4 * top + 1`` are its coordinates, each digit
    taken in ``[-2 * top, 2 * top]``.  Such balanced digits are unique, so
    the packing is injective on that box, and it is additive.  A vertex plus
    a label has coordinates in the box, so it packs to a vertex's integer
    exactly when it equals that vertex.
    """
    if mode not in (FULL, REDUCED):
        raise ValueError(f"unknown mode {mode!r}")
    vertices = tuple(vertex_weights)
    labels = p.nilradical_weights if mode == FULL else p.generator_weights
    top = max((abs(c) for w in vertices + labels for c in w.coords2), default=0)
    base = 4 * top + 1

    def pack(w):
        code = 0
        for c in w.coords2:
            code = code * base + c
        return code

    index = {}
    for i, w in enumerate(vertices):
        if w.system is not p.system:
            raise MismatchedSystem("weights belong to different root systems")
        code = pack(w)
        if code in index:
            raise ValueError(f"duplicate vertex weight {w}")
        if not is_levi_dominant(w, p):
            raise NotLeviDominant(f"{w} is not Levi-dominant for sigma={p.sigma}")
        index[code] = i
    steps = [(pack(a), a) for a in labels]
    arrows = []
    for code, i in index.items():
        for step, a in steps:
            j = index.get(code + step)
            if j is not None:
                arrows.append(Arrow(i, j, a))
    return InducedQuiver(vertices, arrows, mode, p)


def arrows(p, vertex_weights, mode=FULL):
    """``(src, dst, label)`` of every arrow, by one addition per pair."""
    labels = p.nilradical_weights if mode == FULL else p.generator_weights
    index = {w: i for i, w in enumerate(vertex_weights)}
    out = []
    for i, w in enumerate(vertex_weights):
        for a in labels:
            j = index.get(w + a)
            if j is not None:
                out.append((i, j, a))
    return out


def tangent_maps(q):
    """The scalar of each arrow of a tangent quiver: N(label, source)."""
    return {
        k: ((structure_constant(a.label, q.vertices[a.src]),),)
        for k, a in enumerate(q.arrows)
    }


def out_by_label(q):
    """``{src: {label coords2: arrow index}}`` of the arrows leaving each vertex."""
    out = {}
    for k, a in enumerate(q.arrows):
        out.setdefault(a.src, {})[a.label.coords2] = k
    return out


def relations(q, sources):
    """Relations at the sources, by Weight sums of the nilradical pairs.

    Each pair is listed under every label that can give it a term; a
    source visits the pairs listed under its outgoing labels, in order.
    """
    nil = q.parabolic.nilradical_weights
    pairs = []
    by_label = {}
    for ia, alpha in enumerate(nil):
        for beta in nil[ia + 1:]:
            s = alpha + beta
            n = structure_constant(alpha, beta)
            for label in (alpha.coords2, beta.coords2) + ((s.coords2,) if n else ()):
                by_label.setdefault(label, []).append(len(pairs))
            pairs.append((alpha, beta, s.coords2, n))

    index = out_by_label(q)

    def path(k1, second):
        k2 = None if k1 is None else index.get(q.arrows[k1].dst, {}).get(second.coords2)
        return None if k2 is None else (k1, k2)

    out = []
    for src in sources:
        here = index.get(src, {})
        for i in sorted(set().union(*(by_label.get(label, ()) for label in here))):
            alpha, beta, sum_coords, n = pairs[i]
            ka, kb = here.get(alpha.coords2), here.get(beta.coords2)
            bracket = here.get(sum_coords) if n else None
            path_a, path_b = path(ka, beta), path(kb, alpha)
            if path_a or path_b or bracket is not None:
                out.append(RelationInstance(src, alpha, beta, n, path_a, path_b, bracket))
    return out


def flatness(rep, rels):
    """``(ok, violation)`` of a rep whose vertices have dimension 0 or 1.

    ``rels`` are the relations of ``rep.quiver`` at every vertex.  A map
    at a zero-dimensional end is empty and counts as 0.
    """
    q = rep.quiver
    support = set(rep.support)

    def scalar(k):
        m = rep.maps.get(k)
        return m[0][0] if m and m[0] else 0

    def composite(path):
        return 0 if path is None else scalar(path[0]) * scalar(path[1])

    for r in rels:
        if r.source not in support:
            continue
        value = (
            composite(r.path_via_beta)
            - composite(r.path_via_alpha)
            - (0 if r.bracket_arrow is None else r.chevalley * scalar(r.bracket_arrow))
        )
        if value:
            return (False, (q.vertices[r.source], r.alpha, r.beta))
    return (True, None)


def dominant_sums(p):
    """Dominant sums of one nilradical and one tangent weight, pair by pair."""
    tangent = [(b, b.fundamental) for b in p.tangent_weights]
    out = set()
    for a in p.nilradical_weights:
        fa = a.fundamental
        for b, fb in tangent:
            if all(x + y >= 0 for x, y in zip(fa, fb)):
                out.add(a + b)
    return frozenset(out)


def connected_sets(rep, sets):
    """The vertex sets whose induced graph along nonzero arrows is connected."""
    nbrs = {v: set() for v in rep.support}
    for k, a in enumerate(rep.quiver.arrows):
        if a.src in nbrs and a.dst in nbrs and map_is_nonzero(rep, k):
            nbrs[a.src].add(a.dst)
            nbrs[a.dst].add(a.src)
    out = []
    for s in sets:
        members = set(s)
        seen, todo = {s[0]}, [s[0]]
        while todo:
            for w in nbrs[todo.pop()] & members - seen:
                seen.add(w)
                todo.append(w)
        if seen == members:
            out.append(s)
    return out


def with_flipped_map(rep, k):
    """The rep with the scalar of arrow k negated."""
    maps = dict(rep.maps)
    maps[k] = ((-maps[k][0][0],),)
    return QuiverRep(rep.quiver, rep.dims, maps)
