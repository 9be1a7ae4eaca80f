"""Tangent-bundle quiver representations and the simplicity certificate."""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import NotMultiplicityFree
from .parabolic import borel, levi_components
from .quiver import FULL, Arrow, InducedQuiver, QuiverRep, induced_quiver
from .rootsys import chevalley_constant, is_dominant

VERDICT_SIMPLE = "SIMPLE"
VERDICT_WEAKLY_SIMPLE_ONLY = "WEAKLY_SIMPLE_ONLY"
VERDICT_INCONCLUSIVE = "INCONCLUSIVE"


class TangentRep(NamedTuple):
    """Tangent bundle data at both levels.

    ``rep`` lives on the Borel quiver with one vertex per tangent weight;
    ``levi_rep`` has one vertex per Levi-irreducible component and encodes
    which components are joined by the nilpotent action.  Its maps are the
    scalar 1 on every arrow: they only record which components are joined
    and need not satisfy the commutator relations, so ``levi_rep`` is not
    flat in general (A3/B is a counterexample).  It serves the closed
    subsets and the King verdicts, which read only its nonzero arrows.
    """

    rep: QuiverRep
    levi_rep: QuiverRep
    components: tuple
    parabolic: object


class SimplicityReport(NamedTuple):
    multiplicity_free: bool
    connected_components: int
    hom_dimension: int
    dominant_sums: frozenset
    verdict: str


def tangent_rep(p):
    """Quiver representation of the (pulled-back) tangent bundle of G/P."""
    system = p.system
    bq = induced_quiver(borel(system), p.tangent_weights, FULL)
    maps = {}
    for k, a in enumerate(bq.arrows):
        n = chevalley_constant(a.label, bq.vertices[a.src])
        maps[k] = ((n,),)
    rep = QuiverRep(bq, (1,) * len(bq.vertices), maps)

    comps = levi_components(p)
    weight_to_comp = {}
    for ci, comp in enumerate(comps):
        for w in comp.weights:
            weight_to_comp[w] = ci
    arrows = []
    seen = set()
    for ci, comp in enumerate(comps):
        for w in comp.weights:
            for alpha in p.nilradical_weights:
                cj = weight_to_comp.get(w + alpha)
                if cj is not None and cj != ci and (ci, cj) not in seen:
                    seen.add((ci, cj))
                    arrows.append(Arrow(ci, cj, alpha))
    arrows.sort(key=lambda a: (a.src, a.dst))
    levi_quiver = InducedQuiver(
        tuple(c.highest_weight for c in comps), arrows, FULL, p
    )
    levi_rep = QuiverRep(
        levi_quiver, (1,) * len(comps), {k: ((1,),) for k in range(len(arrows))}
    )
    return TangentRep(rep, levi_rep, comps, p)


def structure_report(rep):
    """(multiplicity free, number of connected components) of the support."""
    multiplicity_free = all(rep.dims[i] == 1 for i in rep.support)
    nbrs = _neighbours(_nonzero_successors(rep))
    rest = set(nbrs)
    components = 0
    while rest:
        rest -= _part(min(rest), rest, nbrs)
        components += 1
    return multiplicity_free, components


def hom_dimension(rep):
    """Dimension of the endomorphism space of the representation.

    Solves the commutation system g phi_src = phi_dst g over the rationals
    by sparse row reduction; for multiplicity-free representations this is
    the number of connected components.
    """
    support = rep.support
    offsets = {}
    total = 0
    for v in support:
        offsets[v] = total
        total += rep.dims[v] ** 2

    def var(v, i, j):
        return offsets[v] + i * rep.dims[v] + j

    basis = {}  # pivot column -> normalized sparse row

    def add_row(row):
        while row:
            c = min(row)
            if c in basis:
                coef = row[c]
                for bc, bv in basis[c].items():
                    row[bc] = row.get(bc, Fraction(0)) - coef * bv
                    if not row[bc]:
                        del row[bc]
            else:
                inv = Fraction(1) / row[c]
                basis[c] = {k: v * inv for k, v in row.items()}
                return 1
        return 0

    rank = 0
    for k, a in enumerate(rep.quiver.arrows):
        if a.src not in offsets or a.dst not in offsets:
            continue
        g = rep.maps.get(k)
        if g is None:
            continue
        ds, dt = rep.dims[a.src], rep.dims[a.dst]
        for pi in range(dt):
            for qj in range(ds):
                row = {}
                for j in range(ds):
                    if g[pi][j]:
                        row[var(a.src, j, qj)] = (
                            row.get(var(a.src, j, qj), Fraction(0)) + g[pi][j]
                        )
                for i in range(dt):
                    if g[i][qj]:
                        c = var(a.dst, pi, i)
                        row[c] = row.get(c, Fraction(0)) - g[i][qj]
                row = {c: v for c, v in row.items() if v}
                if row:
                    rank += add_row(row)
    return total - rank


def _nonzero_successors(rep):
    succ = {v: set() for v in rep.support}
    for k, a in enumerate(rep.quiver.arrows):
        if a.src in succ and a.dst in succ and rep.map_is_nonzero(k):
            succ[a.src].add(a.dst)
    return succ


def _neighbours(succ):
    """Undirected adjacency of a successor map."""
    nbrs = {v: set(ws) for v, ws in succ.items()}
    for v, ws in succ.items():
        for w in ws:
            nbrs[w].add(v)
    return nbrs


def _part(start, inside, adj):
    """Vertices of ``inside`` reachable from ``start`` along ``adj``."""
    seen, frontier = {start}, {start}
    while frontier:
        frontier = set().union(*(adj[u] for u in frontier))
        frontier &= inside
        frontier -= seen
        seen |= frontier
    return seen


def closed_subsets(rep, reduce=False):
    """Proper nonempty vertex subsets closed under following nonzero arrows.

    These index the subrepresentations of a multiplicity-free
    representation.  With ``reduce`` set, subsets that split as a disjoint
    union of two smaller closed subsets (equivalently, whose induced graph
    is disconnected) are dropped: their slope constraint is a mediant of
    the parts' and therefore redundant.
    """
    for v in rep.support:
        if rep.dims[v] != 1:
            raise NotMultiplicityFree("closed subsets require all dims equal to 1")
    succ = _nonzero_successors(rep)
    full = frozenset(succ)

    reach_cache = {}

    def closure(v, inside):
        key = (v, inside)
        if key not in reach_cache:
            reach_cache[key] = frozenset(_part(v, inside, succ))
        return reach_cache[key]

    memo = {}

    def downsets(inside):
        if inside in memo:
            return memo[inside]
        if not inside:
            return [frozenset()]
        targets = set()
        for v in inside:
            targets.update(succ[v] & inside)
        source = min(inside - targets)
        without = downsets(inside - {source})
        cl = closure(source, inside)
        withs = [cl | t for t in downsets(inside - cl)]
        memo[inside] = without + withs
        return memo[inside]

    sets = [s for s in downsets(full) if s and s != full]
    if reduce:
        nbrs = _neighbours(succ)
        sets = [s for s in sets if _part(min(s), s, nbrs) == s]
    return sorted((tuple(sorted(s)) for s in sets), key=lambda t: (len(t), t))


def dominant_sum_check(p):
    """Dominant sums of one nilradical and one tangent weight.

    The simplicity argument needs this set to be exactly {0}: the only
    dominant summand of End of the graded tangent bundle is the trivial
    one.
    """
    out = set()
    for a in p.nilradical_weights:
        for b in p.tangent_weights:
            s = a + b
            if is_dominant(s):
                out.add(s)
    return frozenset(out)


def verdict_for(multiplicity_free, components, dominant_sums, zero_weight):
    if multiplicity_free and components == 1:
        if dominant_sums == frozenset({zero_weight}):
            return VERDICT_SIMPLE
        return VERDICT_WEAKLY_SIMPLE_ONLY
    return VERDICT_INCONCLUSIVE


def simplicity_report(p):
    """Run every simplicity check for the tangent bundle of G/P."""
    trep = tangent_rep(p)
    multiplicity_free, components = structure_report(trep.rep)
    hom_dim = hom_dimension(trep.rep)
    sums = dominant_sum_check(p)
    zero = p.system.weight((0,) * p.system.ambient_dim)
    return SimplicityReport(
        multiplicity_free,
        components,
        hom_dim,
        sums,
        verdict_for(multiplicity_free, components, sums, zero),
    )
