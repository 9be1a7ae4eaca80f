"""Tangent-bundle quiver representations and the simplicity certificate."""

from itertools import chain, compress, repeat
from operator import add, and_, getitem, or_
from typing import NamedTuple

from .errors import NotMultiplicityFree
from .parabolic import borel, levi_components
from .quiver import FULL, Arrow, InducedQuiver, QuiverRep

VERDICT_SIMPLE = "SIMPLE"
VERDICT_WEAKLY_SIMPLE_ONLY = "WEAKLY_SIMPLE_ONLY"
VERDICT_INCONCLUSIVE = "INCONCLUSIVE"


class TangentRep(NamedTuple):
    """Tangent bundle data at both levels.

    ``rep`` lives on the Borel quiver with one vertex per tangent weight;
    ``levi_rep`` is its quotient by the Levi-irreducible components, with the
    label of the first arrow joining each pair of them.  Its maps are the
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


# root system -> its Borel tangent quiver as integer rows; see _borel_arrows
_BOREL_ARROWS = {}

_ONE = ((1,),)
_MAPS = {1: _ONE, -1: ((-1,),)}


class _BorelArrows(NamedTuple):
    """The tangent quiver of the Borel, as parallel columns over its arrows.

    Vertex ``i`` is ``-alpha_i``, so vertex and positive-root indices agree.
    An arrow runs from ``src`` to ``dst`` along the root ``label``, with the
    1x1 map ``((scalar,),)``; ``weights`` holds each arrow's label as a
    ``Weight`` and ``maps`` its map.  The rows are ordered by source, then
    by label.  ``borel`` is the parabolic every restriction keeps as its
    quiver's ``parabolic``.
    """

    borel: object
    src: tuple
    dst: tuple
    label: tuple
    weights: tuple
    maps: tuple


def _borel_arrows(system):
    """The Borel tangent quiver of ``system``, read once per root system.

    An arrow with label alpha_a runs from -alpha_s to -alpha_b exactly when
    alpha_s = alpha_a + alpha_b, so each bracket ``(i, j, n)`` of the root
    tables under ``s`` gives two arrows out of -alpha_s: one to -alpha_j
    labelled alpha_i, one to -alpha_i labelled alpha_j.  The scalar of an
    arrow is N(alpha_a, -alpha_s) = -N(alpha_a, alpha_b): the sign function
    is bimultiplicative, depends on a root only mod 2, and is -1 on
    (alpha, alpha).  That is -n on the first arrow and n on the second.
    A label fixes the target, so sorting a source's arrows by label orders
    them.
    """
    table = _BOREL_ARROWS.get(system)
    if table is None:
        src, dst, label, maps = [], [], [], []
        for s, pairs in enumerate(system._root_tables().brackets):
            rows = [(i, j, -n) for i, j, n in pairs] + [(j, i, n) for i, j, n in pairs]
            rows.sort()
            for a, b, n in rows:
                src.append(s)
                dst.append(b)
                label.append(a)
                maps.append(_MAPS[n])
        table = _BOREL_ARROWS[system] = _BorelArrows(
            borel(system),
            tuple(src),
            tuple(dst),
            tuple(label),
            tuple(map(system.positive_roots.__getitem__, label)),
            tuple(maps),
        )
    return table


def _borel_rep(p):
    """The Borel-level half of ``tangent_rep``, for callers of its ``rep`` only.

    Returns that rep, and what the Levi half reads: the nilradical as a
    0/1 column over the positive roots, and the kept arrows' source
    roots, destination roots, label roots and label weights.
    """
    system = p.system
    table = _borel_arrows(system)
    roots = len(system.positive_roots)
    # vertex of each nilradical root, and the nilradical as a 0/1 column
    vertex = [0] * roots
    nil = bytearray(roots)
    for i, r in enumerate(p.nilradical_indices):
        vertex[r] = i
        nil[r] = 1
    keep = list(map(and_, map(nil.__getitem__, table.src), map(nil.__getitem__, table.dst)))
    src = list(compress(table.src, keep))
    dst = list(compress(table.dst, keep))
    weights = list(compress(table.weights, keep))
    # tuple.__new__ makes each Arrow without a Python-level call
    arrows = list(map(
        tuple.__new__,
        repeat(Arrow),
        zip(map(vertex.__getitem__, src), map(vertex.__getitem__, dst), weights),
    ))
    bq = InducedQuiver(p.tangent_weights, arrows, FULL, table.borel)
    maps = dict(enumerate(compress(table.maps, keep)))
    rep = QuiverRep(bq, (1,) * len(bq.vertices), maps)
    return rep, nil, (src, dst, list(compress(table.label, keep)), weights)


def tangent_rep(p):
    """Quiver representation of the (pulled-back) tangent bundle of G/P.

    The Borel-level quiver is the Borel tangent quiver of the root system
    (``_borel_arrows``, read off the bracket table once per root system
    and kept in ``_BOREL_ARROWS``) restricted to the nilradical of ``p``:
    an arrow is kept when both of its ends are nilradical roots.  Vertices
    are renumbered by their position among the nilradical roots, which is
    monotone, so the arrows stay in (source, label) order.

    The Levi-level quiver is the quotient by the Levi components.  A label
    of marked degree zero keeps an arrow inside its component and any other
    label leaves it, so the Levi arrows are the nilradical-labelled Borel
    arrows, and each pair of components gets the label of the first arrow
    joining them.
    """
    rep, nil, (src, dst, label, weights) = _borel_rep(p)
    comps = levi_components(p)
    size = len(comps)
    comp_index = {c.degree: ci for ci, c in enumerate(comps)}
    comp = [0] * len(nil)
    for r, degree in zip(p.nilradical_indices, p.marked_degrees):
        comp[r] = comp_index[degree]
    leaves = list(map(nil.__getitem__, label))
    # the pair of components (ci, cj) as the integer ci * size + cj
    pairs = list(map(
        add,
        map(size.__mul__, map(comp.__getitem__, compress(src, leaves))),
        map(comp.__getitem__, compress(dst, leaves)),
    ))
    labels = list(compress(weights, leaves))
    # read backwards, a later arrow's label is overwritten by an earlier one
    first = dict(zip(pairs[::-1], labels[::-1]))
    levi_arrows = [
        Arrow(*divmod(pair, size), first[pair]) for pair in sorted(first)
    ]
    levi_quiver = InducedQuiver(
        tuple(c.highest_weight for c in comps), levi_arrows, FULL, p
    )
    levi_rep = QuiverRep(
        levi_quiver, (1,) * len(comps), dict.fromkeys(range(len(levi_arrows)), _ONE)
    )
    return TangentRep(rep, levi_rep, comps, p)


def structure_report(rep):
    """(multiplicity free, number of connected components) of the support."""
    multiplicity_free = all(rep.dims[i] == 1 for i in rep.support)
    succ, pred = _nonzero_successors(rep)
    nbrs = list(map(or_, succ, pred))
    rest = (1 << len(nbrs)) - 1
    components = 0
    while rest:
        rest &= ~_component(rest & -rest, rest, nbrs)
        components += 1
    return multiplicity_free, components


def hom_dimension(rep):
    """Dimension of the endomorphism space of a multiplicity-free rep.

    Each vertex carries one scalar, and a nonzero arrow forces the scalars
    at its two ends to be equal, so the endomorphisms are the locally
    constant scalars: one per connected component of the support.
    """
    if any(rep.dims[v] != 1 for v in rep.support):
        raise NotMultiplicityFree("hom_dimension requires all dims equal to 1")
    return structure_report(rep)[1]


def _nonzero_successors(rep):
    """Successor and predecessor masks of the support along nonzero arrows.

    Bit ``b`` stands for the support vertex at position ``n - 1 - b``, so
    the largest vertex is bit 0: the layout ``closed_subsets`` sorts in.
    The maps are read once, and an arrow without one is zero.
    """
    support = rep.support
    n = len(support)
    # a vertex off the support has the bit 0 at the spare position n
    position = [n] * len(rep.dims)
    single = [0] * len(rep.dims)
    for i, v in enumerate(support):
        position[v] = n - 1 - i
        single[v] = 1 << n - 1 - i
    succ = [0] * (n + 1)
    pred = [0] * (n + 1)
    maps = rep.maps
    nonzero = compress(maps, map(any, map(chain.from_iterable, maps.values())))
    for src, dst, _ in map(rep.quiver.arrows.__getitem__, nonzero):
        succ[position[src]] |= single[dst]
        pred[position[dst]] |= single[src]
    return succ[:n], pred[:n]


def _component(start, inside, nbrs):
    """Bits of ``inside`` joined to the bit ``start`` along ``nbrs``."""
    seen = frontier = start
    while frontier:
        grow = 0
        while frontier:
            low = frontier & -frontier
            grow |= nbrs[low.bit_length() - 1]
            frontier ^= low
        frontier = grow & inside & ~seen
        seen |= frontier
    return seen


def _byte_tables(support):
    """Tuple tables for a mask whose bit ``b`` is ``support[n - 1 - b]``.

    One table per byte of the mask, most significant first.  Entry ``v``
    holds the vertices of the set bits of the byte value ``v`` in
    increasing order, so joining the entries of a mask's bytes, read
    big-endian, lists its vertices in increasing order.
    """
    n = len(support)
    width = (n + 7) // 8
    tables = []
    for t in range(width):
        base = 8 * (width - 1 - t)
        table = [()]
        # each higher bit is a smaller vertex, so it goes in front
        for b in range(base, min(base + 8, n)):
            vertex = (support[n - 1 - b],)
            table += [vertex + entry for entry in table]
        tables.append(table)
    return tables


def closed_subsets(rep, reduce=False):
    """Proper nonempty vertex subsets closed under following nonzero arrows.

    These index the subrepresentations of a multiplicity-free
    representation.  With ``reduce`` set, subsets that split as a disjoint
    union of two smaller closed subsets (equivalently, whose induced graph
    is disconnected) are dropped: their slope constraint is a mediant of
    the parts' and therefore redundant.  The sets come as sorted tuples,
    ordered by size and then as tuples.

    Sets are bitmasks with bit ``b`` for the support vertex at position
    ``n - 1 - b``.  In that layout the output order is an integer order:
    popcount ascending, then mask descending.  Of two sets of one size,
    the smaller tuple holds the least vertex of their symmetric difference,
    which is its highest differing bit.  So the masks are sorted as plain
    integers, and each is read into its tuple a byte at a time from tables
    whose entries are already sorted (``_byte_tables``).

    Every nonzero arrow must point to a lower vertex, that is to a higher
    bit, so the walk runs over the bit layout itself; a rep in any other
    order, a cycle included, raises ``ValueError``.  Both levels of a
    tangent rep hold this.  At the Borel level an arrow runs from -alpha_s
    to -alpha_b with alpha_s = alpha_a + alpha_b, and roots are listed by
    height.  At the Levi level an arrow c_i -> c_j brackets the pieces of
    degrees d_a and d_j onto the piece of degree d_i, an irreducible Levi
    module (Azad-Barry-Seitz 1990), so the lowest root of degree d_i is
    x + y with y of degree d_j and of lower height; components are listed
    by the first root of each degree, so c_j comes first.

    The walk splits the candidates ``inside`` on their lowest bit v, which
    has no predecessor among them: closed subsets without v, and those
    holding ``reach[v] & inside``, the descendants of v among the
    candidates.  Dropping a source or a successor-closed part keeps every
    path between the remaining candidates inside them, so that is the
    closure of v.

    A closed set is the union of ``reach[v]`` over the vertices v it was
    split on, and each of those masks is connected.  An arrow from one mask
    ends in both, so the set is connected iff the masks chain by
    intersection: the walk merges each new mask with the parts it meets.
    """
    if any(rep.dims[v] != 1 for v in rep.support):
        raise NotMultiplicityFree("closed subsets require all dims equal to 1")
    succ = _nonzero_successors(rep)[0]
    if any(out & ((2 << b) - 1) for b, out in enumerate(succ)):
        raise ValueError("closed subsets require every nonzero arrow to point to a lower vertex")
    n = len(succ)
    reach = [0] * n
    for i in reversed(range(n)):
        mask = 1 << i
        out = succ[i]
        while out:
            low = out & -out
            out ^= low
            mask |= reach[low.bit_length() - 1]
        reach[i] = mask
    full = (1 << n) - 1
    sets = []
    # parts: the reach masks of the chosen sources, merged where they meet
    stack = [(full, 0, ())]
    while stack:
        inside, chosen, parts = stack.pop()
        if not inside:
            if chosen and chosen != full and (not reduce or len(parts) == 1):
                sets.append(chosen)
            continue
        v = (inside & -inside).bit_length() - 1
        closure = reach[v] & inside
        merged = parts
        if reduce:
            joined, merged = reach[v], []
            for part in parts:
                if part & joined:
                    joined |= part
                else:
                    merged.append(part)
            merged.append(joined)
        stack.append((inside ^ closure, chosen | closure, merged))
        stack.append((inside & (inside - 1), chosen, parts))
    # popcount ascending, then mask descending, as one integer each
    for i, s in enumerate(sets):
        sets[i] = s.bit_count() << n | full ^ s
    sets.sort(reverse=True)
    tables = _byte_tables(rep.support)
    width = len(tables)
    out = []
    # popping frees each key before the next tuple is made
    while sets:
        s = sets.pop() & full ^ full
        out.append(tuple(chain.from_iterable(map(getitem, tables, s.to_bytes(width, "big")))))
    return out


def dominant_sum_check(p):
    """Dominant sums of one nilradical and one tangent weight.

    The simplicity argument needs this set to be exactly {0}: the only
    dominant summand of End of the graded tangent bundle is the trivial
    one.  Each sum is alpha_i - alpha_j for nilradical roots alpha_i and
    alpha_j (the nilradical is never empty, so 0 is one), and no nonzero
    one is dominant, by the highest root theta.  A nonzero dominant
    element of the root lattice lies above theta (Stembridge, *The partial
    order of dominant weights*, 1998), but theta - alpha_i lies in Q+, so
    alpha_i - alpha_j - theta has negative height and is not in Q+.

    What is checked is that the last positive root has the largest
    coefficient on every simple root, which makes it theta; raises
    ``ArithmeticError`` if not.
    """
    system = p.system
    if any(column[-1] != max(column) for column in system._columns):
        raise ArithmeticError("the last positive root is not the highest root")
    return frozenset({system.weight((0,) * system.ambient_dim)})


def verdict_for(multiplicity_free, components, dominant_sums, zero_weight):
    if multiplicity_free and components == 1:
        if dominant_sums == frozenset({zero_weight}):
            return VERDICT_SIMPLE
        return VERDICT_WEAKLY_SIMPLE_ONLY
    return VERDICT_INCONCLUSIVE


def simplicity_report(p):
    """Run every simplicity check for the tangent bundle of G/P."""
    # raises unless multiplicity free; one scalar per connected component
    hom_dim = hom_dimension(_borel_rep(p)[0])
    sums = dominant_sum_check(p)
    zero = p.system.weight((0,) * p.system.ambient_dim)
    return SimplicityReport(
        True, hom_dim, hom_dim, sums, verdict_for(True, hom_dim, sums, zero)
    )
