"""Finite induced subquivers, their relations, and the flatness check."""

from operator import itemgetter
from typing import NamedTuple

from .errors import ModeMismatch, NotMultiplicityFree, UnsupportedParabolic

FULL = "full"
REDUCED = "reduced"


class Arrow(NamedTuple):
    src: int
    dst: int
    label: object  # Weight of the nilradical


class InducedQuiver:
    """Subquiver induced on a finite set of Levi-dominant vertex weights."""

    def __init__(self, vertices, arrows, mode, parabolic):
        self.vertices = tuple(vertices)
        self.arrows = tuple(arrows)
        self.mode = mode
        self.parabolic = parabolic

    def __repr__(self):
        return (
            f"InducedQuiver({len(self.vertices)} vertices, "
            f"{len(self.arrows)} arrows, mode={self.mode})"
        )


class QuiverRep:
    """Representation: a dimension per vertex and a matrix per arrow.

    Matrices are tuples of tuples shaped dims(target) x dims(source);
    arrows without an entry in ``maps`` carry the zero map.
    """

    def __init__(self, quiver, dims, maps):
        self.quiver = quiver
        self.dims = tuple(map(int, dims))
        if len(self.dims) != len(quiver.vertices):
            raise ValueError("dims length must match the vertex count")
        self.maps = dict(maps)
        # a key that names no arrow raises IndexError here
        ends = list(map(quiver.arrows.__getitem__, self.maps))
        values = self.maps.values()
        # when every vertex has dimension 1, the shapes are right iff every
        # map is one row of one entry: three passes over all of them
        if (
            {1} >= set(self.dims)
            and {1} >= set(map(len, values))
            and {1} >= set(map(len, map(itemgetter(0), values)))
        ):
            return
        for (k, m), a in zip(self.maps.items(), ends):
            if len(m) != self.dims[a.dst] or any(
                len(row) != self.dims[a.src] for row in m
            ):
                raise ValueError(f"map for arrow {k} has the wrong shape")

    @property
    def support(self):
        return tuple(i for i, d in enumerate(self.dims) if d > 0)

    def __repr__(self):
        return f"QuiverRep(dims={self.dims})"


class RelationInstance(NamedTuple):
    """One quadratic relation at a source vertex, for a root pair."""

    source: int
    alpha: object
    beta: object
    chevalley: int
    path_via_alpha: tuple | None  # (first arrow, second arrow) indices
    path_via_beta: tuple | None
    bracket_arrow: int | None


def _arrows_by_label(q):
    """The nilradical of ``q``'s parabolic as root indices, and per vertex
    ``{label root index: arrow index}`` of its arrows with such a label."""
    index = q.parabolic.system._root_tables().index
    nil = set(q.parabolic.nilradical_indices)
    out = [{} for _ in q.vertices]
    for k, a in enumerate(q.arrows):
        label = index.get(a.label.coords2)
        if label in nil:
            out[a.src][label] = k
    return nil, out


def _relations(q, sources):
    """Relations at the given sources with at least one term in the quiver.

    Labels are positive-root indices, and only nilradical pairs count.  A
    source's pairs are read off its terms: each two-step path ``alpha``
    then ``beta`` gives the pair of its labels, and each arrow gives the
    pairs whose nonzero bracket it carries (``brackets`` of the root
    system's tables).  They are visited in pair order, and their sum and
    Chevalley constant come from the same lists, keyed by pair.
    """
    system = q.parabolic.system
    tables = system._root_tables()
    sums = {(i, j): (s, n) for s, b in enumerate(tables.brackets) for i, j, n in b}
    nil, out = _arrows_by_label(q)
    # the arrows leaving each arrow's target, by label
    out_of = [out[a.dst] for a in q.arrows]
    roots = system.positive_roots

    for src in sources:
        here = out[src]
        pairs = set()
        for first, k in here.items():
            pairs.update(
                (i, j) for i, j, _ in tables.brackets[first] if i in nil and j in nil
            )
            pairs.update(
                (first, second) if first < second else (second, first)
                for second in out_of[k]
                if second != first
            )
        for i, j in sorted(pairs):
            ka, kb = here.get(i), here.get(j)
            s, n = sums.get((i, j), (None, 0))
            path_a = None if ka is None else out_of[ka].get(j)
            path_b = None if kb is None else out_of[kb].get(i)
            yield RelationInstance(
                src,
                roots[i],
                roots[j],
                n,
                None if path_a is None else (ka, path_a),
                None if path_b is None else (kb, path_b),
                here.get(s) if n else None,
            )


def relation_instances(q):
    """All relations with at least one realizable term inside the quiver.

    Paths leaving the vertex set are truncated to zero, so relations whose
    every term is clipped are omitted as vacuous.  Only supported in the
    Borel case, where the relations take the explicit commutator form.
    """
    if not q.parabolic.is_borel:
        raise UnsupportedParabolic("relations are only generated for the Borel case")
    return list(_relations(q, range(len(q.vertices))))


class FlatnessResult(NamedTuple):
    ok: bool
    violation: tuple | None  # (vertex weight, alpha, beta)


def verify_flatness(rep):
    """Check that arrow scalars commute up to the structure-constant term.

    For every support vertex and every pair of nilradical weights, the
    scalars must satisfy the commutator identity of the nilpotent action:
    N(beta path) - N(alpha path) - n * N(bracket) = 0.  An arrow without a
    map, or with an empty map at a zero-dimensional end, has scalar 0, and
    so has a path through a missing arrow.  Requires a FULL-mode quiver
    and a multiplicity-free rep.

    Each source sums its terms into one integer per pair: every two-step
    path adds its product to the pair of its labels, and every arrow
    subtracts ``n`` times its scalar from each pair whose bracket it
    carries (``brackets`` of the root tables).  Terms with a zero scalar
    change nothing, so a violation is a pair with a nonzero sum, and the
    first one in pair order is reported, as ``relation_instances`` orders
    them.
    """
    q = rep.quiver
    if q.mode != FULL:
        raise ModeMismatch("flatness requires a FULL-mode quiver")
    if any(rep.dims[v] != 1 for v in rep.support):
        raise NotMultiplicityFree("flatness requires all dims equal to 1")
    system = q.parabolic.system
    roots = system.positive_roots
    brackets = system._root_tables().brackets
    nil, out = _arrows_by_label(q)
    scalar = [0] * len(q.arrows)
    for k, m in rep.maps.items():
        if m and m[0]:
            scalar[k] = m[0][0]
    # the arrows leaving each arrow's target, with their scalars
    after = [
        [(second, scalar[k2]) for second, k2 in out[a.dst].items() if scalar[k2]]
        for a in q.arrows
    ]
    size = len(roots)

    for src in rep.support:
        # pair (i, j), i < j, as the integer i * size + j
        value = {}
        for first, k in out[src].items():
            x = scalar[k]
            if not x:
                continue
            for i, j, n in brackets[first]:
                if i in nil and j in nil:
                    pair = i * size + j
                    value[pair] = value.get(pair, 0) - n * x
            for second, y in after[k]:
                if first < second:  # the path via alpha
                    pair = first * size + second
                    value[pair] = value.get(pair, 0) - x * y
                elif second < first:  # the path via beta
                    pair = second * size + first
                    value[pair] = value.get(pair, 0) + x * y
        violated = [pair for pair, v in value.items() if v]
        if violated:
            i, j = divmod(min(violated), size)
            return FlatnessResult(False, (q.vertices[src], roots[i], roots[j]))
    return FlatnessResult(True, None)


def _label_name(weight):
    parts = []
    for i, c in enumerate(weight.system.expansion(weight), start=1):
        if c == 0:
            continue
        parts.append(f"a{i}" if c == 1 else f"{c}a{i}")
    return "+".join(parts) if parts else "0"


def to_dot(quiver):
    """Graphviz DOT serialization: nodes carry weight coordinates, edges
    their nilradical label."""
    lines = ["digraph quiver {"]
    for i, w in enumerate(quiver.vertices):
        coords = ",".join(str(c) for c in w.coords2)
        lines.append(f'  v{i} [label="({coords})"];')
    for a in quiver.arrows:
        lines.append(f'  v{a.src} -> v{a.dst} [label="{_label_name(a.label)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
