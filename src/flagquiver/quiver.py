"""Finite induced subquivers, their relations, and the flatness check."""
from __future__ import annotations

from typing import NamedTuple

from .errors import ModeMismatch, NotLeviDominant, UnsupportedParabolic
from .parabolic import is_levi_dominant
from .rootsys import chevalley_constant

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
        self.vertex_index = {w: i for i, w in enumerate(self.vertices)}
        self.out_by_label = {}
        for k, a in enumerate(self.arrows):
            self.out_by_label.setdefault(a.src, {})[a.label.coords2] = k

    def arrow_index(self, src, label_coords2):
        """Index of the arrow leaving ``src`` with the given label, if any."""
        return self.out_by_label.get(src, {}).get(label_coords2)

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
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) != len(quiver.vertices):
            raise ValueError("dims length must match the vertex count")
        self.maps = dict(maps)
        for k, m in self.maps.items():
            a = quiver.arrows[k]
            if len(m) != self.dims[a.dst] or any(
                len(row) != self.dims[a.src] for row in m
            ):
                raise ValueError(f"map for arrow {k} has the wrong shape")

    @property
    def support(self):
        return tuple(i for i, d in enumerate(self.dims) if d > 0)

    def map_is_nonzero(self, k):
        m = self.maps.get(k)
        return m is not None and any(any(x for x in row) for row in m)

    def __repr__(self):
        return f"QuiverRep(dims={self.dims})"


def induced_quiver(p, vertex_weights, mode=FULL):
    """Arrows between the given weights along nilradical weights.

    FULL mode uses every nilradical weight as a possible arrow label;
    REDUCED mode only the marked-degree-one generators.
    """
    if mode not in (FULL, REDUCED):
        raise ValueError(f"unknown mode {mode!r}")
    vertices = tuple(vertex_weights)
    seen = set()
    for w in vertices:
        if w in seen:
            raise ValueError(f"duplicate vertex weight {w}")
        seen.add(w)
        if not is_levi_dominant(w, p):
            raise NotLeviDominant(f"{w} is not Levi-dominant for sigma={p.sigma}")
    labels = p.nilradical_weights if mode == FULL else p.generator_weights
    index = {w: i for i, w in enumerate(vertices)}
    arrows = []
    for i, w in enumerate(vertices):
        for a in labels:
            j = index.get(w + a)
            if j is not None:
                arrows.append(Arrow(i, j, a))
    return InducedQuiver(vertices, arrows, mode, p)


class RelationInstance(NamedTuple):
    """One quadratic relation at a source vertex, for a root pair."""

    source: int
    alpha: object
    beta: object
    chevalley: int
    path_via_alpha: tuple | None  # (first arrow, second arrow) indices
    path_via_beta: tuple | None
    bracket_arrow: int | None


def relation_instances(q):
    """All relations with at least one realizable term inside the quiver.

    Paths leaving the vertex set are truncated to zero, so relations whose
    every term is clipped are omitted as vacuous.  Only supported in the
    Borel case, where the relations take the explicit commutator form.
    """
    p = q.parabolic
    if not p.is_borel:
        raise UnsupportedParabolic("relations are only generated for the Borel case")
    nil = p.nilradical_weights
    out = []
    for src in range(len(q.vertices)):
        w = q.vertices[src]
        for ia in range(len(nil)):
            for ib in range(ia + 1, len(nil)):
                alpha, beta = nil[ia], nil[ib]
                path_a = path_b = None
                k1 = q.arrow_index(src, alpha.coords2)
                if k1 is not None:
                    k2 = q.arrow_index(q.arrows[k1].dst, beta.coords2)
                    if k2 is not None:
                        path_a = (k1, k2)
                k1 = q.arrow_index(src, beta.coords2)
                if k1 is not None:
                    k2 = q.arrow_index(q.arrows[k1].dst, alpha.coords2)
                    if k2 is not None:
                        path_b = (k1, k2)
                n = 0
                bracket = None
                if (alpha + beta).is_root:
                    n = chevalley_constant(alpha, beta)
                    bracket = q.arrow_index(src, (alpha + beta).coords2)
                if path_a or path_b or (n and bracket is not None):
                    out.append(
                        RelationInstance(
                            src, alpha, beta, n, path_a, path_b,
                            bracket if n else None,
                        )
                    )
    return out


def _mat_mul(a, b):
    return tuple(
        tuple(sum(ra[k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for ra in a
    )


def _zero(rows, cols):
    return tuple((0,) * cols for _ in range(rows))


def _mat_addsub(a, b, sign):
    return tuple(
        tuple(x + sign * y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


class FlatnessResult(NamedTuple):
    ok: bool
    violation: tuple | None  # (vertex weight, alpha, beta)


def verify_flatness(rep):
    """Check that arrow maps commute up to the structure-constant term.

    For every vertex and every pair of nilradical weights the composite
    maps must satisfy the commutator identity of the nilpotent action;
    absent arrows contribute zero.  Requires a FULL-mode quiver.
    """
    q = rep.quiver
    if q.mode != FULL:
        raise ModeMismatch("flatness requires a FULL-mode quiver")
    nil = q.parabolic.nilradical_weights
    sums = {}
    for ia in range(len(nil)):
        for ib in range(ia + 1, len(nil)):
            s = nil[ia] + nil[ib]
            n = chevalley_constant(nil[ia], nil[ib]) if s.is_root else 0
            sums[(ia, ib)] = (s.coords2 if s.is_root else None, n)

    def term(src, first, second):
        # second(first(.)) with zero for any missing arrow or map
        k1 = q.arrow_index(src, first.coords2)
        if k1 is None:
            return None
        mid = q.arrows[k1].dst
        k2 = q.arrow_index(mid, second.coords2)
        if k2 is None:
            return None
        m1 = rep.maps.get(k1)
        m2 = rep.maps.get(k2)
        if m1 is None or m2 is None:
            return None
        return _mat_mul(m2, m1)

    for src in rep.support:
        labels_out = set(q.out_by_label.get(src, ()))
        for (ia, ib), (sum_coords, n) in sums.items():
            alpha, beta = nil[ia], nil[ib]
            if (
                alpha.coords2 not in labels_out
                and beta.coords2 not in labels_out
                and (not n or sum_coords not in labels_out)
            ):
                continue
            t1 = term(src, beta, alpha)   # alpha after beta
            t2 = term(src, alpha, beta)   # beta after alpha
            t3 = None
            if n:
                k = q.arrow_index(src, sum_coords)
                if k is not None and k in rep.maps:
                    t3 = tuple(tuple(n * x for x in row) for row in rep.maps[k])
            terms = [t for t in (t1, t2, t3) if t is not None]
            if not terms:
                continue
            rows, cols = len(terms[0]), len(terms[0][0])
            acc = _zero(rows, cols)
            if t1 is not None:
                acc = _mat_addsub(acc, t1, 1)
            if t2 is not None:
                acc = _mat_addsub(acc, t2, -1)
            if t3 is not None:
                acc = _mat_addsub(acc, t3, -1)
            if any(any(x for x in row) for row in acc):
                return FlatnessResult(False, (q.vertices[src], alpha, beta))
    return FlatnessResult(True, None)


def _label_name(weight):
    parts = []
    for i, c in enumerate(weight.system.expansion(weight), start=1):
        if c == 0:
            continue
        parts.append(f"a{i}" if c == 1 else f"{c}a{i}")
    return "+".join(parts) if parts else "0"


def to_dot(quiver, name="quiver"):
    """Graphviz DOT serialization: nodes carry weight coordinates, edges
    their nilradical label."""
    lines = [f"digraph {name} {{"]
    for i, w in enumerate(quiver.vertices):
        coords = ",".join(str(c) for c in w.coords2)
        lines.append(f'  v{i} [label="({coords})"];')
    for a in quiver.arrows:
        lines.append(f'  v{a.src} -> v{a.dst} [label="{_label_name(a.label)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
