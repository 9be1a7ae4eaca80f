"""Endomorphism dimension by row reduction: the independent route.

The library reads ``hom_dimension`` of a multiplicity-free rep off its
connected components.  This oracle solves the commutation system
``g_dst phi = phi g_src`` over the rationals by sparse row reduction, for
any dimension vector; the tests compare the two.
"""
from fractions import Fraction


def hom_dimension(rep):
    """Dimension of the endomorphism space of the representation."""
    offsets = {}
    total = 0
    for v in rep.support:
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
                        c = var(a.src, j, qj)
                        row[c] = row.get(c, Fraction(0)) + g[pi][j]
                for i in range(dt):
                    if g[i][qj]:
                        c = var(a.dst, pi, i)
                        row[c] = row.get(c, Fraction(0)) - g[i][qj]
                row = {c: v for c, v in row.items() if v}
                if row:
                    rank += add_row(row)
    return total - rank
