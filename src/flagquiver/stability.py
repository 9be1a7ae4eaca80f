"""Slope stability cones, closed-form boundaries, and character stability.

Everything is exact: cone inequalities are integer polynomials in the
polarization coefficients, pointwise verdicts are integer sums over the
Levi components' degree forms, boundary slopes are quadratic surds, and
the character-based verdicts use the same integer data.
"""

import itertools
from math import gcd, isqrt, prod
from operator import add, floordiv, index, mul, sub
from typing import NamedTuple

from .errors import (
    NotAmple,
    NotLeviTrivialDeterminant,
    NotQuadratic,
    NotTwoParameter,
)
from .parabolic import levi_components
from .polynomials import IntPoly
from .rootsys import coroot_pairing
from .schubert import DEFAULT_BUDGET, _check_budget, _top_intersections, intersection_polynomial
from .tangentrep import closed_subsets, tangent_rep

STABLE = "STABLE"
UNSTABLE = "UNSTABLE"
BOUNDARY = "STRICTLY_SEMISTABLE_BOUNDARY"


class ConeInequality(NamedTuple):
    """Normalized integer polynomial that must be positive for stability."""

    subbundle: tuple      # component indices of the Levi-level rep
    polynomial: IntPoly
    strict: bool


class DegreeCone(NamedTuple):
    """The cone inequalities as integer rows over the Levi components.

    ``forms[c]`` is the marked degree of component c, so its degree form
    at an ample h is L_c(h) = <forms[c], h> > 0.  ``rows`` holds one row
    per reduced closed subset S, in ``stability_cone`` order, with entry
    rank(c) * <gap(S), forms[c]> for each component c.
    """

    forms: tuple
    rows: tuple


class SigmaCharacter(NamedTuple):
    values: tuple         # one integer per Levi-level vertex
    polarization: tuple


def c1_picard(weights, p):
    """First Chern class of the bundle with the given weight multiset.

    Coordinates are taken against the marked fundamental classes, in
    increasing index order.  The weight sum must pair to zero with every
    Levi coroot (a Levi-trivial determinant), otherwise the multiset does
    not describe a line bundle pulled from G/P.
    """
    weights = list(weights)
    if not weights:
        raise ValueError("empty weight multiset")
    total = weights[0]
    for w in weights[1:]:
        total = total + w
    for j in p.levi_simple_indices:
        if coroot_pairing(total, p.system.simple_root(j)) != 0:
            raise NotLeviTrivialDeterminant(
                f"weight sum pairs nonzero with unmarked coroot {j}"
            )
    return tuple(-coroot_pairing(total, p.system.simple_root(i)) for i in p.sigma)


def _slope_gaps(p, comps):
    """rank(c) * c1(T) - dim * c1(c) for each component c."""
    c1_total = c1_picard(p.tangent_weights, p)
    return [
        tuple(
            c.rank * t - p.dim * s
            for t, s in zip(c1_total, c1_picard(c.weights, p))
        )
        for c in comps
    ]


def _subset_gaps(p, trep):
    """(S, d(S)) for each reduced closed subset S of the Levi-level rep.

    c1 is additive, so the slope gap d(S) of a subbundle is the sum of its
    components' gaps; its degree at H is rk * deg(T) - dim * deg(S).
    """
    gaps = _slope_gaps(p, trep.components)
    for subset in closed_subsets(trep.levi_rep, reduce=True):
        yield subset, [sum(col) for col in zip(*(gaps[ci] for ci in subset))]


def _normalized_sum(columns, exponents, gap):
    """sum_pos gap[pos] * columns[pos], normalized, in whole-column passes.

    ``columns`` and ``exponents`` hold a coefficient and an exponent
    column per variable, indexed by the table's rows.  Returns the rows
    of the nonzero terms, their coefficients over the content, and the
    shift (the exponentwise minimum over those rows): the rows less the
    shift are the normalized terms, in the table's order.  A zero
    polynomial is ``([], [], ())``.
    """
    scaled = [map(mul, itertools.repeat(g), col) for g, col in zip(gap, columns) if g]
    values = list(map(sum, zip(*scaled)))
    coeffs = list(itertools.compress(values, values))
    if not coeffs:
        return [], [], ()
    rows = list(itertools.compress(range(len(values)), values))
    content = gcd(*coeffs)
    if content > 1:
        coeffs = list(map(floordiv, coeffs, itertools.repeat(content)))
    # exponents are >= 0, so a selected 0 is the minimum: most columns
    # stop at their first selected row with a zero exponent
    shift = tuple(
        0 if 0 in itertools.compress(col, values) else min(itertools.compress(col, values))
        for col in exponents
    )
    return rows, coeffs, shift


def _cone_inequalities(p, budget):
    """The inequalities of ``stability_cone`` as rows of one table.

    Returns the table's exponent tuples and a generator of ``(subset,
    rows, coeffs, shift)``, one per reduced closed subset (see
    ``_normalized_sum``).  The exponents are those of the partial
    derivatives, in sorted order, less their common monomial: the terms
    of every inequality are rows of the table, so it divides them all,
    and taking it out once leaves most inequalities with no shift of
    their own.  The budget check and the table run at the call, so a
    refused cone raises before the first inequality is asked for; each
    inequality is built as the result is iterated.
    """
    qpolys = intersection_polynomial(p, budget)
    terms = [qpolys[pos].terms for pos in range(len(p.sigma))]
    exps = sorted(set().union(*terms))
    columns = [list(map(t.get, exps, itertools.repeat(0))) for t in terms]
    exponents = [list(map(sub, col, itertools.repeat(min(col)))) for col in zip(*exps)]
    inequalities = (
        (subset,) + _normalized_sum(columns, exponents, gap)
        for subset, gap in _subset_gaps(p, tangent_rep(p))
    )
    return list(zip(*exponents)), inequalities


def stability_cone(p, budget=DEFAULT_BUDGET):
    """One positivity constraint per reduced invariant subbundle.

    The tangent bundle is H-stable exactly when every returned polynomial
    is positive at H.  Polynomials are normalized (common monomial and
    content divided out), which preserves signs on the ample cone.

    For a subbundle S of rank rk, the constraint is
    rk * deg(T) - dim * deg(S) = sum_i d_i H_i . H^(dim-1) with d the
    slope gap of S: the derivative of the volume polynomial along d, over
    dim.  The k partial derivatives are laid out once as a table of k
    coefficient columns over the sorted monomials, and an inequality is
    k column passes over it; its terms come out in sorted order.
    """
    exps, inequalities = _cone_inequalities(p, budget)
    k = len(p.sigma)
    out = []
    for subset, rows, coeffs, shift in inequalities:
        keys = map(exps.__getitem__, rows)
        if any(shift):
            keys = (tuple(map(sub, e, shift)) for e in keys)
        poly = IntPoly._from_terms(k, dict(zip(keys, coeffs)))
        out.append(ConeInequality(subset, poly, True))
    return out


def _ample(polarization):
    h = []
    for x in polarization:
        try:
            h.append(index(x))
        except TypeError:
            raise ValueError(f"polarization entry {x!r} is not an integer") from None
    h = tuple(h)
    if any(x <= 0 for x in h):
        raise NotAmple(f"polarization {h} has a non-positive entry")
    return h


def degree_cone(p, budget=DEFAULT_BUDGET):
    """The inequalities of ``stability_cone`` as rows over degree forms.

    The volume polynomial is C * prod_alpha L_alpha(h) over the
    nilradical roots (Borel-Hirzebruch), and L_alpha depends only on the
    marked degree of alpha, that is on its Levi component c.  So
    P = C * prod_c L_c^rank(c), and the inequality of S with slope gap
    d(S) is (P / dim) * sum_c rank(c) <d(S), deg(c)> / L_c(h).  Times
    the positive D(h) = prod_c L_c(h), its sign is that of the row sum
    in ``degree_membership``; ``stability_cone`` divides each polynomial
    by a positive monomial and content, so the verdicts agree.  Nothing
    is expanded, but ``budget`` is checked as for ``stability_cone``.
    """
    _check_budget(p, budget)
    trep = tangent_rep(p)
    forms = [c.degree for c in trep.components]
    rows = tuple(
        tuple(
            c.rank * sum(map(mul, d, form))
            for c, form in zip(trep.components, forms)
        )
        for _, d in _subset_gaps(p, trep)
    )
    return DegreeCone(tuple(forms), rows)


def _verdicts(rows, points):
    """The verdict at each point, given as its tuple of degrees L_c(h).

    D = prod_c L_c(h) weights component c by the exact integer
    D // L_c(h).  A point is STABLE when every row sum is positive,
    UNSTABLE when one is negative, and on the boundary otherwise.  The
    verdict does not depend on the order of the rows, so the row that
    last proved a point UNSTABLE is moved to the front of the list
    ``rows``, in place, and tried first at the next point.
    """
    verdicts = []
    for degrees in points:
        weights = list(map(prod(degrees).__floordiv__, degrees))
        verdict = STABLE
        for k, row in enumerate(rows):
            value = sum(map(mul, row, weights))
            if value < 0:
                if k:
                    rows.insert(0, rows.pop(k))
                verdict = UNSTABLE
                break
            if value == 0:
                verdict = BOUNDARY
        verdicts.append(verdict)
    return verdicts


def _doubled_bounds(row, ends):
    """Twice the bounds of Q * sum_c row[c] / L_c(h) over a run or a rectangle.

    ``ends`` comes from ``_ends``: the sums and the differences of the
    weights Q // L_c(h) at two points of the set, with Q > 0 the product
    of D(h) at both, chosen so that every L_c lies between its values
    there: the two ends of a run, along which every L_c is affine, or the
    low and high corners of a rectangle on which every L_c is
    nondecreasing in both coordinates.  Each term row[c] / L_c is
    monotone in L_c, so it lies between its values at the two points:
    the row's least (greatest) value is at least (at most) the sum of its
    terms' least (greatest) ends.  With x and y a term's values there,
    min(x, y) and max(x, y) are (x + y -+ |x - y|) / 2, so twice the
    bounds are the row's sum over the weight sums less and plus the sum
    of its terms' spreads.  A positive lower or a negative upper bound
    certifies the sign of the row at every point of the set.  At a single
    point both bounds are twice the row sum of ``_verdicts`` times D(h),
    so the test is exact.
    """
    center = sum(map(mul, row, ends[0]))
    spread = sum(map(abs, map(mul, row, ends[1])))
    return center - spread, center + spread


def _ends(low, high):
    """The weights Q // L_c at two points, as ``_doubled_bounds`` reads them.

    ``low`` and ``high`` are the degrees at the two points and Q is
    D(low) * D(high), so every weight is an exact integer.
    """
    q = prod(low) * prod(high)
    near = list(map(q.__floordiv__, low))
    far = list(map(q.__floordiv__, high))
    return list(map(add, near, far)), list(map(sub, near, far))


# A part of a rectangle with at most this many points per row left to
# decide is decided point by point, a larger one as a whole (see _runs).
_POINTS_PER_ROW = 4
# The most lattice lines of a grid slab decided as one rectangle (see
# sample_lines): a sample holds the runs of one rectangle at a time.
_RECTANGLE_LINES = 1024


def _runs(order, firsts, di, dj, lines, count):
    """Verdicts at the points (i, j) of a rectangle, as runs along each line.

    Point (i, j), for 0 <= i < lines and 0 <= j < count, has the degrees
    L_c = firsts[c] + i * di[c] + j * dj[c], which must be positive at
    every point.  With more than one line, ``di`` and ``dj`` must be
    >= 0, so that on every sub-rectangle each L_c is least at the low
    corner and greatest at the high one.  A single line may step either
    way: L_c is affine along it, so it lies between its values at the
    two ends.  ``order`` is the list of rows, reordered in place so that
    the row that last proved something UNSTABLE comes first; a caller
    that passes the same list again carries that order over.

    The rectangle is decided in certified parts, as a region quadtree.
    A part with at most ``_POINTS_PER_ROW`` points per active row is
    decided point by point by ``_verdicts``; this fixed rule is the only
    cut-over.  A larger part is UNSTABLE when a row's upper bound
    (``_doubled_bounds`` at its corners) is negative.  A row whose lower
    bound is positive is dropped for the part's pieces, and a part with
    no row left is STABLE.  Any other part is halved across its longer
    side.  Every part tries the first row of ``order`` first.  Point by
    point, each line of a part starts with its first point; when that is
    UNSTABLE, the row that proved it is tested over the rest of the
    line's segment, which is then UNSTABLE as a whole if the row's upper
    bound is negative.

    Returns one list per line of ``(stop, verdict)`` pairs, meaning that
    points ``start .. stop - 1`` of the line have that verdict, where
    ``start`` is the previous pair's stop (0 for the first pair).  The
    lower half of a part is decided first, so each line's pairs come in
    order, and the runs are maximal: no two adjacent pairs of a line have
    the same verdict.
    """
    if count < 1 or not order:
        return [[(count, STABLE)] if count else [] for _ in range(lines)]

    def degrees(i, j):
        return [a + i * b + j * c for a, b, c in zip(firsts, di, dj)]

    runs = [[] for _ in range(lines)]
    parts = [(0, 0, lines - 1, count - 1, order)]
    while parts:
        i0, j0, i1, j1, active = parts.pop()
        if order[0] in active:
            _to_front(active, order[0])
        if (i1 - i0 + 1) * (j1 - j0 + 1) <= _POINTS_PER_ROW * len(active):
            if i1 > i0:
                parts += [(i, j0, i, j1, active) for i in range(i1, i0 - 1, -1)]
                continue
            line = runs[i0]
            start = degrees(i0, j0)
            (verdict,) = _verdicts(active, [start])
            if verdict is UNSTABLE:
                _to_front(order, active[0])
                if j1 > j0 and _doubled_bounds(active[0], _ends(start, degrees(i0, j1)))[1] < 0:
                    _extend(line, j1 + 1, UNSTABLE)
                    continue
            points = zip(*map(itertools.count, start, dj))
            verdicts = [verdict] + _verdicts(active, itertools.islice(points, 1, j1 - j0 + 1))
            if UNSTABLE in verdicts:
                _to_front(order, active[0])
            for stop, verdict in enumerate(verdicts, j0 + 1):
                _extend(line, stop, verdict)
            continue
        bounds = _ends(degrees(i0, j0), degrees(i1, j1))
        kept = []
        for row in active:
            low, high = _doubled_bounds(row, bounds)
            if high < 0:
                _to_front(order, row)
                verdict = UNSTABLE
                break
            if low <= 0:
                kept.append(row)
        else:
            if kept:
                if i1 - i0 > j1 - j0:
                    mid = (i0 + i1) // 2
                    parts += [(mid + 1, j0, i1, j1, kept), (i0, j0, mid, j1, kept)]
                else:
                    mid = (j0 + j1) // 2
                    parts += [(i0, mid + 1, i1, j1, kept), (i0, j0, i1, mid, kept)]
                continue
            verdict = STABLE
        for i in range(i0, i1 + 1):
            _extend(runs[i], j1 + 1, verdict)
    return runs


def _extend(line, stop, verdict):
    """Append the run of ``verdict`` up to ``stop`` to ``line``, merged into
    the last run when that has the same verdict, so that runs are maximal."""
    if line and line[-1][1] == verdict:
        line[-1] = (stop, verdict)
    else:
        line.append((stop, verdict))


def _to_front(rows, row):
    """Move ``row`` to the front of the list ``rows``."""
    if rows[0] is not row:
        rows.remove(row)
        rows.insert(0, row)


def _line_runs(cone, start, step, count):
    """``_runs`` of the single line start + j * step, j in range(count)."""
    firsts = [sum(map(mul, form, start)) for form in cone.forms]
    steps = [sum(map(mul, form, step)) for form in cone.forms]
    return _runs(list(cone.rows), firsts, steps, steps, 1, count)[0]


def sample_lines(cone, grid, section):
    """The verdicts of a sample of the cone, one lattice line at a time.

    Give one of ``grid`` and ``section`` (the other 0).  A grid sample
    lists {1..grid}^k in lexicographic order, so its lines are the runs
    of the last coordinate, and the points with the first k - 2
    coordinates fixed make a grid x grid slab.  A section sample lists
    the points with sum(a_i) = section: the inequalities are homogeneous,
    so fixed-sum integer points sample the projective picture exactly.
    Cut points 0 < c_1 < ... < section, in lexicographic order, give the
    parts c_{j+1} - c_j >= 1, so its lines are the runs of the last cut,
    a step of (+1, -1) on the last two parts.

    A grid slab is decided in rectangles of at most ``_RECTANGLE_LINES``
    lines, each as one rectangle over the last two coordinates by
    ``_runs``: every degree form has non-negative coefficients, so each
    L_c grows with both.  A section's step is not monotone, so its lines
    are decided one at a time, each starting from the row that last
    proved a point UNSTABLE.

    Returns an iterator of one ``(prefix, runs)`` per line, in sample
    order, which decides the lines as it is read, so it holds the runs of
    one rectangle or one section line at a time.  ``prefix`` holds the
    line's leading coordinates (all but the last for a grid, all but the
    last two for a section) and ``runs`` its verdicts as maximal runs, as
    in ``_runs``.  When k = 1 a sample is a single line with prefix ():
    {1..grid}, or the one point (section,).  A bad pair of sizes is
    refused at the call.
    """
    if min(grid, section) < 0 or (grid > 0) == (section > 0):
        raise ValueError("give one of grid and section, >= 1, and the other 0")
    return _sample_lines(cone, grid, section)


def _sample_lines(cone, grid, section):
    forms = cone.forms
    k = len(forms[0])
    if k == 1:
        start, step, count = ((1,), (1,), grid) if grid else ((section,), (0,), 1)
        yield (), _line_runs(cone, start, step, count)
    elif grid:
        di = [form[-2] for form in forms]
        dj = [form[-1] for form in forms]
        for prefix in itertools.product(range(1, grid + 1), repeat=k - 2):
            for first in range(1, grid + 1, _RECTANGLE_LINES):
                lines = min(_RECTANGLE_LINES, grid + 1 - first)
                firsts = [sum(map(mul, form, prefix + (first, 1))) for form in forms]
                runs = _runs(list(cone.rows), firsts, di, dj, lines, grid)
                for x, line in enumerate(runs, first):
                    yield prefix + (x,), line
    elif section > 1:
        steps = [form[-2] - form[-1] for form in forms]
        # the next value of the last cut moves one from the last part to the
        # part before the line's two
        shift = [form[-3] - form[-1] for form in forms] if k > 2 else None
        order = list(cone.rows)
        head = None
        for cuts in itertools.combinations(range(1, section - 1), k - 2):
            prefix = tuple(map(sub, cuts, (0,) + cuts))
            rest = section - (cuts[-1] if cuts else 0)
            if cuts[:-1] == head:
                firsts = list(map(add, firsts, shift))
            else:
                head = cuts[:-1]
                firsts = [sum(map(mul, form, prefix + (1, rest - 1))) for form in forms]
            yield prefix, _runs(order, firsts, steps, steps, 1, rest - 1)[0]


def degree_membership(cone, polarization):
    """STABLE / UNSTABLE / boundary verdict at an ample integer tuple.

    The polarization is checked for amplitude and arity, and decided by
    the kernel that also decides ``cone --grid`` and ``--section``: row
    sums weight component c by D(h) / L_c(h), an exact integer.
    """
    h = _ample(polarization)
    if len(h) != len(cone.forms[0]):
        raise ValueError("point has the wrong arity")
    (verdict,) = _verdicts(list(cone.rows), [[sum(map(mul, form, h)) for form in cone.forms]])
    return verdict


class Surd:
    """Exact real number of the form (p + q*sqrt(r)) / s, in a unique normal form."""

    __slots__ = ("p", "q", "r", "s")

    def __init__(self, p, q, r, s):
        if s == 0:
            raise ZeroDivisionError("surd denominator is zero")
        if r < 0:
            raise ValueError("negative radicand")
        if s < 0:
            p, q, s = -p, -q, -s
        # pull square factors out of the radicand by trial division up to
        # the cube root of what is left, which then has at most two prime
        # factors (1, p, p*p or p*q), so one isqrt test finishes the job
        free, d = 1, 2
        while d * d * d <= r:
            while r % (d * d) == 0:
                r //= d * d
                q *= d
            if r % d == 0:
                r //= d
                free *= d
            d += 1
        root = isqrt(r)
        if root * root == r:
            r, q = 1, q * root
        r *= free
        if r == 1:
            p, q, r = p + q, 0, 0
        if q == 0 or r == 0:
            q, r = 0, 0
        g = gcd(gcd(abs(p), abs(q)), s)
        if g > 1:
            p, q, s = p // g, q // g, s // g
        self.p, self.q, self.r, self.s = p, q, r, s

    @property
    def is_rational(self):
        return self.q == 0

    def __float__(self):
        scale = 10**30  # sqrt(r) to 30 digits, then one correctly rounded division
        return (self.p * scale + self.q * isqrt(self.r * scale * scale)) / (self.s * scale)

    def __eq__(self, other):
        if not isinstance(other, Surd):
            return NotImplemented
        return (self.p, self.q, self.r, self.s) == (other.p, other.q, other.r, other.s)

    def __hash__(self):
        return hash((self.p, self.q, self.r, self.s))

    def _interval(self, scale):
        """Integers lo <= self * s * scale <= hi with hi - lo = |q|."""
        root = isqrt(self.r * scale * scale)
        return sorted(self.p * scale + self.q * x for x in (root, root + 1))

    def __lt__(self, other):
        # the normal form is unique, so unequal surds differ in value, and
        # intervals around the two separate once they are narrow enough;
        # ends over s * scale and other.s * scale compare cross-multiplied
        if self == other:
            return False
        bits = 32
        while True:
            lo, hi = self._interval(1 << bits)
            other_lo, other_hi = other._interval(1 << bits)
            if hi * other.s <= other_lo * self.s:
                return True
            if other_hi * self.s <= lo * other.s:
                return False
            bits *= 2

    def __le__(self, other):
        return self == other or self < other

    def __repr__(self):
        if self.is_rational:
            return f"Surd({self.p})" if self.s == 1 else f"Surd({self.p}/{self.s})"
        return f"Surd(({self.p}+{self.q}*sqrt({self.r}))/{self.s})"


class Boundary2D(NamedTuple):
    lower: Surd
    upper: Surd

    @property
    def has_rational_endpoint(self):
        return self.lower.is_rational or self.upper.is_rational


def boundary_2d(inequalities):
    """Extreme slopes b/a of a two-parameter stability cone, exactly.

    Each inequality must reduce to a quadratic (or lower degree) in the
    slope; the cone is the intersection of their positivity regions over
    positive slopes.
    """
    if not inequalities:
        raise ValueError("no inequalities")
    for ineq in inequalities:
        if ineq.polynomial.nvars != 2:
            raise NotTwoParameter("boundary_2d needs exactly two parameters")
        if ineq.polynomial.degree > 2:
            raise NotQuadratic(
                f"inequality for {ineq.subbundle} has degree {ineq.polynomial.degree}"
            )
    lower = Surd(0, 0, 0, 1)
    upper = None
    for ineq in inequalities:
        c = [0, 0, 0]
        for (ea, eb), coeff in ineq.polynomial.terms.items():
            c[eb] += coeff
        c0, c1, c2 = c
        if c2 == 0:
            if c1 == 0:
                if c0 <= 0:
                    raise ValueError("inequality is never satisfied")
                continue
            root = Surd(-c0, 0, 0, c1)
            if c1 > 0:
                lower = max(lower, root)
            else:
                upper = root if upper is None else min(upper, root)
            continue
        disc = c1 * c1 - 4 * c2 * c0
        if disc < 0:
            if c2 < 0:
                raise ValueError("inequality is never satisfied")
            continue
        lo = Surd(-c1, -1, disc, 2 * c2)
        hi = Surd(-c1, 1, disc, 2 * c2)
        if c2 > 0:
            # positive outside the roots; on slopes > 0 the binding bound
            # is the larger root when it is positive
            zero = Surd(0, 0, 0, 1)
            if zero < lo:
                raise ValueError("positivity region is disconnected over t > 0")
            if zero < hi:
                lower = max(lower, hi)
        else:
            lo, hi = hi, lo
            lower = max(lower, lo)
            upper = hi if upper is None else min(upper, hi)
    if upper is None:
        raise ValueError("cone is unbounded above; no closed-form boundary")
    return Boundary2D(lower, upper)


def _vertex_gaps(rep, p, comps):
    """The slope gap of each rep vertex, whose vertices must be ``comps`` in order."""
    if rep.quiver.vertices != tuple(c.highest_weight for c in comps):
        raise ValueError("rep vertices are not the Levi components in order")
    return _slope_gaps(p, comps)


def _character(rep, vertex_gaps, qvals, h):
    """The character of each vertex, given q_i = H_i . H^(dim-1) at H = h."""
    values = [-sum(map(mul, gap, qvals)) for gap in vertex_gaps]
    if sum(map(mul, values, rep.dims)) != 0:
        raise RuntimeError("character does not annihilate the dimension vector")
    return SigmaCharacter(tuple(values), h)


def sigma_from_polarization(rep, p, polarization):
    """Integer character induced by an ample class on the Levi-level rep (no expansion)."""
    h = _ample(polarization)
    comps = levi_components(p)
    return _character(rep, _vertex_gaps(rep, p, comps), _top_intersections(p, comps, h), h)


class KingVerdict(NamedTuple):
    semistable: bool
    stable: bool
    witness: tuple | None

    @property
    def cone_verdict(self):
        """The cone verdict: King slopes are -C(h) <d(S), w(h)> with C(h) > 0."""
        return STABLE if self.stable else BOUNDARY if self.semistable else UNSTABLE


def is_sigma_semistable(rep, sigma, budget=DEFAULT_BUDGET):
    """King (semi)stability of a multiplicity-free representation.

    Subrepresentations are exactly the closed vertex subsets, so the
    verdict is an exhaustive check; the witness is the first violating
    (or slope-zero) proper subset in canonical order.  ``budget`` caps the
    number of closed subsets, counted by the walk (see ``closed_subsets``).
    """
    return _king(rep, closed_subsets(rep, budget=budget), sigma)


def _king(rep, subsets, sigma):
    """The King verdict over ``subsets``, in one pass.

    The witness is the first subset of positive slope, or else the first
    of slope zero.  Every vertex of a closed subset has dimension 1, so a
    subset's slope is the sum of its vertices' values.
    """
    values = sigma.values
    if sum(map(mul, values, rep.dims)) != 0:
        return KingVerdict(False, False, None)
    zero = None
    for s in subsets:
        slope = sum(map(values.__getitem__, s))
        if slope > 0:
            return KingVerdict(False, False, s)
        if slope == 0 and zero is None:
            zero = s
    return KingVerdict(True, zero is None, zero)


class EquivalenceReport(NamedTuple):
    entries: tuple        # (H, king_semistable, king_stable, cone_verdict)
    disagreements: tuple


def equivalence_check(p, polarization_grid, budget=DEFAULT_BUDGET):
    """Cross-check character verdicts against slope-cone verdicts.

    For every grid point the King verdict must match the cone verdict:
    semistable iff not UNSTABLE, stable iff STABLE.  The two routes are
    independent: the character comes from the expanded intersection
    polynomials and is checked over every closed subset, the cone verdict
    from the degree forms over the reduced ones.  The report lists any
    disagreement; agreement everywhere is the expected outcome.
    """
    cone = degree_cone(p, budget)
    rep = tangent_rep(p).levi_rep
    gaps = _vertex_gaps(rep, p, levi_components(p))
    qpolys = intersection_polynomial(p, budget)
    subsets = closed_subsets(rep, budget=budget)
    entries = []
    disagreements = []
    for h in polarization_grid:
        h = _ample(h)
        qvals = [qpolys[pos].evaluate(h) for pos in range(len(p.sigma))]
        king = _king(rep, subsets, _character(rep, gaps, qvals, h))
        verdict = degree_membership(cone, h)
        entries.append((h, king.semistable, king.stable, verdict))
        if king.cone_verdict != verdict:
            disagreements.append(entries[-1])
    return EquivalenceReport(tuple(entries), tuple(disagreements))
