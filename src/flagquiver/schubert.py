"""Exact intersection theory on G/P.

Intersection numbers of the marked divisors come from the volume
polynomial, which the Weyl dimension formula gives in closed form, and
|W/W_P| comes from the heights of the nilradical roots; neither
enumerates the Weyl group.  Minimal coset representatives are still
available: Weyl group elements are keyed by the image of the Weyl
vector, which is regular, so the key is faithful, and the
representatives are grown by length with a breadth-first search.  The
cycle-level Schubert calculus built on them is the independent oracle
of the test suite.
"""

from math import factorial, prod
from operator import mul
from typing import NamedTuple

from .errors import BudgetExceeded
from .polynomials import IntPoly, multinomial
from .rootsys import _dot2

DEFAULT_BUDGET = 10**6


class WeylElement(NamedTuple):
    canonical_key: tuple          # doubled coordinates of w(rho)
    length: int
    simple_images: tuple          # doubled coordinates of each w(alpha_i)


def _exact_div(a, b):
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"{a} is not divisible by {b}")
    return q


def _cache_key(p):
    return (p.system.series, p.system.rank, p.sigma)


def coset_count(p):
    """|W / W_P| without enumeration, from the heights of the roots.

    |W| is the product of (ht alpha + 1) / ht alpha over the positive
    roots, because the heights are dual to the exponents (Kostant 1959).
    A Levi root has the same height in the Levi subsystem, so the Levi
    factors cancel and the product runs over the nilradical roots.
    """
    num = den = 1
    for alpha in p.nilradical_weights:
        height = p.system.height(alpha)
        num *= height + 1
        den *= height
    return _exact_div(num, den)


def _check_budget(p, budget):
    """Refuse a parabolic whose |W/W_P| exceeds the budget.

    Runs before any expansion is read from a cache, so the answer does
    not depend on what an earlier call with a larger budget has cached;
    the count does not depend on the budget.
    """
    _check_count(coset_count(p), budget)


def _check_count(count, budget):
    if count > budget:
        raise BudgetExceeded(f"|W/W_P| = {count} exceeds the budget {budget}")


class _CosetTable:
    """All minimal coset representatives, indexed by canonical key."""

    def __init__(self, p):
        system = p.system
        self.parabolic = p
        simples = [a.coords2 for a in system.simple_roots]
        posroots = set(r.coords2 for r in system.positive_roots)
        levi = [i - 1 for i in p.levi_simple_indices]

        def reflect(i, coords):
            q = _dot2(coords, simples[i]) // 4
            return tuple(c - q * s for c, s in zip(coords, simples[i]))

        identity = WeylElement(system.rho.coords2, 0, tuple(simples))
        self.elements = {identity.canonical_key: identity}
        self.by_length = [[identity]]
        frontier = [identity]
        while frontier:
            nxt = []
            for w in frontier:
                for i in range(system.rank):
                    # s_i w is longer exactly when w^{-1}(alpha_i) > 0
                    if _dot2(simples[i], w.canonical_key) <= 0:
                        continue
                    key = reflect(i, w.canonical_key)
                    if key in self.elements:
                        continue
                    images = tuple(reflect(i, im) for im in w.simple_images)
                    if any(images[j] not in posroots for j in levi):
                        continue
                    elem = WeylElement(key, w.length + 1, images)
                    self.elements[key] = elem
                    nxt.append(elem)
            if nxt:
                self.by_length.append(sorted(nxt, key=lambda e: e.canonical_key))
            frontier = nxt


_TABLE_CACHE = {}


def _coset_table(p, budget=DEFAULT_BUDGET):
    _check_budget(p, budget)
    key = _cache_key(p)
    if key not in _TABLE_CACHE:
        _TABLE_CACHE[key] = _CosetTable(p)
    return _TABLE_CACHE[key]


def minimal_coset_reps(p, up_to_length, budget=DEFAULT_BUDGET):
    """Minimal representatives of W/W_P of length at most the bound."""
    if up_to_length > p.dim:
        raise ValueError("up_to_length cannot exceed dim G/P")
    table = _coset_table(p, budget)
    out = []
    for level in table.by_length[: up_to_length + 1]:
        out.extend(level)
    return out


# The volume polynomials of the last few parabolics asked for; the oldest
# entry is dropped first, so a sweep over many parabolics holds no more.
_VOLUME_CACHE_SIZE = 8
_VOLUME_CACHE = {}


def volume_polynomial(p, budget=DEFAULT_BUDGET):
    """The volume polynomial P(a) = (sum_j a_j H_j)^dim of G/P.

    Variables follow the marked indices in increasing order, and H_j is
    the divisor of the fundamental weight omega_j.  The coefficient of
    a^e is multinomial(dim, e) times the top intersection number H^e.
    By Borel-Hirzebruch (Characteristic classes and homogeneous spaces I,
    1958), the degree of the line bundle of lambda = sum_j a_j omega_j is
    the leading term of the Weyl dimension formula:

        P(a) = dim! * prod_alpha (sum_j a_j [alpha:alpha_j]) / <rho, alpha>

    over the nilradical roots alpha, where [alpha:alpha_j] is the
    coefficient of alpha_j in alpha (simply laced, so alpha^vee has the
    same coefficients).  The linear forms are multiplied out exactly and
    every division is checked.  ``budget`` caps |W/W_P| as for
    ``minimal_coset_reps``, checked before anything is expanded.  A cached
    polynomial keeps its count beside it, so ``intersection_number``,
    which asks once per monomial, does not recount.
    """
    key = _cache_key(p)
    count, volume = _VOLUME_CACHE.get(key) or (coset_count(p), None)
    _check_count(count, budget)
    if volume is None:
        if len(_VOLUME_CACHE) >= _VOLUME_CACHE_SIZE:
            del _VOLUME_CACHE[next(iter(_VOLUME_CACHE))]
        volume = _expand_volume(p)
        _VOLUME_CACHE[key] = count, volume
    return volume


def _volume_constant(p):
    """(dim!, prod ht(alpha)), whose quotient is the constant of ``volume_polynomial``."""
    heights = 1
    for alpha in p.nilradical_weights:
        heights *= p.system.height(alpha)
    return factorial(p.dim), heights


def _expand_volume(p):
    k = len(p.sigma)
    # an exponent tuple e is packed as sum_j e_j * base**j, so multiplying
    # a monomial by a_j adds base**j; no exponent exceeds dim < base
    base = p.dim + 1
    steps = [base**pos for pos in range(k)]
    terms = {0: 1}
    for degree in p.marked_degrees:
        form = [(step, m) for step, m in zip(steps, degree) if m]
        nxt = {}
        for packed, coeff in terms.items():
            for step, mult in form:
                target = packed + step
                nxt[target] = nxt.get(target, 0) + coeff * mult
        terms = nxt
    scale, heights = _volume_constant(p)
    out = {}
    for packed, coeff in terms.items():
        value, rem = divmod(coeff * scale, heights)
        if rem:
            raise ArithmeticError("volume coefficient is not an integer")
        exps = []
        for _ in range(k):
            packed, e = divmod(packed, base)
            exps.append(e)
        out[tuple(exps)] = value
    return IntPoly(k, out)


def _top_intersections(p, comps, h):
    """(H_i . H^(dim-1))_i at H = sum_j h_j H_j, from the factored volume.

    ``comps`` are the Levi components of the tangent bundle: L_alpha of
    ``volume_polynomial`` depends only on a root's marked degree, so the
    volume is C * D with D = prod_c L_c(h)^rank(c), and H_i . H^(dim-1),
    its derivative along a_i over dim, is C / dim times the integer
    sum_c rank(c) deg(c)_i * D / L_c(h).  Nothing is expanded.
    """
    if len(h) != len(p.sigma):
        raise ValueError("point has the wrong arity")
    degrees = [sum(map(mul, c.degree, h)) for c in comps]
    total = prod(d**c.rank for c, d in zip(comps, degrees))
    weights = [c.rank * (total // d) for c, d in zip(comps, degrees)]
    scale, heights = _volume_constant(p)
    return [
        _exact_div(scale * sum(map(mul, column, weights)), p.dim * heights)
        for column in zip(*(c.degree for c in comps))
    ]


def intersection_number(p, exponents, budget=DEFAULT_BUDGET):
    """Top intersection number of a divisor monomial.

    ``exponents`` gives one multiplicity per marked index (in increasing
    index order) and must sum to dim G/P.  Read off the volume
    polynomial: the coefficient of a^e divided by multinomial(dim, e).
    """
    exponents = tuple(int(e) for e in exponents)
    if len(exponents) != len(p.sigma) or any(e < 0 for e in exponents):
        raise ValueError("need one nonnegative exponent per marked index")
    if sum(exponents) != p.dim:
        raise ValueError("exponents must sum to dim G/P")
    coeff = volume_polynomial(p, budget).terms.get(exponents, 0)
    return _exact_div(coeff, multinomial(p.dim, exponents))


def intersection_polynomial(p, budget=DEFAULT_BUDGET):
    """For each marked index i, the polynomial H_i . (sum_j a_j H_j)^(dim - 1).

    Exponent tuples follow the marked indices in increasing order.  The
    polynomial for position i is (1/dim) dP/da_i of the volume polynomial.
    """
    volume = volume_polynomial(p, budget)
    k = len(p.sigma)
    polys = {}
    for pos in range(k):
        terms = {}
        for exps, coeff in volume.terms.items():
            e = exps[pos]
            if e:
                lowered = exps[:pos] + (e - 1,) + exps[pos + 1:]
                terms[lowered] = _exact_div(coeff * e, p.dim)
        polys[pos] = IntPoly(k, terms)
    return polys
