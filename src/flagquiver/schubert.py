"""Exact intersection theory on G/P.

Intersection numbers of the marked divisors come from the volume
polynomial, which the Weyl dimension formula gives in closed form.  The
cycle-level Schubert calculus (iterated divisor multiplication) stays
available as an independent route.  Weyl group elements are keyed by the
image of the Weyl vector, which is regular, so the key is faithful;
minimal coset representatives are grown by length with a breadth-first
search.
"""
from __future__ import annotations

from math import factorial
from typing import NamedTuple

from .errors import BudgetExceeded
from .polynomials import IntPoly, multinomial
from .rootsys import _dot2

DEFAULT_BUDGET = 10**6


class WeylElement(NamedTuple):
    canonical_key: tuple          # doubled coordinates of w(rho)
    length: int
    simple_images: tuple          # doubled coordinates of each w(alpha_i)


class SchubertCycle(NamedTuple):
    coefficients: dict            # canonical key -> integer
    parabolic: object
    codimension: int


def _weyl_order(series, rank):
    if series == "A":
        return factorial(rank + 1)
    if series == "D":
        return 2 ** (rank - 1) * factorial(rank)
    return {6: 51840, 7: 2903040, 8: 696729600}[rank]


def _component_order(nodes, adj):
    """|W| of the subsystem on a connected set of Dynkin nodes."""
    k = len(nodes)
    degrees = {v: len(adj[v] & nodes) for v in nodes}
    branch = [v for v in nodes if degrees[v] == 3]
    if not branch:
        return factorial(k + 1)  # a path: type A_k
    arms = []
    for start in adj[branch[0]] & nodes:
        length, prev, cur = 1, branch[0], start
        while True:
            nxt = (adj[cur] & nodes) - {prev}
            if not nxt:
                break
            prev, cur = cur, next(iter(nxt))
            length += 1
        arms.append(length)
    arms.sort()
    if arms[0] == arms[1] == 1:
        return 2 ** (k - 1) * factorial(k)  # type D_k
    return {2: 51840, 3: 2903040, 4: 696729600}[arms[2]]  # E6/E7/E8


def coset_count(p):
    """|W / W_P| from the Weyl group orders, without enumeration."""
    system = p.system
    total = _weyl_order(system.series, system.rank)
    nodes = set(i - 1 for i in p.levi_simple_indices)
    adj = {
        i: {j for j in range(system.rank) if j != i and system.cartan_matrix[i][j] == -1}
        for i in range(system.rank)
    }
    levi = 1
    remaining = set(nodes)
    while remaining:
        start = min(remaining)
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adj[u] & remaining:
                if v not in comp:
                    comp.add(v)
                    stack.append(v)
        remaining -= comp
        levi *= _component_order(comp, adj)
    return total // levi


def _check_budget(p, budget):
    """Refuse a parabolic whose |W/W_P| exceeds the budget.

    Runs before any cache lookup or expansion, so the answer does not
    depend on what an earlier call with a larger budget has cached.
    """
    count = coset_count(p)
    if count > budget:
        raise BudgetExceeded(f"|W/W_P| = {count} exceeds the budget {budget}")


def _cache_key(p):
    return (p.system.series, p.system.rank, p.sigma)


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


def unit_cycle(p, budget=DEFAULT_BUDGET):
    """The fundamental class: the identity coset with coefficient one."""
    table = _coset_table(p, budget)
    return SchubertCycle({p.system.rho.coords2: 1}, p, 0)


def chevalley_multiply(cycle, i, budget=DEFAULT_BUDGET):
    """Multiply a cycle by the divisor class attached to marked index i.

    Implements the divisor product rule: each support element w picks up
    the representatives w s_alpha one step longer, weighted by the
    coefficient of alpha_i in alpha, over non-Levi positive roots alpha.
    """
    p = cycle.parabolic
    if i not in p.sigma:
        raise ValueError(f"index {i} is not a marked simple root")
    system = p.system
    table = _coset_table(p, budget)
    nonlevi = [
        (r.coords2, system.expansion(r), system.height(r))
        for r in p.nilradical_weights
    ]
    out = {}
    for key, coeff in cycle.coefficients.items():
        w = table.elements[key]
        for coords, exp, height in nonlevi:
            mult = exp[i - 1]
            if mult == 0:
                continue
            # w s_alpha (rho) = w(rho) - <rho, alpha^vee> w(alpha)
            walpha = [0] * system.ambient_dim
            for c, image in zip(exp, w.simple_images):
                if c:
                    for k, x in enumerate(image):
                        walpha[k] += c * x
            new_key = tuple(
                a - height * b for a, b in zip(key, walpha)
            )
            target = table.elements.get(new_key)
            if target is not None and target.length == w.length + 1:
                out[new_key] = out.get(new_key, 0) + mult * coeff
    return SchubertCycle({k: v for k, v in out.items() if v}, p, cycle.codimension + 1)


def multiply_by_divisors(p, divisor_sequence, budget=DEFAULT_BUDGET):
    """Iterated divisor product starting from the fundamental class."""
    cycle = unit_cycle(p, budget)
    for i in divisor_sequence:
        cycle = chevalley_multiply(cycle, i, budget)
    return cycle


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
    every division is checked.  ``budget`` caps |W/W_P| as for the
    Schubert route, checked by formula before anything is expanded.
    """
    _check_budget(p, budget)
    key = _cache_key(p)
    if key not in _VOLUME_CACHE:
        _VOLUME_CACHE[key] = _expand_volume(p)
    return _VOLUME_CACHE[key]


def _expand_volume(p):
    system = p.system
    k = len(p.sigma)
    # an exponent tuple e is packed as sum_j e_j * base**j, so multiplying
    # a monomial by a_j adds base**j; no exponent exceeds dim < base
    base = p.dim + 1
    steps = [base**pos for pos in range(k)]
    terms = {0: 1}
    heights = 1
    for alpha in p.nilradical_weights:
        exp = system.expansion(alpha)
        form = [(steps[pos], exp[i - 1]) for pos, i in enumerate(p.sigma) if exp[i - 1]]
        heights *= system.height(alpha)
        nxt = {}
        for packed, coeff in terms.items():
            for step, mult in form:
                target = packed + step
                nxt[target] = nxt.get(target, 0) + coeff * mult
        terms = nxt
    scale = factorial(p.dim)
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


def _exact_div(a, b):
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"{a} is not divisible by {b}")
    return q


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


def intersection_polynomial(p, degree, budget=DEFAULT_BUDGET):
    """For each marked index i, the polynomial H_i . (sum_j a_j H_j)^degree.

    Exponent tuples follow the marked indices in increasing order; the
    degree must be dim G/P - 1 so each entry is a top intersection.  The
    polynomial for position i is (1/dim) dP/da_i of the volume polynomial.
    """
    if degree != p.dim - 1:
        raise ValueError("degree must be dim G/P - 1")
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
