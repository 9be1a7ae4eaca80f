"""Schubert calculus on cycles: the independent route for intersection data.

A cycle is a combination of Schubert classes, keyed by the canonical key
of their minimal coset representative.  Multiplying by the divisor of a
marked index follows the divisor product rule, so a top intersection
number is the coefficient left after dim G/P such products.  The library
computes the same numbers from the volume polynomial; the tests compare
the two.
"""
from typing import NamedTuple

from flagquiver import DEFAULT_BUDGET, minimal_coset_reps


class SchubertCycle(NamedTuple):
    coefficients: dict            # canonical key -> integer
    parabolic: object
    codimension: int


def unit_cycle(p, budget=DEFAULT_BUDGET):
    """The fundamental class: the identity coset with coefficient one."""
    minimal_coset_reps(p, 0, budget)  # raises BudgetExceeded over the budget
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
    elements = {w.canonical_key: w for w in minimal_coset_reps(p, p.dim, budget)}
    nonlevi = [
        (system.expansion(r), system.height(r)) for r in p.nilradical_weights
    ]
    out = {}
    for key, coeff in cycle.coefficients.items():
        w = elements[key]
        for exp, height in nonlevi:
            mult = exp[i - 1]
            if mult == 0:
                continue
            # w s_alpha (rho) = w(rho) - <rho, alpha^vee> w(alpha)
            walpha = [0] * system.ambient_dim
            for c, image in zip(exp, w.simple_images):
                if c:
                    for k, x in enumerate(image):
                        walpha[k] += c * x
            new_key = tuple(a - height * b for a, b in zip(key, walpha))
            target = elements.get(new_key)
            if target is not None and target.length == w.length + 1:
                out[new_key] = out.get(new_key, 0) + mult * coeff
    return SchubertCycle({k: v for k, v in out.items() if v}, p, cycle.codimension + 1)


def multiply_by_divisors(p, divisor_sequence, budget=DEFAULT_BUDGET):
    """Iterated divisor product starting from the fundamental class."""
    cycle = unit_cycle(p, budget)
    for i in divisor_sequence:
        cycle = chevalley_multiply(cycle, i, budget)
    return cycle
