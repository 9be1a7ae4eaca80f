"""Cone verdicts from the expanded polynomials: the independent route.

The library decides a point from the degree forms of the Levi components
(``degree_cone`` / ``degree_membership``) and never evaluates a cone
polynomial.  This oracle evaluates every normalized polynomial of
``stability_cone`` at the point instead; the tests compare the two.
"""
from flagquiver import BOUNDARY, STABLE, UNSTABLE, NotAmple


def cone_membership(inequalities, polarization):
    """STABLE / UNSTABLE / boundary verdict for an ample integer tuple."""
    h = tuple(int(x) for x in polarization)
    if any(x <= 0 for x in h):
        raise NotAmple(f"polarization {h} has a non-positive entry")
    on_boundary = False
    for ineq in inequalities:
        value = ineq.polynomial.evaluate(h)
        if value < 0:
            return UNSTABLE
        if value == 0:
            on_boundary = True
    return BOUNDARY if on_boundary else STABLE
