"""Independent routes for the cone: verdicts, normalization and JSON.

The library decides a point from the degree forms of the Levi components
(``degree_cone`` / ``degree_membership``) and never evaluates a cone
polynomial.  ``cone_membership`` evaluates every normalized polynomial of
``stability_cone`` at the point instead; the tests compare the two.

``normalized`` divides out the common monomial and the content one
variable and one coefficient at a time, through the validating
``IntPoly`` constructor.  ``cone_json`` builds the document that ``cone``
writes as plain dicts and lists, for ``json.dumps(indent=2)`` to encode.
"""
from math import gcd

from flagquiver import BOUNDARY, STABLE, UNSTABLE, IntPoly, NotAmple


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


def normalized(poly):
    """``poly`` with its common monomial and integer content divided out."""
    if poly.is_zero:
        return poly
    shift = [min(e[i] for e in poly.terms) for i in range(poly.nvars)]
    content = 0
    for c in poly.terms.values():
        content = gcd(content, c)
    terms = {
        tuple(e - s for e, s in zip(exps, shift)): c // content
        for exps, c in poly.terms.items()
    }
    return IntPoly(poly.nvars, terms)


def inequality_json(ineq):
    return {
        "subbundle": ineq.subbundle,
        "monomials": [
            {"exps": e, "coeff": c} for e, c in ineq.polynomial.sorted_items()
        ],
        "strict": ineq.strict,
    }


def _surd_json(surd):
    return {"p": surd.p, "q": surd.q, "r": surd.r, "s": surd.s, "approx": float(surd)}


def cone_json(inequalities, boundary=None):
    """What ``cone`` writes, before encoding; ``boundary`` is a ``Boundary2D``."""
    data = {"inequalities": [inequality_json(iq) for iq in inequalities]}
    if boundary is not None:
        data["boundary"] = {
            "lower": _surd_json(boundary.lower),
            "upper": _surd_json(boundary.upper),
            "rational_endpoint": boundary.has_rational_endpoint,
        }
    return data
