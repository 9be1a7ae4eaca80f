"""Parabolic subgroups: Levi/nilradical split and tangent-bundle weights."""
from __future__ import annotations

from .errors import ComponentVerificationFailed, EmptySigma
from .rootsys import _weyl_dimension, coroot_pairing


class ParabolicData:
    """A parabolic choice: a nonempty set of marked simple-root indices.

    The Levi subsystem is spanned by the unmarked simple roots; the weights
    of the tangent bundle of G/P are the negatives of the nilradical
    weights.
    """

    def __init__(self, system, sigma):
        sigma = tuple(sorted(set(int(i) for i in sigma)))
        if not sigma:
            raise EmptySigma("sigma must be a nonempty set of simple-root indices")
        if sigma[0] < 1 or sigma[-1] > system.rank:
            raise ValueError(f"sigma indices must lie in 1..{system.rank}")
        self.system = system
        self.sigma = sigma
        self.levi_simple_indices = tuple(
            i for i in range(1, system.rank + 1) if i not in sigma
        )
        levi_pos, nilrad, degrees = [], [], []
        for r in system.positive_roots:
            exp = system.expansion(r)
            degree = tuple(exp[i - 1] for i in sigma)
            if any(degree):
                nilrad.append(r)
                degrees.append(degree)
            else:
                levi_pos.append(r)
        self.levi_positive = tuple(levi_pos)
        self.nilradical_weights = tuple(nilrad)
        # coefficients on the marked simple roots, aligned with the above
        self.marked_degrees = tuple(degrees)
        self.tangent_weights = tuple(-r for r in nilrad)

    @property
    def dim(self):
        """Dimension of G/P."""
        return len(self.tangent_weights)

    @property
    def is_borel(self):
        return len(self.sigma) == self.system.rank

    @property
    def generator_weights(self):
        """Nilradical weights in marked degree one (weights of n/[n,n])."""
        pairs = zip(self.nilradical_weights, self.marked_degrees)
        return tuple(r for r, degree in pairs if sum(degree) == 1)

    def __repr__(self):
        return f"ParabolicData({self.system.series}{self.system.rank}, sigma={self.sigma})"


class LeviComponent:
    """One Levi-irreducible summand of the tangent bundle and its marked degree."""

    __slots__ = ("weights", "highest_weight", "degree", "rank")

    def __init__(self, weights, highest_weight, degree):
        self.weights = tuple(weights)
        self.highest_weight = highest_weight
        self.degree = tuple(degree)
        self.rank = len(self.weights)

    def __repr__(self):
        return f"LeviComponent(rank={self.rank}, top={self.highest_weight})"


def build_parabolic(system, sigma):
    """Parabolic data for a nonempty subset of simple-root indices."""
    return ParabolicData(system, sigma)


def borel(system):
    """The Borel case: every simple root marked."""
    return ParabolicData(system, range(1, system.rank + 1))


def is_levi_dominant(lam, p):
    """Dominance against the unmarked simple coroots only."""
    return all(
        coroot_pairing(lam, p.system.simple_root(i)) >= 0
        for i in p.levi_simple_indices
    )


def _levi_weyl_dimension(p, highest):
    """Weyl dimension of a Levi highest-weight module, exactly."""
    # twice rho of the Levi, so the highest weight is doubled too
    s2l = [0] * p.system.ambient_dim
    for g in p.levi_positive:
        for k, c in enumerate(g.coords2):
            s2l[k] += c
    dim = _weyl_dimension([2 * a for a in highest.coords2], s2l, p.levi_positive)
    if dim.denominator != 1 or dim <= 0:
        raise ComponentVerificationFailed(
            f"Levi Weyl dimension of {highest} is not a positive integer"
        )
    return int(dim)


def levi_components(p):
    """Partition of the tangent weights into Levi-irreducible components.

    Weights are grouped by their marked degree (``p.marked_degrees``), in
    order of first occurrence: each graded piece of the nilradical is
    Levi-irreducible (Azad-Barry-Seitz, *On the structure of parabolic
    subgroups*, 1990).  Each group is then verified to have a unique
    Levi-maximal weight whose Levi Weyl dimension matches the group size.
    Fails loudly otherwise.
    """
    groups = {}
    for degree, w in zip(p.marked_degrees, p.tangent_weights):
        groups.setdefault(degree, []).append(w)

    components = []
    for degree, members in groups.items():
        member_set = set(members)
        maximal = [
            w
            for w in members
            if all((w + g) not in member_set for g in p.levi_positive)
        ]
        if len(maximal) != 1:
            raise ComponentVerificationFailed(
                f"component {members} has {len(maximal)} Levi-maximal weights"
            )
        top = maximal[0]
        if _levi_weyl_dimension(p, top) != len(members):
            raise ComponentVerificationFailed(
                f"component of {top} has size {len(members)} but Weyl dimension "
                f"{_levi_weyl_dimension(p, top)}"
            )
        components.append(LeviComponent(members, top, degree))
    return tuple(components)
