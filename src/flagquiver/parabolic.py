"""Parabolic subgroups: Levi/nilradical split and tangent-bundle weights."""

from itertools import compress
from operator import not_

from .errors import ComponentVerificationFailed, EmptySigma
from .rootsys import _weyl_dimension


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
        # coefficients of every positive root on the marked simple roots
        degrees = list(zip(*(system._columns[i - 1] for i in sigma)))
        nil = list(map(any, degrees))
        self.levi_positive = tuple(compress(system.positive_roots, map(not_, nil)))
        self.nilradical_weights = tuple(compress(system.positive_roots, nil))
        # positions in system.positive_roots, which index its root tables
        self.nilradical_indices = tuple(compress(range(len(nil)), nil))
        # coefficients on the marked simple roots, aligned with the above
        self.marked_degrees = tuple(compress(degrees, nil))
        self.tangent_weights = tuple(compress(system.negative_roots, nil))

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


def levi_components(p):
    """Partition of the tangent weights into Levi-irreducible components.

    Weights are grouped by their marked degree (``p.marked_degrees``), in
    order of first occurrence: each graded piece of the nilradical is
    Levi-irreducible (Azad-Barry-Seitz, *On the structure of parabolic
    subgroups*, 1990).  Each group is then verified to have a unique
    Levi-maximal weight whose Levi Weyl dimension matches the group size.
    Fails loudly otherwise.

    Both checks run on root indices and integers.  ``-alpha_s`` is
    Levi-maximal iff no Levi root ``g`` has ``alpha_s - g`` a root, that is
    iff ``parts[s]`` of the root tables holds no Levi root.  The Weyl
    dimension of the top ``t`` is the product of ``<t + rho_L, g> /
    <rho_L, g>`` over the Levi positive roots, with ``<rho_L, g>`` the
    height of ``g``; numerator and denominator are integer products
    (``rootsys._weyl_dimension``, shared with ``h0_dimension``).
    """
    system = p.system
    parts = system._root_tables().parts
    nil = 0
    for i in p.nilradical_indices:
        nil |= 1 << i
    levi = ((1 << len(system.positive_roots)) - 1) ^ nil
    groups = {}
    for i, degree, w in zip(p.nilradical_indices, p.marked_degrees, p.tangent_weights):
        groups.setdefault(degree, []).append((i, w))
    levi_roots = [(g.coords2, system.height(g)) for g in p.levi_positive]

    components = []
    for degree, members in groups.items():
        weights = [w for _, w in members]
        maximal = [w for i, w in members if not parts[i] & levi]
        if len(maximal) != 1:
            raise ComponentVerificationFailed(
                f"component {weights} has {len(maximal)} Levi-maximal weights"
            )
        top = maximal[0]
        dim, rest = _weyl_dimension(top.coords2, levi_roots)
        if rest or dim <= 0:
            raise ComponentVerificationFailed(
                f"Levi Weyl dimension of {top} is not a positive integer"
            )
        if dim != len(members):
            raise ComponentVerificationFailed(
                f"component of {top} has size {len(members)} but Weyl dimension {dim}"
            )
        components.append(LeviComponent(weights, top, degree))
    return tuple(components)
