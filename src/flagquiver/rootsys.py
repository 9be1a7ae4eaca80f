"""ADE root systems with exact integer arithmetic.

All weights are stored in doubled epsilon-coordinates (twice the usual
coordinates), so the half-integer entries of the E series stay integral
and every computation is exact.  Root systems are immutable once built
and cached per (series, rank).
"""
from __future__ import annotations

from operator import add, ge
from typing import NamedTuple

from .errors import MismatchedSystem, OppositeRoots, UnsupportedType

SERIES_A = "A"
SERIES_D = "D"
SERIES_E = "E"

def _dot2(u, v):
    return sum(a * b for a, b in zip(u, v))


class Weight:
    """Lattice weight in doubled coordinates, tied to its root system."""

    __slots__ = ("coords2", "system")

    def __init__(self, coords2, system):
        self.coords2 = tuple(coords2)
        self.system = system
        if len(self.coords2) != system.ambient_dim:
            raise ValueError(
                f"expected {system.ambient_dim} coordinates, got {len(self.coords2)}"
            )

    def _check(self, other):
        if not isinstance(other, Weight):
            raise TypeError("expected a Weight")
        if self.system is not other.system:
            raise MismatchedSystem("weights belong to different root systems")

    def __add__(self, other):
        self._check(other)
        return Weight(tuple(a + b for a, b in zip(self.coords2, other.coords2)), self.system)

    def __sub__(self, other):
        self._check(other)
        return Weight(tuple(a - b for a, b in zip(self.coords2, other.coords2)), self.system)

    def __neg__(self):
        return Weight(tuple(-a for a in self.coords2), self.system)

    def __eq__(self, other):
        return (
            isinstance(other, Weight)
            and self.coords2 == other.coords2
            and self.system is other.system
        )

    def __hash__(self):
        return hash(self.coords2)

    def __repr__(self):
        return f"Weight{self.coords2}"

    @property
    def is_zero(self):
        return all(c == 0 for c in self.coords2)

    @property
    def is_root(self):
        return self.coords2 in self.system._expansions

    @property
    def fundamental(self):
        """Pairings against all simple coroots, in index order."""
        return tuple(coroot_pairing(self, a) for a in self.system.simple_roots)


class RootSystemData:
    """Immutable root system of type A, D or E.

    Attributes mirror the standard combinatorial data: ``simple_roots``,
    ``positive_roots`` (sorted by height then coordinates), the Cartan
    matrix and the Weyl vector ``rho``.
    """

    def __init__(self, series, rank):
        series = str(series).upper()
        if series == SERIES_A:
            if rank < 1:
                raise UnsupportedType(f"A requires rank >= 1, got {rank}")
            ambient = rank + 1
        elif series == SERIES_D:
            if rank < 4:
                raise UnsupportedType(f"D requires rank >= 4, got {rank}")
            ambient = rank
        elif series == SERIES_E:
            if rank not in (6, 7, 8):
                raise UnsupportedType(f"E requires rank 6, 7 or 8, got {rank}")
            ambient = 8
        else:
            raise UnsupportedType(f"series {series!r} is not simply laced (ADE only)")

        self.series = series
        self.rank = rank
        self.ambient_dim = ambient
        self.simple_roots = tuple(
            Weight(c, self) for c in _simple_coords(series, rank, ambient)
        )
        self._enumerate_positive_roots()
        self.negative_roots = tuple(-r for r in self.positive_roots)
        self.roots = self.positive_roots + self.negative_roots
        for r, exp in list(self._expansions.items()):
            self._expansions[tuple(-c for c in r)] = tuple(-e for e in exp)
        self.cartan_matrix = tuple(
            tuple(coroot_pairing(b, a) for b in self.simple_roots)
            for a in self.simple_roots
        )
        # Bimultiplicative sign function: -1 on the diagonal and on Dynkin
        # edges (i, j) with i > j, +1 elsewhere, encoded as bitmasks.
        self._eps_masks = []
        for i in range(rank):
            mask = 1 << i
            for j in range(rank):
                if i > j and self.cartan_matrix[i][j] == -1:
                    mask |= 1 << j
            self._eps_masks.append(mask)
        two_rho = [0] * ambient
        for r in self.positive_roots:
            for k, c in enumerate(r.coords2):
                two_rho[k] += c
        self.rho = Weight(tuple(c // 2 for c in two_rho), self)
        self._tables = None
        self._dominant = None

    def _root_tables(self):
        """The positive-root pair tables, built on first use."""
        if self._tables is None:
            self._tables = _build_root_tables(self)
        return self._tables

    def _dominant_pairs(self):
        """The ``(i, j)`` with ``alpha_i - alpha_j`` dominant, built on first use.

        Only the simplicity check reads this table, so a process that
        builds the pair tables for anything else does not pay for it.
        """
        if self._dominant is None:
            pairings = [r.fundamental for r in self.positive_roots]
            self._dominant = tuple(
                (i, j)
                for i, fi in enumerate(pairings)
                for j, fj in enumerate(pairings)
                if all(map(ge, fi, fj))
            )
        return self._dominant

    def _enumerate_positive_roots(self):
        simples = [w.coords2 for w in self.simple_roots]
        expansions = {}
        for i, c in enumerate(simples):
            e = [0] * self.rank
            e[i] = 1
            expansions[c] = tuple(e)
        frontier = list(simples)
        while frontier:
            nxt = []
            for rc in frontier:
                for i, sc in enumerate(simples):
                    cand = tuple(a + b for a, b in zip(rc, sc))
                    if cand in expansions:
                        continue
                    below = tuple(a - b for a, b in zip(rc, sc))
                    p = 1 if below in expansions else 0
                    if p - _dot2(rc, sc) // 4 >= 1:
                        e = list(expansions[rc])
                        e[i] += 1
                        expansions[cand] = tuple(e)
                        nxt.append(cand)
            frontier = nxt
        ordered = sorted(expansions, key=lambda c: (sum(expansions[c]), c))
        self.positive_roots = tuple(Weight(c, self) for c in ordered)
        self._expansions = expansions

    def weight(self, coords2):
        """Build a weight of this system from doubled coordinates."""
        return Weight(tuple(int(c) for c in coords2), self)

    def simple_root(self, i):
        """Simple root by 1-based index."""
        return self.simple_roots[i - 1]

    def expansion(self, root):
        """Coefficients of a root over the simple roots."""
        exp = self._expansions.get(root.coords2)
        if exp is None:
            raise ValueError(f"{root} is not a root")
        return exp

    def height(self, root):
        return sum(self.expansion(root))

    def __repr__(self):
        return f"RootSystemData({self.series}{self.rank})"


def _simple_coords(series, rank, ambient):
    coords = []
    if series == SERIES_A:
        for i in range(rank):
            c = [0] * ambient
            c[i], c[i + 1] = 2, -2
            coords.append(tuple(c))
    elif series == SERIES_D:
        for i in range(rank - 1):
            c = [0] * ambient
            c[i], c[i + 1] = 2, -2
            coords.append(tuple(c))
        c = [0] * ambient
        c[rank - 2] = c[rank - 1] = 2
        coords.append(tuple(c))
    else:
        coords.append((1, -1, -1, -1, -1, -1, -1, 1))
        coords.append((2, 2, 0, 0, 0, 0, 0, 0))
        for i in range(rank - 2):
            c = [0] * ambient
            c[i], c[i + 1] = -2, 2
            coords.append(tuple(c))
    return coords


class _RootTables(NamedTuple):
    """Integer tables over the positive roots, indexed in their order.

    ``index`` maps doubled coordinates to the index.  ``sums`` maps each
    pair ``(i, j)`` with ``i < j`` whose sum is a root to ``(s, n)``: the
    index ``s`` of ``alpha_i + alpha_j`` and their Chevalley constant ``n``;
    every other pair has no bracket.  ``brackets[s]`` lists the same pairs
    by their sum, as ``(i, j, n)`` in pair order, and ``parts[s]`` is the
    bitmask of the roots in them: bit ``i`` is set iff ``alpha_s - alpha_i``
    is a positive root.
    """

    index: dict
    sums: dict
    brackets: tuple
    parts: tuple


def _build_root_tables(system):
    roots = system.positive_roots
    index = {r.coords2: i for i, r in enumerate(roots)}
    sums = {}
    for i, alpha in enumerate(roots):
        for j in range(i + 1, len(roots)):
            beta = roots[j]
            s = index.get(tuple(map(add, alpha.coords2, beta.coords2)))
            if s is not None:
                sums[i, j] = (s, chevalley_constant(alpha, beta))
    brackets = [[] for _ in roots]
    parts = [0] * len(roots)
    for (i, j), (s, n) in sums.items():
        brackets[s].append((i, j, n))
        parts[s] |= 1 << i | 1 << j
    return _RootTables(index, sums, tuple(map(tuple, brackets)), tuple(parts))


_SYSTEM_CACHE = {}


def build_root_system(series, rank):
    """Construct (and cache) the root system for a valid ADE pair."""
    key = (str(series).upper(), int(rank))
    if key not in _SYSTEM_CACHE:
        _SYSTEM_CACHE[key] = RootSystemData(*key)
    return _SYSTEM_CACHE[key]


def coroot_pairing(lam, alpha):
    """Integer pairing <lam, alpha^vee> of a weight with a coroot.

    In the simply-laced normalization (roots of squared length 2) this is
    the inner product (lam, alpha).
    """
    if lam.system is not alpha.system:
        raise MismatchedSystem("weight and root belong to different systems")
    if not alpha.is_root:
        raise ValueError(f"{alpha} is not a root")
    q, r = divmod(_dot2(lam.coords2, alpha.coords2), 4)
    if r:
        raise ValueError(f"{lam} is not in the weight lattice")
    return q


def is_dominant(lam):
    """Whether a weight pairs nonnegatively with every simple coroot."""
    return all(coroot_pairing(lam, a) >= 0 for a in lam.system.simple_roots)


def chevalley_constant(alpha, beta):
    """Structure constant N in [e_alpha, e_beta] = N e_{alpha+beta}.

    Nonzero (and equal to +-1) exactly when alpha + beta is a root.  Signs
    come from a bimultiplicative function on the root lattice fixed by an
    orientation of the Dynkin diagram; in type A this reproduces the
    matrix-unit brackets [e_ih, e_hk] = e_ik.
    """
    if alpha.system is not beta.system:
        raise MismatchedSystem("roots belong to different systems")
    system = alpha.system
    ea = system._expansions.get(alpha.coords2)
    eb = system._expansions.get(beta.coords2)
    if ea is None or eb is None:
        raise ValueError("chevalley_constant expects roots")
    s = tuple(a + b for a, b in zip(alpha.coords2, beta.coords2))
    if all(c == 0 for c in s):
        raise OppositeRoots(f"{alpha} and {beta} are opposite roots")
    if s not in system._expansions:
        return 0
    bmask = 0
    for j, c in enumerate(eb):
        if c & 1:
            bmask |= 1 << j
    parity = 0
    for i, c in enumerate(ea):
        if c & 1:
            parity ^= (bmask & system._eps_masks[i]).bit_count() & 1
    return -1 if parity else 1


def h0_dimension(lam):
    """Dimension of the space of sections of the line/vector bundle E_lam.

    Zero for non-dominant weights, otherwise the Weyl dimension formula
    evaluated exactly.
    """
    if not is_dominant(lam):
        return 0
    system = lam.system
    dim = _weyl_dimension(lam.coords2, system.rho.coords2, system.positive_roots)
    if dim.denominator != 1:
        raise ValueError("Weyl dimension did not come out integral")
    return int(dim)


def _weyl_dimension(lam2, rho2, positive_roots):
    """prod_alpha <lam + rho, alpha> / <rho, alpha>, as an exact Fraction.

    Scaling lam and rho by one common factor leaves the value unchanged.
    """
    from fractions import Fraction  # imported here: no other code makes one

    num2 = tuple(a + b for a, b in zip(lam2, rho2))
    num = den = 1
    for alpha in positive_roots:
        num *= _dot2(num2, alpha.coords2)
        den *= _dot2(rho2, alpha.coords2)
    return Fraction(num, den)
