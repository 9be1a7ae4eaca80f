"""ADE root systems with exact integer arithmetic.

All weights are stored in doubled epsilon-coordinates (twice the usual
coordinates), so the half-integer entries of the E series stay integral
and every computation is exact.  Root systems are immutable once built
and cached per (series, rank).

Their tables are built on packed integers: a positive root's expansion
over the simple roots takes 5 bits per coefficient, and its pairings with
the simple coroots 4 bits per coordinate.  A coefficient is at most 6 (the
highest root of E8), so two expansions add without a carry between fields,
and a pairing is at most 2, below each field's guard bit; the build checks
both bounds.
"""

from bisect import bisect_right
from itertools import compress, count
from operator import add
from typing import NamedTuple

from .errors import MismatchedSystem, OppositeRoots, UnsupportedType

SERIES_A = "A"
SERIES_D = "D"
SERIES_E = "E"

# Packed field widths: expansions over the simple roots, and pairings with
# the simple coroots (see RootSystemData._enumerate_positive_roots).
_EXP_BITS = 5
_PAIR_BITS = 4


def _guard_bits(rank):
    """The top bit of each of ``rank`` packed pairing fields."""
    return sum(1 << _PAIR_BITS - 1 << _PAIR_BITS * k for k in range(rank))


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
        self.cartan_matrix = tuple(
            tuple(_dot2(b.coords2, a.coords2) // 4 for b in self.simple_roots)
            for a in self.simple_roots
        )
        self._enumerate_positive_roots()
        self.negative_roots = tuple(-r for r in self.positive_roots)
        self.roots = self.positive_roots + self.negative_roots
        for r, exp in list(self._expansions.items()):
            self._expansions[tuple(-c for c in r)] = tuple(-e for e in exp)
        two_rho = map(sum, zip(*(r.coords2 for r in self.positive_roots)))
        self.rho = Weight(tuple(c // 2 for c in two_rho), self)
        self._tables = None

    def _root_tables(self):
        """The positive-root pair tables, built on first use."""
        if self._tables is None:
            self._tables = _build_root_tables(self)
        return self._tables

    def _enumerate_positive_roots(self):
        """Walk the positive roots up from the simple roots, one height at a time.

        Each root is carried as its expansion over the simple roots packed
        ``_EXP_BITS`` bits per coefficient, its pairings with the simple
        coroots packed ``_PAIR_BITS`` bits per coordinate (offset by 1, so
        they lie in ``0..3``), and its doubled coordinates.  Adding the
        simple root ``alpha_i`` adds ``1 << _EXP_BITS * i`` to the first,
        row ``i`` of the Cartan matrix to the second and ``alpha_i``'s
        coordinates to the third.  In a simply-laced system a root
        ``beta != alpha_i`` pairs with ``alpha_i^vee`` in ``-1..1``, and
        ``beta + alpha_i`` is a root iff that pairing is -1: root strings
        have length at most 1, so ``beta - alpha_i`` is then not a root.

        The roots are kept in order of height, then doubled coordinates.
        A coefficient of a positive root is at most the highest root's, at
        most 6 (E8), so a sum of two packed expansions stays below 32 in
        every field: it adds without a carry and is the packed expansion
        of the sum.  A positive root pairs with a simple coroot in
        ``-1..2``, so every packed pairing field stays below its guard bit.
        Both bounds are checked here.
        """
        rank = self.rank
        field = (1 << _EXP_BITS) - 1
        pair_field = (1 << _PAIR_BITS) - 1
        steps = [1 << _EXP_BITS * i for i in range(rank)]
        rows = [
            sum(c << _PAIR_BITS * k for k, c in enumerate(row))
            for row in self.cartan_matrix
        ]
        ones = sum(1 << _PAIR_BITS * k for k in range(rank))
        simples = [w.coords2 for w in self.simple_roots]
        moves = list(enumerate(zip(simples, steps, rows)))
        known = set(steps)
        level = list(zip(simples, steps, (ones + r for r in rows)))
        levels = []
        while level:
            level.sort()
            levels.append(level)
            nxt = []
            for coords, code, pairing in level:
                for i, (sc, step, row) in moves:
                    cand = code + step
                    # field i is 0 iff <beta, alpha_i^vee> = -1
                    if not pairing >> _PAIR_BITS * i & pair_field and cand not in known:
                        known.add(cand)
                        nxt.append((tuple(map(add, coords, sc)), cand, pairing + row))
            level = nxt
        ordered = [root for level in levels for root in level]
        codes = tuple(code for _, code, _ in ordered)
        shifts = range(0, _EXP_BITS * rank, _EXP_BITS)
        self._columns = tuple(
            tuple(code >> shift & field for code in codes) for shift in shifts
        )
        if 2 * max(map(max, self._columns)) > field:
            raise ArithmeticError("a sum of two roots would carry between packed fields")
        pairings = (pairing for _, _, pairing in ordered)
        if any(map(_guard_bits(rank).__and__, pairings)):
            raise ArithmeticError("a simple-coroot pairing overflows its packed field")
        self._codes = codes
        self._heights = tuple(
            h for h, level in enumerate(levels, 1) for _ in level
        )
        self.positive_roots = tuple(Weight(c, self) for c, _, _ in ordered)
        self._expansions = dict(zip(
            (c for c, _, _ in ordered), zip(*self._columns)
        ))

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

    ``index`` maps doubled coordinates to the index.  ``twist[i]`` is the
    Chevalley-sign mask of ``alpha_i`` (see ``_build_root_tables``).
    ``brackets[s]`` lists the pairs ``(i, j)`` with ``i < j`` and
    ``alpha_i + alpha_j = alpha_s``, as ``(i, j, n)`` in pair order, with
    their Chevalley constant ``n``; every other pair has no bracket.
    ``parts[s]`` is the bitmask of the roots in them: bit ``i`` is set iff
    ``alpha_s - alpha_i`` is a positive root.
    """

    index: dict
    twist: tuple
    brackets: tuple
    parts: tuple


def _build_root_tables(system):
    """The pair tables, on the packed expansions of the positive roots.

    A pair whose heights add up to more than the highest root's has no
    root as its sum, so it is not tried.  Packed expansions add without a
    carry, so ``alpha_i + alpha_j`` is a root iff the sum of their codes is
    a root's code.  The sign of ``[e_alpha, e_beta]`` is ``eps(alpha, beta)``
    for the bimultiplicative ``eps`` (Kac, *Infinite-Dimensional Lie
    Algebras*, 7.8) with ``eps(alpha_k, alpha_j) = -1`` iff ``j = k``, or
    ``j < k`` and the Cartan matrix joins them.  It is the parity of
    ``odd(beta) & T(alpha)``, ``odd`` marking the odd coefficients and
    ``T(alpha)`` the XOR of the rows ``k`` of ``eps`` over the odd
    coefficients ``k`` of ``alpha``.  Spread to the low bit of each packed
    field, ``odd(alpha_j) & T(alpha_i)`` is ``codes[j] & twist[i]``: one
    popcount per pair.
    """
    roots = system.positive_roots
    codes = system._codes
    heights = system._heights
    code_index = {c: i for i, c in enumerate(codes)}
    spread = [
        sum(1 << _EXP_BITS * j for j, c in enumerate(row) if c == 2 or c == -1 and j < k)
        for k, row in enumerate(system.cartan_matrix)
    ]
    twist = [0] * len(codes)
    for column, eps in zip(system._columns, spread):
        for i in compress(count(), map((1).__and__, column)):
            twist[i] ^= eps
    top = heights[-1]
    brackets = [[] for _ in roots]
    parts = [0] * len(roots)
    for i, (ci, ti, h) in enumerate(zip(codes, twist, heights)):
        end = bisect_right(heights, top - h)
        if end <= i + 1:
            break
        found = list(map(code_index.get, map(ci.__add__, codes[i + 1:end])))
        # a sum has height at least 2, so its index is never 0
        for j, s in zip(compress(count(i + 1), found), filter(None, found)):
            n = -1 if (codes[j] & ti).bit_count() & 1 else 1
            brackets[s].append((i, j, n))
            parts[s] |= 1 << i | 1 << j
    index = {r.coords2: i for i, r in enumerate(roots)}
    return _RootTables(index, tuple(twist), tuple(map(tuple, brackets)), tuple(parts))


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
    matrix-unit brackets [e_ih, e_hk] = e_ik.  The sign is read from the
    pair tables; it depends only on each root mod 2, so a negative root
    reads the row of its negative.
    """
    if alpha.system is not beta.system:
        raise MismatchedSystem("roots belong to different systems")
    system = alpha.system
    if not (alpha.is_root and beta.is_root):
        raise ValueError("chevalley_constant expects roots")
    s = tuple(map(add, alpha.coords2, beta.coords2))
    if not any(s):
        raise OppositeRoots(f"{alpha} and {beta} are opposite roots")
    if s not in system._expansions:
        return 0
    index, twist = system._root_tables()[:2]
    i, j = (index[w.coords2 if w.coords2 in index else (-w).coords2] for w in (alpha, beta))
    return -1 if (system._codes[j] & twist[i]).bit_count() & 1 else 1


def h0_dimension(lam):
    """Dimension of the space of sections of the line/vector bundle E_lam.

    Zero for non-dominant weights, otherwise the Weyl dimension formula
    evaluated exactly.
    """
    if not is_dominant(lam):
        return 0
    system = lam.system
    roots = [(r.coords2, h) for r, h in zip(system.positive_roots, system._heights)]
    dim, rest = _weyl_dimension(lam.coords2, roots)
    if rest:
        raise ValueError("Weyl dimension did not come out integral")
    return dim


def _weyl_dimension(lam2, roots):
    """``divmod`` of the Weyl dimension formula's numerator by its denominator.

    ``roots`` holds ``(coords2, height)`` of the positive roots of a
    simply-laced system, or of a Levi subsystem: there ``<rho, g>`` is the
    height of ``g``, so the formula is the product of ``ht g + <lam, g>``
    over the product of ``ht g``, both integers.  ``lam2`` is a weight in
    doubled coordinates, where ``<lam, g>`` is ``lam2 . g / 4``.
    """
    num = den = 1
    for g, h in roots:
        num *= h + _dot2(lam2, g) // 4
        den *= h
    return divmod(num, den)
