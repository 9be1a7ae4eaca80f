"""Small exact integer multivariate polynomials (dict-of-exponents)."""


class IntPoly:
    """Homogeneous-friendly integer polynomial in a fixed number of variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=()):
        self.nvars = int(nvars)
        cleaned = {}
        for exps, coeff in dict(terms).items():
            if coeff:
                if len(exps) != self.nvars:
                    raise ValueError("exponent tuple has the wrong arity")
                cleaned[tuple(exps)] = int(coeff)
        self.terms = cleaned

    def __eq__(self, other):
        return (
            isinstance(other, IntPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    @property
    def is_zero(self):
        return not self.terms

    @property
    def degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def evaluate(self, point):
        if len(point) != self.nvars:
            raise ValueError("point has the wrong arity")
        total = 0
        for exps, coeff in self.terms.items():
            v = coeff
            for x, e in zip(point, exps):
                if e:
                    v *= x**e
            total += v
        return total

    @classmethod
    def _from_terms(cls, nvars, terms):
        """Wrap a dict of nonzero integer terms of the right arity, unchecked."""
        out = cls.__new__(cls)
        out.nvars = nvars
        out.terms = terms
        return out

    def sorted_items(self):
        return sorted(self.terms.items())

    def __repr__(self):
        if self.is_zero:
            return "IntPoly(0)"
        bits = []
        for exps, c in self.sorted_items():
            mono = "*".join(
                f"x{i}^{e}" if e > 1 else f"x{i}"
                for i, e in enumerate(exps)
                if e
            )
            bits.append(f"{c}*{mono}" if mono else str(c))
        return "IntPoly(" + " + ".join(bits) + ")"


def multinomial(n, exps):
    """n! / prod(e_i!) for a composition of n."""
    if sum(exps) != n:
        raise ValueError("exponents must sum to n")
    out = 1
    rem = n
    for e in exps:
        for k in range(1, e + 1):
            out = out * rem // k
            rem -= 1
    return out
