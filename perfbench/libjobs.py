"""Library jobs: stages the flagquiver CLI does not expose.

Each job prints a deterministic text result on stdout, so run.py can
check it like the output of a CLI command.
"""
from __future__ import annotations

import hashlib
import itertools
import json

from flagquiver import (
    borel,
    build_parabolic,
    build_root_system,
    closed_subsets,
    equivalence_check,
    tangent_rep,
    verify_flatness,
)


def _parabolic(series, rank, sigma):
    system = build_root_system(series, int(rank))
    if sigma == "borel":
        return borel(system)
    return build_parabolic(system, [int(i) for i in sigma.split(",")])


def _sweep():
    """Every parabolic of A1..A5, D4 and D5, plus the E6/E7/E8 Borel cases."""
    systems = [("A", r) for r in range(1, 6)] + [("D", 4), ("D", 5)]
    for series, rank in systems:
        system = build_root_system(series, rank)
        for size in range(1, rank + 1):
            for sigma in itertools.combinations(range(1, rank + 1), size):
                yield build_parabolic(system, sigma)
    for rank in (6, 7, 8):
        yield borel(build_root_system("E", rank))


def flatness():
    """``verify_flatness`` on the tangent rep of every sweep parabolic."""
    lines = []
    for p in _sweep():
        result = verify_flatness(tangent_rep(p).rep)
        lines.append(f"{p!r} ok={result.ok} violation={result.violation}")
    return "\n".join(lines) + "\n"


def closed(series, rank, sigma):
    """Reduced closed subsets of the Levi rep: their count and a digest."""
    sets = closed_subsets(tangent_rep(_parabolic(series, rank, sigma)).levi_rep,
                          reduce=True)
    digest = hashlib.sha256(repr(sets).encode()).hexdigest()
    return f"sets={len(sets)} sha256={digest}\n"


def equivalence(series, rank, sigma, grid):
    """``equivalence_check`` on ``grid``, polarizations joined by ';'."""
    points = [tuple(int(x) for x in h.split(",")) for h in grid.split(";")]
    report = equivalence_check(_parabolic(series, rank, sigma), points)
    return json.dumps({
        "entries": [list(e) for e in report.entries],
        "disagreements": [list(d) for d in report.disagreements],
    }) + "\n"


JOBS = {"flatness": flatness, "closed": closed, "equivalence": equivalence}
