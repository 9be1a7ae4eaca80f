"""The benchmark's workloads: fixed job ladders plus seeded draws.

A job is one ``flagquiver ...`` command, or one library job from
``libjobs`` for a stage the CLI does not expose.  Every job's output is
checked: fixed jobs against the sha256 of stdout recorded in
``digests.json``, seeded ``king`` jobs by the King verdict agreeing with
the cone verdict, and seeded ``equivalence`` jobs by reporting no
disagreement.  README.md says why each workload exists.
"""
from __future__ import annotations

import hashlib
import json
import random
from typing import NamedTuple


class Job(NamedTuple):
    name: str        # the command as typed; key into digests.json
    kind: str        # "cli" or "lib"
    args: tuple      # CLI argv, or library job name and its arguments
    check: str       # "digest", "king" or "equivalence"


def _cli(command, series, rank, parabolic, *extra, check="digest"):
    args = (command, "--series", series, "--rank", str(rank),
            "--parabolic", parabolic) + extra
    return Job("flagquiver " + " ".join(args), "cli", args, check)


def _lib(*args, check="digest"):
    return Job("lib " + " ".join(args), "lib", args, check)


def cone_ladder(rng):
    jobs = [_cli("cone", s, r, p) for s, r, p in (
        ("A", 3, "borel"), ("A", 4, "borel"), ("D", 4, "borel"),
        ("D", 5, "2,4"), ("E", 6, "1,6"), ("A", 5, "borel"))]
    jobs += [_cli("cone", "A", r, p, "--boundary")
             for r, p in ((2, "1,2"), (4, "1,4"), (5, "1,5"))]
    jobs += [_cli("intersections", s, r, "borel") for s, r in (("A", 4), ("D", 4))]
    return jobs


def simplicity_sweep(rng):
    jobs = [_cli("simplicity", s, r, "all")
            for s, r in (("A", 5), ("A", 6), ("D", 5), ("D", 6))]
    jobs += [_cli("simplicity", "E", r, "borel") for r in (6, 7, 8)]
    jobs += [
        _cli("quiver", "E", 8, "borel", "--output", "json"),
        _cli("quiver", "A", 5, "borel", "--mode", "reduced", "--output", "dot"),
        _lib("flatness"),
        _lib("closed", "E", "8", "borel"),
    ]
    return jobs


# Polarizations are drawn with entries in 1..top; equivalence grids have
# `points` distinct polarizations.
KING_CASES = (("A", 2, "1,2", 40), ("A", 3, "borel", 12), ("A", 4, "borel", 8))
KING_PER_CASE = 2
EQUIVALENCE_CASES = (("A", 3, "borel", 12, 200), ("A", 4, "borel", 8, 64))


def _polarization(rng, arity, top):
    return tuple(rng.randint(1, top) for _ in range(arity))


def verdict_scan(rng):
    jobs = [
        _cli("cone", "A", 4, "borel", "--section", "45"),
        _cli("cone", "A", 3, "borel", "--grid", "24"),
        _cli("cone", "A", 4, "1,4", "--grid", "300"),
        _cli("cone", "E", 6, "1,6", "--grid", "150"),
    ]
    for series, rank, parabolic, top in KING_CASES:
        arity = rank if parabolic == "borel" else len(parabolic.split(","))
        for _ in range(KING_PER_CASE):
            h = _polarization(rng, arity, top)
            jobs.append(_cli("king", series, rank, parabolic, "--polarization",
                             ",".join(map(str, h)), check="king"))
    for series, rank, parabolic, top, points in EQUIVALENCE_CASES:
        grid = set()
        while len(grid) < points:
            grid.add(_polarization(rng, rank, top))
        text = ";".join(",".join(map(str, h)) for h in sorted(grid))
        jobs.append(_lib("equivalence", series, str(rank), parabolic, text,
                         check="equivalence"))
    return jobs


WORKLOADS = {
    "cone-ladder": cone_ladder,
    "simplicity-sweep": simplicity_sweep,
    "verdict-scan": verdict_scan,
}


def build(workload, seed):
    """The job list of ``workload``; the seed fixes every drawn input."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def check(job, code, stdout, digests):
    """None when the job's output is right, else the reason it is not."""
    if code != 0:
        return f"exit code {code}"
    if job.check == "digest":
        want = digests.get(job.name)
        got = hashlib.sha256(stdout).hexdigest()
        if want is None:
            return "no recorded digest"
        return None if got == want else f"stdout sha256 {got[:16]} != {want[:16]}"
    try:
        data = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if job.check == "king":
        h = [int(x) for x in job.args[job.args.index("--polarization") + 1].split(",")]
        verdict = data.get("cone_verdict")
        if data.get("polarization") != h:
            return f"polarization {data.get('polarization')} != {h}"
        if (data.get("semistable") != (verdict != "UNSTABLE")
                or data.get("stable") != (verdict == "STABLE")):
            return (f"King semistable={data.get('semistable')} "
                    f"stable={data.get('stable')} vs cone {verdict}")
        return None
    points = job.args[-1].count(";") + 1
    if data.get("disagreements") != []:
        return f"disagreements {data.get('disagreements')}"
    if len(data.get("entries", ())) != points:
        return f"{len(data.get('entries', ()))} entries for {points} points"
    return None
