"""Command-line front end with machine-readable output.

Exit codes: 0 success, 2 invalid input or an unwritable --out file,
3 simplicity regression, 4 enumeration budget exceeded.
"""

import argparse
import errno
import itertools
import math
import os
import sys
from _json import encode_basestring_ascii
from operator import add, sub

from . import quiver as quiver_mod
from .errors import BudgetExceeded, FlagQuiverError, NotTwoParameter
from .parabolic import build_parabolic
from .rootsys import build_root_system
from .schubert import DEFAULT_BUDGET, intersection_number, volume_polynomial
from .stability import (
    _cone_inequalities,
    boundary_2d,
    degree_cone,
    is_sigma_semistable,
    sample_lines,
    sigma_from_polarization,
    stability_cone,
)
from .tangentrep import VERDICT_SIMPLE, _borel_rep, simplicity_report, tangent_rep

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NOT_SIMPLE = 3
EXIT_BUDGET = 4

# `--parabolic all` lists 2^rank - 1 parabolics; rank 8 gives 255
ALL_PARABOLICS_MAX = 255
# Bounds the work of rank-driven commands (roots, Borel quivers); a rank in
# the millions would not even fit its root system in memory.
MAX_RANK = 24
# The one line of a k = 1 grid is written at most this many points a chunk.
_PIECE_POINTS = 1 << 14


def _weight_json(w):
    return {"weight2": list(w.coords2), "fundamental": list(w.fundamental)}


def _json(x, nl="\n"):
    """``json.dumps(x, indent=2)``, each of its new lines starting with ``nl``.

    The stdlib runs its pure-Python encoder whenever ``indent`` is set;
    this writes the same bytes in one pass.  Dict keys must be strings,
    and a type ``json.dumps`` would not write raises ``TypeError``.
    """
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        if x != x:
            return "NaN"
        if abs(x) == float("inf"):
            return "Infinity" if x > 0 else "-Infinity"
        return float.__repr__(x)
    inner = nl + "  "
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        if all(type(v) is int for v in x):
            items = map(int.__repr__, x)
        else:
            items = [_json(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if isinstance(x, dict):
        if not x:
            return "{}"
        items = []
        for key, value in x.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON key {key!r} is not a string")
            items.append(encode_basestring_ascii(key) + ": " + _json(value, inner))
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _dumps(data):
    return _json(data) + "\n"


def _parse_parabolic(text, system, allow_all=False):
    text = text.strip().lower()
    if text == "borel":
        return [tuple(range(1, system.rank + 1))]
    if text == "all":
        if not allow_all:
            raise ValueError("'all' is only supported by the simplicity command")
        count = 2**system.rank - 1
        if count > ALL_PARABOLICS_MAX:
            raise BudgetExceeded(
                f"'all' lists {count} parabolics, over the cap of {ALL_PARABOLICS_MAX}"
            )
        out = []
        for size in range(1, system.rank + 1):
            out.extend(itertools.combinations(range(1, system.rank + 1), size))
        return out
    return [tuple(sorted(set(int(tok) for tok in text.split(","))))]


def _parabolic(args):
    """The parabolic of ``--series``, ``--rank`` and one ``--parabolic`` choice."""
    system = build_root_system(args.series, args.rank)
    (sigma,) = _parse_parabolic(args.parabolic, system)
    return build_parabolic(system, sigma)


def _check_out(path):
    """Refuse an --out path that open() would refuse, before any work."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _write_out(path, chunks):
    """Write ``chunks`` to the --out file, all of them or none.

    Chunks may be computed as they are written, so they go to a temporary
    file beside the target, which is moved into place after the last one:
    a run that fails or is interrupted leaves the old file, or no file.
    The new file keeps the old one's mode.  A target that exists but is
    not a regular file, a FIFO or /dev/stdout say, or that sits in a
    directory where no new file can be made, is written in place.
    """
    target = os.path.realpath(path)
    directory = os.path.dirname(target)
    if (os.path.exists(path) and not os.path.isfile(path)) or not os.access(directory, os.W_OK):
        with open(path, "w") as fh:
            fh.writelines(chunks)
        return
    try:
        mode = os.stat(target).st_mode & 0o7777
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    import tempfile  # only --out needs it, and it pulls in shutil and random

    fd, part = tempfile.mkstemp(dir=directory, prefix=".", suffix=".part")
    try:
        with open(fd, "w") as fh:
            fh.writelines(chunks)
        os.chmod(part, mode)
        os.replace(part, target)
    except BaseException:
        os.unlink(part)
        raise


def _emit(args, text):
    """Write a string, or an iterable of strings, to --out or stdout.

    A reader that closes stdout early ends the output, with exit 0 and
    nothing on stderr: stdout is pointed at devnull, so the flush at
    interpreter exit has nowhere to fail.
    """
    chunks = [text] if isinstance(text, str) else text
    if args.out:
        _write_out(args.out, chunks)
        return
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def cmd_roots(args):
    system = build_root_system(args.series, args.rank)
    if args.output == "json":
        data = {
            "series": system.series,
            "rank": system.rank,
            "ambient_dim": system.ambient_dim,
            "simple_roots": [_weight_json(w) for w in system.simple_roots],
            "positive_roots": [_weight_json(w) for w in system.positive_roots],
            "cartan_matrix": [list(row) for row in system.cartan_matrix],
        }
        _emit(args, _dumps(data))
    elif args.output == "csv":
        lines = ["kind," + ",".join(f"c{i+1}" for i in range(system.ambient_dim))]
        for w in system.simple_roots:
            lines.append("simple," + ",".join(str(c) for c in w.coords2))
        for w in system.positive_roots:
            lines.append("positive," + ",".join(str(c) for c in w.coords2))
        _emit(args, "\n".join(lines) + "\n")
    else:
        lines = [f"{system.series}{system.rank}: {len(system.positive_roots)} positive roots"]
        for w in system.positive_roots:
            lines.append(f"  {w.coords2} fundamental={w.fundamental}")
        lines.append("cartan matrix:")
        for row in system.cartan_matrix:
            lines.append("  " + " ".join(f"{x:3d}" for x in row))
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_simplicity(args):
    system = build_root_system(args.series, args.rank)
    sigmas = _parse_parabolic(args.parabolic, system, allow_all=True)
    rows = []
    worst = EXIT_OK
    for sigma in sigmas:
        p = build_parabolic(system, sigma)
        report = simplicity_report(p)
        rows.append(
            {
                "sigma": list(sigma),
                "multiplicity_free": report.multiplicity_free,
                "connected_components": report.connected_components,
                "hom_dimension": report.hom_dimension,
                "dominant_sums": sorted(
                    list(w.coords2) for w in report.dominant_sums
                ),
                "verdict": report.verdict,
            }
        )
        if report.verdict != VERDICT_SIMPLE:
            worst = EXIT_NOT_SIMPLE
    if args.output == "json":
        _emit(args, _dumps(rows))
    else:
        lines = [
            f"sigma={','.join(str(i) for i in row['sigma'])}: {row['verdict']}"
            f" (hom_dimension={row['hom_dimension']})"
            for row in rows
        ]
        _emit(args, "\n".join(lines) + "\n")
    return worst


def _tangent_quiver(args, p):
    if args.level == "levi":
        return tangent_rep(p).levi_rep
    rep = _borel_rep(p)[0]
    if args.mode == quiver_mod.REDUCED:
        # generators are a subsequence of the nilradical weights, so the
        # reduced arrows are the full ones with a generator label, in order
        full = rep.quiver
        generators = set(full.parabolic.generator_weights)
        kept = [k for k, a in enumerate(full.arrows) if a.label in generators]
        reduced = quiver_mod.InducedQuiver(
            full.vertices, [full.arrows[k] for k in kept], quiver_mod.REDUCED,
            full.parabolic,
        )
        maps = {i: rep.maps[k] for i, k in enumerate(kept)}
        return quiver_mod.QuiverRep(reduced, rep.dims, maps)
    return rep


def cmd_quiver(args):
    if args.level == "levi" and args.mode == quiver_mod.REDUCED:
        raise ValueError("--mode reduced applies only to --level borel")
    rep = _tangent_quiver(args, _parabolic(args))
    q = rep.quiver
    if args.output == "dot":
        _emit(args, quiver_mod.to_dot(q))
    elif args.output == "json":
        data = {
            "vertices": [
                dict(_weight_json(w), dim=rep.dims[i])
                for i, w in enumerate(q.vertices)
            ],
            "arrows": [
                {
                    "src": a.src,
                    "dst": a.dst,
                    "label2": list(a.label.coords2),
                    "scalar": rep.maps[k][0][0] if k in rep.maps else 0,
                }
                for k, a in enumerate(q.arrows)
            ],
        }
        _emit(args, _dumps(data))
    else:
        lines = [f"{len(q.vertices)} vertices, {len(q.arrows)} arrows"]
        for a in q.arrows:
            lines.append(f"  {q.vertices[a.src].coords2} -> {q.vertices[a.dst].coords2}")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_intersections(args):
    p = _parabolic(args)
    rows = [
        (exps, intersection_number(p, exps, args.budget))
        for exps, _ in volume_polynomial(p, args.budget).sorted_items()
    ]
    if args.output == "json":
        data = [{"exps": list(e), "value": v} for e, v in rows]
        _emit(args, _dumps(data))
    else:
        header = ",".join(f"e{i}" for i in p.sigma) + ",value"
        lines = [header] + [
            ",".join(str(x) for x in e) + f",{v}" for e, v in rows
        ]
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


# a monomial of ``cone`` up to its coefficient, at its depth in the document
_EXPS_TEXT = '{\n          "exps": [\n            %s\n          ],\n          "coeff": '


def _exps_texts(columns):
    """The text of each monomial up to its coefficient, from its exponent columns."""
    digits = [map(int.__repr__, column) for column in columns]
    return map(_EXPS_TEXT.__mod__, map(",\n            ".join, zip(*digits)))


def _cone_chunks(cone, boundary):
    """``_dumps({"inequalities": [...], "boundary": ...})``, one inequality a chunk.

    ``cone`` is what ``_cone_inequalities`` returns: the table's exponent
    tuples and the inequalities as table rows.  An inequality is
    ``{"subbundle": [...], "monomials": [{"exps": [...], "coeff": c},
    ...], "strict": true}``, and each monomial is the text of its row up
    to the coefficient, then the coefficient.  The table's rows are
    rendered once, on first use; an inequality with a shift of its own
    renders its shifted rows itself.  The inequalities are iterated once,
    so each is written as it is built.
    """
    exps, inequalities = cone
    rendered = None
    yield '{\n  "inequalities": ['
    sep = "\n    "
    end = "]"
    for subset, rows, coeffs, shift in inequalities:
        if any(shift):
            columns = zip(*map(exps.__getitem__, rows))
            texts = _exps_texts(
                map(sub, column, itertools.repeat(s)) for column, s in zip(columns, shift)
            )
        else:
            if rendered is None:
                rendered = list(_exps_texts(zip(*exps)))
            texts = map(rendered.__getitem__, rows)
        monomials = "\n        },\n        ".join(map(add, texts, map(int.__repr__, coeffs)))
        yield (
            sep
            + '{\n      "subbundle": '
            + _json(subset, "\n      ")
            + ',\n      "monomials": '
            + ("[\n        " + monomials + "\n        }\n      ]" if coeffs else "[]")
            + ',\n      "strict": true\n    }'
        )
        sep = ",\n    "
        end = "\n  ]"
    yield end
    if boundary is not None:
        yield ',\n  "boundary": ' + _json(boundary, "\n  ")
    yield "\n}\n"


def _sample_csv(cone, k, grid, section):
    """The CSV lines of a sample after its header, in chunks.

    ``sample_lines`` gives each line's leading coordinates, written once
    as the line's head, and its verdicts as maximal runs; each line is one
    chunk.  A grid point's text after the head is ``"{j},{verdict}\n"``.
    When k >= 2 every grid line has the labels ``str(j)`` for j in
    1..grid, rendered once per sample, and a run is its slice of them
    joined by its verdict's text and the head.  The one line of a k = 1
    grid has nothing to reuse: its runs are written straight from
    ``range``, at most ``_PIECE_POINTS`` points a chunk.  A section
    point's text is ``"{j},{rest - j},{verdict}\n"``, with rest the sum
    of the last two parts, and the one point of a k = 1 section is
    ``"{section},{verdict}\n"``.
    """
    lines = sample_lines(cone, grid, section)
    if grid and k == 1:
        ((_, runs),) = lines
        start = 1
        for stop, verdict in runs:
            tail = f",{verdict}\n"
            for a in range(start, stop + 1, _PIECE_POINTS):
                yield tail.join(map(str, range(a, min(a + _PIECE_POINTS, stop + 1)))) + tail
            start = stop + 1
        return
    labels = list(map(str, range(1, grid + 1)))
    for prefix, runs in lines:
        head = "".join(f"{x}," for x in prefix)
        parts = []
        start = 0
        if grid:
            for stop, verdict in runs:
                sep = f",{verdict}\n"
                parts.append((sep + head).join(labels[start:stop]) + sep)
                start = stop
        elif k == 1:
            parts = [f"{section},{verdict}\n" for _, verdict in runs]
        else:
            rest = section - sum(prefix)
            for stop, verdict in runs:
                parts += [f"{j},{rest - j},{verdict}\n" for j in range(start + 1, stop + 1)]
                start = stop
        yield head + head.join(parts)


def cmd_cone(args):
    if min(args.grid, args.section) < 0:
        raise ValueError("--grid and --section need N >= 1 (0 is off)")
    if args.grid and args.section:
        raise ValueError("give --grid or --section, not both")
    sampled = bool(args.grid or args.section)
    if args.boundary and sampled:
        raise ValueError("--boundary cannot be combined with --grid or --section")
    written = "csv" if sampled else "json"
    if args.output not in (None, written):
        raise ValueError(f"argument --output: invalid choice: {args.output!r}"
                         f" (this request writes {written})")
    p = _parabolic(args)
    if args.boundary and len(p.sigma) != 2:
        # the arity is known before any expansion
        raise NotTwoParameter("boundary_2d needs exactly two parameters")
    if sampled:
        k = len(p.sigma)
        count = args.grid**k if args.grid else math.comb(args.section - 1, k - 1)
        if count > args.budget:
            raise BudgetExceeded(
                f"a sample of {count} points exceeds the budget {args.budget}"
            )
        header = ",".join(f"a{i}" for i in p.sigma) + ",verdict\n"
        chunks = _sample_csv(degree_cone(p, args.budget), k, args.grid, args.section)
        _emit(args, itertools.chain([header], chunks))
        return EXIT_OK
    boundary = None
    if args.boundary:
        bounds = boundary_2d(stability_cone(p, args.budget))
        boundary = {
            "lower": _surd_json(bounds.lower),
            "upper": _surd_json(bounds.upper),
            "rational_endpoint": bounds.has_rational_endpoint,
        }
    # a two-parameter table has at most dim rows, so writing the
    # boundary's cone from a second table costs next to nothing
    _emit(args, _cone_chunks(_cone_inequalities(p, args.budget), boundary))
    return EXIT_OK


def _surd_json(surd):
    return {
        "p": surd.p,
        "q": surd.q,
        "r": surd.r,
        "s": surd.s,
        "approx": float(surd),
    }


def cmd_king(args):
    p = _parabolic(args)
    h = tuple(int(tok) for tok in args.polarization.split(","))
    if len(h) != len(p.sigma):
        raise ValueError("polarization arity must match the number of marked roots")
    rep = tangent_rep(p).levi_rep
    # a non-ample h is refused here, before the walk counts closed subsets
    character = sigma_from_polarization(rep, p, h)
    verdict = is_sigma_semistable(rep, character, args.budget)
    data = {
        "polarization": list(h),
        "sigma_character": list(character.values),
        "semistable": verdict.semistable,
        "stable": verdict.stable,
        "witness": list(verdict.witness) if verdict.witness is not None else None,
        "cone_verdict": verdict.cone_verdict,
    }
    if args.output == "text":
        state = "stable" if verdict.stable else "semistable" if verdict.semistable else "UNSTABLE"
        _emit(args, f"{state} witness={data['witness']}\n")
    else:
        _emit(args, _dumps(data))
    return EXIT_OK


def _add_common(sub, outputs):
    """Options every command takes; ``outputs`` lists its formats, default first."""
    sub.add_argument("--series", required=True, help="A, D or E")
    sub.add_argument("--rank", required=True, type=int)
    sub.add_argument("--output", default=outputs[0], choices=outputs)
    sub.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sub.add_argument("--out", default=None, help="write to a file instead of stdout")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="flagquiver",
        description="Quiver representations and stability cones on ADE flag varieties",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("roots", help="root system data")
    _add_common(sub, ["json", "csv", "text"])
    sub.set_defaults(func=cmd_roots)

    sub = subs.add_parser("simplicity", help="simplicity certificate for tangent bundles")
    _add_common(sub, ["text", "json"])
    sub.add_argument("--parabolic", required=True,
                     help="comma-separated indices, 'borel', or 'all'")
    sub.set_defaults(func=cmd_simplicity)

    sub = subs.add_parser("quiver", help="tangent quiver export")
    _add_common(sub, ["dot", "json", "text"])
    sub.add_argument("--parabolic", required=True)
    sub.add_argument("--mode", default=quiver_mod.FULL,
                     choices=[quiver_mod.FULL, quiver_mod.REDUCED])
    sub.add_argument("--level", default="borel", choices=["borel", "levi"])
    sub.set_defaults(func=cmd_quiver)

    sub = subs.add_parser("intersections", help="nonzero divisor intersection numbers")
    _add_common(sub, ["csv", "json"])
    sub.add_argument("--parabolic", required=True)
    sub.set_defaults(func=cmd_intersections)

    sub = subs.add_parser("cone", help="stability cone of polarizations")
    _add_common(sub, ["json", "csv"])
    # unset, the format follows the request: json for the cone, csv for a sample
    sub.set_defaults(output=None)
    sub.add_argument("--parabolic", required=True)
    sub.add_argument("--boundary", action="store_true",
                     help="include the closed-form 2-parameter boundary")
    sub.add_argument("--grid", type=int, default=0,
                     help="emit a CSV of verdicts over {1..N}^k")
    sub.add_argument("--section", type=int, default=0,
                     help="emit a CSV of verdicts on the slice sum(a_i) = N")
    sub.set_defaults(func=cmd_cone)

    sub = subs.add_parser("king", help="character (semi)stability verdict")
    _add_common(sub, ["json", "text"])
    sub.add_argument("--parabolic", required=True)
    sub.add_argument("--polarization", required=True)
    sub.set_defaults(func=cmd_king)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code else EXIT_OK
    try:
        if args.rank > MAX_RANK:
            raise ValueError(f"--rank is capped at {MAX_RANK}")
        if args.out:
            _check_out(args.out)
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (FlagQuiverError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
