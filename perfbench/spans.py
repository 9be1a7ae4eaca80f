"""In-memory spans around the public functions of the flagquiver modules.

The traced run wraps every public function of each layer module, and the
names that other modules re-bind by importing them, so a call made through
``stability.intersection_polynomial`` is traced as ``schubert.intersection_polynomial``.
Spans live in flat arrays while the job runs; ``summary`` turns them into
per-name call counts and self times once, at the end.

Self time is a span's duration minus the time covered by its child spans.
Calls are synchronous, so children never overlap and the covered time is
the sum of their durations.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

LAYERS = ("rootsys", "parabolic", "quiver", "tangentrep", "schubert",
          "stability", "polynomials")

# Weight arithmetic called once per pair of roots (about 1 us per call).
# A span would cost more than the call, so their time stays in the
# caller's self time.
LEAF_PRIMITIVES = frozenset({
    "rootsys.coroot_pairing",
    "rootsys.is_dominant",
    "rootsys.chevalley_constant",
})

# Counters taken from return values: span name -> counter name.
RESULT_COUNTS = {
    "tangentrep.closed_subsets": "tangentrep.closed_subsets.sets",
    "stability.stability_cone": "stability.inequalities",
}

class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.names = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts = {}
        self.patches = []          # (owner, attribute, original)
        self._stack = [-1]

    def wrap(self, name, fn):
        """Return ``fn`` wrapped in a span called ``name``."""
        nid = len(self.names)
        self.names.append(name)
        name_ids, parents, starts, ends = (
            self.name_ids, self.parents, self.starts, self.ends)
        stack = self._stack
        clock = time.perf_counter
        counter = RESULT_COUNTS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                counts[counter] = counts.get(counter, 0) + len(result)
            return result

        return traced

    def install(self):
        """Wrap the layer functions, ``IntPoly.evaluate`` and ``cli.main``."""
        package = [m for n, m in list(sys.modules.items())
                   if n == "flagquiver" or n.startswith("flagquiver.")]
        for layer in LAYERS + ("cli",):
            module = sys.modules["flagquiver." + layer]
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (not inspect.isfunction(fn) or fn.__module__ != module.__name__
                        or attr.startswith("_") or name in LEAF_PRIMITIVES
                        or (layer == "cli" and name != "cli.main")):
                    continue
                traced = self.wrap(name, fn)
                for owner in package:
                    for key, value in list(vars(owner).items()):
                        if value is fn:
                            self.patches.append((owner, key, fn))
                            setattr(owner, key, traced)
        poly = sys.modules["flagquiver.polynomials"].IntPoly
        self.patches.append((poly, "evaluate", poly.evaluate))
        poly.evaluate = self.wrap("polynomials.evaluate", poly.evaluate)

    def uninstall(self):
        for owner, key, fn in reversed(self.patches):
            setattr(owner, key, fn)
        self.patches.clear()

    def summary(self):
        """``{name: [calls, self_s, total_s]}`` over every recorded span."""
        return aggregate(self.names, self.name_ids, self.parents,
                         self.starts, self.ends)


def self_times(parents, starts, ends):
    """Self time of each span: its duration minus its children's durations."""
    own = [e - s for s, e in zip(starts, ends)]
    out = list(own)
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= own[i]
    return out


def aggregate(names, name_ids, parents, starts, ends):
    out = {}
    selfs = self_times(parents, starts, ends)
    for i, nid in enumerate(name_ids):
        row = out.setdefault(names[nid], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += selfs[i]
        row[2] += ends[i] - starts[i]
    return out
