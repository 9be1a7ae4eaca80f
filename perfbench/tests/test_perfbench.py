"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q
"""
import contextlib
import hashlib
import io
import json
import subprocess
from fractions import Fraction

import pytest

import run
import spans
import workloads


def test_self_time_subtracts_child_spans():
    # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [5, 9]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    assert spans.self_times(parents, starts, ends) == [3.0, 2.0, 1.0, 4.0]
    names = ["cli.main", "x.f"]
    summary = spans.aggregate(names, [0, 1, 1, 1], parents, starts, ends)
    assert summary == {"cli.main": [1, 3.0, 10.0], "x.f": [3, 7.0, 8.0]}


def test_wrap_returns_the_same_object_and_closes_spans_on_error():
    tracer = spans.Tracer()
    sentinel = object()
    outer = tracer.wrap("x.outer", lambda: inner())
    inner = tracer.wrap("x.inner", lambda: sentinel)
    assert outer() is sentinel

    def boom():
        raise KeyError("k")

    with pytest.raises(KeyError):
        tracer.wrap("x.boom", boom)()
    assert list(tracer.parents) == [-1, 0, -1]
    assert all(e >= s > 0 for s, e in zip(tracer.starts, tracer.ends))
    assert tracer.summary()["x.boom"][0] == 1


def _plain(obj, path=()):
    """Structural value of a result, for comparing fresh objects."""
    if isinstance(obj, (int, float, str, bytes, type(None), Fraction)):
        return obj
    if id(obj) in path:
        return "<cycle>"
    path += (id(obj),)
    if isinstance(obj, (list, tuple)):
        return (type(obj).__name__, [_plain(x, path) for x in obj])
    if isinstance(obj, dict):
        return sorted(((repr(_plain(k, path)), _plain(v, path)) for k, v in obj.items()),
                      key=lambda kv: kv[0])
    if isinstance(obj, (set, frozenset)):
        return sorted(repr(_plain(x, path)) for x in obj)
    if type(obj).__eq__ is not object.__eq__:
        return obj
    fields = getattr(obj, "__dict__", None) or {
        k: getattr(obj, k) for k in getattr(type(obj), "__slots__", ())}
    return (type(obj).__name__, _plain(fields, path))


class _Capture(spans.Tracer):
    """Tracer that also keeps each wrapped function's first call."""

    def __init__(self):
        super().__init__()
        self.seen = {}
        self.originals = {}

    def wrap(self, name, fn):
        traced = super().wrap(name, fn)
        self.originals[name] = fn

        def spy(*args, **kwargs):
            result = traced(*args, **kwargs)
            self.seen.setdefault(name, (args, kwargs, result))
            return result

        return spy


def test_wrappers_leave_every_return_value_unchanged():
    import flagquiver
    from flagquiver import cli

    tracer = _Capture()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (
                "cone --series A --rank 2 --parabolic 1,2 --boundary",
                "cone --series A --rank 3 --parabolic borel --grid 3",
                "intersections --series A --rank 3 --parabolic 1,3",
                "king --series A --rank 3 --parabolic borel --polarization 1,2,3",
                "simplicity --series A --rank 3 --parabolic all",
                "quiver --series A --rank 3 --parabolic borel --output dot",
            ):
                assert cli.main(argv.split()) == 0
        p = flagquiver.borel(flagquiver.build_root_system("A", 2))
        flagquiver.equivalence_check(p, [(1, 1), (2, 5)])
        flagquiver.h0_dimension(p.system.rho)
        rep = flagquiver.tangent_rep(p).rep
        flagquiver.relation_instances(rep.quiver)
        flagquiver.verify_flatness(rep)
        flagquiver.minimal_coset_reps(p, 1)
    finally:
        tracer.uninstall()
    assert set(tracer.seen) == set(tracer.originals)
    for name, (args, kwargs, result) in tracer.seen.items():
        with contextlib.redirect_stdout(io.StringIO()):
            again = tracer.originals[name](*args, **kwargs)
        assert _plain(again) == _plain(result), name


def test_uninstall_restores_the_package():
    from flagquiver import stability

    before = stability.intersection_polynomial
    tracer = spans.Tracer()
    tracer.install()
    assert stability.intersection_polynomial is not before
    tracer.uninstall()
    assert stability.intersection_polynomial is before


def _roots(series):
    args = ("roots", "--series", series, "--rank", "2")
    return workloads.Job("flagquiver " + " ".join(args), "cli", args, "digest")


def test_bad_digest_and_nonzero_exit_raise_failed_frac():
    good = _roots("A")
    stdout = subprocess.run(run.command(good, False), capture_output=True,
                            env=run.child_env(), check=True).stdout
    digests = {good.name: hashlib.sha256(stdout).hexdigest()}
    ok = run.run_job(good, digests)
    assert ok.error is None
    assert run.failed_frac([[ok]]) == 0
    corrupted = run.run_job(good, {good.name: "0" * 64})
    assert corrupted.error.startswith("stdout sha256")
    invalid = run.run_job(_roots("Z"), digests)
    assert invalid.error == "exit code 2"
    assert run.failed_frac([[ok, corrupted], [invalid]]) == pytest.approx(2 / 3)


def test_timeout_counts_as_failed():
    result = run.run_job(_roots("A"), {}, timeout=0.001)
    assert result.error.startswith("timeout")
    assert run.run_job(_roots("A"), {}, timeout=0).error.startswith("not started")


def test_traced_job_keeps_its_output_and_reports_spans():
    job = workloads.build("cone-ladder", 0)[6]
    assert "--boundary" in job.args
    digests = json.loads((run.HERE / "digests.json").read_text())
    result = run.run_job(job, digests, traced=True)
    assert result.error is None
    assert result.trace["spans"]["cli.main"][0] == 1
    assert result.trace["spans"]["stability.boundary_2d"][0] == 1
    profile = run.pass_profile([result])
    m = run.layer_metrics(profile)
    assert m["cli.stdout_bytes"][0] == result.stdout_bytes
    assert 0.9 <= m["trace.coverage"][0] <= 1.0


def test_king_and_equivalence_checks():
    king = workloads.build("verdict-scan", 0)[4]
    h = [int(x) for x in king.args[-1].split(",")]
    good = {"polarization": h, "semistable": True, "stable": True,
            "cone_verdict": "STABLE"}
    assert workloads.check(king, 0, json.dumps(good).encode(), {}) is None
    for wrong in ({"stable": False}, {"cone_verdict": "UNSTABLE"},
                  {"polarization": h[::-1] + [1]}):
        bad = json.dumps(dict(good, **wrong)).encode()
        assert workloads.check(king, 0, bad, {}) is not None
    eq = workloads.build("verdict-scan", 0)[-1]
    points = eq.args[-1].count(";") + 1
    entries = [[[1], True, True, "STABLE"]] * points
    ok = json.dumps({"entries": entries, "disagreements": []}).encode()
    assert workloads.check(eq, 0, ok, {}) is None
    bad = json.dumps({"entries": entries, "disagreements": [entries[0]]}).encode()
    assert workloads.check(eq, 0, bad, {}) is not None
    assert workloads.check(eq, 0, b"not json", {}) is not None


def test_seed_fixes_the_drawn_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 3) == workloads.build(name, 3)
    assert workloads.build("verdict-scan", 3) != workloads.build("verdict-scan", 4)
    assert workloads.build("cone-ladder", 3) == workloads.build("cone-ladder", 4)
    digests = json.loads((run.HERE / "digests.json").read_text())
    fixed = {j.name for n in workloads.WORKLOADS for j in workloads.build(n, 0)
             if j.check == "digest"}
    assert fixed == set(digests)
