"""flagquiver benchmark runner.

    python3 perfbench/run.py --workload cone-ladder --seed 1 --seconds 40 --trace 0

Runs the workload's job list from the root of a source checkout, one job
at a time, each in a fresh interpreter with ``src`` on PYTHONPATH, and
checks every job's output.  Job lists repeat (closed loop, one client)
until ``--seconds`` is spent; a job's time is its best pass, set-up
time the median of its spawns.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced passes and reports
the per-layer metrics of the traced ones (see spans.py).  ``--workload
all`` runs every workload once after the other.  The full report,
with nproc, Python version, commit and seed, goes to
``.bench_results/`` in the checkout.  README.md lists the metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import workloads
from child import TRACE_MARKER
from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"

JOB_TIMEOUT_S = 60.0
# Passes stop being started so the run ends well inside 180 s.
RUN_DEADLINE_S = 150.0
# Set-up is sampled before every pass, so that its median spans the run
# rather than one stretch of machine load.
SETUP_SPAWNS_PER_PASS = 4

# Spans reported as <name>.s (self time) and <name>.calls.
SPAN_METRICS = (
    "rootsys.build_root_system",
    "parabolic.build_parabolic",
    "parabolic.levi_components",
    "quiver.induced_quiver",
    "quiver.verify_flatness",
    "quiver.to_dot",
    "tangentrep.tangent_rep",
    "tangentrep.hom_dimension",
    "tangentrep.closed_subsets",
    "schubert.intersection_polynomial",
    "schubert.intersection_number",
    "schubert.multiply_by_divisors",
    "schubert.chevalley_multiply",
    "stability.stability_cone",
    "stability.cone_membership",
    "polynomials.evaluate",
    "stability.sigma_from_polarization",
    "stability.is_sigma_semistable",
    "stability.boundary_2d",
    "stability.equivalence_check",
)


class JobResult(NamedTuple):
    name: str
    wall_s: float
    error: str | None          # None when the output checked
    stdout_bytes: int
    trace: dict | None         # the child's span report on a traced run


def child_env():
    """Children import ``src`` and keep its bytecode, as an installed CLI does."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def command(job, traced):
    if traced:
        return [sys.executable, str(HERE / "child.py"), "--trace", job.kind, *job.args]
    if job.kind == "cli":
        return [sys.executable, "-m", "flagquiver.cli", *job.args]
    return [sys.executable, str(HERE / "child.py"), "lib", *job.args]


def spawn(cmd, timeout):
    """Run ``cmd`` to its exit; return (seconds, exit code or None on timeout, stdout, stderr).

    The wait blocks in waitpid and a timer thread kills the child at the
    timeout: ``subprocess.run(timeout=...)`` polls with sleeps of up to
    50 ms instead, which would round every time up to its next poll.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), cwd=ROOT)
    expired = threading.Event()

    def kill():
        expired.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        out, err = proc.communicate()
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    return wall, None if expired.is_set() else proc.returncode, out, err


def run_job(job, digests, traced=False, timeout=JOB_TIMEOUT_S):
    """Run one job to completion (or timeout) and check its output."""
    if timeout <= 0:
        return JobResult(job.name, 0.0, "not started: run deadline", 0, None)
    wall, code, out, err = spawn(command(job, traced), timeout)
    if code is None:
        return JobResult(job.name, wall, f"timeout after {timeout:.1f} s", 0, None)
    error = workloads.check(job, code, out, digests)
    report = None
    if traced:
        lines = err.decode(errors="replace").splitlines()
        if lines and lines[-1].startswith(TRACE_MARKER):
            report = json.loads(lines[-1][len(TRACE_MARKER):])
        elif error is None:
            error = "traced job left no span report"
    return JobResult(job.name, wall, error, len(out), report)


def run_pass(jobs, digests, traced, deadline):
    out = []
    for job in jobs:
        timeout = min(JOB_TIMEOUT_S, deadline - time.perf_counter())
        out.append(run_job(job, digests, traced, timeout))
    return out


def setup_times(n):
    """Interpreter start plus ``import flagquiver.cli``, one spawn each."""
    cmd = [sys.executable, "-c", "import flagquiver.cli"]
    times = []
    for _ in range(n):
        wall, code, _, err = spawn(cmd, JOB_TIMEOUT_S)
        if code != 0:
            raise RuntimeError(f"import flagquiver.cli failed: {err.decode(errors='replace')}")
        times.append(wall)
    return times


def failed_frac(passes):
    results = [r for p in passes for r in p]
    return sum(r.error is not None for r in results) / len(results)


def end_to_end(passes, setup, peak_rss_kb):
    """Each job's best pass, then summed (wall_s) or maxed (slowest_job_s).

    Other tenants of a shared host only ever add time to a job, in bursts
    of seconds, so a job's fastest pass is its steadiest estimate.
    """
    per_job = [min(runs) for runs in zip(*([r.wall_s for r in p] for p in passes))]
    return {
        "wall_s": (sum(per_job), "s"),
        "slowest_job_s": (max(per_job), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }


def pass_profile(results):
    """Sum the child span reports of one traced pass."""
    prof = {"spans": {}, "counts": {}, "import_s": 0.0, "run_s": 0.0,
            "stdout_bytes": 0, "wall_s": sum(r.wall_s for r in results)}
    for r in results:
        if r.trace is None:
            continue
        prof["import_s"] += r.trace["import_s"]
        prof["run_s"] += r.trace["run_s"]
        for name, (calls, self_s, total_s) in r.trace["spans"].items():
            row = prof["spans"].setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += self_s
            row[2] += total_s
        for name, n in r.trace["counts"].items():
            prof["counts"][name] = prof["counts"].get(name, 0) + n
        if "cli.main" in r.trace["spans"]:
            prof["stdout_bytes"] += r.stdout_bytes
    return prof


def layer_metrics(prof):
    """Per-layer metrics of one traced pass; values are (number, unit)."""
    spans, counts = prof["spans"], prof["counts"]
    m = {}
    for name in SPAN_METRICS:
        calls, self_s, _ = spans.get(name, (0, 0.0, 0.0))
        m[name + ".s"] = (self_s, "s")
        m[name + ".calls"] = (calls, "count")
    for layer in LAYERS:
        m[layer + ".self_s"] = (sum(row[1] for name, row in spans.items()
                                    if name.startswith(layer + ".")), "s")
    for name in ("tangentrep.closed_subsets.sets", "stability.inequalities"):
        m[name] = (counts.get(name, 0), "count")
    numbers = spans.get("schubert.intersection_number", (0,))[0]
    chains = spans.get("schubert.multiply_by_divisors", (0,))[0]
    m["schubert.intersection_cache_hit_ratio"] = (
        1 - chains / numbers if numbers else 0.0, "ratio")
    m["cli.self_s"] = (spans.get("cli.main", (0, 0.0))[1], "s")
    m["cli.stdout_bytes"] = (prof["stdout_bytes"], "bytes")
    m["trace.wall_s"] = (prof["wall_s"], "s")
    m["trace.run_s"] = (prof["run_s"], "s")
    m["trace.import_s"] = (prof["import_s"], "s")
    covered = sum(m[layer + ".self_s"][0] for layer in LAYERS) + m["cli.self_s"][0]
    m["trace.coverage"] = (covered / prof["run_s"], "ratio")
    return m


def median_metrics(per_pass):
    """Median of each metric over passes (counts repeat exactly)."""
    return {name: (statistics.median(p[name][0] for p in per_pass), unit)
            for name, (_, unit) in per_pass[0].items()}


def environment(seed):
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                capture_output=True, text=True).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": commit, "src_sha256": src.hexdigest(), "seed": seed}


def measure(workload, seed, seconds, traced, digests):
    """Run ``workload`` for about ``seconds``; return (metrics, passes, report).

    The passes are every pass run, traced or not, so that every checked
    job counts in ``attempted`` and ``failed``.
    """
    jobs = workloads.build(workload, seed)
    deadline = time.perf_counter() + RUN_DEADLINE_S
    setup_times(1)  # byte-compiles src on a fresh checkout
    start = time.perf_counter()
    setup, plain, traced_passes = [], [], []
    while True:
        t0 = time.perf_counter()
        setup += setup_times(SETUP_SPAWNS_PER_PASS)
        plain.append(run_pass(jobs, digests, False, deadline))
        if traced:
            traced_passes.append(run_pass(jobs, digests, True, deadline))
        now = time.perf_counter()
        print(f"# pass {len(plain)}: {now - t0:.3f} s", flush=True)
        if now - start + (now - t0) > seconds or now + (now - t0) > deadline:
            break
    report = {"setup_s": setup}
    if not traced:
        peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return end_to_end(plain, setup, peak_rss_kb), plain, report
    profiles = [pass_profile(p) for p in traced_passes]
    layers = median_metrics([layer_metrics(p) for p in profiles])
    plain_wall = statistics.median(sum(r.wall_s for r in p) for p in plain)
    layers["trace.overhead_s"] = (layers["trace.wall_s"][0] - plain_wall, "s")
    report["traced_passes"] = profiles
    return layers, plain + traced_passes, report


def print_arithmetic(m):
    """Show how the traced time splits into layer self times."""
    run = m["trace.run_s"][0]
    parts = [(layer, m[layer + ".self_s"][0]) for layer in LAYERS]
    parts.append(("cli.self_s", m["cli.self_s"][0]))
    print(f"# in-process run_s {run:.3f} s = "
          + " + ".join(f"{k} {v:.3f}" for k, v in parts)
          + f" + untraced {run - sum(v for _, v in parts):.3f}"
          + f"  (layers + cli.self_s cover {100 * m['trace.coverage'][0]:.1f} %)")
    wall, imp = m["trace.wall_s"][0], m["trace.import_s"][0]
    print(f"# traced wall_s {wall:.3f} s = run_s {run:.3f} + import {imp:.3f}"
          f" + interpreter start/exit {wall - run - imp:.3f};"
          f" tracing overhead vs untraced passes {m['trace.overhead_s'][0]:+.3f} s")


def run_all(args):
    """Each workload in its own runner process, so RSS peaks stay apart."""
    metrics, attempted, failed = {}, 0, 0
    for name in sorted(workloads.WORKLOADS):
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return metrics, attempted, failed


def run_one(args):
    env = environment(args.seed)
    print("# env " + json.dumps(env))
    digests = json.loads((HERE / "digests.json").read_text())
    m, passes, report = measure(args.workload, args.seed, args.seconds,
                                bool(args.trace), digests)
    jobs = [r for p in passes for r in p]
    failed = sum(r.error is not None for r in jobs)
    for r in jobs:
        if r.error is not None:
            print(f"# FAILED {r.name}: {r.error}")
    print(f"# {args.workload}: {len(passes)} passes of {len(passes[0])} jobs,"
          f" failed_frac {failed_frac(passes):.4g}")
    for metric, (value, unit) in m.items():
        print(f"{args.workload:18} {metric:42} {value:<16.10g} {unit}")
    if args.trace:
        print_arithmetic(m)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({
        "env": env, "args": vars(args), "metrics": {k: v for k, (v, _) in m.items()},
        "jobs": [[r.name, r.wall_s, r.error] for r in jobs], **report}, indent=1))
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, len(jobs), failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "flagquiver" / "cli.py").is_file():
        print(f"error: no flagquiver sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        metrics, attempted, failed = run_all(args)
    else:
        metrics, attempted, failed = run_one(args)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
