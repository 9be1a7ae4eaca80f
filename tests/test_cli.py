import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flagquiver import (
    REDUCED,
    borel,
    boundary_2d,
    build_parabolic,
    build_root_system,
    cli,
    closed_subsets,
    degree_cone,
    stability_cone,
    tangent_rep,
)

from cone_oracle import cone_json, cone_membership
from quiver_oracle import induced_quiver, structure_constant


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_roots_json_a3(capsys):
    code, out, _ = run_cli(capsys, ["roots", "--series", "A", "--rank", "3"])
    assert code == 0
    data = json.loads(out)
    assert len(data["positive_roots"]) == 6
    assert data["cartan_matrix"] == [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]


def test_roots_e8_count(capsys):
    code, out, _ = run_cli(capsys, ["roots", "--series", "E", "--rank", "8"])
    assert code == 0
    assert len(json.loads(out)["positive_roots"]) == 120


def test_non_ade_is_invalid_input(capsys):
    code, out, err = run_cli(capsys, ["roots", "--series", "B", "--rank", "2"])
    assert code == 2
    assert "error" in err


def _cone_golden_inputs():
    """``cone`` on every parabolic of A2-A4 and D4 (some, such as D4{1},
    have an empty cone), and the two-marked ``--boundary`` cases that
    have a closed-form boundary."""
    for series, rank in (("A", 2), ("A", 3), ("A", 4), ("D", 4)):
        marks = range(1, rank + 1)
        for size in marks:
            for sigma in itertools.combinations(marks, size):
                yield ["cone", "--series", series, "--rank", str(rank),
                       "--parabolic", ",".join(map(str, sigma))]
    for rank, sigma in ((2, "1,2"), (3, "1,3"), (4, "1,4")):
        yield ["cone", "--series", "A", "--rank", str(rank), "--parabolic", sigma,
               "--boundary"]


def test_json_outputs_round_trip_and_are_deterministic(capsys, tmp_path):
    target = tmp_path / "cone.json"
    for args in _cone_golden_inputs():
        code1, out1, _ = run_cli(capsys, args)
        code2, out2, _ = run_cli(capsys, args)
        assert code1 == code2 == 0, args
        assert out1 == out2, args
        assert json.dumps(json.loads(out1), indent=2) + "\n" == out1, args
        assert run_cli(capsys, args + ["--out", str(target)]) == (0, "", "")
        assert target.read_bytes() == out1.encode(), args
    empty = ["cone", "--series", "D", "--rank", "4", "--parabolic", "1"]
    assert run_cli(capsys, empty)[1] == '{\n  "inequalities": []\n}\n'


def _marked_sets(rank, most):
    marks = range(1, rank + 1)
    return [s for n in range(1, most + 1) for s in itertools.combinations(marks, n)]


# every parabolic of A1-A5 and D4 (D4{1} has the empty cone), those of D5
# with up to 3 marks, and five of E6
_ORACLE_CASES = [("A", rank, _marked_sets(rank, rank)) for rank in range(1, 6)] + [
    ("D", 4, _marked_sets(4, 4)),
    ("D", 5, _marked_sets(5, 3)),
    ("E", 6, [(1,), (2,), (1, 6), (1, 2), (3, 5)]),
]


def _cone_args(series, rank, sigma, *extra):
    return ["cone", "--series", series, "--rank", str(rank),
            "--parabolic", ",".join(map(str, sigma)), *extra]


@pytest.mark.parametrize("series,rank,sigmas", _ORACLE_CASES,
                         ids=[f"{s}{r}" for s, r, _ in _ORACLE_CASES])
def test_cone_json_is_the_stdlib_encoding_of_the_oracle(capsys, series, rank, sigmas):
    system = build_root_system(series, rank)
    for sigma in sigmas:
        data = cone_json(stability_cone(build_parabolic(system, sigma)))
        expected = json.dumps(data, indent=2) + "\n"
        assert run_cli(capsys, _cone_args(series, rank, sigma)) == (0, expected, ""), sigma


def test_cone_boundary_json_and_out_file_are_the_oracle(capsys, tmp_path):
    for rank, sigma in ((2, (1, 2)), (3, (1, 3)), (4, (1, 4))):
        inequalities = stability_cone(build_parabolic(build_root_system("A", rank), sigma))
        data = cone_json(inequalities, boundary_2d(inequalities))
        expected = json.dumps(data, indent=2) + "\n"
        args = _cone_args("A", rank, sigma, "--boundary")
        assert run_cli(capsys, args) == (0, expected, ""), sigma
    target = tmp_path / "cone.json"
    p = borel(build_root_system("A", 4))
    expected = json.dumps(cone_json(stability_cone(p)), indent=2) + "\n"
    args = _cone_args("A", 4, (1, 2, 3, 4), "--out", str(target))
    assert run_cli(capsys, args) == (0, "", "")
    assert target.read_bytes() == expected.encode()


_json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200).map(lambda n: -n)
    | st.integers(min_value=2**64, max_value=2**200)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, float("inf"), -float("inf"), float("nan")])
    | st.text()
    | st.sampled_from(['"', "\\", "\x00\x1f\n\t\x7f", "\u00e9\u2603\U0001f600", "a\"b\\c"])
)
_json_trees = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(st.text(max_size=8), inner, max_size=5),
    max_leaves=30,
)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_json_trees)
def test_json_emitter_matches_stdlib_indent_encoder(tree):
    assert cli._dumps(tree) == json.dumps(tree, indent=2) + "\n"


@pytest.mark.parametrize("bad", [{1, 2}, Fraction(1, 3), [1, {2}], {"x": Fraction(1)}])
def test_json_emitter_refuses_what_json_cannot_write(bad):
    with pytest.raises(TypeError):
        cli._dumps(bad)


def cli_env():
    """The environment for running this package's ``flagquiver.cli`` as a child."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_closed_stdout_ends_the_output_quietly():
    env = cli_env()
    # the output (about 200 kB) is larger than a pipe holds, so the writer
    # is still writing when the reader goes
    proc = subprocess.Popen(
        [sys.executable, "-m", "flagquiver.cli", "cone", "--series", "A",
         "--rank", "4", "--parabolic", "borel"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.read(16) == b'{\n  "inequalitie'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""


def test_simplicity_borel(capsys):
    code, out, _ = run_cli(
        capsys,
        ["simplicity", "--series", "D", "--rank", "4", "--parabolic", "1"],
    )
    assert code == 0
    assert "SIMPLE" in out


def test_simplicity_all_parabolics_a3(capsys):
    code, out, _ = run_cli(
        capsys,
        ["simplicity", "--series", "A", "--rank", "3", "--parabolic", "all",
         "--output", "json"],
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 7
    assert all(row["verdict"] == "SIMPLE" for row in rows)


def test_simplicity_all_is_capped_by_its_count(capsys):
    # rank 7 lists 127 parabolics and rank 8 the cap, 255
    code, out, _ = run_cli(
        capsys,
        ["simplicity", "--series", "A", "--rank", "7", "--parabolic", "all",
         "--output", "json"],
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 127
    assert all(row["verdict"] == "SIMPLE" for row in rows)
    assert cli.ALL_PARABOLICS_MAX == 2**8 - 1
    code, out, err = run_cli(
        capsys, ["simplicity", "--series", "A", "--rank", "9", "--parabolic", "all"]
    )
    assert (code, out) == (4, "")
    assert err == "error: 'all' lists 511 parabolics, over the cap of 255\n"


def test_simplicity_regression_exit_code(capsys, monkeypatch):
    from flagquiver.tangentrep import SimplicityReport

    def fake_report(p):
        zero = p.system.weight((0,) * p.system.ambient_dim)
        return SimplicityReport(True, 2, 2, frozenset({zero}), "INCONCLUSIVE")

    monkeypatch.setattr(cli, "simplicity_report", fake_report)
    code, out, _ = run_cli(
        capsys, ["simplicity", "--series", "A", "--rank", "2", "--parabolic", "borel"]
    )
    assert code == 3


def test_quiver_dot_output(capsys):
    code, out, _ = run_cli(
        capsys,
        ["quiver", "--series", "A", "--rank", "3", "--parabolic", "borel",
         "--mode", "reduced", "--output", "dot"],
    )
    assert code == 0
    assert out.count("label=") == 12
    assert out.count("->") == 6


def test_quiver_json_levi_level(capsys):
    code, out, _ = run_cli(
        capsys,
        ["quiver", "--series", "A", "--rank", "3", "--parabolic", "1,3",
         "--level", "levi", "--output", "json"],
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 3
    assert len(data["arrows"]) == 2
    assert all(set(v) == {"weight2", "fundamental", "dim"} for v in data["vertices"])


def test_quiver_levi_level_rejects_reduced_mode(capsys):
    base = ["quiver", "--series", "A", "--rank", "3", "--parabolic", "2",
            "--level", "levi"]
    code, out, err = run_cli(capsys, base + ["--mode", "reduced"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err
    # the Levi quiver keeps its one mode, so an explicit full is accepted
    assert run_cli(capsys, base + ["--mode", "full"])[:2] == run_cli(capsys, base)[:2]


def test_intersections_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        ["intersections", "--series", "A", "--rank", "3", "--parabolic", "borel"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "e1,e2,e3,value"
    rows = {tuple(line.split(",")[:3]): int(line.split(",")[3]) for line in lines[1:]}
    assert rows[("1", "4", "1")] == 2
    assert rows[("3", "2", "1")] == 1
    assert len(rows) == 8


def test_cone_grid_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        ["cone", "--series", "A", "--rank", "3", "--parabolic", "borel",
         "--grid", "8"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a1,a2,a3,verdict"
    assert len(lines) == 1 + 8**3
    verdicts = {line.rsplit(",", 1)[1] for line in lines[1:]}
    assert "STABLE" in verdicts and "UNSTABLE" in verdicts


def test_cone_section_csv(capsys):
    # cross-section of the SL4/B cone cut by a fixed-sum plane
    code, out, _ = run_cli(
        capsys,
        ["cone", "--series", "A", "--rank", "3", "--parabolic", "borel",
         "--section", "18"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a1,a2,a3,verdict"
    rows = [line.split(",") for line in lines[1:]]
    assert all(int(r[0]) + int(r[1]) + int(r[2]) == 18 for r in rows)
    assert len(rows) == 17 * 16 // 2  # positive integer points on the slice
    verdicts = {r[3] for r in rows}
    assert "STABLE" in verdicts and "UNSTABLE" in verdicts
    assert ["6", "6", "6", "STABLE"] in rows


# every parabolic of A1-A4 and D4: k = 1 cones, and sections that are
# header-only (N < k), a single line (N = k) and several lines
_SAMPLE_CASES = [(s, r, sigma) for s, r in (("A", 1), ("A", 2), ("A", 3), ("A", 4),
                                            ("D", 4)) for sigma in _marked_sets(r, r)]


@pytest.mark.parametrize("series,rank,sigma", _SAMPLE_CASES,
                         ids=[f"{s}{r}-{''.join(map(str, g))}" for s, r, g in _SAMPLE_CASES])
def test_sampled_csv_is_the_pointwise_oracle(capsys, series, rank, sigma):
    # each point decided by evaluating every expanded cone polynomial, and
    # written one point at a time
    cone = stability_cone(build_parabolic(build_root_system(series, rank), sigma))
    k = len(sigma)
    header = ",".join(f"a{i}" for i in sigma) + ",verdict"
    samples = [("--grid", n) for n in (1, 2, 4)]
    samples += [("--section", n) for n in range(1, k + 4)]
    for flag, n in samples:
        if flag == "--grid":
            points = itertools.product(range(1, n + 1), repeat=k)
        else:
            points = (tuple(b - a for a, b in zip((0,) + c, c + (n,)))
                      for c in itertools.combinations(range(1, n), k - 1))
        lines = [header] + [
            ",".join(str(x) for x in h) + "," + cone_membership(cone, h) for h in points
        ]
        argv = _cone_args(series, rank, sigma, flag, str(n))
        assert run_cli(capsys, argv) == (0, "\n".join(lines) + "\n", ""), (flag, n)


def test_cone_boundary_matches_closed_form(capsys):
    code, out, _ = run_cli(
        capsys,
        ["cone", "--series", "A", "--rank", "4", "--parabolic", "1,4",
         "--boundary"],
    )
    assert code == 0
    data = json.loads(out)
    lower = data["boundary"]["lower"]
    # (-4 + 4*sqrt(77)) / 38, reduced by the common factor 2
    assert (lower["p"], lower["q"], lower["r"], lower["s"]) == (-2, 2, 77, 19)
    assert not data["boundary"]["rational_endpoint"]


def test_budget_exit_code(capsys):
    # |W/W_P| is checked by formula before anything is expanded, so these
    # exit at once; expanding E7/B or E8/B would not finish
    for command in ("cone", "intersections"):
        for rank in (7, 8):
            start = time.perf_counter()
            code, out, err = run_cli(
                capsys,
                [command, "--series", "E", "--rank", str(rank), "--parabolic", "borel"],
            )
            assert code == 4
            assert out == ""
            assert "exceeds the budget" in err
            assert time.perf_counter() - start < 30
    # king expands nothing and counts closed subsets instead: E7/B and E8/B
    # have 4 158 and 25 078, within the default budget
    for rank in (7, 8):
        code, out, _ = run_cli(
            capsys,
            ["king", "--series", "E", "--rank", str(rank), "--parabolic", "borel",
             "--polarization", ",".join(["1"] * rank)],
        )
        assert code == 0
        data = json.loads(out)
        assert data["stable"] is True and data["cone_verdict"] == "STABLE"
    # A24/B has about 4.9 * 10^12 closed subsets and D24/B more: the walk
    # refuses once it has counted past the budget.  A child process with a
    # timeout, so that a walk which does not stop cannot hang the suite
    for series in ("A", "D"):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "flagquiver.cli", "king", "--series", series,
             "--rank", "24", "--parabolic", "borel", "--polarization", ",".join(["1"] * 24)],
            capture_output=True, env=cli_env(), timeout=30,
        )
        assert proc.returncode == 4
        assert proc.stdout == b""
        assert b"exceeds the budget" in proc.stderr
        assert time.perf_counter() - start < 30


def test_sample_over_the_budget_exits_before_any_work():
    # 100000^3 points are counted, never listed; a child process with a
    # timeout, so that a run which starts on them cannot hang the suite
    proc = subprocess.run(
        [sys.executable, "-m", "flagquiver.cli", "cone", "--series", "A",
         "--rank", "3", "--parabolic", "borel", "--grid", "100000"],
        capture_output=True, env=cli_env(), timeout=10,
    )
    assert proc.returncode == 4
    assert proc.stdout == b""
    assert b"exceeds the budget" in proc.stderr


@pytest.mark.parametrize(
    "sample,count", [("--grid 3", 27), ("--section 9", 28), ("--section 1500", 1122751)]
)
def test_sample_size_is_checked_against_the_budget(capsys, sample, count):
    # the grid has N^k points and the section comb(N - 1, k - 1)
    argv = ["cone", "--series", "A", "--rank", "3", "--parabolic", "borel"]
    argv += sample.split()
    code, out, err = run_cli(capsys, argv + ["--budget", str(count - 1)])
    assert (code, out) == (4, "")
    assert f"a sample of {count} points exceeds the budget" in err
    if count < 100:
        code, out, _ = run_cli(capsys, argv + ["--budget", str(count)])
        assert code == 0
        assert len(out.splitlines()) == count + 1


@pytest.mark.parametrize(
    "polarization", [",".join(["0"] + ["1"] * 23), ",".join(["1"] * 23)],
    ids=["non-ample", "wrong-arity"],
)
def test_king_refuses_bad_input_before_the_budget(capsys, polarization):
    # A24/B is over the budget, but a wrong arity or a non-ample class is
    # refused first, before the walk counts any closed subset
    code, out, err = run_cli(
        capsys,
        ["king", "--series", "A", "--rank", "24", "--parabolic", "borel",
         "--polarization", polarization],
    )
    assert (code, out) == (2, "")
    assert "budget" not in err


def test_king_budget_is_checked_against_the_closed_subset_count(capsys):
    # A3/B has 12 closed subsets; the walk refuses once it counts past the budget
    rep = tangent_rep(borel(build_root_system("A", 3))).levi_rep
    assert len(closed_subsets(rep)) == 12
    argv = ["king", "--series", "A", "--rank", "3", "--parabolic", "borel",
            "--polarization", "1,1,1"]
    code, out, err = run_cli(capsys, argv + ["--budget", "11"])
    assert (code, out) == (4, "")
    assert "the closed-subset count exceeds the budget 11" in err
    code, out, _ = run_cli(capsys, argv + ["--budget", "12"])
    assert code == 0
    assert json.loads(out)["cone_verdict"] == "STABLE"


def test_king_unstable_with_witness(capsys):
    code, out, _ = run_cli(
        capsys,
        ["king", "--series", "A", "--rank", "2", "--parabolic", "1,2",
         "--polarization", "1,10"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["semistable"] is False
    assert data["stable"] is False
    assert data["witness"] is not None
    assert data["cone_verdict"] == "UNSTABLE"


def test_king_stable_interior(capsys):
    code, out, _ = run_cli(
        capsys,
        ["king", "--series", "A", "--rank", "2", "--parabolic", "1,2",
         "--polarization", "2,2", "--output", "text"],
    )
    assert code == 0
    assert out.startswith("stable")


def test_king_e7_borel_is_stable_at_the_anticanonical_ray(capsys):
    # (1, ..., 1) is proportional to -K on a Borel, so both verdicts are
    # STABLE; q(h) comes from the factored volume, so nothing is expanded
    code, out, _ = run_cli(
        capsys,
        ["king", "--series", "E", "--rank", "7", "--parabolic", "borel",
         "--polarization", "1,1,1,1,1,1,1"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["semistable"] is True and data["stable"] is True
    assert data["witness"] is None
    assert data["cone_verdict"] == "STABLE"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "roots.json"
    code, out, _ = run_cli(
        capsys,
        ["roots", "--series", "A", "--rank", "2", "--out", str(target)],
    )
    assert code == 0
    assert out == ""
    assert len(json.loads(target.read_text())["positive_roots"]) == 3


def test_invalid_polarization_arity(capsys):
    code, _, err = run_cli(
        capsys,
        ["king", "--series", "A", "--rank", "2", "--parabolic", "1,2",
         "--polarization", "1,2,3"],
    )
    assert code == 2


@pytest.mark.parametrize("target", ["missing/dir/roots.json", "."])
def test_unwritable_out_is_invalid_input(tmp_path, capsys, target):
    code, out, err = run_cli(
        capsys,
        ["roots", "--series", "A", "--rank", "2", "--out", str(tmp_path / target)],
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "series,rank,parabolic", [("A", 3, "borel"), ("E", 6, "borel"), ("A", 1, "borel"),
                              ("A", 3, "2")],
)
def test_boundary_is_refused_by_arity_before_any_expansion(
    capsys, monkeypatch, series, rank, parabolic
):
    def refuse(*args, **kwargs):
        raise AssertionError("the cone was computed")

    monkeypatch.setattr(cli, "stability_cone", refuse)
    monkeypatch.setattr(cli, "_cone_inequalities", refuse)
    code, out, err = run_cli(
        capsys,
        ["cone", "--series", series, "--rank", str(rank), "--parabolic", parabolic,
         "--boundary", "--budget", "1"],
    )
    assert (code, out) == (2, "")
    assert err == "error: boundary_2d needs exactly two parameters\n"


@pytest.mark.parametrize("target", ["missing/dir/cone.json", "."])
def test_unwritable_out_is_refused_before_the_computation(
    tmp_path, capsys, monkeypatch, target
):
    def refuse(*args, **kwargs):
        raise AssertionError("the cone was computed")

    monkeypatch.setattr(cli, "stability_cone", refuse)
    monkeypatch.setattr(cli, "_cone_inequalities", refuse)
    code, out, err = run_cli(
        capsys,
        ["cone", "--series", "A", "--rank", "3", "--parabolic", "borel",
         "--out", str(tmp_path / target)],
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "command,series,rank,first,second,extra",
    [
        ("cone", "A", "4", "4,1", "1,4", ["--grid", "3"]),
        ("intersections", "A", "3", "3,2", "2,3", []),
        ("simplicity", "A", "3", "1,1", "1", []),
    ],
)
def test_parabolic_index_order_does_not_change_output(
    capsys, command, series, rank, first, second, extra
):
    outputs = []
    for parabolic in (first, second):
        code, out, _ = run_cli(
            capsys,
            [command, "--series", series, "--rank", rank, "--parabolic", parabolic]
            + extra,
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("series,rank", [("A", 3), ("D", 4), ("D", 5), ("E", 6)])
def test_reduced_quiver_json_is_the_reduced_induced_quiver(capsys, series, rank):
    code, out, _ = run_cli(
        capsys,
        ["quiver", "--series", series, "--rank", str(rank), "--parabolic", "borel",
         "--mode", "reduced", "--output", "json"],
    )
    assert code == 0
    b = borel(build_root_system(series, rank))
    q = induced_quiver(b, b.tangent_weights, REDUCED)
    data = json.loads(out)
    assert [v["weight2"] for v in data["vertices"]] == [
        list(w.coords2) for w in q.vertices
    ]
    assert data["arrows"] == [
        {
            "src": a.src,
            "dst": a.dst,
            "label2": list(a.label.coords2),
            "scalar": structure_constant(a.label, q.vertices[a.src]),
        }
        for a in q.arrows
    ]


@pytest.mark.parametrize(
    "extra",
    [
        "--rank 3 --parabolic borel --grid -2".split(),
        "--rank 3 --parabolic borel --section -3".split(),
        "--rank 3 --parabolic borel --grid 3 --section 6".split(),
        "--rank 3 --parabolic borel --section 6 --grid -1".split(),
        # two parameters, so --boundary on its own would succeed
        "--rank 2 --parabolic 1,2 --boundary --grid 2".split(),
        "--rank 2 --parabolic 1,2 --section 5 --boundary".split(),
    ],
)
def test_cone_rejects_negative_or_combined_sampling(capsys, extra):
    code, out, err = run_cli(capsys, ["cone", "--series", "A"] + extra)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        "cone --series A --rank 2 --parabolic 1,2 --output csv",
        "king --series A --rank 2 --parabolic 1,2 --polarization 1,1 --output dot",
        "intersections --series A --rank 3 --parabolic borel --output dot",
        "simplicity --series A --rank 3 --parabolic borel --output csv",
    ],
)
def test_unimplemented_output_is_invalid_input(capsys, argv):
    code, out, err = run_cli(capsys, argv.split())
    assert code == 2
    assert out == ""
    assert "invalid choice" in err
    assert "Traceback" not in err


# Runs the command given as its arguments in a grandchild and prints the
# sha256 of its stdout and its ru_maxrss.  A child's ru_maxrss starts from
# the peak of the process it was started from, so this small process, not
# the test runner, is the one that starts it.
_PEAK_RSS_CHILD = """
import hashlib, os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE)
digest = hashlib.sha256()
for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
    digest.update(chunk)
_, status, usage = os.wait4(proc.pid, 0)
print(digest.hexdigest(), os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kilobytes on Linux")
def test_sample_is_written_line_by_line_in_bounded_memory():
    # 10^6 points: a run that held every CSV line would peak near 128 MB
    argv = [sys.executable, "-m", "flagquiver.cli", "cone", "--series", "A",
            "--rank", "4", "--parabolic", "1,4", "--grid", "1000"]
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_CHILD, *argv],
                          capture_output=True, env=cli_env(), timeout=120, check=True)
    digest, code, peak_kb = proc.stdout.split()
    assert int(code) == 0
    assert digest == b"abb16de1c1682ea90805ee3173e83ede648ce8f7298a85f37e107907b24bf0c8"
    assert int(peak_kb) < 48 * 1024


def test_one_line_grid_is_written_in_bounded_memory():
    # A1/B --grid 200000 is a single line of 200 000 points: rendering every
    # point's text and joining the line whole peaked at 20 MB
    cone = degree_cone(borel(build_root_system("A", 1)))
    digest = hashlib.sha256()
    tracemalloc.start()
    try:
        for chunk in cli._sample_csv(cone, 1, 200000, 0):
            digest.update(chunk.encode())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected = "".join(f"{j},STABLE\n" for j in range(1, 200001)).encode()
    assert digest.hexdigest() == hashlib.sha256(expected).hexdigest()
    assert peak < 4 << 20


@pytest.mark.parametrize("extra", [[], ["--grid", "2"], ["--grid", "3"]])
def test_over_budget_cone_leaves_stdout_and_out_file_untouched(capsys, tmp_path, extra):
    # |W/W_P| = 24 for A3/B: the cone is refused by its budget check, and
    # the 27-point grid by its point count, before anything is written
    target = tmp_path / "cone.out"
    argv = ["cone", "--series", "A", "--rank", "3", "--parabolic", "borel",
            "--budget", "10", "--out", str(target), *extra]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (4, "")
    assert "exceeds the budget" in err
    assert not target.exists()


def test_interrupted_sample_leaves_the_old_out_file(capsys, tmp_path, monkeypatch):
    # the grid's verdicts are computed while it is written; an interrupt
    # after the first line must not leave a truncated file
    target = tmp_path / "cone.csv"
    target.write_text("old\n")
    os.chmod(target, 0o640)
    argv = ["cone", "--series", "A", "--rank", "3", "--parabolic", "borel",
            "--grid", "3", "--out", str(target)]
    sample_lines = cli.sample_lines

    def interrupted(*args):
        lines = sample_lines(*args)
        yield next(lines)
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "sample_lines", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli.main(argv)
    assert target.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["cone.csv"]
    monkeypatch.setattr(cli, "sample_lines", sample_lines)
    assert run_cli(capsys, argv) == (0, "", "")
    expected = run_cli(capsys, argv[:-2])[1]
    assert target.read_text() == expected
    assert os.stat(target).st_mode & 0o777 == 0o640
    assert os.listdir(tmp_path) == ["cone.csv"]


@pytest.mark.parametrize(
    "argv",
    [
        "cone --series A --rank 3 --parabolic borel --grid 3",
        "cone --series A --rank 3 --parabolic borel --section 6",
        "king --series A --rank 3 --parabolic borel --polarization 1,2,3",
    ],
)
def test_pointwise_verdicts_build_no_symbolic_cone(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("the symbolic cone was built")

    monkeypatch.setattr(cli, "stability_cone", refuse)
    code, out, _ = run_cli(capsys, argv.split())
    assert code == 0
    assert "STABLE" in out


def test_grid_zero_is_off(capsys):
    args = ["cone", "--series", "A", "--rank", "2", "--parabolic", "1,2"]
    code, plain, _ = run_cli(capsys, args)
    assert code == 0
    code, off, _ = run_cli(capsys, args + ["--grid", "0", "--section", "0"])
    assert code == 0
    assert off == plain
    assert "inequalities" in json.loads(off)


@pytest.mark.parametrize(
    "extra",
    [
        "--grid 2 --output json".split(),
        "--section 6 --output json".split(),
        "--output csv".split(),
        "--boundary --output csv".split(),
    ],
)
def test_cone_output_must_match_what_is_written(capsys, extra):
    argv = "cone --series A --rank 2 --parabolic 1,2".split() + extra
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "extra,fmt",
    [([], "json"), (["--grid", "3"], "csv"), (["--section", "6"], "csv")],
)
def test_cone_default_output_is_the_written_format(capsys, extra, fmt):
    argv = "cone --series A --rank 2 --parabolic 1,2".split() + extra
    code, default, _ = run_cli(capsys, argv)
    assert code == 0
    code, explicit, _ = run_cli(capsys, argv + ["--output", fmt])
    assert code == 0
    assert explicit == default


def test_rank_ceiling_is_invalid_input(capsys):
    for rank in (cli.MAX_RANK + 1, 10**40):
        code, out, err = run_cli(capsys, ["roots", "--series", "A", "--rank", str(rank)])
        assert (code, out) == (2, "")
        assert err == f"error: --rank is capped at {cli.MAX_RANK}\n"
    code, out, _ = run_cli(capsys, ["roots", "--series", "D", "--rank", str(cli.MAX_RANK),
                                    "--output", "csv"])
    assert code == 0 and out.count("\n") == 1 + cli.MAX_RANK**2


# Pools for the argv fuzz: each option's (valid, awkward) values.  Valid
# ranks stay at 4 or below, so every example runs in a fraction of a second.
_FUZZ_VALUES = {
    "--series": (["A", "D"], ["E", "B", ""]),
    "--rank": (["4", "3", "2", "1"], ["-3", "0", "25", str(10**9), str(10**40), "x"]),
    "--parabolic": (["borel", "1", "2,1", "1,3"], ["all", "0", "-1", "9", "1,,2", "x"]),
    "--polarization": (["1,2", "1", "1,2,3", "3,1,2,4"], ["0,1", "-1,2", "x", ""]),
    "--output": (["json", "csv", "text", "dot"], ["bogus"]),
    "--budget": (["1000000", "10"], ["0", "-1"]),
    "--grid": (["2"], ["0", "-1"]),
    "--section": (["4", "1"], ["0", "-1"]),
    "--boundary": ([None], []),
    "--mode": (["full", "reduced"], ["odd"]),
    "--level": (["borel", "levi"], []),
    "--out": ([], [os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "no-such-directory", "out.json")]),
}
_FUZZ_COMMANDS = {
    "roots": (),
    "simplicity": ("--parabolic",),
    "quiver": ("--parabolic", "--mode", "--level"),
    "intersections": ("--parabolic",),
    "cone": ("--parabolic", "--grid", "--section", "--boundary"),
    "king": ("--parabolic", "--polarization"),
}
_FUZZ_NEEDED = ("--series", "--rank", "--parabolic", "--polarization")


@st.composite
def _fuzz_argv(draw):
    command = draw(st.sampled_from(list(_FUZZ_COMMANDS)))
    argv = [command]
    options = ("--series", "--rank") + _FUZZ_COMMANDS[command] + ("--output", "--budget")
    # now and then one more option, which the command may not take
    options += draw(st.sampled_from([()] * 2 + [(o,) for o in _FUZZ_VALUES]))
    for option in options:
        odds = 15 if option in _FUZZ_NEEDED else 2
        if draw(st.sampled_from([True] * odds + [False] * 2)):
            valid, awkward = _FUZZ_VALUES[option]
            if not awkward or valid and draw(st.sampled_from([True] * 4 + [False])):
                value = draw(st.sampled_from(valid))
            else:
                value = draw(st.sampled_from(awkward))
            argv += [option] if value is None else [option, value]
    return argv


def _fuzz_example(command, rank, parabolic, *extra):
    return example([command, "--series", "A", "--rank", rank, "--parabolic", parabolic,
                    *extra])


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_fuzz_argv())
@_fuzz_example("cone", "3", "borel", "--budget", "0")
@_fuzz_example("cone", "3", "borel", "--grid", "-1")
@_fuzz_example("cone", "2", "1,2", "--boundary", "--out", _FUZZ_VALUES["--out"][1][0])
@_fuzz_example("king", "2", "1,2", "--polarization", "0,1")
@_fuzz_example("king", "2", "1,2", "--polarization", "2,1")
@_fuzz_example("quiver", "-1", "borel")
@_fuzz_example("simplicity", str(10**40), "all")
def test_any_argv_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3, 4), argv
    assert "Traceback" not in err.getvalue(), argv
    if code in (2, 4):
        assert out.getvalue() == "", argv
