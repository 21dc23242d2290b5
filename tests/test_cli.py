from __future__ import annotations

import json
import time

import pytest

import oracles
from builders import cycle_graph, path_graph
from edgereg import homology, invariants, suites
from edgereg.cli import main
from edgereg.graphs import emit_graph6, enumerate_graphs


def _lines(capsys):
    return [l for l in capsys.readouterr().out.splitlines() if l]


def test_invariants_command(tmp_path, capsys):
    path = tmp_path / "in.g6"
    path.write_text(emit_graph6(cycle_graph(5)) + "\n")
    assert main(["invariants", str(path)]) == 0
    rec = json.loads(_lines(capsys)[0])
    assert rec["n"] == 5 and rec["beta"] == 2 and rec["nu"] == 1
    assert rec["gap_free"] and not rec["chordal"]


def test_invariants_accepts_json_lines(tmp_path, capsys):
    path = tmp_path / "in.jsonl"
    path.write_text(json.dumps({"n": 2, "edges": [[0, 1]]}) + "\n")
    assert main(["invariants", str(path)]) == 0
    rec = json.loads(_lines(capsys)[0])
    assert rec["beta"] == 1


def test_invariants_past_a_budget_is_a_usage_error(tmp_path, capsys, monkeypatch, fresh_memo):
    # C7's links are P4s, whose edge ideal has 6 lcm-lattice points; K2's
    # record is computed but not printed, since no record is printed before
    # all are
    monkeypatch.setattr(homology, "LATTICE_BUDGET", 2)
    path = tmp_path / "in.g6"
    path.write_text("A_\nFhCKG\n")
    with pytest.raises(SystemExit) as exc:
        main(["invariants", str(path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.splitlines()[-1] == (
        "edgereg invariants: error: lcm lattice budget 2 exceeded (graph FhCKG)")


def test_mutated_co_chordal_is_a_locally_linear_violation(tmp_path, capsys, monkeypatch,
                                                         fresh_memo):
    # Froberg's theorem is checked at every non-isolated vertex of the sweep:
    # a co-chordal test that never holds gives one replayable record per
    # vertex whose link has an edge, and the run still ends with its report
    out = tmp_path / "report.json"
    argv = ["verify", "--suite", "locally-linear", "--n", "5", "--out", str(out)]
    assert main(argv) == 0
    monkeypatch.setattr(invariants, "is_co_chordal", oracles.mutant(
        invariants.is_co_chordal, "return is_chordal(complement(g))", "return False"))
    suites.clear_all_caches()
    assert main(argv) == 1
    assert "Traceback" not in capsys.readouterr().err
    [report] = json.loads(out.read_text())
    assert report["violations_total"] == 61
    assert report["violations"][0] == {
        "graph6": "CQ", "s": None, "lhs": 2, "rhs": False,
        "context": "reg (I : x) <= 2 iff G - N[x] is edgeless or co-chordal fails at x=0"}
    assert all(v["s"] is None and v["lhs"] == 2 and v["rhs"] is False
               for v in report["violations"])


def test_ideal_power_pipeline(tmp_path, capsys):
    path = tmp_path / "in.g6"
    path.write_text("A_\n")
    assert main(["ideal", str(path), "--power", "2"]) == 0
    out = json.loads(_lines(capsys)[0])
    assert out == {"vars": ["x0", "x1"], "gens": [[2, 2]]}


def test_ideal_colon_and_polarize(tmp_path, capsys):
    path = tmp_path / "in.g6"
    path.write_text(emit_graph6(path_graph(5)) + "\n")
    assert main(["ideal", str(path), "--power", "2", "--colon", "x1*x2",
                 "--polarize"]) == 0
    out = json.loads(_lines(capsys)[0])
    assert all(sum(row) == 2 for row in out["gens"])


def test_ideal_symbolic_square(tmp_path, capsys):
    path = tmp_path / "k3.g6"
    path.write_text("Bw\n")  # the triangle
    assert main(["ideal", str(path), "--symbolic-square"]) == 0
    out = json.loads(_lines(capsys)[0])
    assert [1, 1, 1] in out["gens"]


def test_reg_command_with_oracle(tmp_path, capsys):
    path = tmp_path / "in.g6"
    path.write_text(emit_graph6(cycle_graph(4)) + "\n")
    assert main(["reg", str(path), "--oracle"]) == 0
    out = json.loads(_lines(capsys)[0])
    assert out["reg"] == 2
    assert out["oracle_agrees"] is True
    assert [0, 2, 4] in out["betti"]


def test_reg_char_zero(tmp_path, capsys):
    path = tmp_path / "in.g6"
    path.write_text(emit_graph6(cycle_graph(5)) + "\n")
    assert main(["reg", str(path), "--char", "0", "--power", "2"]) == 0
    assert json.loads(_lines(capsys)[0])["reg"] == 4


def test_colon_graph_command(tmp_path, capsys):
    path = tmp_path / "in.g6"
    path.write_text(emit_graph6(path_graph(5)) + "\n")
    assert main(["colon-graph", str(path), "--edges", "1-2"]) == 0
    out = json.loads(_lines(capsys)[0])
    assert out["new_pairs"] == [{"u": 0, "v": 3, "path": [0, 1, 2, 3],
                                 "assignments": [[1, [1, 2]]]}]


def test_colon_graph_reads_edges_in_any_order_and_orientation(tmp_path, capsys):
    path = tmp_path / "in.g6"
    path.write_text("Bw\n")  # the triangle
    assert main(["colon-graph", str(path), "--edges", "0-1,1-2,1-2"]) == 0
    expected = capsys.readouterr().out
    assert main(["colon-graph", str(path), "--edges", "2-1,1-2,0-1"]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("colon, same", [("x2*x1*x1", "x1^2*x2"), ("x0^20", "x0^15")],
                         ids=["repeated-variable", "past-the-lane-cap"])
def test_ideal_colon_reads_exponents_not_text(colon, same, tmp_path, capsys):
    path = tmp_path / "in.g6"
    path.write_text("Dhc\nBw\n")
    assert main(["ideal", str(path), "--power", "3", "--colon", same]) == 0
    expected = capsys.readouterr().out
    assert main(["ideal", str(path), "--power", "3", "--colon", colon]) == 0
    assert capsys.readouterr().out == expected


def test_verify_command(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code = main(["verify", "--suite", "matching-bound", "--n", "4", "--s", "1",
                 "--out", str(out_file)])
    assert code == 0
    lines = _lines(capsys)
    assert lines[0].split("\t") == ["suite", "graphs", "violations", "wall_time", "pass"]
    assert lines[1].startswith("matching-bound\t18\t0")  # every graph with 1..4 vertices
    reports = json.loads(out_file.read_text())
    assert reports[0]["pass"] is True


def test_verify_all_runs_every_theorem_suite(capsys):
    from edgereg.suites import THEOREM_SUITES
    code = main(["verify", "--n", "3", "--s", "1"])
    assert code == 0
    assert len(_lines(capsys)) == 1 + len(THEOREM_SUITES)


def test_verify_accepts_graphs_file(tmp_path, capsys):
    path = tmp_path / "graphs.g6"
    path.write_text("\n".join(emit_graph6(g) for g in enumerate_graphs(4)) + "\n")
    code = main(["verify", "--suite", "lower-bound", "--graphs", str(path), "--s", "1"])
    assert code == 0
    assert _lines(capsys)[1].startswith("lower-bound\t11\t0")


@pytest.mark.parametrize("content", [None, "!!\n", ""],
                         ids=["missing-file", "bad-line", "empty"])
def test_verify_rejects_unreadable_graphs_file_as_usage_error(content, tmp_path, capsys):
    path = tmp_path / "graphs.g6"
    if content is not None:
        path.write_text(content)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "lower-bound", "--graphs", str(path), "--s", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.splitlines()[-1].startswith("edgereg verify: error: --graphs ")


def test_verify_rejects_unwritable_out_as_usage_error(tmp_path, capsys, monkeypatch):
    def no_sweep(spec):
        raise AssertionError("the sweep ran before --out was checked")

    monkeypatch.setattr(suites, "run", no_sweep)
    out_file = tmp_path / "missing" / "report.json"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "lower-bound", "--n", "3", "--out", str(out_file)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.splitlines()[-1].startswith(f"edgereg verify: error: --out {out_file}: ")


@pytest.mark.parametrize("flags", [["--s", "4"], ["--n", "9"], ["--char", "6"],
                                   ["--suite", "nope"], ["--jobs", "0"], ["--jobs", "-3"],
                                   ["--n", "0"], ["--n", "-3"], ["--char", str(2 ** 61 - 1)]])
def test_verify_rejects_invalid_flags_as_usage_errors(flags, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("edgereg verify: error: ")


@pytest.mark.parametrize("argv", [["ideal", "--power", "0"], ["ideal", "--power", "-3"],
                                  ["reg", "--power", "0"], ["reg", "--char", "4"],
                                  ["ideal", "--power", "16"], ["reg", "--power", "16"],
                                  ["ideal", "--symbolic-square", "--power", "8"]])
def test_ideal_and_reg_reject_invalid_flags_as_usage_errors(argv, tmp_path, capsys):
    path = tmp_path / "in.g6"
    path.write_text(emit_graph6(cycle_graph(4)) + "\n")
    with pytest.raises(SystemExit) as exc:
        main([*argv, str(path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.splitlines()[-1].startswith(f"edgereg {argv[0]}: error: ")


@pytest.mark.parametrize("argv, graph6", [(["ideal", "--power", "16"], "A_"),
                                          (["reg", "--power", "16"], "A_"),
                                          (["ideal", "--symbolic-square", "--power", "8"], "Bw")],
                         ids=["ideal", "reg", "symbolic-square"])
def test_power_overflow_names_the_graph(argv, graph6, tmp_path, capsys):
    path = tmp_path / "in.g6"
    # the edgeless first graph has every power: nothing may be printed for it
    path.write_text(f"@\n{graph6}\n")
    with pytest.raises(SystemExit) as exc:
        main([*argv, str(path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    last = captured.err.splitlines()[-1]
    assert last.startswith(f"edgereg {argv[0]}: error: --power {argv[-1]}: ")
    assert last.endswith(f"(graph {graph6})")


def test_reg_rejects_edgeless_graph_as_usage_error(tmp_path, capsys):
    path = tmp_path / "in.g6"
    # a graph with an edge first: nothing may be printed for it
    path.write_text("A_\n@\n")
    with pytest.raises(SystemExit) as exc:
        main(["reg", str(path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    last = captured.err.splitlines()[-1]
    assert last.startswith("edgereg reg: error: ") and last.endswith("(graph @)")


def test_reg_oracle_past_its_budget_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "in.g6"
    # I(K6)^4 polarizes to 24 variables, past the oracle's variable budget;
    # the graph before it must print nothing
    path.write_text("A_\nE~~w\n")
    with pytest.raises(SystemExit) as exc:
        main(["reg", str(path), "--power", "4", "--oracle"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    last = captured.err.splitlines()[-1]
    assert last.startswith("edgereg reg: error: --oracle: variable budget ")
    assert last.endswith("(graph E~~w)")


def test_reg_past_the_lattice_budget_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "in.g6"
    # C11^3 has more than 200,000 lcm-lattice points; the graph before it
    # must print nothing
    path.write_text(f"A_\n{emit_graph6(cycle_graph(11))}\n")
    with pytest.raises(SystemExit) as exc:
        main(["reg", str(path), "--power", "3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    last = captured.err.splitlines()[-1]
    assert last.startswith("edgereg reg: error: --power 3: lcm lattice budget ")
    assert last.endswith(f"(graph {emit_graph6(cycle_graph(11))})")


def test_reg_reads_the_lattice_budget_when_called(tmp_path, capsys, monkeypatch):
    # C5's lcm lattice has 16 points
    monkeypatch.setattr(homology, "LATTICE_BUDGET", 15)
    path = tmp_path / "in.g6"
    path.write_text(emit_graph6(cycle_graph(5)) + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["reg", str(path)])
    assert exc.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("edgereg reg: error: --power 1: lcm lattice budget 15 exceeded")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_past_a_budget_exits_3_naming_suite_and_graph(jobs, tmp_path, capsys,
                                                             monkeypatch, fresh_memo):
    # C5's lcm lattice has 16 points; the edgeless graph gives a second worker its share
    monkeypatch.setattr(homology, "LATTICE_BUDGET", 15)
    monkeypatch.setenv(suites.CACHE_ENV_VAR, str(tmp_path))
    cache = tmp_path / suites.CACHE_FILE
    cache.write_text("[]")
    out_file = tmp_path / "report.json"
    out_file.write_text("[]\n")
    missing = tmp_path / "new-report.json"
    path = tmp_path / "in.g6"
    c5 = emit_graph6(cycle_graph(5))
    path.write_text(f"@\n{c5}\n")
    for out in (out_file, missing):
        code = main(["verify", "--suite", "lower-bound", "--graphs", str(path), "--s", "1",
                     "--jobs", jobs, "--out", str(out)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        [line] = captured.err.splitlines()
        assert line.startswith(
            f"edgereg verify: error: lower-bound on {c5}: lcm lattice budget 15 ")
    # an old report stays as it was, and no new one is left behind, not even empty
    assert out_file.read_text() == "[]\n" and cache.read_text() == "[]"
    assert not missing.exists()


@pytest.mark.parametrize("char", [100000000000031, 2 ** 61 - 1], ids=["1e14+31", "2^61-1"])
def test_reg_rejects_a_characteristic_past_2_to_the_31_at_once(char, tmp_path, capsys):
    # both are prime: trial division up to their square roots took seconds to minutes
    path = tmp_path / "in.g6"
    path.write_text("A_\n")
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["reg", str(path), "--char", str(char)])
    assert time.perf_counter() - start < 1
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.splitlines()[-1] == (
        f"edgereg reg: error: characteristic must be 0 or a prime below 2^31, got {char}")


def test_reg_accepts_the_largest_characteristic(tmp_path, capsys):
    path = tmp_path / "in.g6"
    path.write_text("A_\n")
    assert main(["reg", str(path), "--char", str(2 ** 31 - 1)]) == 0
    assert json.loads(_lines(capsys)[0])["field"] == 2 ** 31 - 1


@pytest.mark.parametrize("content", [
    None, "!!\n", '{"n": 2.9, "edges": [[0, 1]]}\n', '{"n": true, "edges": []}\n',
    '{"n": "3", "edges": []}\n', '{"n": 3, "edges": [[true, 2]]}\n', '{"n": 63, "edges": []}\n',
], ids=["missing-file", "bad-line", "float-n", "bool-n", "string-n", "bool-endpoint",
        "n-past-62"])
@pytest.mark.parametrize("argv", [["invariants"], ["ideal"], ["reg"],
                                  ["colon-graph", "--edges", "0-1"]],
                         ids=["invariants", "ideal", "reg", "colon-graph"])
def test_unreadable_input_is_a_usage_error(argv, content, tmp_path, capsys):
    path = tmp_path / "in.g6"
    if content is not None:
        # a good first line: nothing may be printed before the bad one is read
        path.write_text(emit_graph6(path_graph(2)) + "\n" + content)
    with pytest.raises(SystemExit) as exc:
        main([*argv, str(path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.splitlines()[-1].startswith(f"edgereg {argv[0]}: error: {path}: ")


@pytest.mark.parametrize("spec", ["0-x", "", "1-1", "3-4"],
                         ids=["not-a-number", "empty", "loop", "missing-from-second-graph"])
def test_colon_graph_rejects_bad_edge_spec_as_usage_error(spec, tmp_path, capsys):
    path = tmp_path / "in.g6"
    # 3-4 is an edge of the first graph only: nothing may be printed for it
    path.write_text(emit_graph6(path_graph(5)) + "\n" + emit_graph6(path_graph(2)) + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["colon-graph", str(path), "--edges", spec])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    last = captured.err.splitlines()[-1]
    assert last.startswith(f"edgereg colon-graph: error: --edges {spec}: ")


@pytest.mark.parametrize("monomial", ["*", "x0^-1", "x0^", "x0*x2", "x0 ^2", "y", "x4"],
                         ids=["not-a-monomial", "negative-exponent", "caret-without-exponent",
                              "in-the-ideal-of-second-graph", "space-before-caret",
                              "outside-the-universe", "outside-the-universe-of-second-graph"])
def test_ideal_rejects_bad_colon_as_usage_error(monomial, tmp_path, capsys):
    path = tmp_path / "in.g6"
    # x0*x2 lies in the ideal of the triangle only, and x4 lies outside its
    # universe only: nothing may be printed for the path
    path.write_text(emit_graph6(path_graph(5)) + "\n" + emit_graph6(cycle_graph(3)) + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["ideal", str(path), "--colon", monomial])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    last = captured.err.splitlines()[-1]
    assert last.startswith(f"edgereg ideal: error: --colon {monomial}: ")
