from __future__ import annotations

import json

import pytest

from edgereg.cli import main
from edgereg.graphs import cycle_graph, emit_graph6, enumerate_graphs, path_graph


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
    from edgereg import suites

    def no_sweep(specs):
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
                                   ["--n", "0"], ["--n", "-3"]])
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


@pytest.mark.parametrize("content", [
    None, "!!\n", '{"n": 2.9, "edges": [[0, 1]]}\n', '{"n": true, "edges": []}\n',
    '{"n": "3", "edges": []}\n', '{"n": 3, "edges": [[true, 2]]}\n',
], ids=["missing-file", "bad-line", "float-n", "bool-n", "string-n", "bool-endpoint"])
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


@pytest.mark.parametrize("monomial", ["*", "x0^-1", "x0*x2"],
                         ids=["not-a-monomial", "negative-exponent",
                              "in-the-ideal-of-second-graph"])
def test_ideal_rejects_bad_colon_as_usage_error(monomial, tmp_path, capsys):
    path = tmp_path / "in.g6"
    # x0*x2 lies in the ideal of the triangle only: nothing may be printed for the path
    path.write_text(emit_graph6(path_graph(5)) + "\n" + emit_graph6(cycle_graph(3)) + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["ideal", str(path), "--colon", monomial])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    last = captured.err.splitlines()[-1]
    assert last.startswith(f"edgereg ideal: error: --colon {monomial}: ")
