import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from gamebounds import cli, gamegraph, games, independence, sdp
from gamebounds.cli import CATALOG, build_report, main
from gamebounds.gameio import load_game, serialize_game
from gamebounds.games import chsh, parallel_repetition
from gamebounds.gamegraph import build_game_graph, parse_dimacs
from gamebounds.independence import classical_value
from gamebounds.quantum import (QuantumIndependentSet, qis_from_vertex_set,
                                qis_to_dict, winning_probability)

from quantum_fixtures import strategy_from_dict


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_chsh_text(capsys):
    code, out, _ = run_cli(capsys, "analyze", "chsh")
    assert code == 0
    assert "alpha: 3" in out
    assert "omega_classical: 0.75 (= 3/4)" in out
    assert "theta: 3.414213" in out
    assert "0.853553" in out
    assert "bell gap certified (theta/k > omega): true" in out


def _validate_against_schema(report):
    jsonschema = pytest.importorskip("jsonschema")
    import importlib.resources as resources
    schema = json.loads(resources.files("gamebounds")
                        .joinpath("report_schema.json").read_text())
    jsonschema.validate(report, schema)


def test_analyze_chsh_json_schema(capsys):
    code, out, _ = run_cli(capsys, "analyze", "chsh", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["alpha"]["value"] == 3
    assert report["omega_exact"] == "3/4"
    assert report["theta"]["converged"] is True
    assert abs(report["theta_over_k"] - 0.8535533905932737) < 1e-4
    assert abs(report["xor_value"] - 0.8535533905932737) < 1e-6
    _validate_against_schema(report)


def test_analyze_timings(capsys):
    code, out, _ = run_cli(capsys, "analyze", "chsh", "--json", "--timings")
    assert code == 0
    report = json.loads(out)
    assert set(report["timings"]) == {"build_graph", "alpha", "theta",
                                      "xor_value"}
    _validate_against_schema(report)
    del report["timings"]
    _, plain, _ = run_cli(capsys, "analyze", "chsh", "--json")
    assert report == json.loads(plain)


def test_text_report_ends_with_the_timings(capsys):
    code, out, _ = run_cli(capsys, "analyze", "chsh", "--timings")
    assert code == 0
    stages = [line.split(":")[0] for line in out.splitlines()[-4:]]
    assert stages == ["time build_graph", "time alpha", "time theta",
                      "time xor_value"]


def test_text_report_warns_of_a_solver_failure(capsys, monkeypatch):
    # a bound below omega can only come from a faulty solver
    def below_omega(gg, tol, witness):
        return dataclasses.replace(sdp._game_graph_bound(gg, tol, witness),
                                   bound=0.5)

    monkeypatch.setattr(cli, "_game_graph_bound", below_omega)
    code, out, _ = run_cli(capsys, "analyze", "chsh")
    assert code == 0
    assert "WARNING: solver failure: omega exceeds theta/k\n" in out


def test_analyze_reports_are_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "analyze", "chsh", "--json")
    _, out2, _ = run_cli(capsys, "analyze", "chsh", "--json")
    assert out1 == out2
    _, text1, _ = run_cli(capsys, "analyze", "magic-square")
    _, text2, _ = run_cli(capsys, "analyze", "magic-square")
    assert text1 == text2


def test_analyze_rep2(capsys):
    code, out, _ = run_cli(capsys, "analyze", "chsh", "--rep", "2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["graph"]["num_vertices"] == 64
    assert report["alpha"]["value"] == 10
    assert report["omega_classical"] == 0.625
    assert report["theta_over_k"] > 0.72855


@pytest.mark.parametrize("game,tol", [("isg-c5-t2", "0.5"),
                                      ("chsh", "1000")])
def test_loose_tol_prints_an_upper_bound(capsys, game, tol):
    # theta_over_k is the certified dual bound over k, an upper bound on the
    # entangled value at any tolerance, so it never falls below omega
    code, out, _ = run_cli(capsys, "analyze", game, "--tol", tol, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["theta_over_k"] == (report["theta"]["dual_bound"]
                                      / report["k"])
    assert report["theta_over_k"] >= report["omega_classical"]
    assert report["solver_failure"] is False


def _unforced_weighted_game():
    """A weighted-pipeline game of 8 vertices with omega = weighted theta =
    7/8 that the forced rule leaves to the solver: its question-pair
    cliques' heaviest vertices weigh T = 1 in all."""
    lam = np.array([[[[1, 1], [0, 0]], [[1, 0], [1, 1]]],
                    [[[1, 0], [0, 0]], [[0, 1], [1, 0]]]], dtype=float)
    return games.Game("unforced-weighted", 2, 2, 2, 2, lam,
                      np.array([[1, 2], [1, 4]]) / 8)


@pytest.mark.parametrize("steps", [1, 2, 3])
def test_unconverged_theta_certifies_no_bell_gap(tmp_path, capsys,
                                                 monkeypatch, steps):
    # weighted theta = omega = 7/8 on a game that the weighted pipeline
    # solves.  A few interior-point steps leave the upper end of the bracket
    # above omega + 10 * tol; the gap flag reads the lower end, the
    # objective of a feasible primal matrix, so it stays false
    path = tmp_path / "unforced.json"
    path.write_text(serialize_game(_unforced_weighted_game()))
    monkeypatch.setattr(sdp, "MAX_ITERATIONS", steps)
    code, out, _ = run_cli(capsys, "analyze", str(path), "--json")
    assert code == 2
    report = json.loads(out)
    assert report["theta"]["converged"] is False
    assert report["theta_over_k"] > report["omega_classical"] + 1e-3
    assert report["bell_gap_certificate"] is False
    assert report["solver_failure"] is False


@pytest.mark.parametrize("argv", [
    ["chsh"], ["isg-c5-t2"], ["isg-c5-t3"], ["magic-square"],
    ["magic-square", "--weighted"], ["chsh", "--rep", "2"]],
    ids=["chsh", "isg-c5-t2", "isg-c5-t3", "magic-square",
         "magic-square-weighted", "chsh-rep2"])
def test_catalog_theta_takes_interior_point_steps(capsys, argv):
    # the interior-point solver closes each bracket on the class-indexed
    # program in well under 25 Newton steps.  isg-c5-t2's classical witness
    # meets all of its question pairs, which forces theta with no step
    code, out, _ = run_cli(capsys, "analyze", *argv, "--json")
    assert code == 0
    theta = json.loads(out)["theta"]
    assert theta["converged"] is True
    forced = argv == ["isg-c5-t2"]
    assert (theta["iterations"] == 0) == forced
    assert theta["iterations"] < 25


def _no_sdp(*args):
    raise AssertionError("an SDP was solved")


@pytest.mark.parametrize("game", [
    games.xor_game(np.zeros((2, 2), int)),
    games.xor_game(np.zeros((3, 3), int)),
    games.xor_game(np.zeros((2, 2), int),
                   np.array([[0.5, 0.25], [0.125, 0.125]]))],
    ids=["2x2", "3x3", "2x2-weighted"])
def test_certain_xor_game_is_forced_without_an_sdp(monkeypatch, game):
    # f = 0 is won with certainty by a = b, so theta = k (the total weight 1
    # on the weighted pipeline) and the XOR value 1 need no solve, and the
    # XOR value no longer falls below omega
    monkeypatch.setattr(sdp, "_ipm_sdp", _no_sdp)
    report, _ = build_report(game, sdp.DEFAULT_TOL, False, False)
    assert report["omega_exact"] == (None if report["weighted_pipeline"]
                                     else "1/1")
    assert (report["xor_value"] == report["omega_classical"]
            == report["theta_over_k"] == 1.0)
    assert report["theta"]["iterations"] == 0
    _validate_against_schema(json.loads(cli._to_json(report)))


def test_xor_value_is_solved_unless_the_bound_meets_omega():
    # omega* = omega = 13/14 here, but theta is solved and its certified
    # bound lies above omega by the solver's gap, which leaves the sandwich
    # open: the XOR value is the SDP's
    g = games.xor_game(np.array([[1, 1, 0], [0, 1, 1]]),
                       np.array([[2, 2, 2], [3, 1, 4]]) / 14)
    report, _ = build_report(g, sdp.DEFAULT_TOL, False, False)
    assert report["theta"]["iterations"] > 0
    assert 0.0 < report["theta_over_k"] - report["omega_classical"] < 1e-6
    assert report["xor_value"] == sdp.xor_tsirelson_value(g)


def test_forced_game_that_is_not_xor_has_no_xor_value(monkeypatch):
    monkeypatch.setattr(sdp, "_ipm_sdp", _no_sdp)
    report, _ = build_report(CATALOG["isg-c5-t2"](), sdp.DEFAULT_TOL, False,
                             False)
    assert report["omega_exact"] == "1/1" and report["xor_value"] is None


def test_unstructured_game_won_with_certainty_takes_no_theta_step():
    # the (4, 4, 4, 4), p = 0.6 game of default_rng(11): 160 vertices, one
    # constraint per edge (m = 4,349), 12 interior-point steps when solved
    lam = np.random.default_rng(11).random((4, 4, 4, 4)) < 0.6
    g = games.Game("random", 4, 4, 4, 4, lam.astype(float),
                   games.uniform_distribution(4, 4))
    report, gg = build_report(g, sdp.DEFAULT_TOL, False, False)
    assert gg.n == 160
    assert report["theta"] == {"value": 16.0, "dual_bound": 16.0, "gap": 0.0,
                               "iterations": 0, "converged": True}


@pytest.mark.parametrize("argv, digest", [
    (["chsh"], "9caa95be44bbfcc5"),
    (["isg-c5-t2"], "34a7d8984f100af6"),
    (["isg-c5-t3"], "0adbd97fae0b8d5d"),
    (["magic-square"], "1ba2346abbabc126"),
    (["magic-square", "--weighted"], "c949064d97f1a380"),
    (["chsh", "--rep", "2"], "f51c4f919d349d9d"),
    (["chsh", "--weighted"], "2de67e2b574df23a"),
    (["isg-c5-t2", "--weighted"], "9bb1ef50c7c620fe"),
    (["isg-c5-t3", "--weighted"], "c3d3e7c117c21d10")],
    ids=["chsh", "isg-c5-t2", "isg-c5-t3", "magic-square",
         "magic-square-weighted", "chsh-rep2", "chsh-weighted",
         "isg-c5-t2-weighted", "isg-c5-t3-weighted"])
def test_catalog_reports_are_pinned(capsys, argv, digest):
    # the sha256 prefix of each catalog report: a change that moves any
    # printed bit has to re-pin it and list what moved
    code, out, _ = run_cli(capsys, "analyze", *argv, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest



def test_dsl_document_report_is_pinned(tmp_path, capsys):
    # the report on a predicate expression with "xor", "or", "and" and "%"
    path = tmp_path / "dsl.json"
    path.write_text(json.dumps(
        {"name": "dsl-pinned", "nx": 3, "ny": 3, "na": 2, "nb": 2,
         "predicate": {"dsl": "(a xor b) == x * y % 2 or x == y and a == b"},
         "distribution": "uniform"}))
    code, out, _ = run_cli(capsys, "analyze", str(path), "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "c29bf4e066c78eda"


_MAGIC_SQUARE_WITNESS = [(0, 0, 0, 0), (0, 1, 0, 0), (0, 2, 0, 0), (1, 0, 0, 0),
                         (1, 1, 0, 0), (1, 2, 0, 0), (2, 0, 1, 0), (2, 2, 1, 0)]


@pytest.mark.parametrize("name, rep, weighted, nodes, witness", [
    ("chsh", 1, False, 2, [(0, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0)]),
    ("isg-c5-t2", 1, False, 2,
     [(0, 0, 0, 0), (0, 1, 0, 2), (1, 0, 2, 0), (1, 1, 2, 2)]),
    ("isg-c5-t3", 1, False, 17,
     [(0, 0, 0, 0), (0, 2, 0, 2), (1, 1, 0, 0), (1, 2, 0, 2), (2, 0, 2, 0),
      (2, 1, 2, 0), (2, 2, 2, 2)]),
    ("magic-square", 1, False, 21, _MAGIC_SQUARE_WITNESS),
    ("chsh", 2, False, 18,
     [(0, 0, 0, 0), (0, 1, 0, 0), (0, 2, 0, 0), (1, 0, 0, 0), (1, 2, 0, 0),
      (2, 0, 0, 0), (2, 1, 0, 0), (2, 3, 0, 2), (3, 1, 1, 0), (3, 3, 1, 2)]),
    ("magic-square", 1, True, 21, _MAGIC_SQUARE_WITNESS),
    ("chsh", 1, True, 2, [(0, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0)])],
    ids=["chsh", "isg-c5-t2", "isg-c5-t3", "magic-square", "chsh-rep2",
         "magic-square-weighted", "chsh-weighted"])
def test_alpha_search_is_pinned(name, rep, weighted, nodes, witness):
    # analyze prints the node count and the witness, so the game search
    # must keep its search tree and tie-breaks node for node
    g = CATALOG[name]()
    if rep > 1:
        g = parallel_repetition(g, rep)
    report, _ = build_report(g, 1e-7, weighted, False)
    assert report["alpha"]["nodes_explored"] == nodes
    assert [tuple(w["quadruple"]) for w in report["alpha"]["witness"]] == witness


def test_one_parser_per_process():
    assert cli.make_parser() is cli.make_parser()


def test_parser_keeps_no_state_between_calls(tmp_path, capsys):
    # the shared parser gives each call its own defaults: verify-qis's
    # tolerance and analyze's --weighted do not leak into a later analyze
    path = tmp_path / "qis.json"
    path.write_text(json.dumps(qis_to_dict(
        qis_from_vertex_set(build_game_graph(chsh()), [0]))))
    assert run_cli(capsys, "analyze", "chsh", "--weighted", "--json")[0] == 0
    assert run_cli(capsys, "verify-qis", "chsh", str(path))[0] == 0
    assert cli.make_parser().parse_args(
        ["verify-qis", "chsh", str(path)]).tol == 1e-9
    code, out, _ = run_cli(capsys, "analyze", "chsh", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "9caa95be44bbfcc5"


def test_analyze_weighted_flag(capsys):
    code, out, _ = run_cli(capsys, "analyze", "chsh", "--weighted", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["weighted_pipeline"] is True
    assert abs(report["theta_over_k"] - 0.8535533905932737) < 1e-4


def test_theta_bound_of_a_tiny_objective_stays_above_the_classical_value(
        tmp_path, capsys):
    # a 1 x 2 XOR game that wins only on the question pair of weight 1e-100:
    # the theta dual end once cancelled to 0, below omega_classical, and the
    # XOR midpoint fell below it too.  Its witness meets the one question
    # pair, so both are now forced to omega
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({
        "name": "tiny", "nx": 1, "ny": 2, "na": 2, "nb": 2,
        "predicate": {"winning": [[0, 1, 0, 0], [0, 1, 1, 1]]},
        "distribution": [1.0, 1e-100]}))
    code, out, _ = run_cli(capsys, "analyze", str(path), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["omega_classical"] == 1e-100
    assert report["theta"]["dual_bound"] >= report["omega_classical"]
    assert report["theta_over_k"] >= report["omega_classical"]
    assert report["xor_value"] == report["omega_classical"]


def test_analyze_file_and_parse_error(tmp_path, capsys):
    path = tmp_path / "game.json"
    path.write_text('{"name": "broken"')
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 1
    assert "error" in err
    code, _, err = run_cli(capsys, "analyze", str(tmp_path / "missing.json"))
    assert code == 1


def test_analyze_export_graph(tmp_path, capsys):
    # only the weighted pipeline's sidecar carries vertex weights
    for flags, weight in (([], None), (["--weighted"], 0.25)):
        out_path = tmp_path / "graph.dimacs"
        code, _, _ = run_cli(capsys, "analyze", "chsh", *flags,
                             "--export-graph", str(out_path))
        assert code == 0
        graph = parse_dimacs(out_path.read_text())
        assert graph.n == 8 and graph.num_edges == 12
        sidecar = json.loads((tmp_path / "graph.dimacs.json").read_text())
        assert sidecar["num_vertices"] == 8
        assert sidecar["vertices"][0]["quadruple"] == [0, 0, 0, 0]
        assert sidecar["vertices"][0].get("weight") == weight


def test_catalog_list_and_emit(capsys):
    code, out, _ = run_cli(capsys, "catalog", "list")
    assert code == 0
    names = out.split()
    assert {"chsh", "magic-square", "isg-c5-t2"} <= set(names)
    code, out, _ = run_cli(capsys, "catalog", "emit", "chsh")
    assert code == 0
    from gamebounds.gameio import parse_game
    g = parse_game(out)
    assert np.array_equal(g.predicate, chsh().predicate)
    code, _, err = run_cli(capsys, "catalog", "emit", "nope")
    assert code == 1


def test_catalog_emit_without_a_name_exits_1(capsys):
    err = _exits_1_with_one_error_line(capsys, "catalog", "emit")
    assert err == "error: catalog emit requires a game name\n"


def test_verify_qis_valid_and_invalid(tmp_path, capsys):
    g = chsh()
    gg = build_game_graph(g)
    witness = classical_value(g).alpha.witness
    good = tmp_path / "good.json"
    good.write_text(json.dumps(qis_to_dict(qis_from_vertex_set(gg, witness))))
    code, out, _ = run_cli(capsys, "verify-qis", "chsh", str(good))
    assert code == 0
    assert "valid" in out

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(qis_to_dict(qis_from_vertex_set(gg, [0, 1]))))
    code, out, _ = run_cli(capsys, "verify-qis", "chsh", str(bad))
    assert code == 3
    assert "violation" in out

    malformed = tmp_path / "malformed.json"
    malformed.write_text("{]")
    code, _, err = run_cli(capsys, "verify-qis", "chsh", str(malformed))
    assert code == 1


def test_verify_qis_cost_does_not_grow_with_claimed_t(tmp_path, capsys):
    # a one-entry certificate that claims a million measurements
    doc = qis_to_dict(qis_from_vertex_set(build_game_graph(chsh()), [0]))
    doc["t"] = 1_000_000
    path = tmp_path / "claimed.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "verify-qis", "chsh", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out.splitlines() == [
        "invalid quantum independent set: 1 violation(s)",
        "  measurements without entries (first 1, last 999999): none sums "
        "to identity (defect 1.000e+00)"]


def test_verify_qis_rejects_nan_certificate(tmp_path, capsys):
    doc = qis_to_dict(qis_from_vertex_set(build_game_graph(chsh()), [0]))
    doc["projectors"][0]["matrix"] = [[float("nan")]]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify-qis", "chsh", str(path))
    assert code == 1
    assert out == "" and "non-finite" in err


@pytest.mark.parametrize("flag, value", [("--rep", "0"), ("--rep", "-1"),
                                         ("--tol", "-1"), ("--tol", "inf"),
                                         ("--max-iter", "0"), ("--rep", "x"),
                                         ("--max-iter", "5"),
                                         ("--max-verts", "600")])
def test_analyze_rejects_out_of_range_values(capsys, flag, value):
    code, out, err = run_cli(capsys, "analyze", "chsh", flag, value)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _exits_1_with_one_error_line(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def test_theta_program_above_the_cap_exits_1(capsys, monkeypatch):
    # isg-c5-t3's program has 18 constraints
    monkeypatch.setattr(sdp, "MAX_CONSTRAINTS", 10)
    err = _exits_1_with_one_error_line(capsys, "analyze", "isg-c5-t3")
    assert "18 constraints (cap 10)" in err


@pytest.mark.parametrize("argv", [
    ["analyze", "chsh", "--bogus"], ["analyze"], ["bogus"], []],
    ids=["unknown-option", "no-game", "no-command", "nothing"])
def test_usage_errors_exit_1(capsys, argv):
    # argparse would print its usage and exit 2, the non-convergence code;
    # unknown options with a value, such as --max-iter 5, are cases of the
    # out-of-range test above
    _exits_1_with_one_error_line(capsys, *argv)


def test_help_exits_0(capsys):
    for argv in (["-h"], ["analyze", "-h"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--max-verts" not in out and "--max-iter" not in out


def test_huge_repetition_exits_1_at_once(capsys):
    start = time.perf_counter()
    err = _exits_1_with_one_error_line(capsys, "analyze", "chsh", "--rep",
                                       "1000000000")
    assert time.perf_counter() - start < 1.0
    assert "1000000000-fold repetition" in err and "(cap 16777216)" in err


def test_one_entry_game_repeats_at_once(tmp_path, capsys):
    # a one-entry table passes the table cap at any --rep
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"name": "one", "nx": 1, "ny": 1, "na": 1,
                                "nb": 1, "predicate": {"dsl": "1"}}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "analyze", str(path), "--rep",
                             "1000000000")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and err == ""
    assert "omega_classical: 1 (= 1/1)" in out


@pytest.mark.parametrize("argv, count", [
    (["chsh", "--rep", "4"], 4096), (["{path}"], 513),
    (["{path}", "--weighted"], 513)], ids=["chsh-rep4", "file", "weighted"])
def test_game_above_the_vertex_cap_exits_1_before_its_graph(
        tmp_path, capsys, monkeypatch, argv, count):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"name": "wide", "nx": 1, "ny": 1, "na": 1,
                                "nb": 513, "predicate": {"dsl": "1"}}))

    def refuse(vertices):
        raise AssertionError(f"built a graph on {len(vertices)} vertices")
    monkeypatch.setattr(gamegraph, "_adjacency", refuse)
    err = _exits_1_with_one_error_line(
        capsys, "analyze", *(a.format(path=path) for a in argv))
    assert f"{count} vertices (cap 512)" in err


def test_game_document_above_the_table_cap_exits_1(tmp_path, capsys):
    # 10^12 entries, 7.28 TiB as a float table
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"name": "huge", "nx": 1000, "ny": 1000,
                                "na": 1000, "nb": 1000,
                                "predicate": {"winning": []}}))
    err = _exits_1_with_one_error_line(capsys, "analyze", str(path))
    assert "1000 x 1000 x 1000 x 1000" in err and "16777216" in err


def test_search_past_the_node_budget_exits_1(capsys, monkeypatch):
    # the game search of isg-c5-t3 opens 17 nodes
    monkeypatch.setattr(independence, "NODE_BUDGET", 16)
    err = _exits_1_with_one_error_line(capsys, "analyze", "isg-c5-t3")
    assert "budget of 16 nodes" in err


def test_chsh_rep3_analyzes_end_to_end(capsys):
    # 512 vertices, at the vertex cap; the game search settles it
    code, out, _ = run_cli(capsys, "analyze", "chsh", "--rep", "3", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["omega_exact"] == "31/64"
    assert report["alpha"]["value"] == 31
    assert report["theta"]["converged"] is True
    assert report["bell_gap_certificate"] is True
    assert report["alpha"]["nodes_explored"] == 43978
    # pinned as the catalog reports are, in a process with one BLAS thread:
    # theta's 512 x 512 products round differently on two
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "gamebounds.cli", "analyze",
                           "chsh", "--rep", "3", "--json"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert hashlib.sha256(
        proc.stdout.encode()).hexdigest()[:16] == "e4239ad1c0cd66cd"


def _refuse_to_build(monkeypatch):
    def refuse(vertices):
        raise AssertionError(f"built a graph on {len(vertices)} vertices")
    monkeypatch.setattr(gamegraph, "_adjacency", refuse)


@pytest.mark.parametrize("command", ["verify-qis", "lift"])
def test_certificate_commands_refuse_a_graph_above_the_cap(
        tmp_path, capsys, monkeypatch, command):
    # chsh --rep 4 has 4,096 vertices; a one-vertex certificate of that
    # graph is read, then the game is refused as analyze refuses it
    doc = qis_to_dict(qis_from_vertex_set(build_game_graph(chsh()), [0]))
    doc["n_vertices"] = 4096
    path = tmp_path / "qis.json"
    path.write_text(json.dumps(doc))
    if command == "verify-qis":  # the certificate itself is valid
        with monkeypatch.context() as m:
            m.setattr(gamegraph, "VERTEX_CAP", 4096)
            code, out, _ = run_cli(capsys, command, "chsh", str(path),
                                   "--rep", "4")
        assert (code, out) == (0, "valid quantum independent set: t=1 d=1\n")
    expected = _exits_1_with_one_error_line(capsys, "analyze", "chsh",
                                            "--rep", "4")
    assert "4096 vertices (cap 512)" in expected
    _refuse_to_build(monkeypatch)
    start = time.perf_counter()
    err = _exits_1_with_one_error_line(capsys, command, "chsh", str(path),
                                       "--rep", "4")
    assert time.perf_counter() - start < 1.0
    assert err == expected


@pytest.mark.parametrize("command", ["verify-qis", "lift"])
def test_certificate_commands_refuse_a_non_boolean_game(tmp_path, capsys,
                                                        command):
    game = tmp_path / "real.json"
    game.write_text(json.dumps({"name": "real", "nx": 1, "ny": 1, "na": 2,
                                "nb": 2, "predicate": {"table": [0.5] * 4}}))
    qis = tmp_path / "qis.json"
    qis.write_text(json.dumps(qis_to_dict(
        qis_from_vertex_set(build_game_graph(chsh()), [0]))))
    err = _exits_1_with_one_error_line(capsys, command, str(game), str(qis))
    assert "non-boolean" in err and "0/1 predicate" in err
    assert "build_" not in err  # the message names no library function


@pytest.mark.parametrize("command", ["verify-qis", "lift"])
def test_missing_certificate_exits_1_before_the_graph(
        tmp_path, capsys, monkeypatch, command):
    # chsh --rep 4 has 4,096 vertices; the certificate is read first
    _refuse_to_build(monkeypatch)
    start = time.perf_counter()
    err = _exits_1_with_one_error_line(
        capsys, command, "chsh", str(tmp_path / "missing.json"), "--rep", "4")
    assert time.perf_counter() - start < 1.0
    assert "missing.json" in err


def _certificate(*entries):
    """A t = 1, d = 1 CHSH certificate document listing the entries."""
    return json.dumps({"t": 1, "d": 1, "n_vertices": 8,
                       "projectors": list(entries)})


_ONE = {"measurement": 0, "vertex": 0, "matrix": [[1]]}


@pytest.mark.parametrize("text, message", [
    # empty certificates: one of size 4 would certify omega* = 1 for CHSH
    ('{"t": 4, "d": 0, "n_vertices": 8, "projectors": []}',
     "certificate d must be an integer >= 1"),
    ('{"t": -3, "d": 1, "n_vertices": 8, "projectors": []}',
     "certificate t must be an integer >= 0"),
    ('{"t": 1e400, "d": 1, "n_vertices": 8, "projectors": []}',
     "certificate t must be an integer >= 0"),
    ("[" * 100_000 + "]" * 100_000, "certificate document is nested too deeply"),
    # no entry backs the claimed dimension
    ('{"t": 0, "d": 100000000, "n_vertices": 8, "projectors": []}',
     "certificate d > 1 needs at least one projector"),
    # a pair listed twice kept only its last matrix
    (_certificate(_ONE, {**_ONE, "matrix": [[0]]}),
     "certificate entry (0,0) is listed twice"),
    (json.dumps({"t": 1, "d": 1, "n_vertices": 8, "projectors": {"a": 1}}),
     "certificate document: projectors must be a list"),
    (_certificate([1]), "certificate document: projectors[0] must be an object"),
    (_certificate(_ONE, "ab"),
     "certificate document: projectors[1] must be an object"),
    (_certificate({"measurement": 0, "vertex": 0}),
     "certificate document: missing field 'matrix'"),
    (_certificate({**_ONE, "vertex": [0]}), "certificate document: "
     "projectors[0]: measurement and vertex must be integers"),
    (_certificate({**_ONE, "matrix": "ab"}),
     "certificate entry (0,0): matrix entries must be numbers"),
    # numpy reads true as 1.0 and "1" as 1.0
    (_certificate({**_ONE, "matrix": [[True]]}),
     "certificate entry (0,0): matrix entries must be numbers"),
    (_certificate({**_ONE, "matrix": [["1"]]}),
     "certificate entry (0,0): matrix entries must be numbers"),
    (_certificate({**_ONE, "matrix": [[1], [1, 2]]}),
     "certificate entry (0,0) has the wrong shape"),
    (_certificate({**_ONE, "matrix": [[10 ** 400]]}),
     "certificate entry (0,0) has non-finite entries"),
    # d ** 2 passes numpy's size limit; no entry was stacked
    (json.dumps({"t": 1, "d": 10 ** 400, "n_vertices": 8,
                 "projectors": [_ONE]}),
     "certificate entry (0,0) has the wrong shape")],
    ids=["d0", "t-3", "overflow", "deep", "d-unbacked", "repeated-pair",
         "projectors-object", "entry-list", "entry-string", "missing-matrix",
         "vertex-list", "matrix-string", "matrix-true", "matrix-strings",
         "matrix-ragged", "matrix-400-digits", "d-401-digits"])
def test_bad_certificates_exit_1(tmp_path, capsys, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    for command in ("verify-qis", "lift"):
        err = _exits_1_with_one_error_line(capsys, command, "chsh", str(path))
        assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["analyze", "chsh", "--export-graph", "{missing}/graph.dimacs"],
    ["lift", "chsh", "{qis}", "--out", "{missing}/strategy.json"],
    # the adjacent pair passes at --tol 2, but its lift is no measurement
    ["lift", "chsh", "{adjacent}", "--tol", "2"]],
    ids=["export-graph", "lift-out", "lift-invalid-strategy"])
def test_errors_after_loading_exit_1(tmp_path, capsys, argv):
    gg = build_game_graph(chsh())
    paths = {"missing": tmp_path / "missing"}
    for name, vertices in (("qis", [0]), ("adjacent", [0, 1])):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(qis_to_dict(
            qis_from_vertex_set(gg, vertices))))
    _exits_1_with_one_error_line(capsys, *(a.format(**paths) for a in argv))


def _verify_qis_on_graph_text(tmp_path, capsys, text):
    """verify-qis of a one-vertex CHSH certificate against the DIMACS text,
    which must exit 1 with one error line; returns that line."""
    qis_path = tmp_path / "qis.json"
    qis_path.write_text(json.dumps(qis_to_dict(
        qis_from_vertex_set(build_game_graph(chsh()), [0]))))
    graph_path = tmp_path / "graph.dimacs"
    graph_path.write_text(text)
    return _exits_1_with_one_error_line(capsys, "verify-qis", "chsh",
                                        str(qis_path), "--graph",
                                        str(graph_path))


def test_dimacs_endpoint_out_of_range(tmp_path, capsys):
    err = _verify_qis_on_graph_text(tmp_path, capsys, "p edge 8 1\ne 9 1\n")
    assert "line 2" in err


@pytest.mark.parametrize("header, message", [
    ("p edge 100000000000000000000 0",
     "line 1: graph has 100000000000000000000 vertices (cap 512)"),
    ("p edge 513 0", "line 1: graph has 513 vertices (cap 512)"),
    ("p edge -1 0", "line 1: vertex count '-1' is not a non-negative integer"),
    ("p edge x 0", "line 1: vertex count 'x' is not a non-negative integer")],
    ids=["huge", "above-cap", "negative", "not-a-number"])
def test_dimacs_vertex_count_is_checked_first(tmp_path, capsys, header,
                                              message):
    err = _verify_qis_on_graph_text(tmp_path, capsys, header + "\n")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("p edge 3 1\ne x 1\n",
     "line 2: edge endpoint 'x' is not a non-negative integer"),
    ("c two\np edge 3 1\ne 1 2.0\n",
     "line 3: edge endpoint '2.0' is not a non-negative integer"),
    ("p edge 3 1\ne 1 1\n", "line 2: self-loop at vertex 1"),
    ("p edge 3 x\n", "line 1: edge count 'x' is not a non-negative integer"),
    ("p edge 3 -4\n",
     "line 1: edge count '-4' is not a non-negative integer")],
    ids=["endpoint-not-a-number", "endpoint-not-an-integer", "self-loop",
         "edge-count-not-a-number", "edge-count-negative"])
def test_dimacs_lines_fail_with_their_line_number(tmp_path, capsys, text,
                                                  message):
    err = _verify_qis_on_graph_text(tmp_path, capsys, text)
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("predicate", [
    {"table": [float("nan")] * 16},
    {"dsl": "(" * 2000 + "x" + ")" * 2000}], ids=["nan", "deep-dsl"])
def test_analyze_rejects_bad_game_files(tmp_path, capsys, predicate):
    doc = {"name": "bad", "nx": 2, "ny": 2, "na": 2, "nb": 2,
           "predicate": predicate}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_lift_command(tmp_path, capsys):
    g = chsh()
    gg = build_game_graph(g)
    witness = classical_value(g).alpha.witness
    qis_path = tmp_path / "qis.json"
    qis_path.write_text(json.dumps(qis_to_dict(qis_from_vertex_set(gg, witness))))
    out_path = tmp_path / "strategy.json"
    code, out, _ = run_cli(capsys, "lift", "chsh", str(qis_path),
                           "--out", str(out_path))
    assert code == 0
    assert "winning probability: 0.75" in out
    strategy = strategy_from_dict(json.loads(out_path.read_text()))
    assert winning_probability(g, strategy) == pytest.approx(0.75, abs=1e-9)

    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(qis_to_dict(qis_from_vertex_set(gg, [0, 1]))))
    code, _, err = run_cli(capsys, "lift", "chsh", str(bad_path))
    assert code == 3


def test_lift_tolerance_option(tmp_path, capsys):
    g = chsh()
    doc = qis_to_dict(qis_from_vertex_set(build_game_graph(g),
                                          classical_value(g).alpha.witness))
    doc["projectors"][0]["matrix"] = [[1.0 + 1e-7]]
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps(doc))
    code, _, _ = run_cli(capsys, "lift", "chsh", str(path))
    assert code == 3
    code, out, _ = run_cli(capsys, "lift", "chsh", str(path), "--tol", "1e-6")
    assert code == 0
    assert "winning probability: 0.75" in out


@pytest.mark.parametrize("distribution", [[0.9, 0.1], [0.5, 0.5]])
def test_lift_prints_t_over_k_only_on_uniform_questions(
        tmp_path, capsys, distribution):
    # the lifted strategy wins question 1 only: t/k = 1/2 is a bound on
    # the winning probability p only when the questions are uniform
    game_path = tmp_path / "game.json"
    game_path.write_text(json.dumps({
        "name": "two-questions", "nx": 2, "ny": 1, "na": 2, "nb": 2,
        "predicate": {"winning": [[0, 0, 0, 0], [0, 0, 1, 1], [1, 0, 0, 1],
                                  [1, 0, 1, 0]]},
        "distribution": distribution}))
    qis_path = tmp_path / "qis.json"
    qis_path.write_text(json.dumps(qis_to_dict(qis_from_vertex_set(
        build_game_graph(load_game(str(game_path))), [2]))))
    code, out, _ = run_cli(capsys, "lift", str(game_path), str(qis_path))
    assert code == 0
    lines = dict(line.rsplit(": ", 1) for line in out.splitlines())
    p = float(lines.pop("lifted strategy winning probability"))
    assert p == pytest.approx(distribution[1])
    if distribution[0] == distribution[1]:
        assert float(lines.pop("certified lower bound t/k")) == 0.5 <= p
    assert lines == {}


def test_analyze_magic_square(capsys):
    code, out, _ = run_cli(capsys, "analyze", "magic-square", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["alpha"]["value"] == 8
    assert report["omega_exact"] == "8/9"
    assert report["theta_over_k"] >= 0.9999
    assert report["xor_value"] is None


def test_analyze_nonconvergence_exit_code(capsys, monkeypatch):
    # CHSH converges in 4 steps; 3 leave its bracket open
    monkeypatch.setattr(sdp, "MAX_ITERATIONS", 3)
    code, out, _ = run_cli(capsys, "analyze", "chsh", "--json")
    assert code == 2
    report = json.loads(out)
    assert report["theta"]["converged"] is False


def test_verify_qis_against_exported_graph(tmp_path, capsys):
    g = chsh()
    gg = build_game_graph(g)
    witness = classical_value(g).alpha.witness
    qis_path = tmp_path / "qis.json"
    qis_path.write_text(json.dumps(qis_to_dict(qis_from_vertex_set(gg, witness))))
    graph_path = tmp_path / "graph.dimacs"
    run_cli(capsys, "analyze", "chsh", "--export-graph", str(graph_path))
    code, out, _ = run_cli(capsys, "verify-qis", "chsh", str(qis_path),
                           "--graph", str(graph_path))
    assert code == 0
    assert "valid" in out


def test_analyze_never_winnable_game(tmp_path, capsys):
    path = tmp_path / "never.json"
    path.write_text(json.dumps({
        "name": "never", "nx": 2, "ny": 2, "na": 2, "nb": 2,
        "predicate": {"winning": []}}))
    code, out, _ = run_cli(capsys, "analyze", str(path), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["omega_classical"] == 0.0
    assert report["theta_over_k"] == 0.0
    assert report["graph"]["num_vertices"] == 0


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "gamebounds.cli", "analyze", "chsh"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "omega_classical: 0.75" in proc.stdout


def test_reports_byte_identical_across_processes():
    runs = [subprocess.run(
        [sys.executable, "-m", "gamebounds.cli", "analyze", "chsh", "--json"],
        capture_output=True, text=True).stdout for _ in range(2)]
    assert runs[0] == runs[1]


def test_closed_stdout_exits_without_traceback(tmp_path):
    # 100 measurements that all output vertex 0 print a violation line for
    # each of their 4950 pairs, far more than a pipe buffer holds, so the
    # reader closes the pipe mid-output
    path = tmp_path / "shared.json"
    path.write_text(json.dumps({
        "t": 100, "d": 1, "n_vertices": 8,
        "projectors": [{"measurement": i, "vertex": 0, "matrix": [[1.0]]}
                       for i in range(100)]}))
    proc = subprocess.Popen(
        [sys.executable, "-m", "gamebounds.cli", "verify-qis", "chsh",
         str(path)], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline().startswith("invalid quantum independent set")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert "Traceback" not in err


def _dsl_chsh_document(tmp_path):
    path = tmp_path / "chsh-dsl.json"
    path.write_text(json.dumps({"name": "chsh-dsl", "nx": 2, "ny": 2, "na": 2,
                                "nb": 2, "predicate": {
                                    "dsl": "(a + b) % 2 == x * y"}}))
    return str(path)


def test_analyze_does_not_load_numpy_ma(tmp_path):
    # numpy.ma takes about 9 ms to import; np.unique with no return options
    # loads it.  The predicate expression's evaluator runs first on a
    # document
    code = """
import sys
import numpy
print("numpy.ma" in sys.modules)
from gamebounds.cli import main
main(["analyze", sys.argv[1], "--json"])
main(["analyze", "chsh", "--json"])
print("numpy.ma" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", code,
                           _dsl_chsh_document(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    by_numpy, after_analyze = lines[0], lines[-1]
    assert after_analyze == "False" or by_numpy == "True"


def test_analyze_loads_only_numpy_outside_the_standard_library(tmp_path):
    code = """
import sys
before = set(sys.modules)
from gamebounds.cli import main
main(["analyze", sys.argv[1]])
main(["analyze", "chsh"])
new = {sys.modules[name] for name in set(sys.modules) - before}
print(sorted({m.__name__.partition(".")[0] for m in new
              if getattr(m, "__file__", None)} - set(sys.stdlib_module_names)))
"""
    proc = subprocess.run([sys.executable, "-c", code,
                           _dsl_chsh_document(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    # modules without a file, such as the runtime state Cython extensions
    # register, are not packages and are not counted
    assert proc.stdout.splitlines()[-1] == "['gamebounds', 'numpy']"
