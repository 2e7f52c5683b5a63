"""Property tests: any game document, certificate or DIMACS graph either runs
or is refused with exit code 1 and a single error line, never a traceback;
any DSL predicate evaluates or raises DslError."""

import json

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gamebounds.cli import main
from gamebounds.dsl import DslError, parse_predicate_dsl
from gamebounds.games import chsh
from gamebounds.gamegraph import build_game_graph
from gamebounds.independence import classical_value
from gamebounds.quantum import qis_from_vertex_set, qis_to_dict

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

scalars = (st.none() | st.booleans() | st.integers(-2, 4)
           | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4))
json_values = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3), max_leaves=12)
sizes = st.integers(-1, 3) | json_values

dsl_tokens = st.sampled_from(
    ["x", "y", "a", "b", "0", "1", "2", "(", ")", "+", "-", "*", "%", "==",
     "!=", "and", "or", "xor", "not", "$", "q"])
dsl_text = st.lists(dsl_tokens, max_size=30).map(" ".join)
nested_dsl_text = st.builds(lambda depth, op, inner: (op + " ") * depth + inner,
                            st.integers(0, 3000), st.sampled_from(["not", "-"]),
                            dsl_text) | st.builds(
    lambda depth, inner: "(" * depth + inner + ")" * depth,
    st.integers(0, 3000), dsl_text)

numbers = st.floats(allow_nan=True, allow_infinity=True) | st.integers(-1, 2)
entries = numbers | json_values
predicates = st.one_of(
    st.fixed_dictionaries({"winning": st.lists(
        st.lists(st.integers(-1, 3), min_size=4, max_size=4) | json_values,
        max_size=6) | scalars}),
    st.fixed_dictionaries({"dsl": dsl_text | nested_dsl_text | scalars}),
    st.fixed_dictionaries({"table": st.lists(entries, max_size=20)
                           | scalars}),
    json_values)
distributions = (st.just("uniform") | st.lists(entries, max_size=10)
                 | json_values)
# half of the documents have well-formed sizes, so that the predicate and
# distribution readers are reached; the rest may be junk anywhere
documents = st.fixed_dictionaries(
    {"name": st.text(max_size=4), "nx": st.integers(1, 3),
     "ny": st.integers(1, 3), "na": st.integers(1, 2), "nb": st.integers(1, 2),
     "predicate": predicates},
    optional={"distribution": distributions}) | (st.fixed_dictionaries(
        {"name": st.text(max_size=4) | json_values, "nx": sizes, "ny": sizes,
         "na": sizes, "nb": sizes, "predicate": predicates},
        optional={"distribution": distributions}) | json_values)

# certificates for the CHSH game graph (8 vertices); the first half are
# well-formed enough to reach the verifier
matrices = (st.sampled_from([[[1.0]], [[0.0]], [[1.0 + 1e-7]],
                             [[1.0, 0.0], [0.0, 1.0]], [[0.5, 0.5], [0.5, 0.5]]])
            | st.lists(st.lists(numbers, max_size=3), max_size=3) | json_values)
projector_entries = st.fixed_dictionaries(
    {"measurement": st.integers(-1, 3), "vertex": st.integers(-1, 8),
     "matrix": matrices}) | st.fixed_dictionaries(
    {"measurement": sizes, "vertex": sizes, "matrix": matrices}) | json_values
certificates = st.fixed_dictionaries(
    {"t": st.integers(0, 3), "d": st.integers(1, 2), "n_vertices": st.just(8),
     "projectors": st.lists(projector_entries, max_size=4)}) | (
    st.fixed_dictionaries({"t": sizes, "d": sizes, "n_vertices": sizes,
                           "projectors": st.lists(projector_entries, max_size=4)
                           | json_values}) | json_values)

problem_lines = st.builds("p edge {} {}".format, st.integers(-2, 10),
                          st.integers(0, 5))
dimacs_lines = (problem_lines
                | st.builds("e {} {}".format, st.integers(-1, 10),
                            st.integers(-1, 10))
                | st.sampled_from(["c comment", "", "p edge", "p edge 8 x",
                                   "e 1", "e 1 x", "q 1 2"])
                | st.text(max_size=8))
# most graphs start with a problem line, so that edge lines are reached
dimacs_text = st.builds(lambda head, lines: "\n".join(head + lines),
                        st.lists(problem_lines, max_size=1),
                        st.lists(dimacs_lines, max_size=10))


def _runs_or_exits_1(capsys, argv, codes):
    code = main(argv)
    captured = capsys.readouterr()
    if code != 1:
        assert code in codes
        return
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def _analyze(tmp_path, capsys, text):
    path = tmp_path / "game.json"
    path.write_text(text, encoding="utf-8")
    code = main(["analyze", str(path), "--json"])
    captured = capsys.readouterr()
    if code == 0:
        json.loads(captured.out)
    else:
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


@SETTINGS
@given(doc=documents)
def test_any_game_document_analyzes_or_exits_1(tmp_path, capsys, doc):
    _analyze(tmp_path, capsys, json.dumps(doc))


@SETTINGS
@given(text=st.text(max_size=60))
def test_any_file_text_analyzes_or_exits_1(tmp_path, capsys, text):
    _analyze(tmp_path, capsys, text)


@SETTINGS
@given(text=dsl_text | nested_dsl_text)
def test_dsl_evaluates_or_raises_dsl_error(text):
    try:
        table = parse_predicate_dsl(text, 2, 2, 2, 2)
    except DslError:
        return
    assert set(np.unique(table)) <= {0.0, 1.0}


@SETTINGS
@given(doc=certificates)
# a string index that prints as a line break must not split the error line
@example(doc={"t": 0, "d": 1, "n_vertices": 8, "projectors": [
    {"measurement": 0, "vertex": "\n", "matrix": [[1.0]]}]})
def test_any_certificate_verifies_lifts_or_exits_1(tmp_path, capsys, doc):
    path = tmp_path / "qis.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    # 3: a readable certificate that fails verification
    for command in ("verify-qis", "lift"):
        _runs_or_exits_1(capsys, [command, "chsh", str(path)], (0, 3))


@SETTINGS
@given(text=dimacs_text)
def test_any_dimacs_graph_verifies_or_exits_1(tmp_path, capsys, text):
    game = chsh()
    qis = qis_from_vertex_set(build_game_graph(game),
                              classical_value(game).alpha.witness)
    qis_path = tmp_path / "qis.json"
    qis_path.write_text(json.dumps(qis_to_dict(qis)), encoding="utf-8")
    graph_path = tmp_path / "graph.dimacs"
    graph_path.write_text(text, encoding="utf-8")
    _runs_or_exits_1(capsys, ["verify-qis", "chsh", str(qis_path), "--graph",
                              str(graph_path)], (0, 3))
