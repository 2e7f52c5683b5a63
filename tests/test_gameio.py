import json
import re

import numpy as np
import pytest

from gamebounds.cli import main
from gamebounds.gameio import game_from_dict, parse_game, serialize_game
from gamebounds.games import GameFormatError, chsh, magic_square

from conftest import random_boolean_game

CHSH_DOC = {
    "name": "chsh",
    "nx": 2, "ny": 2, "na": 2, "nb": 2,
    "predicate": {"winning": [[0, 0, 0, 0], [0, 0, 1, 1],
                              [0, 1, 0, 0], [0, 1, 1, 1],
                              [1, 0, 0, 0], [1, 0, 1, 1],
                              [1, 1, 0, 1], [1, 1, 1, 0]]},
    "distribution": "uniform",
}


def test_parse_chsh_document():
    g = parse_game(json.dumps(CHSH_DOC))
    ref = chsh()
    assert np.array_equal(g.predicate, ref.predicate)
    assert np.array_equal(g.distribution, ref.distribution)


def test_parse_dsl_document():
    doc = {"name": "chsh-dsl", "nx": 2, "ny": 2, "na": 2, "nb": 2,
           "predicate": {"dsl": "(a + b) % 2 == x * y"}}
    g = parse_game(json.dumps(doc))
    assert np.array_equal(g.predicate, chsh().predicate)


def test_unnormalized_distribution_rejected():
    doc = dict(CHSH_DOC)
    doc["distribution"] = [0.25, 0.25, 0.25, 0.15]
    with pytest.raises(GameFormatError, match="distribution not normalized"):
        parse_game(json.dumps(doc))


def test_syntax_error_carries_position():
    with pytest.raises(GameFormatError, match=r"line 1, column"):
        parse_game("{not json")


def test_missing_field_names_field():
    doc = dict(CHSH_DOC)
    del doc["na"]
    with pytest.raises(GameFormatError, match="na"):
        parse_game(json.dumps(doc))


def test_predicate_out_of_range():
    doc = dict(CHSH_DOC)
    doc["predicate"] = {"winning": [[0, 0, 0, 5]]}
    with pytest.raises(GameFormatError, match="out of range"):
        parse_game(json.dumps(doc))


def test_table_predicate_and_length_check():
    doc = {"name": "t", "nx": 1, "ny": 1, "na": 2, "nb": 1,
           "predicate": {"table": [0.5, 1.0]},
           "distribution": [1.0]}
    g = parse_game(json.dumps(doc))
    assert g.predicate[0, 0, 0, 0] == 0.5
    doc["predicate"] = {"table": [0.5]}
    with pytest.raises(GameFormatError, match="expected 2 entries"):
        parse_game(json.dumps(doc))


def test_round_trip_is_exact():
    rng = np.random.default_rng(5)
    for catalog in (chsh(), magic_square()):
        g2 = parse_game(serialize_game(catalog))
        assert np.array_equal(g2.predicate, catalog.predicate)
        assert np.array_equal(g2.distribution, catalog.distribution)
        assert g2.name == catalog.name
    for _ in range(10):
        g = random_boolean_game(rng, uniform=False)
        # real-valued predicate path
        doc = {"name": "real", "nx": g.nx, "ny": g.ny, "na": g.na, "nb": g.nb,
               "predicate": {"table": (g.predicate * rng.random(
                   g.predicate.shape)).ravel().tolist()},
               "distribution": g.distribution.ravel().tolist()}
        parsed = game_from_dict(json.loads(json.dumps(doc)))
        again = parse_game(serialize_game(parsed))
        assert np.array_equal(parsed.predicate, again.predicate)
        assert np.array_equal(parsed.distribution, again.distribution)


def test_exactly_one_predicate_form():
    doc = dict(CHSH_DOC)
    doc["predicate"] = {"winning": [[0, 0, 0, 0]], "dsl": "x"}
    with pytest.raises(GameFormatError, match="exactly one"):
        parse_game(json.dumps(doc))


_TABLE_DOC = {"name": "g", "nx": 2, "ny": 2, "na": 2, "nb": 2,
              "predicate": {"table": [0.0] * 16}}


@pytest.mark.parametrize("text, message", [
    (json.dumps({**_TABLE_DOC, "predicate": {"table": ["1"] * 16}}),
     "predicate.table: entries must be numbers"),
    (json.dumps({**_TABLE_DOC,
                 "predicate": {"table": [10 ** 400] + [0] * 15}}),
     "predicate.table: entries must be finite"),
    (json.dumps({**_TABLE_DOC, "distribution": "normal"}),
     "distribution: unknown keyword 'normal'"),
    (json.dumps({**_TABLE_DOC, "distribution": [0.5, 0.5]}),
     "distribution: expected 4 entries"),
    (json.dumps({**_TABLE_DOC, "distribution": {"x": 1}}),
     "distribution: must be 'uniform' or a flat list"),
    ("[" * 100000 + "]" * 100000, "document is nested too deeply"),
    (json.dumps({**_TABLE_DOC, "predicate": {"winning": {"0": [0, 0, 0, 0]}}}),
     "predicate.winning: must be a list"),
    # JSON's true and false are neither indices nor numbers: numpy would
    # read a bool index as a mask
    (json.dumps({**_TABLE_DOC, "predicate": {"winning": [[True] * 4]}}),
     "predicate.winning: entries must be [x,y,a,b] integers, got "
     "[True, True, True, True]"),
    (json.dumps({**_TABLE_DOC, "nx": 1, "ny": 1,
                 "predicate": {"winning": [[False, False, True, True]]}}),
     "predicate.winning: entries must be [x,y,a,b] integers, got "
     "[False, False, True, True]"),
    (json.dumps({**_TABLE_DOC, "predicate": {"winning": [[1, 0, True, 0]]}}),
     "predicate.winning: entries must be [x,y,a,b] integers, got "
     "[1, 0, True, 0]"),
    (json.dumps({**_TABLE_DOC, "predicate": {"table": [True] + [0] * 15}}),
     "predicate.table: entries must be numbers"),
    (json.dumps({**_TABLE_DOC, "distribution": [True, False, False, False]}),
     "distribution: entries must be numbers")],
    ids=["string-entry", "400-digit-entry", "keyword", "length", "object",
         "nested", "winning-object", "winning-true", "winning-false",
         "winning-mixed", "table-true", "distribution-true"])
def test_bad_documents_exit_1_with_their_message(tmp_path, capsys, text,
                                                 message):
    with pytest.raises(GameFormatError, match=re.escape(message)):
        parse_game(text)
    path = tmp_path / "game.json"
    path.write_text(text, encoding="utf-8")
    assert main(["analyze", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
