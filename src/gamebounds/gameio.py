"""Reading and writing game documents (JSON).

Document shape:

    {
      "name": str,
      "nx": int, "ny": int, "na": int, "nb": int,
      "predicate": {"winning": [[x,y,a,b], ...]}
                 | {"dsl": "expression over x,y,a,b"}
                 | {"table": [flat row-major reals]},
      "distribution": "uniform" | [flat row-major reals]   # optional
    }

Flat tables are row-major in (x, y, a, b) and (x, y) order.
"""

from __future__ import annotations

import json

import numpy as np

from .dsl import parse_predicate_dsl
from .games import (TABLE_CAP, Game, GameFormatError, SizeCapError,
                    uniform_distribution)


def _require(doc: dict, key: str, types) -> object:
    if key not in doc:
        raise GameFormatError(f"{key}: missing required field")
    value = doc[key]
    if not isinstance(value, types):
        raise GameFormatError(f"{key}: unexpected type {type(value).__name__}")
    return value


def _numbers(values: list, key: str) -> np.ndarray:
    """A JSON list of numbers as a float array; true and false are not
    numbers."""
    if not all(type(v) in (int, float) for v in values):
        raise GameFormatError(f"{key}: entries must be numbers")
    try:
        return np.array(values, dtype=float)
    except OverflowError:
        raise GameFormatError(f"{key}: entries must be finite") from None


def game_from_dict(doc: dict) -> Game:
    """Build a validated Game from a parsed document."""
    if not isinstance(doc, dict):
        raise GameFormatError("game document must be a JSON object")
    name = _require(doc, "name", str)
    sizes = {}
    for key in ("nx", "ny", "na", "nb"):
        n = _require(doc, key, int)
        if isinstance(n, bool) or n < 1:
            raise GameFormatError(f"{key}: must be a positive integer")
        sizes[key] = n
    nx, ny, na, nb = sizes["nx"], sizes["ny"], sizes["na"], sizes["nb"]
    if nx * ny * na * nb > TABLE_CAP:
        raise SizeCapError(f"sizes {nx} x {ny} x {na} x {nb}: the predicate "
                           f"table would exceed {TABLE_CAP} entries")

    pred = _require(doc, "predicate", dict)
    given = [k for k in ("winning", "dsl", "table") if k in pred]
    if len(given) != 1:
        raise GameFormatError(
            "predicate: exactly one of 'winning', 'dsl', 'table' is required")
    kind = given[0]
    if kind == "winning":
        if not isinstance(pred["winning"], list):
            raise GameFormatError("predicate.winning: must be a list")
        table = np.zeros((nx, ny, na, nb))
        for q in pred["winning"]:
            if not (isinstance(q, list) and len(q) == 4
                    and all(type(v) is int for v in q)):
                raise GameFormatError(
                    f"predicate.winning: entries must be [x,y,a,b] integers, got {q!r}")
            x, y, a, b = q
            if not (0 <= x < nx and 0 <= y < ny and 0 <= a < na and 0 <= b < nb):
                raise GameFormatError(
                    f"predicate.winning: quadruple {q} out of range")
            table[x, y, a, b] = 1.0
    elif kind == "dsl":
        if not isinstance(pred["dsl"], str):
            raise GameFormatError("predicate.dsl: must be a string")
        table = parse_predicate_dsl(pred["dsl"], nx, ny, na, nb)
    else:
        flat = pred["table"]
        if not isinstance(flat, list) or len(flat) != nx * ny * na * nb:
            raise GameFormatError(
                f"predicate.table: expected {nx * ny * na * nb} entries")
        table = _numbers(flat, "predicate.table").reshape(nx, ny, na, nb)

    dist_field = doc.get("distribution", "uniform")
    if isinstance(dist_field, str):
        if dist_field != "uniform":
            raise GameFormatError(
                f"distribution: unknown keyword {dist_field!r}")
        dist = uniform_distribution(nx, ny)
    elif isinstance(dist_field, list):
        if len(dist_field) != nx * ny:
            raise GameFormatError(f"distribution: expected {nx * ny} entries")
        dist = _numbers(dist_field, "distribution").reshape(nx, ny)
    else:
        raise GameFormatError("distribution: must be 'uniform' or a flat list")

    return Game(name, nx, ny, na, nb, table, dist)


def parse_game(text: str) -> Game:
    """Parse a JSON game document into a validated Game."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameFormatError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise GameFormatError("document is nested too deeply") from None
    return game_from_dict(doc)


def game_to_dict(g: Game) -> dict:
    """Serialize to the document shape; tables round-trip bit-exactly."""
    doc = {
        "name": g.name,
        "nx": g.nx, "ny": g.ny, "na": g.na, "nb": g.nb,
    }
    if g.is_boolean():
        doc["predicate"] = {
            "winning": [list(q) for q in g.winning_quadruples()]}
    else:
        doc["predicate"] = {"table": [float(v) for v in g.predicate.ravel()]}
    if g.is_uniform():
        doc["distribution"] = "uniform"
    else:
        doc["distribution"] = [float(v) for v in g.distribution.ravel()]
    return doc


def serialize_game(g: Game) -> str:
    return json.dumps(game_to_dict(g), indent=2)


def load_game(path: str) -> Game:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_game(fh.read())
