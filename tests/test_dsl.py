import numpy as np
import pytest

from gamebounds.dsl import (MAX_NESTING, DslError, eval_expr, parse_expr,
                            parse_predicate_dsl)
from gamebounds.games import chsh


def test_equality_table():
    table = parse_predicate_dsl("x == y", 2, 2, 1, 1)
    assert table.ravel().tolist() == [1.0, 0.0, 0.0, 1.0]


def test_chsh_expression():
    table = parse_predicate_dsl("(a + b) % 2 == x * y", 2, 2, 2, 2)
    assert np.array_equal(table, chsh().predicate)
    assert table.sum() == 8.0


def test_unknown_identifier():
    with pytest.raises(DslError, match="unknown identifier 'q'"):
        parse_predicate_dsl("q == 1", 2, 2, 2, 2)


def test_error_positions():
    with pytest.raises(DslError, match="position 4"):
        parse_expr("x + $")
    with pytest.raises(DslError, match="position"):
        parse_expr("(x + y")
    with pytest.raises(DslError, match="trailing"):
        parse_expr("x y")


def test_boolean_coercion_and_precedence():
    env = {"x": 2, "y": 0, "a": 1, "b": 3}
    assert eval_expr(parse_expr("x and a"), env) == 1
    assert eval_expr(parse_expr("y or b"), env) == 1
    assert eval_expr(parse_expr("not y"), env) == 1
    assert eval_expr(parse_expr("not x"), env) == 0
    assert eval_expr(parse_expr("x xor y"), env) == 1
    assert eval_expr(parse_expr("x xor a"), env) == 0
    assert eval_expr(parse_expr("x != a"), env) == 1
    assert eval_expr(parse_expr("a != 1"), env) == 0
    # * binds tighter than +, comparisons tighter than and
    assert eval_expr(parse_expr("1 + 2 * 3"), env) == 7
    assert eval_expr(parse_expr("1 + 1 == 2 and 2 + 2 == 4"), env) == 1


def test_comparisons_do_not_chain_and_unary_binds_tightest():
    with pytest.raises(DslError, match=r"trailing input after expression "
                       r"\(at position 7\)"):
        parse_expr("x == y == a")
    assert eval_expr(parse_expr("1 - 2 - 3 == -4"), {}) == 1
    assert parse_expr("not x == y") == (
        "binary", "==", ("unary", "not", ("var", "x")), ("var", "y"))


def test_mathematical_modulo_is_nonnegative():
    assert eval_expr(parse_expr("(0 - 3) % 2"), {}) == 1
    assert eval_expr(parse_expr("-1 % 2"), {}) == 1


def test_unary_minus_and_parens():
    assert eval_expr(parse_expr("-(2 + 3) + 6"), {}) == 1


def test_tables_are_boolean():
    table = parse_predicate_dsl("x + a", 2, 2, 2, 2)
    assert set(np.unique(table)) <= {0.0, 1.0}
    # nonzero integers count as true
    assert table[1, 0, 0, 0] == 1.0
    assert table[0, 0, 0, 0] == 0.0


def test_modulo_by_zero():
    with pytest.raises(DslError, match="modulo by zero"):
        eval_expr(parse_expr("x % y"), {"x": 1, "y": 0})


@pytest.mark.parametrize("text", ["(" * 2000 + "x" + ")" * 2000,
                                  "not " * 2000 + "x", "-" * 2000 + "x"])
def test_deep_nesting_is_refused(text):
    with pytest.raises(DslError, match="nested more than"):
        parse_expr(text)


def test_nesting_limit_and_long_chains():
    deepest = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert eval_expr(parse_expr(deepest), {"x": 3}) == 3
    # chains nest to the left without bound, and still evaluate
    assert eval_expr(parse_expr(" + ".join(["x"] * 5000)), {"x": 1}) == 5000
    assert eval_expr(parse_expr(" - ".join(["1"] * 3000)), {}) == -2998
    assert eval_expr(parse_expr("0 and x % 0"), {"x": 1}) == 0
