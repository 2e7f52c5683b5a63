import json
import re
import sys
import time
import tracemalloc

import numpy as np
import pytest

from gamebounds import dsl
from gamebounds.cli import main
from gamebounds.dsl import (_LEVELS, MAX_NESTING, DslError, parse_expr,
                            parse_predicate_dsl)
from gamebounds.games import chsh

import dsl_oracle


def evaluate(text, env):
    """The package's evaluator on one binding of plain ints."""
    return dsl._evaluate(parse_expr(text), env, True)


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
    assert evaluate("x and a", env) == 1
    assert evaluate("y or b", env) == 1
    assert evaluate("not y", env) == 1
    assert evaluate("not x", env) == 0
    assert evaluate("x xor y", env) == 1
    assert evaluate("x xor a", env) == 0
    assert evaluate("x != a", env) == 1
    assert evaluate("a != 1", env) == 0
    # * binds tighter than +, comparisons tighter than and
    assert evaluate("1 + 2 * 3", env) == 7
    assert evaluate("1 + 1 == 2 and 2 + 2 == 4", env) == 1


def test_comparisons_do_not_chain_and_unary_binds_tightest():
    with pytest.raises(DslError, match=r"trailing input after expression "
                       r"\(at position 7\)"):
        parse_expr("x == y == a")
    assert evaluate("1 - 2 - 3 == -4", {}) == 1
    assert parse_expr("not x == y") == (
        "binary", "==", ("unary", "not", ("var", "x")), ("var", "y"))


def test_mathematical_modulo_is_nonnegative():
    assert evaluate("(0 - 3) % 2", {}) == 1
    assert evaluate("-1 % 2", {}) == 1


def test_unary_minus_and_parens():
    assert evaluate("-(2 + 3) + 6", {}) == 1


def test_tables_are_boolean():
    table = parse_predicate_dsl("x + a", 2, 2, 2, 2)
    assert set(np.unique(table)) <= {0.0, 1.0}
    # nonzero integers count as true
    assert table[1, 0, 0, 0] == 1.0
    assert table[0, 0, 0, 0] == 0.0


def test_modulo_by_zero():
    with pytest.raises(DslError, match="modulo by zero"):
        evaluate("x % y", {"x": 1, "y": 0})


@pytest.mark.parametrize("text", ["(" * 2000 + "x" + ")" * 2000,
                                  "not " * 2000 + "x", "-" * 2000 + "x"])
def test_deep_nesting_is_refused(text):
    with pytest.raises(DslError, match="nested more than"):
        parse_expr(text)


def test_nesting_limit_and_long_chains():
    deepest = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert evaluate(deepest, {"x": 3}) == 3
    # chains nest to the left without bound, and still evaluate
    assert evaluate(" + ".join(["x"] * 5000), {"x": 1}) == 5000
    assert evaluate(" - ".join(["1"] * 3000), {}) == -2998
    assert evaluate("0 and x % 0", {"x": 1}) == 0


@pytest.mark.parametrize("text, position", [("x == ²", 5), ("x == 1²", 6)])
def test_digits_that_int_refuses_are_unexpected_characters(text, position):
    # str.isdigit accepts superscripts, which int() refuses
    with pytest.raises(DslError, match=rf"unexpected character '²' "
                       rf"\(at position {position}\)"):
        parse_expr(text)
    # decimal digits of other scripts are integers, as int() reads them
    assert evaluate("x == ١ + ٣", {"x": 4}) == 1


def test_a_literal_too_long_for_int_is_a_dsl_error(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    assert evaluate("x == " + "1" * limit, {"x": 1}) == 0
    message = (f"integer literal of {limit + 700} digits is too long "
               "(at position 5)")
    with pytest.raises(DslError, match=re.escape(message)):
        parse_expr("x == " + "1" * (limit + 700))
    path = tmp_path / "long.json"
    path.write_text(json.dumps({
        "name": "long", "nx": 1, "ny": 1, "na": 1, "nb": 1,
        "predicate": {"dsl": "x == " + "1" * (limit + 700)}}))
    assert main(["analyze", str(path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def _tokens(tokenize, text):
    try:
        return tokenize(text)
    except Exception as exc:
        return type(exc), str(exc)


def test_tokens_match_the_character_at_a_time_oracle():
    # every character up to U+3000 (Latin to CJK punctuation: letters,
    # marks, the decimal digits of many scripts, superscripts, fractions and
    # spaces) at the start of a token, inside a word and inside a run of
    # digits, and then random strings of tokens and such characters
    texts = [text for cp in range(0x3001)
             for text in (chr(cp), f"a{chr(cp)}", f"1{chr(cp)}")]
    pieces = ["x", "a_1", "_", "and", "xor", "1", "٣", "²", "½", "é", "ǅ",
              "\u0301", "\u00a0", "\u2028", "\t", " ", "=", "==", "!", "!=",
              "%", "(", "$"]
    rng = np.random.default_rng(5)
    texts += ["".join(rng.choice(pieces, int(rng.integers(1, 12))))
              for _ in range(20000)]
    for text in texts:
        assert (_tokens(dsl._tokenize, text)
                == _tokens(dsl_oracle.tokenize, text)), repr(text)


FUZZ_TOKENS = ["x", "y", "a", "b", "0", "1", "2", "(", ")", "+", "-", "*", "%",
               "==", "!=", "and", "or", "xor", "not", "$", "q"]
BINARY = [op for level in _LEVELS for op in level]


def _literal(rng):
    return "".join(rng.choice(list("0123456789"), 20))


def _token_expression(rng):
    """The fuzz alphabet and 20-digit literals, in any order."""
    tokens = FUZZ_TOKENS + ["LITERAL"]
    return " ".join(_literal(rng) if t == "LITERAL" else t
                    for t in rng.choice(tokens, int(rng.integers(1, 16))))


def _tree_expression(rng, depth=4):
    """A well-formed expression, parenthesized at random, so that the
    parser's precedence regroups some of it."""
    if depth == 0 or rng.random() < 0.25:
        return str(rng.choice(["x", "y", "a", "b", "0", "1", "2", "3",
                               _literal(rng)]))
    if rng.random() < 0.15:
        text = rng.choice(["not ", "-"]) + _tree_expression(rng, depth - 1)
    else:
        text = (f"{_tree_expression(rng, depth - 1)} {rng.choice(BINARY)} "
                f"{_tree_expression(rng, depth - 1)}")
    return f"({text})" if rng.random() < 0.5 else text


def _outcome(parse, text, shape):
    try:
        table = parse(text, *shape)
    except Exception as exc:
        return type(exc), str(exc)
    return table.dtype, table.shape, table.tobytes()


def _assert_matches_oracle(text, shape):
    assert (_outcome(parse_predicate_dsl, text, shape)
            == _outcome(dsl_oracle.parse_predicate_dsl, text, shape)), text


def test_tables_match_the_entry_at_a_time_oracle():
    rng = np.random.default_rng(27)
    for i in range(5000):
        text = (_token_expression if i % 2 else _tree_expression)(rng)
        _assert_matches_oracle(text, tuple(rng.integers(1, 5, size=4)))


@pytest.mark.parametrize("text", [
    # modulo by zero only where "and" or "or" reads the right side
    "0 and x % 0", "1 or x % 0", "x and y % x", "x or a % b",
    "x == 0 or y % x == 0", "not x or a % x", "(x or y % 0) and 1",
    "a and (b or x % a) and y % b", "x and 1 % 0", "x xor y % x",
    # chains of 3,000 terms, and parentheses and unary operators nested
    # MAX_NESTING deep
    " + ".join(["x"] * 3000), " - ".join(["a"] * 3000),
    " and ".join(["x"] + ["y % x"] * 2999), " or ".join(["b % a"] * 3000),
    " * ".join(["(b + 1)"] * 3000),
    "(" * MAX_NESTING + "x % y" + ")" * MAX_NESTING,
    "x and " + "(" * MAX_NESTING + "y % x" + ")" * MAX_NESTING,
    "not " * MAX_NESTING + "x", "-" * MAX_NESTING + "a % 3",
    # a large literal divided by a literal, by an array, or by a zero that
    # is not read
    "12345678901234567890 % 7 == x", "-11111111111111111111 % 3 == y + a",
    "(x + 98765432109876543210) % (b + 2) == a",
    "0 and 12345678901234567890 % 0"],
    ids=lambda text: text if len(text) <= 40 else f"{text[:30]}...")
def test_short_circuits_chains_and_nesting_match_the_oracle(text):
    _assert_matches_oracle(text, (2, 3, 2, 2))


@pytest.mark.parametrize("shape", [(0, 2, 2, 2), (2, 2, 2, 0)])
def test_an_empty_table_evaluates_nothing(shape):
    assert parse_predicate_dsl("1 % 0", *shape).shape == shape
    _assert_matches_oracle("1 % 0", shape)


TWO_CLAUSE = "(a + b) % 2 == x * y % 2 and a != b"
PRODUCT_HEAVY = "x * y * a * b % 7 == (x + y + a + b) % 7 or x - a == y - b"


def test_a_table_is_evaluated_whole():
    start = time.perf_counter()
    table = parse_predicate_dsl(TWO_CLAUSE, 32, 32, 32, 32)
    elapsed = time.perf_counter() - start
    x, y, a, b = np.indices(table.shape)
    assert np.array_equal(table, ((a + b) % 2 == x * y % 2) & (a != b))
    # the entry-at-a-time oracle takes about 4 s
    assert elapsed < 1.0


# the most memory an evaluation takes beyond its float table; measured at
# most 0.96 MB on these inputs with blocks of 2^14 entries
EXTRA_BYTES = 2 << 20


@pytest.mark.parametrize("shape", [(32, 32, 32, 32), (1, 1, 1024, 1024)],
                         ids=["32^4", "1x1x1024x1024"])
@pytest.mark.parametrize("text", [TWO_CLAUSE, PRODUCT_HEAVY],
                         ids=["two-clause", "product-heavy"])
def test_evaluation_memory_is_bounded_by_blocks(shape, text):
    tracemalloc.start()
    try:
        table = parse_predicate_dsl(text, *shape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= table.nbytes + EXTRA_BYTES
