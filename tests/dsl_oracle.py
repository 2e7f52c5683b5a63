"""Entry-at-a-time evaluation of predicate expressions, kept as the oracle of
the whole-table one in `gamebounds.dsl`: the AST is walked once per
(x, y, a, b), and "and"/"or" evaluate their right side only when it
decides the value.  Also the character-at-a-time tokenizer, the oracle of
the regular-expression one."""

from __future__ import annotations

import numpy as np

from gamebounds.dsl import VARIABLES, DslError, parse_expr

_TWO_CHAR = ("==", "!=")
_ONE_CHAR = "+-*%()"
_KEYWORDS = ("and", "or", "not", "xor")


def tokenize(text: str) -> list[tuple[str, object, int]]:
    """`dsl._tokenize`, one character at a time."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if text[i:i + 2] in _TWO_CHAR:
            tokens.append(("op", text[i:i + 2], i))
            i += 2
        elif c in _ONE_CHAR:
            tokens.append(("op", c, i))
            i += 1
        elif c.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word in _KEYWORDS:
                tokens.append(("op", word, i))
            elif word in VARIABLES:
                tokens.append(("var", word, i))
            else:
                raise DslError(f"unknown identifier '{word}'", i)
            i = j
        else:
            raise DslError(f"unexpected character {c!r}", i)
    tokens.append(("end", None, n))
    return tokens


def eval_expr(node, env: dict[str, int]) -> int:
    """Evaluate an AST over integer variable bindings."""
    kind = node[0]
    if kind == "int":
        return node[1]
    if kind == "var":
        return env[node[1]]
    if kind == "unary":
        v = eval_expr(node[2], env)
        return (0 if v else 1) if node[1] == "not" else -v
    # a chain a op b op c ... nests to the left; walk it with a loop, so
    # that only parentheses and unary operators deepen the recursion
    chain = []
    while node[0] == "binary":
        chain.append(node)
        node = node[2]
    value = eval_expr(node, env)
    for _, op, _, right in reversed(chain):
        value = _apply(op, value, right, env)
    return value


def _apply(op: str, lv: int, right, env: dict[str, int]) -> int:
    """lv op right; and/or evaluate right only when it decides the value."""
    if op == "and":
        return 1 if (lv != 0 and eval_expr(right, env) != 0) else 0
    if op == "or":
        return 1 if (lv != 0 or eval_expr(right, env) != 0) else 0
    rv = eval_expr(right, env)
    if op == "xor":
        return 1 if (lv != 0) != (rv != 0) else 0
    if op == "==":
        return 1 if lv == rv else 0
    if op == "!=":
        return 1 if lv != rv else 0
    if op == "+":
        return lv + rv
    if op == "-":
        return lv - rv
    if op == "*":
        return lv * rv
    if op == "%":
        if rv == 0:
            raise DslError("modulo by zero", 0)
        return lv % rv
    raise AssertionError(f"unhandled operator {op}")


def parse_predicate_dsl(text: str, nx: int, ny: int, na: int, nb: int) -> np.ndarray:
    """`dsl.parse_predicate_dsl`, one table entry at a time."""
    ast = parse_expr(text)
    table = np.zeros((nx, ny, na, nb))
    for x in range(nx):
        for y in range(ny):
            for a in range(na):
                for b in range(nb):
                    v = eval_expr(ast, {"x": x, "y": y, "a": a, "b": b})
                    table[x, y, a, b] = 1.0 if v != 0 else 0.0
    return table
