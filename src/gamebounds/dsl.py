"""A small expression language for game predicates over the variables x, y, a, b.

Grammar; the binary levels are the rows of the table _LEVELS, loosest
first, so that level 0 is "or" and level 5 is "*" and "%":

    expr     := level_0
    level_i  := level_i+1 (op_i level_i+1)*    op_i an operator of row i
    level_6  := unary
    unary    := "not" unary | "-" unary | integer | "x" | "y" | "a" | "b"
              | "(" expr ")"

Each level chains to the left, except that a comparison ("==" or "!=")
takes at most one right operand.

Values are integers. Boolean operators and comparisons return 0/1 and treat
any nonzero operand as true; % is the mathematical modulo (result has the
sign of the divisor, so non-negative here).

Parentheses and unary operators may nest at most MAX_NESTING deep, so that
neither parsing nor evaluation can exhaust the interpreter's stack; chains
of binary operators may be of any length.
"""

from __future__ import annotations

import numpy as np

VARIABLES = ("x", "y", "a", "b")
MAX_NESTING = 32


class DslError(ValueError):
    """Lexing, parsing or evaluation error, carrying a 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TWO_CHAR = ("==", "!=")
_ONE_CHAR = "+-*%()"
_KEYWORDS = ("and", "or", "not", "xor")


def _tokenize(text: str) -> list[tuple[str, object, int]]:
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
        elif c.isdigit():
            j = i
            while j < n and text[j].isdigit():
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


# AST nodes are ("int", v), ("var", name), ("unary", op, child),
# ("binary", op, left, right).


# the binary operators of each precedence level, loosest first
_LEVELS = (("or",), ("xor",), ("and",), ("==", "!="), ("+", "-"), ("*", "%"))


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.nesting = 0

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self):
        node = self.binary()
        kind, _, at = self.tokens[self.pos]
        if kind != "end":
            raise DslError("trailing input after expression", at)
        return node

    def binary(self, level=0):
        """Parse the operators of _LEVELS[level] and tighter ones."""
        if level == len(_LEVELS):
            return self.unary()
        node = self.binary(level + 1)
        # no literal or variable equals an operator, so the value decides
        while self.tokens[self.pos][1] in _LEVELS[level]:
            op = self.take()[1]
            node = ("binary", op, node, self.binary(level + 1))
            if op in ("==", "!="):
                break
        return node

    def nested(self, at, parse):
        """Run parse one nesting level deeper, refusing past MAX_NESTING."""
        if self.nesting == MAX_NESTING:
            raise DslError(f"nested more than {MAX_NESTING} levels deep", at)
        self.nesting += 1
        node = parse()
        self.nesting -= 1
        return node

    def unary(self):
        kind, val, at = self.take()
        if kind in ("int", "var"):
            return (kind, val)
        if val in ("not", "-"):
            return ("unary", val, self.nested(at, self.unary))
        if val == "(":
            node = self.nested(at, self.binary)
            _, val, at = self.take()
            if val != ")":
                raise DslError("expected ')'", at)
            return node
        raise DslError("expected a value", at)


def parse_expr(text: str):
    """Parse the expression into an AST; raises DslError on malformed input."""
    return _Parser(_tokenize(text)).parse()


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
    """Evaluate a predicate expression on every quadruple.

    Returns a 0/1 table of shape (nx, ny, na, nb); any nonzero integer result
    counts as a win.
    """
    ast = parse_expr(text)
    table = np.zeros((nx, ny, na, nb))
    for x in range(nx):
        for y in range(ny):
            for a in range(na):
                for b in range(nb):
                    v = eval_expr(ast, {"x": x, "y": y, "a": a, "b": b})
                    table[x, y, a, b] = 1.0 if v != 0 else 0.0
    return table
