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
sign of the divisor, so non-negative here).  A table is evaluated one block
at a time, over open grids of the block's indices that hold Python ints, so
no value overflows.  "and" and "or" read their right side only where the
left one does not decide, and % by zero is an error only where it is read.

Parentheses and unary operators may nest at most MAX_NESTING deep, so that
neither parsing nor evaluation can exhaust the interpreter's stack; chains
of binary operators may be of any length.
"""

from __future__ import annotations

import itertools
import operator
import re

import numpy as np

VARIABLES = ("x", "y", "a", "b")
MAX_NESTING = 32
# a table is evaluated a block of at most this many entries at a time
_BLOCK_ENTRIES = 1 << 14


class DslError(ValueError):
    """Lexing, parsing or evaluation error, carrying a 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# after any whitespace: an operator, a run of decimal digits, a word (which
# must start with a letter or "_"), or any other character
_TOKEN = re.compile(r"\s*(?:(==|!=|[-+*%()])|(\d+)|(\w+)|(\S))")
_KEYWORDS = ("and", "or", "not", "xor")


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens = []
    for m in _TOKEN.finditer(text):
        op, digits, word, other = m.groups()
        at = m.start(m.lastindex)
        if op or word in _KEYWORDS:
            tokens.append(("op", op or word, at))
        elif digits:
            try:
                tokens.append(("int", int(digits), at))
            except ValueError:  # past sys.get_int_max_str_digits()
                raise DslError(f"integer literal of {len(digits)} digits is "
                               "too long", at) from None
        elif word in VARIABLES:
            tokens.append(("var", word, at))
        elif word and (word[0].isalpha() or word[0] == "_"):
            raise DslError(f"unknown identifier '{word}'", at)
        else:
            raise DslError(f"unexpected character {(other or word[0])!r}", at)
    tokens.append(("end", None, len(text)))
    return tokens


# AST nodes are ("int", v), ("var", name), ("unary", op, child),
# ("binary", op, left, right).


# the binary operators of each precedence level, loosest first
_LEVELS = (("or",), ("xor",), ("and",), ("==", "!="), ("+", "-"), ("*", "%"))
# binary operators, and where "and" and "or" read their right operand
_OPS = {"or": lambda lv, rv: (lv != 0) | (rv != 0),
        "xor": lambda lv, rv: (lv != 0) ^ (rv != 0),
        "and": lambda lv, rv: (lv != 0) & (rv != 0),
        "==": operator.eq, "!=": operator.ne, "+": operator.add,
        "-": operator.sub, "*": operator.mul, "%": operator.mod}
_READS = {"or": lambda lv: lv == 0, "and": lambda lv: lv != 0}


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
    return int(_evaluate(node, env, True))


def _evaluate(node, env, live):
    """node's value over bindings that are ints or broadcasting object arrays
    of ints; only entries where live holds raise, the rest are arbitrary."""
    if node[0] in ("int", "var"):
        return env[node[1]] if node[0] == "var" else node[1]
    if node[0] == "unary":
        v = _evaluate(node[2], env, live)
        return _as_int(v == 0) if node[1] == "not" else -v
    # a chain a op b op c ... nests to the left; walk it with a loop, so
    # that only parentheses and unary operators deepen the recursion
    chain = []
    while node[0] == "binary":
        chain.append(node)
        node = node[2]
    value = _evaluate(node, env, live)
    for _, op, _, right in reversed(chain):
        rv = _evaluate(right, env,
                       live & _READS[op](value) if op in _READS else live)
        if op == "%":
            zero = rv == 0
            if np.any(zero & live):
                raise DslError("modulo by zero", 0)
            # dead entries divide by 1; an int64 divisor can overflow big ints
            rv = np.where(zero, 1, rv) if np.ndim(rv) else rv or 1
        value = _as_int(_OPS[op](value, rv))
    return value


def _as_int(v):
    """A bool array as an object array of the ints False and True."""
    return v.astype(object) if getattr(v, "dtype", None) == bool else v


def parse_predicate_dsl(text: str, nx: int, ny: int, na: int, nb: int) -> np.ndarray:
    """Evaluate a predicate expression on every quadruple.

    Returns a 0/1 table of shape (nx, ny, na, nb); any nonzero integer result
    counts as a win.
    """
    ast = parse_expr(text)
    table = np.zeros((nx, ny, na, nb))
    # blocks of at most _BLOCK_ENTRIES entries, the last axes whole if they fit
    steps, room = [], _BLOCK_ENTRIES
    for n in reversed(table.shape):
        steps.insert(0, max(1, min(n, room)))
        room //= max(n, 1)
    for block in itertools.product(*(
            [slice(i, min(i + step, n)) for i in range(0, n, step)]
            for n, step in zip(table.shape, steps))):
        grids = [g.astype(object) for g in np.ogrid[block]]
        table[block] = _evaluate(ast, dict(zip(VARIABLES, grids)), True) != 0
    return table
