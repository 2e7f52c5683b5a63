"""Game graphs: one vertex per winning quadruple, edges marking incompatible answers.

Two winning quadruples (x,y,a,b) and (x',y',a',b') are adjacent when the two
players could not both be playing a single deterministic strategy that emits
them: same x with different a, or same y with different b.  An independent
set therefore picks at most one consistent answer pair per question pair.

A ``GameGraph`` is a ``Graph`` with its quadruples, the game's question-pair
count and, for the weighted construction, vertex weights; every algorithm on
a ``Graph`` takes it as it is.  Every builder goes through ``_graph_on``,
which refuses more than VERTEX_CAP vertices before it builds one.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .games import Game, SizeCapError

# Vertices of a graph the exact search takes, and of a DIMACS file
# parse_dimacs reads; fixed.  Every game-graph builder counts a game's
# vertices against it before building the graph.
VERTEX_CAP = 512


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph with bitset adjacency rows."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        n = self.n
        if len(self.rows) != n:
            raise ValueError("adjacency row count does not match n")
        # errors in row-major order: a row's self-loop, then its bits >= n,
        # then its first entry without a mirror
        bad = next((i for i, row in enumerate(self.rows)
                    if row >> i & 1 or row >> n), n)
        rows = self.rows if bad == n else [r & ((1 << n) - 1) for r in self.rows]
        i, j = _first_asymmetry(rows, n)
        if bad < n and bad <= i:
            if self.rows[bad] >> bad & 1:
                raise ValueError(f"self-loop at vertex {bad}")
            raise ValueError(f"adjacency row {bad} references vertices >= n")
        if i < n:
            raise ValueError(f"adjacency not symmetric at ({i},{j})")

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        """The graph on vertices 0..n-1 with the (i, j) pairs of edges, whose
        endpoints may be any integers, numpy's included; a self-loop, or an
        endpoint that is not an integer in 0..n-1, raises a ValueError that
        names it."""
        rows = [0] * n
        for i, j in edges:
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            # a try costs nothing until it catches: bad endpoints are found
            # by the conversion, indexing and shifting that good ones need
            # anyway; both rows are read before either shift, so an endpoint
            # past n fails before 1 << it is built
            try:
                a, b = operator.index(i), operator.index(j)
                row_a, row_b = rows[a], rows[b]
                rows[a] = row_a | 1 << b
                rows[b] = row_b | 1 << a
            except (IndexError, TypeError, ValueError):
                raise ValueError(f"edge ({i!r}, {j!r}): endpoints must be "
                                 f"integers in 0..{n - 1}") from None
        return Graph(n, tuple(rows))

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for i in range(self.n):
            row = self.rows[i] >> (i + 1) << (i + 1)
            while row:
                low = row & -row
                out.append((i, low.bit_length() - 1))
                row ^= low
        return out

    @property
    def num_edges(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def degree(self, i: int) -> int:
        return self.rows[i].bit_count()


def _checked_weights(g: Graph, weights) -> np.ndarray:
    """weights as a float vector, refused with a ValueError unless it holds
    one finite, non-negative number per vertex of g; the one weight rule of
    the weighted independence search and weighted theta."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (g.n,):
        raise ValueError("weight vector length does not match vertex count")
    if not np.all(np.isfinite(w) & (w >= 0.0)):
        raise ValueError("weights must be finite and non-negative")
    return w


def _first_asymmetry(rows, n: int) -> tuple[int, int]:
    """The first (i, j) in row-major order with bit j set in row i and bit i
    clear in row j, or (n, n).  The rows are unpacked into a bit matrix and
    compared with its transpose, in blocks of about 2^24 entries."""
    step = max(1, (1 << 24) // max(n, 1))
    for start in range(0, n, step):
        stop = min(n, start + step)
        block = bit_matrix(rows[start:stop], n)
        # columns start:stop of every row: the block itself when it holds
        # every row
        window = (1 << (stop - start)) - 1
        mirror = block if stop - start == n else bit_matrix(
            [r >> start & window for r in rows], stop - start)
        found = np.argwhere(block > mirror.T)
        if len(found):
            return start + int(found[0, 0]), int(found[0, 1])
    return n, n


def bit_matrix(rows, n: int) -> np.ndarray:
    """The bitsets rows, of n bits each, as a len(rows) x n 0/1 uint8
    matrix: entry (i, j) is bit j of rows[i]."""
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(r.to_bytes(width, "little") for r in rows),
                           np.uint8).reshape(len(rows), width)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little")


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def empty_graph(n: int) -> Graph:
    return Graph(n, tuple([0] * n))


@dataclass(frozen=True)
class GameGraph(Graph):
    """Graph on the winning quadruples of a game, in lexicographic order.

    Vertex i is the quadruple ``vertices[i]``.  ``weights`` is None for the
    plain 0/1 construction; for the weighted construction
    weight(v) = predicate(v) * pi(x, y).
    """

    vertices: tuple[tuple[int, int, int, int], ...]
    source_k: int
    weights: tuple[float, ...] | None = None

    def objective(self) -> tuple[tuple[float, ...], int]:
        """Vertex weights and divisor of the bound pipeline.

        The classical value is the maximum-weight independent set over the
        divisor, and weighted theta over the divisor bounds the entangled
        value: unit weights over k for the 0/1 construction, the weights
        over 1 for the weighted one.
        """
        if self.weights is None:
            return (1.0,) * self.n, self.source_k
        return self.weights, 1


def _adjacency(vertices) -> tuple[int, ...]:
    """Adjacency rule: same x with a different a, or same y with a different
    b.  Every vertex asked x and answering a has the same x side: the
    vertices asked x less those answering a; likewise for y.  Both sides are
    built once per (question, answer), and a row is the OR of its two."""
    sides = []
    for q in (0, 1):  # question x with answer a, then y with answer b
        answered: dict[tuple[int, int], int] = {}
        asked: dict[int, int] = {}
        for idx, v in enumerate(vertices):
            bit = 1 << idx
            key = (v[q], v[q + 2])
            answered[key] = answered.get(key, 0) | bit
            asked[v[q]] = asked.get(v[q], 0) | bit
        sides.append({key: asked[key[0]] & ~mask
                      for key, mask in answered.items()})
    by_x, by_y = sides
    return tuple(by_x[x, a] | by_y[y, b] for x, y, a, b in vertices)


def _graph_on(g: Game, table: np.ndarray, weighted: bool) -> GameGraph:
    """Game graph on the quadruples where ``table`` is positive, in
    lexicographic order, weighted by their table entries when asked.  More
    than VERTEX_CAP of them raise SizeCapError before any vertex is built."""
    positive = table > 0.0
    n = int(np.count_nonzero(positive))
    if n > VERTEX_CAP:
        raise SizeCapError(
            f"game graph would have {n} vertices (cap {VERTEX_CAP})")
    vertices = tuple(map(tuple, np.argwhere(positive).tolist()))
    weights = tuple(table[positive].tolist()) if weighted else None
    return GameGraph(n, _adjacency(vertices), vertices, g.k, weights)


def build_game_graph(g: Game) -> GameGraph:
    """Game graph of a 0/1 game: vertices are the winning quadruples."""
    if not g.is_boolean():
        raise ValueError("game has a non-boolean predicate; certificates "
                         "need a 0/1 predicate")
    return _graph_on(g, g.predicate, False)


def build_weighted_game_graph(g: Game) -> GameGraph:
    """Weighted game graph: vertex weight = predicate * input probability.

    Quadruples of zero weight (predicate zero, or question probability zero)
    are dropped: they can never contribute to a strategy's value and would
    only inflate the downstream optimization problems.
    """
    return _graph_on(g, g.predicate * g.distribution[:, :, None, None], True)


def pipeline_graph(g: Game, weighted: bool = False) -> GameGraph:
    """The game graph the bound pipeline runs on.

    Uniform 0/1 games get the 0/1 construction, so their values come out as
    alpha/k and theta/k; every other game, and any game when ``weighted`` is
    set, gets the weighted construction.  Either has one vertex per
    quadruple of positive weight, and either refuses a game with more than
    VERTEX_CAP of them.
    """
    if weighted or not (g.is_boolean() and g.is_uniform()):
        return build_weighted_game_graph(g)
    return build_game_graph(g)


def to_plain_graph(gg: GameGraph) -> Graph:
    """The adjacency of a game graph, without labels or weights."""
    return Graph(gg.n, gg.rows)


def to_dimacs(gg: GameGraph) -> str:
    """DIMACS-style edge list (1-based vertex numbers)."""
    lines = [f"p edge {gg.n} {gg.num_edges}"]
    for i, j in gg.edges():
        lines.append(f"e {i + 1} {j + 1}")
    return "\n".join(lines) + "\n"


def dimacs_sidecar(gg: GameGraph) -> dict:
    """JSON sidecar mapping vertex index (0-based) to quadruple and weight."""
    entries = []
    for idx, quad in enumerate(gg.vertices):
        entry = {"index": idx, "quadruple": list(quad)}
        if gg.weights is not None:
            entry["weight"] = gg.weights[idx]
        entries.append(entry)
    return {"num_vertices": gg.n, "num_edges": gg.num_edges,
            "source_k": gg.source_k, "vertices": entries}


def _dimacs_number(lineno: int, what: str, token: str) -> int:
    """token as a non-negative integer, or a ValueError naming its line."""
    if not token.isdecimal():
        raise ValueError(f"line {lineno}: {what} {token!r} is not a "
                         "non-negative integer")
    return int(token)


def parse_dimacs(text: str) -> Graph:
    """Read a DIMACS edge list back into a plain graph of at most VERTEX_CAP
    vertices; a larger vertex count raises SizeCapError.  Every error names
    its line."""
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "edge" or n is not None:
                raise ValueError(f"line {lineno}: malformed problem line")
            n = _dimacs_number(lineno, "vertex count", parts[2])
            if n > VERTEX_CAP:
                raise SizeCapError(f"line {lineno}: graph has {n} vertices "
                                   f"(cap {VERTEX_CAP})")
            _dimacs_number(lineno, "edge count", parts[3])
        elif parts[0] == "e":
            if n is None:
                raise ValueError(f"line {lineno}: edge before problem line")
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: malformed edge line")
            u, v = (_dimacs_number(lineno, "edge endpoint", t)
                    for t in parts[1:])
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(
                    f"line {lineno}: edge endpoint outside 1..{n}")
            if u == v:
                raise ValueError(f"line {lineno}: self-loop at vertex {u}")
            edges.append((u - 1, v - 1))
        else:
            raise ValueError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise ValueError("missing problem line")
    return Graph.from_edges(n, edges)
