"""Shared helpers: random game generation and small brute-force oracles."""

from __future__ import annotations

import itertools

import numpy as np

from gamebounds.games import Game, uniform_distribution
from gamebounds.gamegraph import Graph, build_game_graph, to_plain_graph


def random_boolean_game(rng: np.random.Generator, max_size: int = 3,
                        uniform: bool = True, density: float = 0.5) -> Game:
    nx, ny, na, nb = (int(rng.integers(2, max_size + 1)) for _ in range(4))
    lam = (rng.random((nx, ny, na, nb)) < density).astype(float)
    if uniform:
        pi = uniform_distribution(nx, ny)
    else:
        raw = rng.integers(1, 10, size=(nx, ny)).astype(float)
        pi = raw / raw.sum()
    return Game("random", nx, ny, na, nb, lam, pi)


def random_graph(rng: np.random.Generator, n: int, p: float = 0.5) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return Graph.from_edges(n, edges)


def criterion7_random_graphs(count, games=0):
    """The first random graphs of the criterion-7 battery, then the graphs
    of its first random uniform games that have a vertex."""
    rng = np.random.default_rng(4096)
    graphs = []
    for _ in range(count):
        n = int(rng.integers(2, 15))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < rng.uniform(0.2, 0.8)]
        graphs.append(Graph.from_edges(n, edges))
    for _ in range(games):
        graph = to_plain_graph(build_game_graph(random_boolean_game(rng)))
        if graph.n:
            graphs.append(graph)
    return graphs


def disjoint_union(g: Graph, h: Graph) -> Graph:
    edges = g.edges() + [(i + g.n, j + g.n) for i, j in h.edges()]
    return Graph.from_edges(g.n + h.n, edges)


def eval_predicate(g: Game, x: int, y: int, a: int, b: int) -> float:
    """Predicate value for one question/answer quadruple."""
    if not (0 <= x < g.nx and 0 <= y < g.ny and 0 <= a < g.na and 0 <= b < g.nb):
        raise IndexError(
            f"quadruple ({x},{y},{a},{b}) out of range for sizes "
            f"{g.nx},{g.ny},{g.na},{g.nb}")
    return float(g.predicate[x, y, a, b])


def alpha_by_enumeration(g: Graph) -> int:
    """Exhaustive subset check; usable up to ~20 vertices."""
    best = 0
    for mask in range(1 << g.n):
        ok = True
        m = mask
        while m:
            low = m & -m
            i = low.bit_length() - 1
            if g.rows[i] & mask:
                ok = False
                break
            m ^= low
        if ok:
            best = max(best, mask.bit_count())
    return best


def max_weight_by_enumeration(g: Graph, weights) -> float:
    best = 0.0
    for mask in range(1 << g.n):
        total = 0.0
        ok = True
        m = mask
        while m:
            low = m & -m
            i = low.bit_length() - 1
            if g.rows[i] & mask:
                ok = False
                break
            total += weights[i]
            m ^= low
        if ok:
            best = max(best, total)
    return best


def naive_game_graph_edges(vertices) -> set[tuple[int, int]]:
    """Reference edge builder: the raw adjacency condition over all pairs."""
    edges = set()
    for i, j in itertools.combinations(range(len(vertices)), 2):
        x, y, a, b = vertices[i]
        x2, y2, a2, b2 = vertices[j]
        if (x == x2 and a != a2) or (y == y2 and b != b2):
            edges.add((i, j))
    return edges


def exhaustive_strategy_value(g: Game) -> float:
    """Direct nested-loop maximum over deterministic strategy pairs."""
    best = 0.0
    for fa in itertools.product(range(g.na), repeat=g.nx):
        for fb in itertools.product(range(g.nb), repeat=g.ny):
            total = 0.0
            for x in range(g.nx):
                for y in range(g.ny):
                    total += g.distribution[x, y] * g.predicate[x, y, fa[x], fb[y]]
            best = max(best, total)
    return best
