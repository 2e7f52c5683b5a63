"""Shared helpers: random game generation and small brute-force oracles."""

from __future__ import annotations

import importlib.util
import itertools
import pathlib
import sys

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


def benchmark_classical_games(seed: int) -> list[Game]:
    """The benchmark's ``classical`` corpus as relabelled at ``seed``, in
    the benchmark's order, without the round trip through a game file."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    corpus = sys.modules.get(spec.name)
    if corpus is None:
        corpus = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = corpus  # dataclasses look their module up
        spec.loader.exec_module(corpus)
    rng = np.random.default_rng(seed)
    return [corpus.relabel_game(g, rng) for g in corpus._classical_corpus()]


def oracle_games(rng: np.random.Generator, count: int) -> list[Game]:
    """Random games with 1-4 questions and answers a side, in turn uniform
    0/1, weighted 0/1, uniform with predicate entries in {0, 1/3, 2/3, 1},
    and all-zero."""
    out = []
    for i in range(count):
        sizes = tuple(int(v) for v in rng.integers(1, 5, 4))
        lam = (rng.random(sizes) < rng.uniform(0.2, 0.8)).astype(float)
        raw = np.ones(sizes[:2])
        if i % 4 == 1:
            raw = rng.integers(1, 10, sizes[:2]).astype(float)
        elif i % 4 == 2:
            lam *= rng.integers(1, 4, sizes) / 3
        elif i % 4 == 3:
            lam[:] = 0.0
        out.append(Game(f"oracle-{i}", *sizes, lam, raw / raw.sum()))
    return out
