"""Exact (weighted) maximum independent set and classical game values.

The classical value of a game is the maximum weight of an independent set of
its game graph over the graph's divisor: unit weights over the number of
question pairs for a 0/1 predicate with uniform questions, the weights
predicate * probability over 1 otherwise.  An exhaustive search over one
player's strategies, the other best-responding, is an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .games import ClassicalStrategy, Game, SizeCapError
from .gamegraph import GameGraph, Graph, pipeline_graph

DEFAULT_VERTEX_CAP = 512
DEFAULT_BRUTE_CAP = 1 << 24


@dataclass(frozen=True)
class IndependenceResult:
    """Exact optimum with a witness set and search statistics."""

    value: float
    witness: tuple[int, ...]
    nodes_explored: int


def _greedy_cover_order(candidates: int, adj: list[int], weights,
                        order: list[int]):
    """Greedy clique cover of the candidate set.

    Returns (vertices, bounds): vertices grouped by cover class, and for each
    position the cumulative bound over classes up to and including its own.
    Any independent set inside the candidates picks at most one vertex per
    clique, so the cumulative bound prunes whole suffixes at once.
    """
    classes: list[int] = []       # bitmask per clique
    class_best: list[float] = []  # heaviest vertex per clique
    members: list[list[int]] = []
    for v in order:
        if not (candidates >> v) & 1:
            continue
        placed = False
        for c, mask in enumerate(classes):
            # v joins a clique only if adjacent to every current member
            if mask & ~adj[v] == 0:
                classes[c] |= 1 << v
                members[c].append(v)
                if weights[v] > class_best[c]:
                    class_best[c] = weights[v]
                placed = True
                break
        if not placed:
            classes.append(1 << v)
            class_best.append(weights[v])
            members.append([v])
    vertices: list[int] = []
    bounds: list[float] = []
    running = 0.0
    for c, group in enumerate(members):
        running += class_best[c]
        for v in group:
            vertices.append(v)
            bounds.append(running)
    return vertices, bounds


def _max_weight_independent_set(n: int, adj: list[int], weights) -> tuple[float, int, int]:
    """Branch and bound over bitset candidate sets.

    Vertices are branched in reverse greedy-cover order so the cumulative
    clique bound prunes early.  Returns (best weight, best mask, nodes).
    """
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    best_weight = 0.0
    best_mask = 0
    nodes = 0

    def expand(candidates: int, current_weight: float, current_mask: int):
        nonlocal best_weight, best_mask, nodes
        nodes += 1
        verts, bounds = _greedy_cover_order(candidates, adj, weights, order)
        prefix = [0] * (len(verts) + 1)
        for i, v in enumerate(verts):
            prefix[i + 1] = prefix[i] | (1 << v)
        for idx in range(len(verts) - 1, -1, -1):
            if current_weight + bounds[idx] <= best_weight + 1e-12:
                return
            v = verts[idx]
            picked_weight = current_weight + weights[v]
            picked_mask = current_mask | (1 << v)
            child = prefix[idx] & ~adj[v]
            if child:
                expand(child, picked_weight, picked_mask)
            elif picked_weight > best_weight + 1e-12:
                best_weight = picked_weight
                best_mask = picked_mask
            # not picking v: fall through to the earlier prefix

    if n:
        expand((1 << n) - 1, 0.0, 0)
    return best_weight, best_mask, nodes


def _mask_to_witness(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _independence(g: Graph, weights: list[float],
                  vertex_cap: int) -> IndependenceResult:
    if g.n > vertex_cap:
        raise SizeCapError(f"graph has {g.n} vertices (cap {vertex_cap})")
    _, mask, nodes = _max_weight_independent_set(g.n, list(g.rows), weights)
    witness = _mask_to_witness(mask)
    return IndependenceResult(float(sum(weights[v] for v in witness)), witness,
                              nodes)


def independence_number(g: Graph, vertex_cap: int = DEFAULT_VERTEX_CAP) -> IndependenceResult:
    """Exact maximum independent set size with a witness."""
    return _independence(g, [1.0] * g.n, vertex_cap)


def weighted_independence(g: Graph, weights,
                          vertex_cap: int = DEFAULT_VERTEX_CAP) -> IndependenceResult:
    """Exact maximum-weight independent set with a witness."""
    weights = [float(w) for w in weights]
    if len(weights) != g.n:
        raise ValueError("weight vector length does not match vertex count")
    if not all(math.isfinite(w) and w >= 0.0 for w in weights):
        raise ValueError("weights must be finite and non-negative")
    return _independence(g, weights, vertex_cap)


@dataclass(frozen=True)
class ClassicalValueResult:
    """Classical value plus a witness strategy read off the independent set."""

    value: float
    exact: Fraction | None
    strategy: ClassicalStrategy
    alpha: IndependenceResult
    graph: GameGraph


def _strategy_from_witness(g: Game, gg: GameGraph, witness) -> ClassicalStrategy:
    """Each question index appears with a single answer inside an independent
    set; unconstrained questions answer 0 (deterministic tie-break: the
    lowest-index vertices win, matching the solver's witness order)."""
    fa = [None] * g.nx
    fb = [None] * g.ny
    for v in sorted(witness):
        x, y, a, b = gg.vertices[v]
        if fa[x] is None:
            fa[x] = a
        if fb[y] is None:
            fb[y] = b
    return ClassicalStrategy(tuple(a if a is not None else 0 for a in fa),
                             tuple(b if b is not None else 0 for b in fb))


def classical_value(g: Game, vertex_cap: int = DEFAULT_VERTEX_CAP) -> ClassicalValueResult:
    """Exact classical value via the game graph.

    The maximum-weight independent set of the pipeline graph over its
    divisor; for uniform 0/1 games that is alpha/k, also given as an exact
    rational.
    """
    gg = pipeline_graph(g)
    weights, divisor = gg.objective()
    alpha = weighted_independence(gg.graph, weights, vertex_cap)
    exact = (Fraction(len(alpha.witness), divisor) if gg.weights is None
             else None)
    strategy = _strategy_from_witness(g, gg, alpha.witness)
    return ClassicalValueResult(alpha.value / divisor, exact, strategy, alpha,
                                gg)


@dataclass(frozen=True)
class BruteForceResult:
    """Exhaustive-enumeration optimum over deterministic strategy pairs."""

    value: float
    strategy: ClassicalStrategy
    wins: int | None   # winning question pairs, when exactly countable
    k: int

    @property
    def exact(self) -> Fraction | None:
        return Fraction(self.wins, self.k) if self.wins is not None else None


def _all_functions(domain: int, codomain: int) -> np.ndarray:
    """All codomain**domain functions as rows of an array, row-major packed."""
    count = codomain ** domain
    table = np.empty((count, domain), dtype=np.int64)
    for pos in range(domain):
        period = codomain ** (domain - 1 - pos)
        table[:, pos] = (np.arange(count) // period) % codomain
    return table


def classical_value_brute(g: Game, cap: int = DEFAULT_BRUTE_CAP) -> BruteForceResult:
    """Exact classical value: the side with fewer strategies (Alice on a
    tie) is listed whole, the other best-responds per question; ties go to
    the lowest listed row, then the lowest answer.  The cap counts strategy
    pairs.  Independent of the game-graph machinery, as a cross-check.
    """
    n_pairs = (g.na ** g.nx) * (g.nb ** g.ny)
    if n_pairs > cap:
        raise SizeCapError(f"{n_pairs} strategy pairs exceed cap {cap}")
    counted = g.is_boolean() and g.is_uniform()  # sums are exact integers
    table, divisor = ((g.predicate, g.k) if counted else
                      (g.predicate * g.distribution[:, :, None, None], 1))
    alice_listed = g.na ** g.nx <= g.nb ** g.ny
    if not alice_listed:
        table = table.transpose(1, 0, 3, 2)
    listed = _all_functions(table.shape[0], table.shape[2])
    # score[s, q, r]: the listed side plays row s, the other answers r to q
    by_answer = table.transpose(0, 2, 1, 3)
    score = np.zeros((len(listed),) + by_answer.shape[2:])
    for question, answers in enumerate(listed.T):
        score += by_answer[question, answers]
    totals = score.max(axis=2).sum(axis=1)
    best = int(np.argmax(totals))
    own = tuple(int(v) for v in listed[best])
    other = tuple(int(v) for v in score[best].argmax(axis=1))
    strategy = (ClassicalStrategy(own, other) if alice_listed
                else ClassicalStrategy(other, own))
    wins = int(totals[best]) if counted else None
    return BruteForceResult(float(totals[best]) / divisor, strategy, wins, g.k)
