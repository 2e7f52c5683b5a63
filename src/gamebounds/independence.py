"""Exact (weighted) maximum independent set and classical game values.

The classical value of a game is the maximum weight of an independent set of
its game graph over the graph's divisor: unit weights over the number of
question pairs for a 0/1 predicate with uniform questions, the weights
predicate * probability over 1 otherwise.  Three routes compute maxima:

- the game search (``classical_value``, whose result the ``analyze`` report
  prints): a depth-first search over one player's answers, question by
  question, while the other player best-responds; the independent set is the
  set of game graph vertices that the best strategy pair wins;
- graph branch and bound (``independence_number``, ``weighted_independence``)
  on plain graphs, bounded by a first-fit clique cover peeled off bitsets one
  class at a time; its rows are relabelled, and its witness read, through
  ``gamegraph.bit_matrix``;
- ``classical_value_brute``: every strategy of one player scored by prefix
  sums, the other best-responding, an oracle independent of both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import gamegraph
from .games import ClassicalStrategy, Game, SizeCapError
from .gamegraph import GameGraph, Graph, bit_matrix, pipeline_graph

# Deterministic strategy pairs that classical_value_brute covers; fixed.
BRUTE_CAP = 1 << 24
# Nodes of one graph branch and bound or one game search; fixed.  The game
# search of CHSH^3 opens 43,978 (about 0.4 s); graph branch and bound, at the
# 35 us per node measured on CHSH^3, runs out in about 7 s.
NODE_BUDGET = 200_000


@dataclass(frozen=True)
class IndependenceResult:
    """Exact optimum with a witness set and search statistics."""

    value: float
    witness: tuple[int, ...]
    nodes_explored: int


def _max_weight_independent_set(n: int, adj: list[int], weights
                                ) -> tuple[float, tuple[int, ...], int]:
    """Branch and bound over bitset candidate sets.

    Vertices are relabelled once to their positions in (-degree, index)
    order, so the next candidate is always the lowest set bit.  Each node
    peels a first-fit clique cover off its candidates: a class starts at the
    lowest remaining bit and takes, in order, every later remaining vertex
    adjacent to all its members.  An independent set picks at most one
    vertex per class, so the cumulative sum of class maxima bounds every
    prefix of the cover.  Vertices are branched from the end of the cover,
    each removed from the candidates before the next, so the bound prunes
    whole prefixes at once.  The search runs from an explicit stack, so its
    depth is not limited by Python's recursion limit.  Returns (best weight,
    best set in the original labels, ascending, nodes); a search that would
    open more than NODE_BUDGET nodes raises SizeCapError instead.
    """
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    packed = np.packbits(bit_matrix(adj, n)[np.ix_(order, order)], axis=1,
                         bitorder="little")
    rows = [int.from_bytes(row, "little") for row in packed]
    w = [weights[v] for v in order]
    best_weight = 0.0
    best_mask = 0
    nodes = 0
    budget = NODE_BUDGET
    # frames: [cover, bounds, untried count, remaining candidates, weight, mask]
    stack: list[list] = []

    def push(candidates: int, weight: float, mask: int):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise SizeCapError(f"independence search passed its budget of "
                               f"{budget} nodes ({n} vertices)")
        cover: list[int] = []
        bounds: list[float] = []
        rest, running = candidates, 0.0
        while rest:
            q, start, heaviest = rest, len(cover), 0.0
            while q:
                low = q & -q
                i = low.bit_length() - 1
                cover.append(i)
                if w[i] > heaviest:
                    heaviest = w[i]
                rest ^= low
                q &= rows[i]
            running += heaviest
            bounds.extend([running] * (len(cover) - start))
        stack.append([cover, bounds, len(cover), candidates, weight, mask])

    if n:
        push((1 << n) - 1, 0.0, 0)
    while stack:
        frame = stack[-1]
        cover, bounds, idx, remaining, weight, mask = frame
        idx -= 1
        if idx < 0 or weight + bounds[idx] <= best_weight + 1e-12:
            stack.pop()
            continue
        i = cover[idx]
        remaining ^= 1 << i
        frame[2], frame[3] = idx, remaining
        picked_weight = weight + w[i]
        child = remaining & ~rows[i]
        if child:
            push(child, picked_weight, mask | 1 << i)
        elif picked_weight > best_weight + 1e-12:
            best_weight, best_mask = picked_weight, mask | 1 << i
        # not picking i: the next frame step tries the earlier cover
    picked = np.flatnonzero(bit_matrix([best_mask], n)[0]).tolist()
    return best_weight, tuple(sorted(order[p] for p in picked)), nodes


def _independence(g: Graph, weights: list[float]) -> IndependenceResult:
    cap = gamegraph.VERTEX_CAP
    if g.n > cap:
        raise SizeCapError(f"graph has {g.n} vertices (cap {cap})")
    _, witness, nodes = _max_weight_independent_set(g.n, list(g.rows),
                                                    weights)
    return IndependenceResult(float(sum(weights[v] for v in witness)), witness,
                              nodes)


def independence_number(g: Graph) -> IndependenceResult:
    """Exact maximum independent set size with a witness."""
    return _independence(g, [1.0] * g.n)


def weighted_independence(g: Graph, weights) -> IndependenceResult:
    """Exact maximum-weight independent set with a witness."""
    weights = [float(w) for w in weights]
    if len(weights) != g.n:
        raise ValueError("weight vector length does not match vertex count")
    if not all(math.isfinite(w) and w >= 0.0 for w in weights):
        raise ValueError("weights must be finite and non-negative")
    return _independence(g, weights)


@dataclass(frozen=True)
class ClassicalValueResult:
    """Classical value, the game search's strategy pair and the independent
    set of game-graph vertices that the pair wins."""

    value: float
    exact: Fraction | None
    strategy: ClassicalStrategy
    alpha: IndependenceResult
    graph: GameGraph


def _first_answers(t: np.ndarray) -> list[int]:
    """Answers to the first question that can start the lexicographically
    smallest optimal row of ``t`` (x, y, a, b), x the branching side.

    When both answer counts are powers of two, XOR-ing every answer of the
    branching side with a mask m, and every answer of the other side with
    some m', may leave the table unchanged.  Such masks form a group that
    maps optimal rows to optimal rows, so the smallest optimal row starts
    with the least answer of its orbit.
    """
    na, nb = t.shape[2:]
    if na == 1 or na & (na - 1) or nb & (nb - 1) or not t.any():
        return list(range(na))
    x, y, a, b = np.nonzero(t)
    # a pair (m, m') that keeps the table sends the first positive entry to
    # a positive entry of the same question pair; a pair that keeps every
    # positive entry maps the positives onto themselves, and so keeps the
    # zeros too
    to_a, to_b = np.nonzero(t[x[0], y[0]])
    m, m2 = to_a[:, None] ^ a[0], to_b[:, None] ^ b[0]
    kept = (t[x, y, a ^ m, b ^ m2] == t[x, y, a, b]).all(axis=1)
    answers = np.arange(na)
    orbit_min = (answers[:, None] ^ m[kept].T).min(axis=1)
    return np.flatnonzero(orbit_min == answers).tolist()


def _kept_answers(flat: np.ndarray) -> list[int]:
    """Answer 0 and the first answer of each distinct nonzero row of
    ``flat``, in order; rows are equal when their values are, as in
    np.unique, so -0.0 equals 0.0."""
    live = np.flatnonzero(flat.any(axis=1))[::-1]
    # later entries overwrite earlier ones: each row keeps its first answer
    first = dict(zip(map(tuple, flat[live].tolist()), live.tolist()))
    return sorted({0, *first.values()})


def _game_search(table: np.ndarray) -> tuple[ClassicalStrategy, int]:
    """A best deterministic strategy pair for the (x, y, a, b) ``table`` and
    the nodes searched.

    The side with fewer strategies (Alice on a tie) answers its questions
    in order, depth first; the other side best-responds per question.  A
    node's bound relaxes every unanswered question to its best answer per
    (y, b), a suffix sum over the questions that set-up adds to each
    question's answer gains once, as ``reach``.  So one numpy expression
    scores all children of a node, and a child's accumulator is built only
    when the search descends into it.  At a leaf the suffix is 0, so a
    leaf's bound is its value.  Children are visited in answer order and
    only strict improvements are taken, so the row found is the
    lexicographically smallest optimal one; the best response takes the
    lowest answer on ties: the tie-break of classical_value_brute.  An
    answer whose gains equal those of an earlier answer to the same
    question, or are all zero, is never branched on: the earlier answer, or
    answer 0, does at least as well in every row and comes first
    (``_kept_answers``).  A search that would open more than NODE_BUDGET
    nodes raises SizeCapError.
    """
    nx, ny, na, nb = table.shape
    alice = na ** nx <= nb ** ny
    t = table if alice else table.transpose(1, 0, 3, 2)
    depth, _, width, _ = t.shape
    # gain[d, a]: what answer a to question d adds to the other side's (y, b)
    gain = np.ascontiguousarray(t.transpose(0, 2, 1, 3))
    # rest[d]: questions d, d + 1, ... each at its best answer per (y, b)
    rest = np.zeros((depth + 1,) + gain.shape[2:])
    rest[:depth] = np.cumsum(gain.max(axis=1)[::-1], axis=0)[::-1]
    answers = [_kept_answers(gain[d].reshape(width, -1)) for d in range(depth)]
    first = set(_first_answers(t))
    answers[0] = [a for a in answers[0] if a in first]
    options = [gain[d, ans] for d, ans in enumerate(answers)]
    # reach[d][i]: answer i to question d, each later one at its best
    reach = [options[d] + rest[d + 1] for d in range(depth)]
    budget = NODE_BUDGET
    nodes = 0

    def frame(d: int, acc: np.ndarray) -> tuple:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise SizeCapError(f"game search passed its budget of {budget} "
                               f"nodes ({nx} x {ny} questions)")
        bounds = (acc + reach[d]).max(axis=2).sum(axis=1).tolist()
        return d, acc, enumerate(bounds)

    best, best_row, row = -1.0, (), [0] * depth
    frames = [frame(0, np.zeros(gain.shape[2:]))]
    while frames:
        d, acc, children = frames[-1]
        for i, bound in children:
            if bound <= best + 1e-12:
                continue
            row[d] = answers[d][i]
            if d + 1 < depth:
                frames.append(frame(d + 1, acc + options[d][i]))
                break
            best, best_row = bound, tuple(row)  # a leaf's bound is its value
        else:
            frames.pop()
    acc = np.zeros(gain.shape[2:])
    for d, a in enumerate(best_row):  # in question order, as the oracle sums
        acc += gain[d, a]
    other = tuple(int(b) for b in acc.argmax(axis=1))
    strategy = (ClassicalStrategy(best_row, other) if alice
                else ClassicalStrategy(other, best_row))
    return strategy, nodes


def _classical_value(g: Game, gg: GameGraph) -> ClassicalValueResult:
    """classical_value on the pipeline graph ``gg`` of ``g``, already built:
    the maximum-weight independent set is the set of vertices that the game
    search's strategy pair wins, checked to be independent."""
    table = (g.predicate if gg.weights is None
             else g.predicate * g.distribution[:, :, None, None])
    strategy, nodes = _game_search(table)
    fa, fb = np.array(strategy.fa), np.array(strategy.fb)
    x, y, a, b = np.array(gg.vertices, dtype=np.int64).reshape(-1, 4).T
    witness = tuple(np.flatnonzero((fa[x] == a) & (fb[y] == b)).tolist())
    chosen = sum(1 << v for v in witness)
    if any(gg.rows[v] & chosen for v in witness):
        raise AssertionError("game search witness is not independent")
    weights, divisor = gg.objective()
    alpha = IndependenceResult(float(sum(weights[v] for v in witness)),
                               witness, nodes)
    exact = Fraction(len(witness), divisor) if gg.weights is None else None
    return ClassicalValueResult(alpha.value / divisor, exact, strategy, alpha,
                                gg)


def classical_value(g: Game) -> ClassicalValueResult:
    """Exact classical value from the game search.

    The maximum-weight independent set of the pipeline graph over its
    divisor; for uniform 0/1 games that is alpha/k, also given as an exact
    rational.
    """
    return _classical_value(g, pipeline_graph(g))


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


def classical_value_brute(g: Game) -> BruteForceResult:
    """Exact classical value: the side with fewer strategies (Alice on a
    tie) is listed whole, the other best-responds per question; ties go to
    the lowest listed row, then the lowest answer.  BRUTE_CAP counts
    strategy pairs.  Independent of the game-graph machinery, as a
    cross-check.

    Rows that share their first q answers share the sum over those
    questions, so each question adds its gains once to every prefix.  Row s
    answers the digits of s in base the listed side's answer count,
    question 0 the most significant, so rows run in lexicographic order,
    and each entry is summed from 0.0 in question order.
    """
    # the pairs are multiplied out only as far as the cap: bit_length(cap)
    # factors of 2 or more exceed it already
    short = BRUTE_CAP.bit_length()
    if g.na ** min(g.nx, short) * g.nb ** min(g.ny, short) > BRUTE_CAP:
        pairs = (g.na ** g.nx * g.nb ** g.ny if max(g.nx, g.ny) <= short
                 else f"{g.na}^{g.nx} x {g.nb}^{g.ny}")
        raise SizeCapError(f"{pairs} strategy pairs exceed cap {BRUTE_CAP}")
    counted = g.is_boolean() and g.is_uniform()  # sums are exact integers
    table, divisor = ((g.predicate, g.k) if counted else
                      (g.predicate * g.distribution[:, :, None, None], 1))
    alice_listed = g.na ** g.nx <= g.nb ** g.ny
    if not alice_listed:
        table = table.transpose(1, 0, 3, 2)
    depth, _, width, _ = table.shape
    # score[s, q, r]: the listed side plays row s, the other answers r to q
    gains = table.transpose(0, 2, 1, 3)
    other_side = gains.shape[2:]
    score = np.zeros((1,) + other_side)
    for question in range(depth):
        score = (score[:, None] + gains[question]).reshape((-1,) + other_side)
    totals = score.max(axis=2).sum(axis=1)
    best = int(np.argmax(totals))
    own = tuple(int(v) for v in np.unravel_index(best, (width,) * depth))
    other = tuple(int(v) for v in score[best].argmax(axis=1))
    strategy = (ClassicalStrategy(own, other) if alice_listed
                else ClassicalStrategy(other, own))
    wins = int(totals[best]) if counted else None
    return BruteForceResult(float(totals[best]) / divisor, strategy, wins, g.k)
