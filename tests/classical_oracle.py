"""Whole-table versions of the classical routes, kept as the oracle of the
prefix-sum ones in `gamebounds`: every listed strategy's score rebuilt from
a listing table, and each game-graph row built from the per-question masks
of its own vertex."""

from __future__ import annotations

import numpy as np

from gamebounds.games import ClassicalStrategy, SizeCapError
from gamebounds.independence import BRUTE_CAP, BruteForceResult


def _all_functions(domain: int, codomain: int) -> np.ndarray:
    """All codomain**domain functions as rows of an array, row-major packed."""
    count = codomain ** domain
    table = np.empty((count, domain), dtype=np.int64)
    for pos in range(domain):
        period = codomain ** (domain - 1 - pos)
        table[:, pos] = (np.arange(count) // period) % codomain
    return table


def classical_value_brute(g) -> BruteForceResult:
    """`independence.classical_value_brute`, each row summed from a listing
    table."""
    short = BRUTE_CAP.bit_length()
    if g.na ** min(g.nx, short) * g.nb ** min(g.ny, short) > BRUTE_CAP:
        pairs = (g.na ** g.nx * g.nb ** g.ny if max(g.nx, g.ny) <= short
                 else f"{g.na}^{g.nx} x {g.nb}^{g.ny}")
        raise SizeCapError(f"{pairs} strategy pairs exceed cap {BRUTE_CAP}")
    counted = g.is_boolean() and g.is_uniform()
    table, divisor = ((g.predicate, g.k) if counted else
                      (g.predicate * g.distribution[:, :, None, None], 1))
    alice_listed = g.na ** g.nx <= g.nb ** g.ny
    if not alice_listed:
        table = table.transpose(1, 0, 3, 2)
    listed = _all_functions(table.shape[0], table.shape[2])
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


def adjacency(vertices) -> tuple[int, ...]:
    """`gamegraph._adjacency`, each vertex's row from the per-question
    masks."""
    rows = [0] * len(vertices)
    for q in (0, 1):
        answered: dict[tuple[int, int], int] = {}
        asked: dict[int, int] = {}
        for idx, v in enumerate(vertices):
            bit = 1 << idx
            key = (v[q], v[q + 2])
            answered[key] = answered.get(key, 0) | bit
            asked[v[q]] = asked.get(v[q], 0) | bit
        for idx, v in enumerate(vertices):
            rows[idx] |= asked[v[q]] & ~answered[v[q], v[q + 2]]
    return tuple(rows)

