import tracemalloc

import numpy as np
import pytest

from gamebounds import games
from gamebounds.games import (Game, GameFormatError, SizeCapError, all_ones,
                              chsh, independent_set_game,
                              magic_square, parallel_repetition, strategy_value,
                              xor_game, ClassicalStrategy)
from gamebounds.gamegraph import cycle_graph

from conftest import eval_predicate, random_boolean_game, random_graph


def test_chsh_predicate_entries():
    g = chsh()
    assert eval_predicate(g, 0, 0, 0, 0) == 1.0
    assert eval_predicate(g, 1, 1, 0, 0) == 0.0
    assert eval_predicate(g, 1, 1, 0, 1) == 1.0


def test_all_ones_any_quadruple():
    g = all_ones(2, 2, 2, 2)
    for q in np.ndindex(2, 2, 2, 2):
        assert eval_predicate(g, *q) == 1.0


def test_eval_predicate_range_check():
    g = chsh()
    with pytest.raises(IndexError):
        eval_predicate(g, 2, 0, 0, 0)
    with pytest.raises(IndexError):
        eval_predicate(g, 0, 0, 0, -1)


def test_chsh_canonical_counts():
    g = chsh()
    # oracle: enumerate all 16 quadruples against the parity rule
    wins = [(x, y, a, b) for x in range(2) for y in range(2)
            for a in range(2) for b in range(2) if (a ^ b) == (x & y)]
    assert len(wins) == 8
    assert g.winning_quadruples() == wins
    assert np.all(g.distribution == 0.25)


def test_magic_square_counts_and_distribution():
    g = magic_square()
    assert (g.nx, g.ny, g.na, g.nb) == (3, 3, 4, 4)
    quads = g.winning_quadruples()
    assert len(quads) == 72
    # exactly 8 winning answer pairs for each input pair
    for x in range(3):
        for y in range(3):
            assert sum(1 for q in quads if q[:2] == (x, y)) == 8
    assert np.allclose(g.distribution, 1.0 / 9.0)


def test_magic_square_parity_encoding():
    g = magic_square()
    # each player's three bits must carry the right parity at every win
    for x, y, a, b in g.winning_quadruples():
        arow = (a & 1, (a >> 1) & 1, (a & 1) ^ ((a >> 1) & 1))
        bcol = (b & 1, (b >> 1) & 1, (b & 1) ^ ((b >> 1) & 1) ^ 1)
        assert sum(arow) % 2 == 0
        assert sum(bcol) % 2 == 1
        assert arow[y] == bcol[x]


def test_xor_game_and_table_is_chsh():
    f = np.array([[0, 0], [0, 1]])
    g = xor_game(f)
    assert np.array_equal(g.predicate, chsh().predicate)


def test_xor_game_constant_zero_is_trivially_won():
    g = xor_game(np.zeros((2, 2), dtype=int))
    assert strategy_value(g, ClassicalStrategy((0, 0), (0, 0))) == 1.0


def test_xor_game_rejects_bad_table():
    with pytest.raises(GameFormatError):
        xor_game(np.array([[0, 2], [0, 1]]))
    with pytest.raises(GameFormatError):
        xor_game(np.zeros(4))


def test_xor_game_half_of_answers_win():
    rng = np.random.default_rng(7)
    for _ in range(20):
        nx, ny = rng.integers(1, 4, size=2)
        g = xor_game(rng.integers(0, 2, size=(nx, ny)))
        for x in range(g.nx):
            for y in range(g.ny):
                assert g.predicate[x, y].sum() == 2.0


def test_parallel_repetition_identity():
    g = chsh()
    assert np.array_equal(parallel_repetition(g, 1).predicate, g.predicate)


def test_parallel_repetition_chsh_squared():
    r2 = parallel_repetition(chsh(), 2)
    assert (r2.nx, r2.ny, r2.na, r2.nb) == (4, 4, 4, 4)
    assert len(r2.winning_quadruples()) == 64
    # product structure: coordinates win independently (row-major packing)
    g = chsh()
    for x in range(4):
        for y in range(4):
            for a in range(4):
                for b in range(4):
                    expect = (g.predicate[x // 2, y // 2, a // 2, b // 2]
                              * g.predicate[x % 2, y % 2, a % 2, b % 2])
                    assert r2.predicate[x, y, a, b] == expect
    assert np.allclose(r2.distribution, 1.0 / 16.0)


def test_parallel_repetition_composes_multiplicatively():
    rng = np.random.default_rng(3)
    g = random_boolean_game(rng, max_size=2, uniform=False)
    lhs = parallel_repetition(parallel_repetition(g, 2), 2)
    rhs = parallel_repetition(g, 4)
    assert np.array_equal(lhs.predicate, rhs.predicate)
    assert np.allclose(lhs.distribution, rhs.distribution)


def test_parallel_repetition_cap():
    with pytest.raises(SizeCapError):
        parallel_repetition(chsh(), 8)


def test_parallel_repetition_of_one_entry_is_a_power():
    g = Game("half", 1, 1, 1, 1, np.full((1, 1, 1, 1), 0.5), np.ones((1, 1)))
    assert parallel_repetition(g, 3).predicate.item() == 0.125
    assert parallel_repetition(g, 10 ** 400).predicate.item() == 0.0


def test_independent_set_game_rules():
    c5 = cycle_graph(5)
    g = independent_set_game(c5, 2)
    assert (g.nx, g.ny, g.na, g.nb) == (2, 2, 5, 5)
    for x in range(2):
        for y in range(2):
            for v in range(5):
                for w in range(5):
                    lose = (x == y and v != w) or (
                        x != y and (v == w or c5.has_edge(v, w)))
                    assert g.predicate[x, y, v, w] == (0.0 if lose else 1.0)


def test_independent_set_game_t1_always_winnable():
    g = independent_set_game(cycle_graph(4), 1)
    assert strategy_value(g, ClassicalStrategy((0,), (0,))) == 1.0


def test_game_invariants_rejected():
    with pytest.raises(GameFormatError):
        Game("bad", 2, 2, 2, 2, np.full((2, 2, 2, 2), 1.5),
             np.full((2, 2), 0.25))
    with pytest.raises(GameFormatError):
        Game("bad", 2, 2, 2, 2, np.ones((2, 2, 2, 2)),
             np.full((2, 2), 0.3))


@pytest.mark.parametrize("where, bad", [("predicate", np.nan),
                                        ("predicate", np.inf),
                                        ("distribution", np.nan)])
def test_non_finite_entries_rejected(where, bad):
    lam, pi = np.ones((2, 2, 2, 2)), np.full((2, 2), 0.25)
    (lam if where == "predicate" else pi).flat[0] = bad
    with pytest.raises(GameFormatError, match=f"{where}: entries must be finite"):
        Game("bad", 2, 2, 2, 2, lam, pi)


def test_constructed_games_validate():
    rng = np.random.default_rng(11)
    for _ in range(25):
        g = random_boolean_game(rng, uniform=bool(rng.integers(2)))
        assert abs(g.distribution.sum() - 1.0) <= 1e-12
        assert np.all(g.predicate >= 0.0) and np.all(g.predicate <= 1.0)


def test_games_are_immutable():
    g = chsh()
    with pytest.raises(ValueError):
        g.predicate[0, 0, 0, 0] = 0.0


def test_strategy_validation():
    g = chsh()
    with pytest.raises(ValueError, match="out of range"):
        strategy_value(g, ClassicalStrategy((0, 2), (0, 0)))
    with pytest.raises(ValueError, match="input set sizes"):
        strategy_value(g, ClassicalStrategy((0,), (0, 0)))


def test_bad_games_strategies_and_parameters_are_refused():
    with pytest.raises(GameFormatError, match="all set sizes must be positive"):
        Game("empty", 0, 1, 1, 1, np.zeros((0, 1, 1, 1)), np.zeros((0, 1)))
    with pytest.raises(GameFormatError,
                       match="distribution: entries must be non-negative"):
        Game("signed", 1, 2, 1, 1, np.ones((1, 2, 1, 1)),
             np.array([[1.5, -0.5]]))
    with pytest.raises(ValueError, match="out of range for player B"):
        strategy_value(chsh(), ClassicalStrategy((0, 1), (0, 2)))
    with pytest.raises(ValueError, match="repetition count must be >= 1"):
        parallel_repetition(chsh(), 0)
    with pytest.raises(ValueError, match="parameter t must be >= 1"):
        independent_set_game(cycle_graph(5), 0)


def test_independent_set_game_cap(monkeypatch):
    # t^2 n^2 entries: 3000 questions on C5 would be a 1.8 GB table
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError, match=r"3000\^2 x 5\^2 entries"):
            independent_set_game(cycle_graph(5), 3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    # isg-c5-t3 has 225 entries: refused only below that
    monkeypatch.setattr(games, "TABLE_CAP", 225)
    assert independent_set_game(cycle_graph(5), 3).predicate.size == 225
    monkeypatch.setattr(games, "TABLE_CAP", 224)
    with pytest.raises(SizeCapError, match=r"3\^2 x 5\^2 entries \(cap 224\)"):
        independent_set_game(cycle_graph(5), 3)


def test_independent_set_game_reads_the_bit_rows():
    # the predicate built from the graph's bit rows, against the adjacency
    # read one has_edge call at a time
    rng = np.random.default_rng(32)
    for n, p, t in [(1, 0.5, 1), (6, 0.3, 2), (9, 0.5, 3), (17, 0.7, 2),
                    (40, 0.2, 1)]:
        graph = random_graph(rng, n, p)
        adj = np.array([[graph.has_edge(v, w) for w in range(graph.n)]
                        for v in range(graph.n)], dtype=bool)
        same = np.eye(n, dtype=bool)
        lose = np.where(np.eye(t, dtype=bool)[:, :, None, None], ~same,
                        same | adj)
        assert np.array_equal(independent_set_game(graph, t).predicate,
                              (~lose).astype(float))
