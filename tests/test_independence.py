import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from gamebounds import gamegraph, independence
from gamebounds.cli import CATALOG
from gamebounds.games import (Game, SizeCapError, chsh, independent_set_game,
                              magic_square, parallel_repetition,
                              strategy_value, uniform_distribution)
from gamebounds.gamegraph import (Graph, build_game_graph, complete_graph,
                                  cycle_graph, empty_graph, pipeline_graph,
                                  to_plain_graph)
from gamebounds.independence import (classical_value, classical_value_brute,
                                     independence_number,
                                     weighted_independence)

import classical_oracle
from conftest import (alpha_by_enumeration, benchmark_classical_games,
                      exhaustive_strategy_value, max_weight_by_enumeration,
                      oracle_games, random_boolean_game, random_graph)


def _check_witness(g: Graph, witness):
    for i in witness:
        for j in witness:
            if i != j:
                assert not g.has_edge(i, j)


def test_c5_alpha_two():
    c5 = cycle_graph(5)
    assert alpha_by_enumeration(c5) == 2
    res = independence_number(c5)
    assert res.value == 2
    _check_witness(c5, res.witness)


def test_edgeless_alpha_is_n():
    res = independence_number(empty_graph(6))
    assert res.value == 6 and len(res.witness) == 6


def test_chsh_graph_alpha_three():
    graph = to_plain_graph(build_game_graph(chsh()))
    assert alpha_by_enumeration(graph) == 3
    res = independence_number(graph)
    assert res.value == 3
    _check_witness(graph, res.witness)


def test_alpha_matches_enumeration_on_random_graphs():
    rng = np.random.default_rng(12)
    for _ in range(40):
        g = random_graph(rng, int(rng.integers(1, 13)), rng.uniform(0.1, 0.9))
        res = independence_number(g)
        assert res.value == alpha_by_enumeration(g)
        _check_witness(g, res.witness)


def test_vertex_deletion_monotonicity():
    rng = np.random.default_rng(13)
    for _ in range(10):
        g = random_graph(rng, 10, 0.4)
        full = independence_number(g).value
        # delete the last vertex
        sub = Graph(9, tuple(r & ((1 << 9) - 1) for r in g.rows[:9]))
        assert independence_number(sub).value <= full


def test_weighted_matches_enumeration():
    rng = np.random.default_rng(14)
    for _ in range(25):
        n = int(rng.integers(1, 13))
        g = random_graph(rng, n, 0.5)
        w = rng.random(n) * 3.0
        res = weighted_independence(g, w)
        assert res.value == pytest.approx(max_weight_by_enumeration(g, w),
                                          abs=1e-10)
        _check_witness(g, res.witness)
        assert res.value == pytest.approx(sum(w[v] for v in res.witness),
                                          abs=1e-12)


def _first_cover_class(g: Graph) -> list[int]:
    """The root's first clique-cover class: the first vertex in
    (-degree, index) order, then every later one adjacent to all members."""
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    members = []
    for v in order:
        if all(g.has_edge(v, u) for u in members):
            members.append(v)
    return members


def test_weighted_cover_on_relabelled_graphs():
    # labels out of degree order, zero and tied weights, classes whose
    # heaviest member is not their first: the search maps positions back to
    # labels and bounds each class by its maximum
    rng = np.random.default_rng(19)
    relabelled = heavier_later = 0
    for _ in range(30):
        n = int(rng.integers(8, 15))
        g = random_graph(rng, n, rng.uniform(0.3, 0.7))
        w = rng.integers(0, 4, n) * 0.5  # dyadic: every sum is exact
        degrees = [g.degree(v) for v in range(n)]
        relabelled += degrees != sorted(degrees, reverse=True)
        first = _first_cover_class(g)
        heavier_later += max(w[v] for v in first) > w[first[0]]
        res = weighted_independence(g, w)
        assert res.value == max_weight_by_enumeration(g, w)
        _check_witness(g, res.witness)
        assert res.value == sum(w[v] for v in res.witness)
    assert relabelled >= 25 and heavier_later >= 5


def test_deep_search_needs_no_recursion(monkeypatch):
    # 1,024 vertices, no edges: the search picks every vertex, one level each
    g = Game("one-answer", 32, 32, 1, 1, np.ones((32, 32, 1, 1)),
             np.full((32, 32), 1 / 1024))
    monkeypatch.setattr(gamegraph, "VERTEX_CAP", 1024)
    res = classical_value(g)
    assert res.exact == Fraction(1)


def test_weighted_chsh_graph_quarter_weights():
    graph = to_plain_graph(build_game_graph(chsh()))
    res = weighted_independence(graph, np.full(8, 0.25))
    assert res.value == pytest.approx(0.75, abs=1e-12)
    assert len(res.witness) == 3


def test_weighted_all_ones_reduces_to_unweighted():
    rng = np.random.default_rng(15)
    for _ in range(10):
        g = random_graph(rng, 10, 0.5)
        assert weighted_independence(g, np.ones(10)).value == pytest.approx(
            independence_number(g).value)


def test_weighted_single_vertex():
    g = empty_graph(1)
    assert weighted_independence(g, [2.5]).value == 2.5


def test_weighted_rejects_negative():
    with pytest.raises(ValueError, match="non-negative"):
        weighted_independence(empty_graph(2), [1.0, -0.5])


def test_vertex_cap(monkeypatch):
    with pytest.raises(SizeCapError):
        independence_number(empty_graph(600))
    monkeypatch.setattr(gamegraph, "VERTEX_CAP", 10)
    with pytest.raises(SizeCapError):
        independence_number(empty_graph(20))


def test_classical_value_chsh():
    res = classical_value(chsh())
    assert res.exact == Fraction(3, 4)
    assert res.value == 0.75
    assert strategy_value(chsh(), res.strategy) == 0.75


def test_classical_value_chsh_rep2():
    g = parallel_repetition(chsh(), 2)
    res = classical_value(g)
    assert res.exact == Fraction(10, 16)
    assert strategy_value(g, res.strategy) == res.value


def test_classical_value_magic_square():
    res = classical_value(magic_square())
    assert res.exact == Fraction(8, 9)
    brute = classical_value_brute(magic_square())
    assert brute.exact == Fraction(8, 9)


def test_brute_force_chsh_and_all_ones():
    assert classical_value_brute(chsh()).exact == Fraction(3, 4)
    from gamebounds.games import all_ones
    assert classical_value_brute(all_ones(2, 2, 2, 2)).value == 1.0


@pytest.mark.parametrize("below", [0, 1], ids=["runs", "raises"])
def test_brute_force_cap(below, monkeypatch):
    g = magic_square()
    pairs = g.na ** g.nx * g.nb ** g.ny
    monkeypatch.setattr(independence, "BRUTE_CAP", pairs - below)
    if below:
        with pytest.raises(SizeCapError, match=f"{pairs} strategy pairs"):
            classical_value_brute(g)
    else:
        assert classical_value_brute(g).exact == Fraction(8, 9)


def test_brute_force_cap_on_many_questions_fails_fast():
    # 2^30000 has 9031 digits, past Python's 4300-digit limit for printing
    # an integer; the pairs are not multiplied out, and the message gives
    # them as powers
    g = Game("wide", 30000, 1, 2, 1, np.ones((30000, 1, 2, 1)),
             uniform_distribution(30000, 1))
    with pytest.raises(SizeCapError,
                       match=r"2\^30000 x 1\^1 strategy pairs exceed cap"):
        classical_value_brute(g)


@pytest.mark.parametrize("graph", [
    cycle_graph(7), random_graph(np.random.default_rng(3), 40, 0.3)],
    ids=["c7", "random-40"])
def test_node_budget(monkeypatch, graph):
    # a search may open exactly NODE_BUDGET nodes; one more raises
    nodes = independence_number(graph).nodes_explored
    assert nodes > 1
    monkeypatch.setattr(independence, "NODE_BUDGET", nodes)
    assert independence_number(graph).nodes_explored == nodes
    monkeypatch.setattr(independence, "NODE_BUDGET", nodes - 1)
    with pytest.raises(SizeCapError, match=f"budget of {nodes - 1} nodes"):
        independence_number(graph)


_MAGIC_SQUARE_WITNESS = [(0, 0, 3, 3), (0, 1, 3, 3), (0, 2, 3, 2), (1, 1, 2, 3),
                         (1, 2, 2, 2), (2, 0, 3, 3), (2, 1, 3, 3), (2, 2, 3, 2)]


@pytest.mark.parametrize("name, rep, weighted, nodes, witness", [
    ("chsh", 1, False, 5, [(0, 1, 0, 0), (1, 0, 1, 1), (1, 1, 1, 0)]),
    ("isg-c5-t2", 1, False, 4,
     [(0, 0, 2, 2), (0, 1, 2, 4), (1, 0, 4, 2), (1, 1, 4, 4)]),
    ("isg-c5-t3", 1, False, 45,
     [(0, 0, 2, 2), (0, 2, 2, 4), (1, 1, 2, 2), (1, 2, 2, 4), (2, 0, 4, 2),
      (2, 1, 4, 2), (2, 2, 4, 4)]),
    ("magic-square", 1, False, 61, _MAGIC_SQUARE_WITNESS),
    ("chsh", 2, False, 368,
     [(0, 0, 2, 2), (0, 1, 2, 2), (1, 2, 1, 1), (1, 3, 1, 0), (2, 0, 2, 2),
      (2, 1, 2, 2), (2, 3, 2, 0), (3, 1, 3, 2), (3, 2, 3, 1), (3, 3, 3, 0)]),
    ("magic-square", 1, True, 61, _MAGIC_SQUARE_WITNESS),
    ("chsh", 1, True, 5, [(0, 1, 0, 0), (1, 0, 1, 1), (1, 1, 1, 0)])],
    ids=["chsh", "isg-c5-t2", "isg-c5-t3", "magic-square", "chsh-rep2",
         "magic-square-weighted", "chsh-weighted"])
def test_graph_branch_and_bound_is_pinned(name, rep, weighted, nodes, witness):
    # graph branch and bound on the pipeline graphs of the catalog keeps its
    # search tree and tie-breaks node for node
    g = CATALOG[name]()
    if rep > 1:
        g = parallel_repetition(g, rep)
    gg = pipeline_graph(g, weighted)
    res = weighted_independence(gg, gg.objective()[0])
    assert res.nodes_explored == nodes
    assert [gg.vertices[v] for v in res.witness] == witness


@pytest.mark.parametrize("game", [
    lambda: independent_set_game(cycle_graph(5), 3),
    lambda: parallel_repetition(chsh(), 2),
    lambda: random_boolean_game(np.random.default_rng(8), max_size=4)],
    ids=["isg-c5-t3", "chsh-rep2", "random"])
def test_game_search_node_budget(monkeypatch, game):
    # a game search may open exactly NODE_BUDGET nodes; one more raises
    g = game()
    nodes = classical_value(g).alpha.nodes_explored
    assert nodes > 1
    monkeypatch.setattr(independence, "NODE_BUDGET", nodes)
    assert classical_value(g).alpha.nodes_explored == nodes
    monkeypatch.setattr(independence, "NODE_BUDGET", nodes - 1)
    with pytest.raises(SizeCapError, match=f"budget of {nodes - 1} nodes"):
        classical_value(g)


def _kept_answers_oracle(flat: np.ndarray) -> list[int]:
    # the set-up's earlier form: np.unique over the nonzero rows and columns
    live = np.flatnonzero(flat.any(axis=1))
    won = flat[live][:, flat[live].any(axis=0)]
    kept = live[np.unique(won, axis=0, return_index=True)[1]]
    return sorted({0, *kept.tolist()})


def _answer_table(rng) -> np.ndarray:
    # rows of 0/1 or weighted values, some copied, some all zero, with
    # -0.0 for some zeros
    width, cols = (int(v) for v in rng.integers(1, 12, 2))
    values = ([0.0, 1.0] if rng.random() < 0.5
              else [0.0, 0.25, 1 / 3, 0.5, float(rng.random())])
    flat = rng.choice(values, size=(width, cols))
    copies = rng.integers(0, width, width)
    copied = rng.random(width) < 0.4
    flat[copied] = flat[copies[copied]]
    flat[rng.random(width) < 0.2] = 0.0
    flat[(flat == 0.0) & (rng.random((width, cols)) < 0.5)] = -0.0
    return flat


def test_kept_answers_are_the_np_unique_oracles():
    rng = np.random.default_rng(22)
    signed_zero = merged = 0
    for _ in range(400):
        flat = _answer_table(rng)
        kept = independence._kept_answers(flat)
        assert kept == _kept_answers_oracle(flat)
        signed_zero += bool(np.signbit(flat).any())
        merged += len(set(kept) - {0}) < flat.any(axis=1).sum()
    assert signed_zero > 100 and merged > 100
    # rows that differ only in the sign of a zero are one row
    flat = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 0.0], [1.0, -0.0],
                     [1.0, 0.0], [-0.0, -0.0]])
    assert independence._kept_answers(flat) == [0, 3]
    assert _kept_answers_oracle(flat) == [0, 3]


def _dyadic_game(rng) -> Game:
    # question weights that are multiples of 1/64: every sum is exact, so
    # the weighted tie-breaks are those of exact arithmetic too
    g = random_boolean_game(rng, max_size=3)
    raw = 1 + rng.multinomial(64 - g.k, np.full(g.k, 1 / g.k))
    return Game("dyadic", g.nx, g.ny, g.na, g.nb, g.predicate, raw / 64)


def _repeated_answer_game(rng) -> Game:
    # 16 answers for Alice, the listed side: half of them copy another, and
    # at density 0.15 some never win
    lam = (rng.random((2, 3, 16, 8)) < 0.15).astype(float)
    lam[:, :, 8:] = lam[:, :, rng.integers(0, 8, 8)]
    return Game("repeated", 2, 3, 16, 8, lam, uniform_distribution(2, 3))


def test_game_search_strategy_is_the_oracles():
    # the game search and the exhaustive listing share their tie-break: the
    # smallest optimal row of the listed side, then the lowest answers
    rng = np.random.default_rng(20)
    games = [f() for f in CATALOG.values()] + [parallel_repetition(chsh(), 2)]
    games += [random_boolean_game(rng, max_size=4) for _ in range(60)]
    games += [_dyadic_game(rng) for _ in range(30)]
    games += [_repeated_answer_game(rng) for _ in range(20)]
    for g in games:
        via_search = classical_value(g)
        via_brute = classical_value_brute(g)
        assert via_search.strategy == via_brute.strategy
        assert via_search.value == via_brute.value
        assert via_search.exact == via_brute.exact


def _xor_symmetric_game(rng) -> Game:
    """A random game whose table keeps a random set of XOR masks: the
    predicate reads (a ^ b) on the masked bits and a, b elsewhere."""
    nx, ny = (int(v) for v in rng.integers(2, 4, 2))
    na = nb = int(rng.choice([2, 4]))
    bits = int(rng.integers(1, na))
    a, b = np.meshgrid(np.arange(na), np.arange(nb), indexing="ij")
    key = ((a ^ b) & bits) * na * na + (a & ~bits) * na + (b & ~bits)
    table = rng.random((nx, ny, na * na * na)) < 0.5
    return Game("xor-symmetric", nx, ny, na, nb,
                table[:, :, key].astype(float), uniform_distribution(nx, ny))


def test_first_question_restriction_keeps_the_smallest_optimum(monkeypatch):
    rng = np.random.default_rng(21)
    restricted = 0
    for i in range(40):
        g = (_xor_symmetric_game(rng) if i % 4
             else random_boolean_game(rng, max_size=4))
        t = g.predicate
        if g.na ** g.nx > g.nb ** g.ny:
            t = t.transpose(1, 0, 3, 2)
        first = independence._first_answers(t)
        restricted += len(first) < t.shape[2]
        res = classical_value(g)
        with monkeypatch.context() as m:
            m.setattr(independence, "_first_answers",
                      lambda t: list(range(t.shape[2])))
            unrestricted = classical_value(g)
        assert res.strategy == unrestricted.strategy
        assert res.exact == unrestricted.exact
        assert res.alpha.nodes_explored <= unrestricted.alpha.nodes_explored
        assert res.strategy == classical_value_brute(g).strategy
    assert restricted >= 20


def test_first_question_restriction_on_chsh_repetitions():
    # flipping any answer bit of both players at every question keeps the
    # CHSH predicate, so one orbit holds every first answer
    for rep in (1, 2, 3):
        g = parallel_repetition(chsh(), rep)
        assert independence._first_answers(g.predicate) == [0]
    # no pair of masks keeps the magic square's table
    assert independence._first_answers(magic_square().predicate) == [0, 1, 2, 3]


def test_brute_matches_nested_loop_reference():
    rng = np.random.default_rng(16)
    for _ in range(10):
        g = random_boolean_game(rng, uniform=False)
        assert classical_value_brute(g).value == pytest.approx(
            exhaustive_strategy_value(g), abs=1e-12)


def _assert_same_brute(g):
    res, ref = classical_value_brute(g), classical_oracle.classical_value_brute(g)
    assert res.value.hex() == ref.value.hex()
    assert res.strategy == ref.strategy
    assert res.wins == ref.wins and res.exact == ref.exact


def test_brute_matches_the_listing_oracle():
    # the prefix sums add each row's gains from 0.0 in question order, as
    # the listing table does, and keep its tie-break: the bits agree
    games = oracle_games(np.random.default_rng(25), 240)
    for g in games:
        _assert_same_brute(g)
    # Alice listed and Bob listed, one answer, one question, all-zero tables
    covered = [(g.na ** g.nx <= g.nb ** g.ny, g.na == 1, g.nx == 1,
                not g.predicate.any()) for g in games]
    assert [set(flags) for flags in zip(*covered)] == [{True, False}] * 4


@pytest.mark.parametrize("seed", [1, 2])
def test_brute_matches_the_listing_oracle_on_the_benchmark_corpus(seed):
    games = benchmark_classical_games(seed)
    # u6644-0 sits at the cap
    assert games[0].na ** games[0].nx * games[0].nb ** games[0].ny == (
        independence.BRUTE_CAP)
    for g in games:
        _assert_same_brute(g)


@pytest.mark.parametrize("sizes", [(13, 1, 4, 1), (7, 6, 4, 4), (30000, 1, 2, 1)])
def test_brute_cap_message_matches_the_listing_oracle(sizes):
    g = Game("over", *sizes, np.ones(sizes), uniform_distribution(*sizes[:2]))
    with pytest.raises(SizeCapError) as ref:
        classical_oracle.classical_value_brute(g)
    with pytest.raises(SizeCapError, match=f"^{re.escape(str(ref.value))}$"):
        classical_value_brute(g)


def test_brute_peak_memory_stays_near_its_score_array():
    # at the cap the listing oracle peaks at about 2.25 times the score
    # array of every (row, question, answer); the prefix sums hold the last
    # level and the one before it
    g = benchmark_classical_games(1)[0]
    final = g.na ** g.nx * g.ny * g.nb * 8
    tracemalloc.start()
    try:
        classical_value_brute(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * final


def _exact_wins(g, strategy) -> int:
    return sum(int(g.predicate[x, y, strategy.fa[x], strategy.fb[y]])
               for x in range(g.nx) for y in range(g.ny))


# (nx, ny, na, nb): Alice listed on a tie and when she has fewer strategies,
# Bob listed otherwise, including when he has one answer
@pytest.mark.parametrize("sizes, alice_listed", [
    ((2, 2, 2, 2), True), ((3, 2, 2, 3), True), ((2, 3, 3, 2), False),
    ((3, 4, 3, 1), False), ((1, 4, 2, 3), True), ((4, 2, 3, 4), False)])
@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "weighted"])
def test_brute_strategy_reaches_value(sizes, alice_listed, uniform):
    nx, ny, na, nb = sizes
    assert (na ** nx <= nb ** ny) == alice_listed
    rng = np.random.default_rng(sum(sizes) + uniform)
    for _ in range(10):
        lam = (rng.random(sizes) < 0.5).astype(float)
        raw = np.ones((nx, ny)) if uniform else rng.integers(1, 10, (nx, ny))
        g = Game("sized", nx, ny, na, nb, lam, raw / raw.sum())
        res = classical_value_brute(g)
        if uniform:
            assert res.wins == _exact_wins(g, res.strategy)
            assert res.exact == Fraction(res.wins, g.k)
        else:
            assert res.wins is None
            assert strategy_value(g, res.strategy) == pytest.approx(
                res.value, abs=1e-12)
        assert res.value == pytest.approx(exhaustive_strategy_value(g),
                                          abs=1e-12)


def test_graph_route_equals_brute_force_uniform():
    rng = np.random.default_rng(17)
    for _ in range(60):
        g = random_boolean_game(rng, uniform=True)
        via_graph = classical_value(g)
        via_brute = classical_value_brute(g)
        assert via_graph.exact == via_brute.exact
        # the witness strategy achieves the reported value exactly
        # (integer win count over k; no floating error)
        assert Fraction(_exact_wins(g, via_graph.strategy), g.k) == via_graph.exact


def test_graph_route_equals_brute_force_weighted():
    rng = np.random.default_rng(18)
    for _ in range(30):
        g = random_boolean_game(rng, uniform=False)
        via_graph = classical_value(g)
        via_brute = classical_value_brute(g)
        assert via_graph.value == pytest.approx(via_brute.value, abs=1e-10)
        assert strategy_value(g, via_graph.strategy) == pytest.approx(
            via_graph.value, abs=1e-12)


def test_independent_set_game_values():
    c5 = cycle_graph(5)
    assert classical_value(independent_set_game(c5, 2)).value == 1.0
    res3 = classical_value(independent_set_game(c5, 3))
    assert res3.value < 1.0
    assert classical_value_brute(independent_set_game(c5, 3)).value < 1.0


def test_complete_graph_alpha_one():
    res = independence_number(complete_graph(7))
    assert res.value == 1


def test_graph_rows_and_weight_lengths_are_checked():
    with pytest.raises(ValueError, match="row count does not match n"):
        Graph(3, (0, 0))
    with pytest.raises(ValueError, match="weight vector length does not "
                       "match vertex count"):
        weighted_independence(cycle_graph(5), [1.0] * 4)
    # weighted_theta's rule: a column of weights is refused by its shape,
    # where float() of each row raised a bare TypeError
    with pytest.raises(ValueError, match="weight vector length does not "
                       "match vertex count"):
        weighted_independence(cycle_graph(5), np.ones((5, 1)))
