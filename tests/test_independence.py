from fractions import Fraction

import numpy as np
import pytest

from gamebounds import gamegraph, independence
from gamebounds.games import (Game, SizeCapError, chsh, independent_set_game,
                              magic_square, parallel_repetition,
                              strategy_value, uniform_distribution)
from gamebounds.gamegraph import (Graph, build_game_graph, complete_graph,
                                  cycle_graph, empty_graph, to_plain_graph)
from gamebounds.independence import (classical_value, classical_value_brute,
                                     independence_number,
                                     weighted_independence)

from conftest import (alpha_by_enumeration, exhaustive_strategy_value,
                      max_weight_by_enumeration, random_boolean_game,
                      random_graph)


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


def test_brute_matches_nested_loop_reference():
    rng = np.random.default_rng(16)
    for _ in range(10):
        g = random_boolean_game(rng, uniform=False)
        assert classical_value_brute(g).value == pytest.approx(
            exhaustive_strategy_value(g), abs=1e-12)


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
