import dataclasses
import tracemalloc

import numpy as np
import pytest

from gamebounds import gamegraph
from gamebounds.games import (Game, SizeCapError, all_ones, chsh,
                              parallel_repetition)
from gamebounds.gamegraph import (GameGraph, Graph, build_game_graph,
                                  build_weighted_game_graph, cycle_graph,
                                  dimacs_sidecar, parse_dimacs, pipeline_graph,
                                  to_dimacs, to_plain_graph)
from gamebounds.independence import classical_value
from gamebounds.quantum import strategy_to_qis
from gamebounds.sdp import quantum_upper_bound

import classical_oracle
from conftest import (benchmark_classical_games, naive_game_graph_edges,
                      oracle_games, random_boolean_game, random_graph)
from quantum_fixtures import strategy_from_classical


def test_chsh_game_graph_counts():
    gg = build_game_graph(chsh())
    assert gg.n == 8
    assert gg.num_edges == 12
    assert set(gg.edges()) == naive_game_graph_edges(gg.vertices)


def test_all_ones_1122_graph():
    gg = build_game_graph(all_ones(1, 1, 2, 2))
    assert gg.n == 4
    # every pair differing in a is adjacent, and every pair differing in b;
    # only identical answer pairs are non-adjacent, so this is K4
    assert set(gg.edges()) == naive_game_graph_edges(gg.vertices)
    assert gg.num_edges == 6


def test_chsh_rep2_vertex_count():
    gg = build_game_graph(parallel_repetition(chsh(), 2))
    assert gg.n == 64


def test_vertices_in_lexicographic_order():
    gg = build_game_graph(chsh())
    assert list(gg.vertices) == sorted(gg.vertices)


def test_edge_rule_matches_naive_reference():
    rng = np.random.default_rng(2)
    for _ in range(30):
        g = random_boolean_game(rng)
        gg = build_game_graph(g)
        assert set(gg.edges()) == naive_game_graph_edges(gg.vertices)
        # no edge between same-x vertices sharing the answer a via the x-rule:
        # verify no self-inconsistent adjacency was produced
        for i, j in gg.edges():
            xi, yi, ai, bi = gg.vertices[i]
            xj, yj, aj, bj = gg.vertices[j]
            assert (xi == xj and ai != aj) or (yi == yj and bi != bj)


def test_weighted_graph_uniform_matches_unweighted():
    rng = np.random.default_rng(4)
    for _ in range(10):
        g = random_boolean_game(rng, uniform=True)
        gg = build_game_graph(g)
        wgg = build_weighted_game_graph(g)
        assert wgg.vertices == gg.vertices
        assert to_plain_graph(wgg) == to_plain_graph(gg)
        assert np.allclose(wgg.weights, 1.0 / g.k)
        # the bound pipeline's objective: unit weights over k, weights over 1
        assert gg.objective() == ((1.0,) * gg.n, g.k)
        assert wgg.objective() == (wgg.weights, 1)


def test_weighted_chsh_with_skewed_distribution():
    pi = np.array([[0.5, 1 / 6], [1 / 6, 1 / 6]])
    g = Game("chsh-skew", 2, 2, 2, 2, chsh().predicate, pi)
    wgg = build_weighted_game_graph(g)
    weights = wgg.weights
    heavy = [w for v, w in zip(wgg.vertices, weights) if v[:2] == (0, 0)]
    light = [w for v, w in zip(wgg.vertices, weights) if v[:2] != (0, 0)]
    assert len(heavy) == 2 and np.allclose(heavy, 0.5)
    assert len(light) == 6 and np.allclose(light, 1 / 6)


def test_zero_predicate_gives_empty_graph():
    g = Game("never", 1, 1, 2, 2, np.zeros((1, 1, 2, 2)), np.ones((1, 1)))
    wgg = build_weighted_game_graph(g)
    assert wgg.n == 0 and wgg.num_edges == 0


def test_zero_weight_vertices_dropped():
    pi = np.array([[0.0, 0.5], [0.25, 0.25]])
    g = Game("partial", 2, 2, 2, 2, chsh().predicate, pi)
    wgg = build_weighted_game_graph(g)
    assert all(v[:2] != (0, 0) for v in wgg.vertices)
    assert wgg.n == 6


def test_vertex_count_equals_nonzero_weights():
    rng = np.random.default_rng(9)
    for _ in range(10):
        g = random_boolean_game(rng, uniform=False)
        wgg = build_weighted_game_graph(g)
        nonzero = np.count_nonzero(
            g.predicate * g.distribution[:, :, None, None])
        assert wgg.n == nonzero


def _perfect_strategy_to_qis(g):
    # every answer wins, so answering 0 everywhere is a perfect d = 1 strategy
    return strategy_to_qis(g, strategy_from_classical(g, [0] * g.nx,
                                                      [0] * g.ny))


@pytest.mark.parametrize("compute", [
    build_game_graph, build_weighted_game_graph, pipeline_graph,
    classical_value, quantum_upper_bound, _perfect_strategy_to_qis])
def test_vertex_cap_is_checked_before_the_graph_is_built(monkeypatch, compute):
    def refuse(vertices):
        raise AssertionError(f"built a graph on {len(vertices)} vertices")
    monkeypatch.setattr(gamegraph, "_adjacency", refuse)
    with pytest.raises(SizeCapError, match=r"513 vertices \(cap 512\)"):
        compute(all_ones(1, 1, 1, 513))
    with pytest.raises(AssertionError, match="on 512 vertices"):
        compute(all_ones(1, 1, 1, 512))


def test_adjacency_matches_the_per_vertex_oracle():
    # the oracle games, the benchmark's classical corpus at two seeds and
    # CHSH^3; vertices listed as the builders list them, but uncapped
    games = oracle_games(np.random.default_rng(26), 120)
    games += benchmark_classical_games(1) + benchmark_classical_games(2)
    games.append(parallel_repetition(chsh(), 3))
    for g in games:
        vertices = tuple(map(tuple, np.argwhere(g.predicate > 0).tolist()))
        assert gamegraph._adjacency(vertices) == classical_oracle.adjacency(
            vertices)


def test_non_boolean_predicate_rejected_by_plain_builder():
    g = Game("real", 1, 1, 2, 2, np.full((1, 1, 2, 2), 0.5), np.ones((1, 1)))
    with pytest.raises(ValueError, match="non-boolean"):
        build_game_graph(g)


def test_to_plain_graph_preserves_adjacency():
    gg = build_game_graph(chsh())
    graph = to_plain_graph(gg)
    assert graph.n == 8 and graph.num_edges == 12
    for i, j in naive_game_graph_edges(gg.vertices):
        assert graph.has_edge(i, j) and graph.has_edge(j, i)
    empty = build_game_graph(
        Game("none", 1, 1, 1, 1, np.zeros((1, 1, 1, 1)), np.ones((1, 1))))
    assert to_plain_graph(empty).n == 0


def test_a_game_graph_is_a_graph():
    gg = pipeline_graph(chsh())
    assert isinstance(gg, Graph)
    assert [f.name for f in dataclasses.fields(gg)] == [
        "n", "rows", "vertices", "source_k", "weights"]
    assert not {"n", "num_edges", "graph"} & set(vars(GameGraph))
    plain = to_plain_graph(gg)
    assert type(plain) is Graph and (plain.n, plain.rows) == (gg.n, gg.rows)
    # the labels do not exempt the rows from Graph's checks
    with pytest.raises(ValueError, match="symmetric"):
        GameGraph(2, (2, 0), ((0, 0, 0, 0), (0, 0, 1, 1)), 1)


def test_graph_validation():
    with pytest.raises(ValueError, match="self-loop"):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError, match="symmetric"):
        Graph(2, (2, 0))
    # Python's IndexError, shift ValueError and TypeError named no edge
    for edge in [(5, 1), (0, 3), (0, -1), (1.5, 0)]:
        with pytest.raises(ValueError) as info:
            Graph.from_edges(3, [(0, 1), edge])
        assert str(info.value) == (
            f"edge {edge}: endpoints must be integers in 0..2")
    # numpy integers are integers; the plain int edge's rows, as Python ints
    edge = (np.int64(0), np.uint8(5))
    rows = Graph.from_edges(10, [edge]).rows
    assert rows == Graph.from_edges(10, [(0, 5)]).rows
    assert all(type(row) is int for row in rows)
    # an endpoint far past n is refused before 1 << it is built (12.5 MB)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^edge \(0, 100000000\): "):
            Graph.from_edges(3, [(0, 10 ** 8)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def _first_fault(n, rows):
    """Reference validation: row by row, a self-loop, then a bit >= n, then
    the first set bit whose mirror is clear."""
    for i, row in enumerate(rows):
        if row >> i & 1:
            return f"self-loop at vertex {i}"
        if row >> n:
            return f"adjacency row {i} references vertices >= n"
        while row:
            j = (row & -row).bit_length() - 1
            if not rows[j] >> i & 1:
                return f"adjacency not symmetric at ({i},{j})"
            row &= row - 1
    return None


def _fault(n, rows):
    try:
        Graph(n, tuple(rows))
    except ValueError as exc:
        return str(exc)
    return None


def test_graph_validation_reports_the_first_fault():
    rng = np.random.default_rng(22)
    seen = set()
    for _ in range(400):
        n = int(rng.integers(1, 12))
        rows = list(random_graph(rng, n, 0.4).rows)
        for _ in range(int(rng.integers(0, 4))):
            i = int(rng.integers(n))
            kind = int(rng.integers(3))
            rows[i] ^= 1 << int(rng.integers(n + 2) if kind == 2
                                else i if kind == 1 else rng.integers(n))
        expected = _first_fault(n, rows)
        seen.add(expected.split()[0] if expected else None)
        assert _fault(n, rows) == expected
    assert seen == {None, "self-loop", "adjacency"}


def test_graph_validation_in_blocks():
    # 4,200 vertices take two blocks of the bit matrix
    n = 4200
    rows = list(Graph.from_edges(n, [(i, (7 * i + 1) % n) for i in range(n)
                                     if (7 * i + 1) % n != i]).rows)
    assert _fault(n, rows) is None
    rows[4100] ^= 1 << 5
    rows[4150] ^= 1 << 4160
    assert _fault(n, rows) == _first_fault(n, rows) == (
        "adjacency not symmetric at (4100,5)")


def test_dimacs_round_trip():
    gg = build_weighted_game_graph(chsh())
    text = to_dimacs(gg)
    assert text.startswith("p edge 8 12\n")
    parsed = parse_dimacs(text)
    assert parsed.n == 8
    assert ({tuple(sorted(e)) for e in parsed.edges()}
            == naive_game_graph_edges(gg.vertices))
    sidecar = dimacs_sidecar(gg)
    assert sidecar["num_vertices"] == 8
    assert sidecar["vertices"][0]["quadruple"] == [0, 0, 0, 0]
    assert sidecar["vertices"][0]["weight"] == 0.25


def test_cycle_graph_shape():
    c5 = cycle_graph(5)
    assert c5.n == 5 and c5.num_edges == 5
    assert c5.degree(0) == 2
