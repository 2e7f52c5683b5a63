import dataclasses
import tracemalloc

import numpy as np
import pytest

from gamebounds import sdp
from gamebounds.games import (SizeCapError, all_ones, chsh,
                              independent_set_game, magic_square,
                              parallel_repetition, xor_game)
from gamebounds.gamegraph import (Graph, bit_matrix, build_game_graph,
                                  build_weighted_game_graph, complete_graph,
                                  cycle_graph, empty_graph,
                                  pipeline_graph, to_plain_graph)
from gamebounds.independence import independence_number, weighted_independence
from gamebounds.sdp import (NotXorGame, lovasz_theta, quantum_upper_bound,
                            weighted_theta, xor_tsirelson_value)

from conftest import criterion7_random_graphs, disjoint_union, random_graph
from schur_oracle import theta_schur

SQRT2 = np.sqrt(2.0)
SQRT5 = np.sqrt(5.0)


# --- theta number ---------------------------------------------------------

def test_theta_complete_graph():
    res = lovasz_theta(complete_graph(4))
    assert res.value == pytest.approx(1.0, abs=1e-6)
    assert res.converged


def test_theta_edgeless():
    res = lovasz_theta(empty_graph(5))
    assert res.value == pytest.approx(5.0, abs=1e-6)


def test_theta_c5_with_independent_dual_certificate():
    res = lovasz_theta(cycle_graph(5))
    assert res.value == pytest.approx(SQRT5, abs=1e-5)
    # explicit dual-feasible certificate for theta(C5) <= sqrt(5):
    # D = sqrt(5) I + y A(C5) - J is PSD for y = (5 - sqrt(5))/2
    adj = np.zeros((5, 5))
    for i in range(5):
        adj[i, (i + 1) % 5] = adj[(i + 1) % 5, i] = 1.0
    dual = SQRT5 * np.eye(5) + (5.0 - SQRT5) / 2.0 * adj - np.ones((5, 5))
    assert np.min(np.linalg.eigvalsh(dual)) >= -1e-9
    # primal feasible solution from the solver pinches the value from below
    assert res.value <= SQRT5 + 1e-6


def _classes(graph):
    """sdp._edge_classes of graph with unit vertex weights."""
    return sdp._edge_classes(graph, np.ones(graph.n))


def test_theta_result_invariants(monkeypatch):
    tol = 1e-7
    full = sdp.MAX_ITERATIONS
    # colour refinement separates every vertex of this random graph, so each
    # of its 413 edges is a class of its own: the n x n per-edge program,
    # m = 414
    per_edge = random_graph(np.random.default_rng(0), 32, 0.85)
    assert _classes(per_edge)[3] is None
    assert len(_classes(per_edge)[2]) == 413
    for graph in (cycle_graph(5), complete_graph(4),
                  to_plain_graph(build_game_graph(chsh())), per_edge):
        # one step leaves the solver short of the bracket; the full cap is
        # set last, for the weighted solve below
        for cap in (1, full):
            monkeypatch.setattr(sdp, "MAX_ITERATIONS", cap)
            res = lovasz_theta(graph, tol)
            x = res.primal_matrix
            assert abs(np.trace(x) - 1.0) <= 1e-8
            assert np.min(np.linalg.eigvalsh(x)) >= -1e-8
            for i, j in graph.edges():
                assert abs(x[i, j]) <= 1e-8
            assert res.dual_bound >= res.value - 10 * tol
            assert res.gap == pytest.approx(res.dual_bound - res.value)
            # converged means certified: the bracket closes to 10*tol
            # (the objective's largest entry is 1)
            assert res.converged == (res.gap <= 10 * tol)
            assert res.converged == (cap == full)
        # a weighted objective scales the certified width by its largest entry
        res = weighted_theta(graph, np.full(graph.n, 9.0), tol)
        assert res.converged and res.gap <= 10 * tol * 9.0


def _certify_cases(monkeypatch):
    """(program, optimum, edges) of C5, K4 and the CHSH graph, each in its
    class program on n x n matrices, its per-edge program and its block
    program, and of the XOR programs of odd cycles; program is the tuple
    (c, b, mult, a_map, a_adj, schur) and edges is (ei, ej) for the
    per-edge programs and None otherwise."""
    cases = []
    for graph, theta in ((cycle_graph(5), SQRT5), (complete_graph(4), 1.0),
                         (to_plain_graph(build_game_graph(chsh())),
                          2.0 + SQRT2)):
        c = np.ones((graph.n, graph.n))
        ei, ej, starts, colours = _classes(graph)
        per_edge = np.arange(len(ei))
        blocks = sdp._block_program(c, sdp._block_bases(colours, c), ei, ej,
                                    starts)[0]
        assert np.max(blocks[2]) > 1
        for program, edges in (
                (sdp._theta_program(c, ei, ej, starts,
                                    sdp._class_average(colours))[0], None),
                (sdp._theta_program(c, ei, ej, per_edge,
                                    sdp._class_average(None))[0], (ei, ej)),
                (blocks, None)):
            cases.append((program, theta, edges))
    # the XOR programs as xor_tsirelson_value hands them to the solver;
    # every question pair is won by one parity, so the value is 1/2 plus
    # the correlation optimum
    ipm_sdp = sdp._ipm_sdp
    programs = []

    def spy(program, target):
        programs.append(program)
        return ipm_sdp(program, target)

    monkeypatch.setattr(sdp, "_ipm_sdp", spy)
    for n in (3, 5, 9):
        xor_tsirelson_value(_odd_cycle_game(n))
        cases.append((programs[-1], np.cos(np.pi / (4 * n)) ** 2 - 0.5,
                      None))
    return cases


def test_certify_is_sound_on_any_iterate(monkeypatch):
    # random points, not solver iterates: the primal is feasible and the
    # ends bracket the known optimum whatever x and y are
    rng = np.random.default_rng(17)
    for program, optimum, edges in _certify_cases(monkeypatch):
        c, b, _, a_map = program[:4]
        size = c.shape[0]
        for scale in (0.0, 1e-3, 1.0, 1e3):
            w = rng.standard_normal((size, size))
            for x in (scale * w, scale * w @ w.T):
                y = scale * rng.standard_normal(len(b))
                primal, lower, upper = sdp._certify(program, x, y)
                assert np.max(np.abs(a_map(primal) - b)) <= 1e-12
                assert np.linalg.eigvalsh(primal)[0] >= -1e-12
                if edges is not None:
                    assert not np.any(primal[edges])
                    assert not np.any(primal[edges[::-1]])
                assert lower <= optimum + 1e-12
                assert upper >= optimum - 1e-12


def test_dual_end_does_not_cancel_below_the_primal_end():
    # theta is 1e-100 (X = E_55 is feasible), the size of the solver's gap:
    # b.y + (b.b) lambda_max cancelled to 0, below the primal end; taken
    # orthogonal to b, the dual end is the one term
    res = weighted_theta(cycle_graph(5), [0, 0, 0, 0, 1e-100])
    assert res.value <= 1e-100 <= res.dual_bound
    assert res.converged


def _complement(graph):
    return Graph.from_edges(graph.n, [(i, j) for i in range(graph.n)
                                      for j in range(i + 1, graph.n)
                                      if not graph.has_edge(i, j)])


def test_each_reported_bound_is_certified_once(monkeypatch):
    # the solver stops on its iterates' duality gap; only the point a solve
    # reports is certified: theta on the block route, on the n x n route and
    # weighted, and the XOR program
    calls = []
    certify = sdp._certify

    def counting(program, x, y):
        calls.append(x.shape)
        return certify(program, x, y)

    monkeypatch.setattr(sdp, "_certify", counting)
    gg = build_weighted_game_graph(magic_square())
    for solve in (lambda: lovasz_theta(cycle_graph(5)),
                  lambda: lovasz_theta(criterion7_random_graphs(1)[0]),
                  lambda: weighted_theta(gg, gg.weights),
                  lambda: xor_tsirelson_value(chsh()),
                  lambda: xor_tsirelson_value(_odd_cycle_game(9))):
        del calls[:]
        solve()
        assert len(calls) == 1


def test_theta_times_complement_theta_is_at_least_n():
    # Lovasz: theta(G) theta(co-G) >= n for every graph, with equality when
    # G is vertex-transitive.  A converged bracket is at most 10*tol wide,
    # so a product of two of its ends is within 10*tol times the sum of the
    # factors of the exact product.
    tol = 1e-7
    cases = [(g, False) for g in criterion7_random_graphs(4)]
    cases += [(g, True) for g in (cycle_graph(7), cycle_graph(9),
                                  Graph_from_petersen())]
    for graph, transitive in cases:
        a, b = lovasz_theta(graph, tol), lovasz_theta(_complement(graph), tol)
        assert a.converged and b.converged
        slack = 10 * tol * (a.dual_bound + b.dual_bound)
        assert a.dual_bound * b.dual_bound >= graph.n - slack
        if transitive:
            assert a.value * b.value <= graph.n + slack


def test_theta_program_above_the_cap_fails_fast(monkeypatch):
    # 1-WL separates this graph, so each of its 6491 edges is a constraint.
    # The cap is checked before the program and its m x m Schur matrix are
    # built.
    monkeypatch.setattr(sdp, "_theta_program", None)
    graph = random_graph(np.random.default_rng(0), 128, 0.8)
    with pytest.raises(SizeCapError, match=(
            f"6492 constraints \\(cap {sdp.MAX_CONSTRAINTS}\\)")):
        lovasz_theta(graph)


def _chsh2_graph():
    return build_game_graph(parallel_repetition(chsh(), 2))


def _colour_refinement_is_discrete(graph):
    """Loop reference for 1-WL: refine by (colour, sorted neighbour
    colours) until the colour count stops growing."""
    colours = [0] * graph.n
    while True:
        keys = [(colours[i], tuple(sorted(colours[j] for j in range(graph.n)
                                          if graph.has_edge(i, j))))
                for i in range(graph.n)]
        ids = {key: k for k, key in enumerate(sorted(set(keys)))}
        refined = [ids[key] for key in keys]
        if len(ids) == len(set(colours)):
            return len(ids) == graph.n
        colours = refined


def _per_edge_classes(graph, vertex_keys):
    """Every edge its own class, in graph.edges() order."""
    ei, ej = np.array(graph.edges(), dtype=np.intp).reshape(-1, 2).T
    return ei, ej, np.arange(len(ei)), None


def _one_class(graph, vertex_keys):
    """All edges in one class, too coarse for any graph whose coherent
    closure has several edge classes.  Pairs are coloured diagonal, edge or
    non-edge."""
    ei, ej = np.array(graph.edges(), dtype=np.intp).reshape(-1, 2).T
    colours = np.full((graph.n, graph.n), 2)
    colours[ei, ej] = colours[ej, ei] = 1
    np.fill_diagonal(colours, 0)
    return ei, ej, np.zeros(min(1, len(ei)), dtype=np.intp), colours


def test_discrete_graphs_keep_one_class_per_edge():
    graphs = criterion7_random_graphs(20, games=10)
    discrete = [g for g in graphs if _colour_refinement_is_discrete(g)]
    assert len(discrete) == 18
    for graph in graphs:
        ei, ej, starts, colours = _classes(graph)
        if graph in discrete:
            assert colours is None
            assert list(zip(ei, ej)) == graph.edges()
            assert np.array_equal(starts, np.arange(graph.num_edges))
        else:
            assert colours is not None


def test_edge_arrays_follow_graph_edges():
    # the bit matrix of the rows, its upper triangle read row-major, lists
    # the edges as graph.edges() does; a graph that 1-WL separates (every
    # vertex its own key) keeps that order in _edge_classes
    rng = np.random.default_rng(5)
    graphs = [random_graph(rng, n) for n in (0, 1, 7, 8, 9, 64)]
    graphs += [random_graph(rng, int(rng.integers(2, 40)), rng.uniform())
               for _ in range(20)]
    graphs += [empty_graph(9), complete_graph(9)]
    for graph in graphs:
        bits = bit_matrix(graph.rows, graph.n)
        assert bits.shape == (graph.n, graph.n)
        ei, ej = np.nonzero(np.triu(bits, 1))
        assert list(zip(ei.tolist(), ej.tolist())) == graph.edges()
        assert np.array_equal(bits, bits.T)
        assert int(bits.sum()) == 2 * graph.num_edges
        if graph.n:
            ei, ej, starts, colours = sdp._edge_classes(graph,
                                                        np.arange(graph.n))
            assert colours is None
            assert list(zip(ei.tolist(), ej.tolist())) == graph.edges()
            assert np.array_equal(starts, np.arange(graph.num_edges))


def _refine_by_two_sorts(colours, hashed):
    """sdp._refine as two sorts: the hashes ranked, then the (colour, rank)
    keys."""
    rank = np.unique(hashed.ravel(), return_inverse=True)[1]
    keys = colours.ravel() * (int(rank.max()) + 1) + rank
    return np.unique(keys, return_inverse=True)[1].reshape(colours.shape)


def _wl_colours_by_refinement(colours, step):
    """The colour refinement loop that sorts in every round, the one that
    only confirms too, with the two-sort refinement: the reference for
    sdp._wl_colours.  Each round also checks sdp._refine on its input."""
    rng = np.random.default_rng(0)
    count = int(colours.max()) + 1
    while True:
        r1, r2 = rng.integers(1, 1 << 20, size=(2, count)).astype(float)
        hashed = step(r1[colours], r2[colours])
        refined = _refine_by_two_sorts(colours, hashed)
        assert np.array_equal(sdp._refine(colours, hashed), refined)
        if int(refined.max()) + 1 == count:
            return colours
        colours, count = refined, int(refined.max()) + 1


def test_wl_colours_match_the_refine_only_loop(monkeypatch, chsh3_graph):
    # random, edgeless and complete graphs (whose pair colourings skip a
    # colour), the catalog graphs and CHSH^3, for 1-WL and 2-WL: the same
    # colours as refining every round, with no _refine in the round that
    # only confirms
    refine = sdp._refine
    refines = []

    def counting(colours, hashed):
        refines.append(1)
        return refine(colours, hashed)

    wl_colours = sdp._wl_colours
    seen = []

    def compared(colours, step):
        dense = len(np.unique(colours)) == int(colours.max()) + 1
        del refines[:]
        reference = _wl_colours_by_refinement(colours, step)
        expected = len(refines) - 1
        del refines[:]
        out = wl_colours(colours, step)
        assert out.dtype == reference.dtype
        assert np.array_equal(out, reference)
        assert len(refines) == expected
        seen.append(dense)
        return out

    monkeypatch.setattr(sdp, "_refine", counting)
    monkeypatch.setattr(sdp, "_wl_colours", compared)
    rng = np.random.default_rng(11)
    graphs = [(g, np.ones(g.n)) for g in criterion7_random_graphs(20,
                                                                  games=10)]
    graphs += [(random_graph(rng, 12, p), np.ones(12))
               for p in (0.2, 0.5, 0.8)]
    graphs += [(empty_graph(6), np.ones(6)),
               (empty_graph(6), np.array([1.0, 2.0] * 3)),
               (complete_graph(5), np.ones(5)),
               (complete_graph(6), np.array([1.0, 2.0] * 3))]
    graphs += [(graph, np.diag(c)) for graph, c in _catalog_graphs()]
    graphs.append((chsh3_graph, np.ones(512)))
    for graph, keys in graphs:
        sdp._edge_classes(graph, keys)
    assert True in seen and False in seen


def test_refine_matches_the_two_sort_oracle(monkeypatch, chsh3_graph):
    # every 1-WL and 2-WL round and every transpose merge of _edge_classes
    # on random graphs, the catalog graphs and CHSH^3
    refine = sdp._refine
    hashes = set()

    def checked(colours, hashed):
        out = refine(colours, hashed)
        reference = _refine_by_two_sorts(colours, hashed)
        assert out.dtype == reference.dtype
        assert np.array_equal(out, reference)
        hashes.add(hashed.dtype)
        return out

    monkeypatch.setattr(sdp, "_refine", checked)
    rng = np.random.default_rng(12)
    graphs = [(random_graph(rng, int(rng.integers(2, 30)), rng.uniform()),
               None) for _ in range(30)]
    graphs += [(cycle_graph(n), None) for n in range(3, 12)]
    graphs += [(graph, np.diag(c)) for graph, c in _catalog_graphs()]
    graphs.append((chsh3_graph, None))
    for graph, keys in graphs:
        sdp._edge_classes(graph, np.ones(graph.n) if keys is None else keys)
    assert hashes == {np.dtype(float), np.dtype(np.int64)}


@pytest.mark.parametrize("top, fallback", [((1 << 62) - 1, False),
                                           (1 << 62, True)])
def test_refine_ranks_hashes_whose_keys_would_pass_int64(top, fallback):
    # two colours: keys colour * (top + 1) + hash reach 2 * (top + 1) - 1,
    # which fits int64 up to top = 2^62 - 1; past that the hashes are
    # ranked first
    colours = np.array([[0, 1, 1], [1, 0, 1]])
    hashed = np.array([[top, 0, top], [5, top, top - 1]], dtype=np.int64)
    assert (2 * (top + 1) > 1 << 63) == fallback
    out = sdp._refine(colours, hashed)
    assert np.array_equal(out, _refine_by_two_sorts(colours, hashed))
    assert out.tolist() == [[0, 1, 4], [2, 0, 3]]


def test_too_coarse_partition_still_brackets_theta(monkeypatch):
    tol = 1e-7
    graphs = [g for g in criterion7_random_graphs(20)
              if _colour_refinement_is_discrete(g)][:4]
    graphs.append(random_graph(np.random.default_rng(0), 32, 0.85))
    proper = [lovasz_theta(g, tol) for g in graphs]
    monkeypatch.setattr(sdp, "_edge_classes", _one_class)
    for graph, exact in zip(graphs, proper):
        coarse = lovasz_theta(graph, tol)
        assert exact.converged
        assert coarse.value <= exact.dual_bound + 10 * tol
        assert coarse.dual_bound >= exact.value - 10 * tol
        # these graphs are asymmetric, so one class gives a looser program
        # than theta and the certified bracket stays wide
        assert not coarse.converged



def test_an_oscillating_gap_stalls(monkeypatch):
    # the 11-vertex graph above, every edge in one class: <X, Z> runs 3.34,
    # 1.14, 0.94, 1.04, 0.93, 1.05, 0.92, ... and sets a new minimum every
    # other step, but no step after the third is below 0.9 times 0.94
    graph = [g for g in criterion7_random_graphs(20)
             if _colour_refinement_is_discrete(g)][3]
    assert graph.n == 11
    monkeypatch.setattr(sdp, "_edge_classes", _one_class)
    coarse = lovasz_theta(graph, 1e-7)
    assert not coarse.converged
    # three steps without progress after the third; were every new minimum
    # progress, the solve would run 15 steps, until a factorization fails
    assert coarse.iterations == 3 + sdp.STALL_STEPS


def test_relabelled_graph_gives_the_same_program():
    tol = 1e-7
    graph = _chsh2_graph()
    perm = np.random.default_rng(5).permutation(graph.n)
    relabelled = Graph.from_edges(graph.n, [(int(perm[i]), int(perm[j]))
                                            for i, j in graph.edges()])
    assert len(_classes(relabelled)[2]) == len(_classes(graph)[2])
    a, b = lovasz_theta(graph, tol), lovasz_theta(relabelled, tol)
    assert a.converged and b.converged
    assert a.iterations == b.iterations
    assert len(a.blocks) == 15 and a.blocks == b.blocks
    assert abs(a.value - b.value) <= 10 * tol
    assert abs(a.dual_bound - b.dual_bound) <= 10 * tol


def test_class_program_agrees_with_per_edge_program(monkeypatch):
    tol = 1e-7
    graphs = [build_game_graph(magic_square()), _chsh2_graph()]
    assert [len(_classes(g)[2]) for g in graphs] == [5, 7]
    by_class = [lovasz_theta(g, tol) for g in graphs]
    # the per-edge programs, m = 1117 and 673
    monkeypatch.setattr(sdp, "_edge_classes", _per_edge_classes)
    per_edge = [lovasz_theta(g, tol) for g in graphs]
    for a, b in zip(by_class, per_edge):
        assert a.converged and b.converged
        assert abs(a.value - b.value) <= 10 * tol
        assert abs(a.dual_bound - b.dual_bound) <= 10 * tol


def _catalog_graphs():
    """(graph, objective) of the catalog games in their pipelines, with
    magic-square in both."""
    out = []
    for game, weighted in ((chsh(), False),
                           (independent_set_game(cycle_graph(5), 2), False),
                           (independent_set_game(cycle_graph(5), 3), False),
                           (magic_square(), False), (magic_square(), True),
                           (parallel_repetition(chsh(), 2), False)):
        gg = pipeline_graph(game, weighted)
        root = np.sqrt(gg.objective()[0])
        out.append((gg, np.outer(root, root)))
    return out


@pytest.fixture(scope="module")
def chsh3_graph():
    return build_game_graph(parallel_repetition(chsh(), 3))


def test_block_decomposition_rebuilds_the_program(chsh3_graph):
    # what _theta_from_objective reads of a decomposition: the first-copy
    # bases split n, are orthonormal, and the lifted block program averages
    # back to the objective, to I and to every class matrix
    base = random_graph(np.random.default_rng(7), 20)
    three = disjoint_union(disjoint_union(base, base), base)
    cases = _catalog_graphs() + [(chsh3_graph, np.ones((512, 512))),
                                 (three, np.ones((60, 60)))]
    for graph, c in cases:
        ei, ej, starts, colours = sdp._edge_classes(graph, np.diag(c))
        bases = sdp._block_bases(colours, c)
        assert sum(p.shape[1] * m for p, m in bases) == graph.n
        p = np.concatenate([p for p, _ in bases], axis=1)
        assert np.allclose(p.T @ p, np.eye(p.shape[1]), rtol=0, atol=1e-10)
        program, lift, _ = sdp._block_program(c, bases, ei, ej, starts)
        average, a_adj = sdp._class_average(colours), program[4]
        unit = np.eye(len(starts) + 1)
        matrices = [(c, program[0]), (np.eye(graph.n), a_adj(unit[0]))]
        ends = np.append(starts[1:], len(ei))
        for k, (s, e) in enumerate(zip(starts, ends), start=1):
            a = np.zeros((graph.n, graph.n))
            a[ei[s:e], ej[s:e]] = a[ej[s:e], ei[s:e]] = 0.5
            matrices.append((a, a_adj(unit[k])))
        for a, block in matrices:
            error = np.linalg.norm(average(lift(block)) - a)
            assert error <= 1e-10 * np.linalg.norm(a)
    # the last case, three copies of one graph
    assert sorted((p.shape[1], m) for p, m in bases) == [(20, 1), (20, 2)]


def test_theta_result_records_its_program():
    isg3, magic = (build_game_graph(g) for g in (
        independent_set_game(cycle_graph(5), 3), magic_square()))
    res = lovasz_theta(isg3)
    assert res.m == 18
    assert sorted(res.blocks) == sorted(
        [(1, 1)] * 3 + [(1, 2)] * 9 + [(2, 1)] + [(2, 2)] * 3
        + [(2, 4)] * 2 + [(3, 4)] * 2)
    res = lovasz_theta(magic)
    assert res.m == 6
    assert sorted(res.blocks) == [(1, 1), (1, 4), (1, 4), (1, 6), (1, 9),
                                  (1, 12), (1, 18), (2, 9)]
    # 1-WL separates this graph's vertices: one constraint per edge, n x n
    graphs = criterion7_random_graphs(20, games=2)
    discrete = graphs[0]
    assert _classes(discrete)[3] is None
    res = lovasz_theta(discrete)
    assert (res.m, res.blocks) == (discrete.num_edges + 1, ((7, 1),))
    # the battery's random-game-1: 312 classes, but no block repeats, so
    # the n x n program on the class-averaged iterates
    averaged = graphs[21]
    assert _classes(averaged)[3] is not None
    res = lovasz_theta(averaged)
    assert (res.m, res.blocks) == (313, ((45, 1),))


def test_corrupted_blocks_still_bracket_theta(monkeypatch):
    tol = 1e-7
    graphs = [g for g, _ in _catalog_graphs()[2:4]]
    exact = [lovasz_theta(g, tol) for g in graphs]
    block_bases = sdp._block_bases
    rng = np.random.default_rng(3)

    def corrupted(colours, c):
        # bases that are orthonormal but no longer span invariant subspaces
        return [(np.linalg.qr(p + 0.3 * rng.standard_normal(p.shape))[0], m)
                for p, m in block_bases(colours, c)]

    monkeypatch.setattr(sdp, "_block_bases", corrupted)
    for graph, proper in zip(graphs, exact):
        res = lovasz_theta(graph, tol)
        assert proper.converged and len(res.blocks) > 1
        assert res.value <= proper.dual_bound + 10 * tol
        assert res.dual_bound >= proper.value - 10 * tol
        assert not res.converged


def _drop_last_component(blocks, rng):
    return blocks[:-1]


def _random_bases(blocks, rng):
    # orthonormal columns of the same shape as the first basis
    blocks, (p, m) = list(blocks), blocks[0]
    blocks[0] = (np.linalg.qr(rng.standard_normal(p.shape))[0], m)
    return blocks


@pytest.mark.parametrize("corrupt", [_drop_last_component, _random_bases])
def test_rejected_decomposition_takes_the_n_by_n_route(monkeypatch, corrupt):
    # _block_bases checks what _wedderburn returns: a decomposition that
    # misses a component, or whose bases do not rebuild the algebra, is
    # refused, and theta is the forced n x n solve bit for bit
    graph = build_game_graph(magic_square())
    with monkeypatch.context() as patch:
        patch.setattr(sdp, "_block_bases", lambda colours, c: None)
        forced = lovasz_theta(graph)
    wedderburn = sdp._wedderburn
    rng = np.random.default_rng(4)
    monkeypatch.setattr(sdp, "_wedderburn",
                        lambda colours: corrupt(wedderburn(colours), rng))
    res = lovasz_theta(graph)
    assert res.blocks == forced.blocks == ((72, 1),)
    assert res.converged
    assert (res.value.hex(), res.dual_bound.hex(), res.iterations) == (
        forced.value.hex(), forced.dual_bound.hex(), forced.iterations)
    assert np.array_equal(res.primal_matrix, forced.primal_matrix)


def test_block_arrays_past_the_schur_bytes_take_the_n_by_n_route(monkeypatch):
    # magic square: m = 6 and sum n_i^2 = 11, so the block route's three
    # m x 11 float arrays take 1,584 bytes; a cap of 14 constraints allows
    # the Schur matrix 1,568 bytes and one of 15 allows 1,800
    graph = build_game_graph(magic_square())
    with monkeypatch.context() as patch:
        patch.setattr(sdp, "_block_bases", lambda colours, c: None)
        forced = lovasz_theta(graph)
    monkeypatch.setattr(sdp, "MAX_CONSTRAINTS", 15)
    blocks = lovasz_theta(graph)
    assert blocks.m == 6
    assert sum(n_i ** 2 for n_i, _ in blocks.blocks) == 11
    for cap in (14, 10):
        monkeypatch.setattr(sdp, "MAX_CONSTRAINTS", cap)
        res = lovasz_theta(graph)
        assert res.blocks == forced.blocks == ((72, 1),)
        assert res.converged
        assert (res.value.hex(), res.dual_bound.hex(), res.iterations) == (
            forced.value.hex(), forced.dual_bound.hex(), forced.iterations)
        assert np.array_equal(res.primal_matrix, forced.primal_matrix)


@pytest.mark.parametrize("fail_from", [1, 3])
def test_failed_factorization_still_brackets_theta(monkeypatch, fail_from):
    # every Schur factorization from call fail_from on fails, shifts
    # included: _factor_schur raises after its last shift, and _ipm_sdp
    # stops and certifies the best iterate it kept (the start when the
    # first step fails)
    cases = [(cycle_graph(5), SQRT5), (build_game_graph(chsh()), 2.0 + SQRT2),
             (build_game_graph(magic_square()), 9.0)]
    cholesky = sdp._cholesky_in_place
    calls = []

    def failing(a):
        calls.append(1)
        if len(calls) >= fail_from:
            raise np.linalg.LinAlgError("forced failure")
        return cholesky(a)

    monkeypatch.setattr(sdp, "_cholesky_in_place", failing)
    for graph, theta in cases:
        del calls[:]
        res = lovasz_theta(graph)
        assert len(calls) == fail_from + len(sdp.SCHUR_SHIFTS)
        assert res.iterations == fail_from - 1
        assert not res.converged
        assert res.value <= theta <= res.dual_bound
        assert res.gap == res.dual_bound - res.value > 1e-6


def _recorded_fractions(monkeypatch, full_predictor=False):
    """Record every fraction passed to _step_to_boundary.  Each step calls
    it for its predictor (primal, then dual) and then for its corrector;
    full_predictor lets every predictor step go all the way (length 1)."""
    calls = []
    step_to_boundary = sdp._step_to_boundary

    def recording(li, d, fraction):
        calls.append(fraction)
        if full_predictor and len(calls) % 4 in (1, 2):
            return 1.0
        return step_to_boundary(li, d, fraction)

    monkeypatch.setattr(sdp, "_step_to_boundary", recording)
    return calls


def test_corrector_steps_approach_the_boundary_as_sigma_falls(monkeypatch):
    # C5 and CHSH on the block builder, a graph that 1-WL separates on the
    # n x n builder, and the XOR program
    calls = _recorded_fractions(monkeypatch)
    for solve in (lambda: lovasz_theta(cycle_graph(5)),
                  lambda: lovasz_theta(build_game_graph(chsh())),
                  lambda: lovasz_theta(criterion7_random_graphs(1)[0]),
                  lambda: xor_tsirelson_value(_odd_cycle_game(9))):
        del calls[:]
        solve()
        assert calls and len(calls) % 4 == 0
        predictor = [f for i, f in enumerate(calls) if i % 4 < 2]
        corrector = [f for i, f in enumerate(calls) if i % 4 >= 2]
        assert set(predictor) == {sdp.STEP_FRACTION}
        assert all(sdp.STEP_FRACTION <= f < 1.0 for f in corrector)
        assert max(corrector) > sdp.STEP_FRACTION


def test_corrector_stops_short_of_the_boundary_when_sigma_underflows(
        monkeypatch):
    # after a full predictor step the predicted mu is 0 up to rounding, so
    # sigma rounds to 0 or below; the corrector still stops short of the
    # PSD boundary, and the result still brackets the optimum
    calls = _recorded_fractions(monkeypatch, full_predictor=True)
    res = lovasz_theta(cycle_graph(5))
    corrector = [f for i, f in enumerate(calls) if i % 4 >= 2]
    assert np.nextafter(1.0, 0.0) in corrector
    assert all(f < 1.0 for f in corrector)
    assert res.value <= SQRT5 <= res.dual_bound


def test_n_by_n_path_is_pinned():
    # graphs on which no block repeats take the n x n program, pinned bit
    # for bit: three that 1-WL separates, the battery's random-game-1 (312
    # classes, every block of multiplicity 1) and random-game-2 (389 edges,
    # one per class: the largest such solve of the battery)
    graphs = criterion7_random_graphs(20, games=3)
    pins = [(graphs[0], "0x1.ffffffb6ded19p+1", "0x1.000000073c802p+2", 7),
            (graphs[1], "0x1.7fffff93c7cc6p+1", "0x1.80000011c9155p+1", 13),
            (graphs[4], "0x1.7fffffdf5378bp+1", "0x1.8000000e33a10p+1", 7),
            (graphs[21], "0x1.1fffffe9a0e0ap+3", "0x1.200000000c8c5p+3", 9),
            (graphs[22], "0x1.1fffffdd878c6p+3", "0x1.20000000b07afp+3", 8)]
    for graph, value, dual_bound, iterations in pins:
        res = lovasz_theta(graph)
        assert (res.value.hex(), res.dual_bound.hex(), res.iterations) == (
            value, dual_bound, iterations)
    assert _classes(graphs[21])[3] is not None
    assert _classes(graphs[22])[3] is None
    assert xor_tsirelson_value(_odd_cycle_game(9)).hex() == (
        "0x1.fc1c5c6408910p-1")
    assert xor_tsirelson_value(_odd_cycle_game(15)).hex() == (
        "0x1.fe98fca7b6aedp-1")


def _n_by_n_builds(monkeypatch, graph):
    """Solve theta on graph by the n x n program, its decomposition refused;
    returns the program's Schur builder and the (X, Z^-1) of every build."""
    builders, calls = [], []
    theta_program = sdp._theta_program

    def spy(*args):
        program, lift, blocks = theta_program(*args)
        builders.append(program[5])

        def schur(x, zi, out):
            calls.append((x.copy(), zi.copy()))
            builders[0](x, zi, out)
        return program[:5] + (schur,), lift, blocks

    with monkeypatch.context() as patch:
        patch.setattr(sdp, "_block_bases", lambda colours, c: None)
        patch.setattr(sdp, "_theta_program", spy)
        lovasz_theta(graph)
    return builders[0], calls


def test_schur_build_matches_the_rows_first_oracle(monkeypatch, chsh3_graph):
    # X and Z^-1 gathered at the edge endpoints once per build on the
    # battery's random-game-2 (one edge per class) and random-game-1
    # (classes); a block of rows at a time on a small graph that 1-WL
    # separates and on CHSH^3's classes forced onto n x n.  Either way the
    # lower triangle is the oracle's bit for bit
    graphs = criterion7_random_graphs(20, games=3)
    cases = [(graphs[22], True), (graphs[21], True), (graphs[0], False),
             (chsh3_graph, False)]
    for graph, columns_first in cases:
        ei, ej, starts, colours = _classes(graph)
        m = len(starts) + 1
        assert (4 * graph.n * len(ei) <= m * m) == columns_first
        schur, calls = _n_by_n_builds(monkeypatch, graph)
        oracle = theta_schur(ei, ej, starts, sdp._class_average(colours))
        low = np.tril_indices(m)
        # the start point and a mid-solve iterate
        for x, zi in (calls[0], calls[len(calls) // 2]):
            built, expected = np.zeros((m, m)), np.zeros((m, m))
            schur(x, zi, built)
            oracle(x, zi, expected)
            assert np.array_equal(built[low], expected[low])


def test_schur_build_with_many_edges_per_constraint_stays_small(chsh3_graph):
    # CHSH^3's classes on n x n: m = 17 but 26,880 edges, so X and Z^-1 at
    # the edge endpoints would take 440 MB; gathered a block of rows at a
    # time, one build peaks at about 7.2 MB, mostly the averaged n x n
    # iterates and their product
    ei, ej, starts, colours = _classes(chsh3_graph)
    n, m = chsh3_graph.n, len(starts) + 1
    schur = sdp._theta_program(np.ones((n, n)), ei, ej, starts,
                               sdp._class_average(colours))[0][5]
    x, zi, out = np.eye(n) / n, np.eye(n), np.zeros((m, m))
    tracemalloc.start()
    try:
        schur(x, zi, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


def test_cholesky_solves_on_either_path():
    # one block up to _BLOCK rows, the block loop above: L L^T v = r to a
    # relative residual of 1e-12, reading only the lower triangle
    rng = np.random.default_rng(3)
    for m in (1, sdp._BLOCK, sdp._BLOCK + 1, 3 * sdp._BLOCK):
        a = rng.standard_normal((m, m))
        matrix = a @ a.T + m * np.eye(m)
        r = rng.standard_normal(m)
        low = np.tril(matrix) + np.triu(np.full((m, m), np.nan), 1)
        inverses = sdp._cholesky_in_place(low)
        assert len(inverses) == -(-m // sdp._BLOCK)
        v = sdp._cho_solve(low, inverses, r)
        assert (np.linalg.norm(matrix @ v - r)
                <= 1e-12 * np.linalg.norm(r))


def test_chsh3_theta(chsh3_graph):
    res = lovasz_theta(chsh3_graph)
    assert res.converged
    # the entangled value of CHSH^3 is at least cos^6(pi/8)
    assert np.cos(np.pi / 8) ** 6 <= res.dual_bound / 64
    assert res.value <= 64 * 0.65136183645
    assert res.dual_bound >= 64 * 0.65136183541


def _block_solve(monkeypatch, graph, c):
    """Solve theta on (graph, c) on the blocks; returns the result, the
    lift and block Schur builder of its block program and the (X, Z^-1) of
    every Schur build of the solve."""
    programs, calls = [], []
    block_program = sdp._block_program

    def spy(*args):
        programs.append(block_program(*args))
        program, lift, blocks = programs[0]

        def schur(x, zi, out):
            calls.append((x.copy(), zi.copy()))
            program[5](x, zi, out)
        return program[:5] + (schur,), lift, blocks

    with monkeypatch.context() as patch:
        patch.setattr(sdp, "_block_program", spy)
        res = sdp._theta_from_objective(graph, c, sdp.DEFAULT_TOL)
    return res, programs[0][1], programs[0][0][5], calls


def test_block_schur_matches_the_lifted_builder(monkeypatch, chsh3_graph):
    # the catalog's block programs, chsh --weighted included, CHSH^3, and 3
    # copies of a 10-vertex graph that 1-WL separates: 22 classes on the
    # blocks (10, 1) and (10, 2), larger than any catalog block
    gg = pipeline_graph(chsh(), True)
    root = np.sqrt(gg.objective()[0])
    h = random_graph(np.random.default_rng(7), 10, 0.5)
    copies = disjoint_union(disjoint_union(h, h), h)
    cases = _catalog_graphs() + [(gg, np.outer(root, root)),
                                 (chsh3_graph, np.ones((512, 512))),
                                 (copies, np.ones((30, 30)))]
    for graph, c in cases:
        res, lift, block_schur, calls = _block_solve(monkeypatch, graph, c)
        assert res.converged and len(calls) >= res.iterations
        assert len(res.blocks) > 1
        ei, ej, starts, colours = sdp._edge_classes(graph, np.diag(c))
        schur = sdp._theta_program(c, ei, ej, starts,
                                   sdp._class_average(colours))[0][5]
        m = res.m
        low = np.tril_indices(m)
        # the start point and a mid-solve iterate
        for x, zi in (calls[0], calls[len(calls) // 2]):
            on_blocks, lifted = np.zeros((m, m)), np.zeros((m, m))
            block_schur(x, zi, on_blocks)
            schur(lift(x), lift(zi), lifted)
            assert (np.max(np.abs(on_blocks[low] - lifted[low]))
                    <= 1e-12 * np.linalg.norm(lifted[low]))


def _counting_class_average(monkeypatch):
    """Count the calls of every average that _class_average returns."""
    calls = []
    class_average = sdp._class_average

    def counting(colours):
        average = class_average(colours)

        def counted(w):
            calls.append(w.shape)
            return average(w)
        return counted

    monkeypatch.setattr(sdp, "_class_average", counting)
    return calls


def test_block_path_is_pinned(monkeypatch, chsh3_graph):
    # the block path's step counts and converged flags, on the Schur matrix
    # built from the blocks: no step lifts or averages an iterate, so the
    # only average is the certificate's, on the returned n x n primal
    calls = _counting_class_average(monkeypatch)
    pins = [(chsh(), False, 4), (independent_set_game(cycle_graph(5), 2),
                                 False, 10),
            (independent_set_game(cycle_graph(5), 3), False, 9),
            (magic_square(), False, 7), (parallel_repetition(chsh(), 2),
                                         False, 8),
            (magic_square(), True, 6), (chsh(), True, 4)]
    for game, weighted, iterations in pins:
        gg = pipeline_graph(game, weighted)
        del calls[:]
        res = sdp._game_graph_bound(gg, sdp.DEFAULT_TOL).theta
        assert (res.iterations, res.converged) == (iterations, True)
        assert len(res.blocks) > 1 and calls == [(gg.n,) * 2]
    del calls[:]
    res = lovasz_theta(chsh3_graph)
    assert (res.iterations, res.converged) == (11, True)
    assert calls == [(512, 512)]


def test_theta_is_deterministic():
    gg = build_weighted_game_graph(magic_square())
    for solve in (lambda: lovasz_theta(_chsh2_graph()),
                  lambda: weighted_theta(gg, gg.weights),
                  lambda: lovasz_theta(criterion7_random_graphs(1)[0])):
        a, b = solve(), solve()
        assert (a.value, a.dual_bound, a.gap, a.iterations, a.converged) == (
            b.value, b.dual_bound, b.gap, b.iterations, b.converged)
        assert np.array_equal(a.primal_matrix, b.primal_matrix)


def test_theta_chsh_graph():
    graph = to_plain_graph(build_game_graph(chsh()))
    res = lovasz_theta(graph)
    assert res.value == pytest.approx(2.0 + SQRT2, abs=1e-4)


def test_theta_of_the_empty_graph_is_the_zero_certificate():
    plain = lovasz_theta(empty_graph(0))
    weighted = weighted_theta(empty_graph(0), [])
    for field in dataclasses.fields(plain):
        a, b = getattr(plain, field.name), getattr(weighted, field.name)
        assert np.array_equal(a, b) and type(a) is type(b)
    assert plain.primal_matrix.shape == (0, 0)
    assert (plain.value, plain.dual_bound, plain.m, plain.blocks) == (
        0.0, 0.0, 0, ())


def test_weighted_theta_unit_weights():
    g = cycle_graph(5)
    plain = lovasz_theta(g)
    weighted = weighted_theta(g, np.ones(5))
    assert weighted.value == pytest.approx(plain.value, abs=1e-6)


def test_weighted_theta_scaling():
    g = cycle_graph(5)
    base = lovasz_theta(g).value
    for c in (0.25, 2.0):
        res = weighted_theta(g, np.full(5, c))
        assert res.value == pytest.approx(c * base, abs=1e-5 * max(1, c))


@pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf])
def test_weighted_solvers_reject_bad_weights(bad):
    with pytest.raises(ValueError, match="finite and non-negative"):
        weighted_theta(cycle_graph(3), [1.0, bad, 1.0])
    with pytest.raises(ValueError, match="finite and non-negative"):
        weighted_independence(cycle_graph(3), [1.0, bad, 1.0])


def test_weighted_theta_chsh_quarter_weights():
    graph = to_plain_graph(build_game_graph(chsh()))
    res = weighted_theta(graph, np.full(8, 0.25))
    assert res.value == pytest.approx((2.0 + SQRT2) / 4.0, abs=1e-4)


def test_theta_additive_on_disjoint_union():
    g = cycle_graph(5)
    h = complete_graph(3)
    union = disjoint_union(g, h)
    total = lovasz_theta(union).value
    assert total == pytest.approx(
        lovasz_theta(g).value + lovasz_theta(h).value, abs=1e-5)


def test_theta_known_closed_forms():
    # C7: theta of an odd cycle C_n is n cos(pi/n) / (1 + cos(pi/n))
    c = np.cos(np.pi / 7.0)
    res = lovasz_theta(cycle_graph(7))
    assert res.value == pytest.approx(7.0 * c / (1.0 + c), abs=1e-5)
    # Petersen graph: theta = 4
    petersen = Graph_from_petersen()
    res = lovasz_theta(petersen)
    assert res.value == pytest.approx(4.0, abs=1e-5)
    assert independence_number(petersen).value == 4


def Graph_from_petersen():
    from gamebounds.gamegraph import Graph
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


def test_sandwich_on_random_graphs():
    rng = np.random.default_rng(24)
    tol = 1e-7
    for _ in range(12):
        g = random_graph(rng, int(rng.integers(2, 14)), rng.uniform(0.2, 0.8))
        alpha = independence_number(g).value
        theta = lovasz_theta(g, tol)
        assert alpha <= theta.dual_bound + 10 * tol
        assert theta.value <= theta.dual_bound + 10 * tol


def test_weighted_sandwich_on_random_game_graphs():
    from gamebounds.gamegraph import build_weighted_game_graph, to_plain_graph
    from conftest import random_boolean_game
    rng = np.random.default_rng(26)
    tol = 1e-7
    for _ in range(6):
        g = random_boolean_game(rng, max_size=3, uniform=False)
        gg = build_weighted_game_graph(g)
        if gg.n == 0:
            continue
        graph = to_plain_graph(gg)
        w = gg.weights
        alpha_w = weighted_independence(graph, w).value
        theta_w = weighted_theta(graph, w, tol)
        assert alpha_w <= theta_w.dual_bound + 10 * tol


@pytest.mark.parametrize("game", [chsh(), independent_set_game(
    cycle_graph(5), 2)], ids=["chsh", "isg-c5-t2"])
def test_unit_weights_reproduce_unweighted_solvers(game):
    # the uniform 0/1 pipeline runs the weighted solvers on unit weights;
    # its reports stay byte-identical only if this holds exactly
    graph = build_game_graph(game)
    ones = [1.0] * graph.n
    plain, unit = lovasz_theta(graph), weighted_theta(graph, ones)
    assert (unit.value, unit.dual_bound, unit.gap, unit.iterations,
            unit.converged) == (plain.value, plain.dual_bound, plain.gap,
                                plain.iterations, plain.converged)
    assert np.array_equal(unit.primal_matrix, plain.primal_matrix)
    assert weighted_independence(graph, ones) == independence_number(graph)


# --- entangled-value bounds -----------------------------------------------

def test_quantum_upper_bound_never_winnable_game():
    from gamebounds.games import Game
    g = Game("never", 2, 2, 2, 2, np.zeros((2, 2, 2, 2)),
             np.full((2, 2), 0.25))
    res = quantum_upper_bound(g)
    assert res.bound == 0.0 and res.theta.converged


def test_quantum_upper_bound_chsh():
    res = quantum_upper_bound(chsh())
    assert res.bound == pytest.approx(0.8535533905932737, abs=1e-4)
    assert res.graph.weights is None


def test_quantum_upper_bound_k2_isg():
    g = independent_set_game(complete_graph(2), 1)
    res = quantum_upper_bound(g)
    assert res.bound == pytest.approx(1.0, abs=1e-6)


def test_quantum_upper_bound_weighted_dispatch():
    import numpy as np
    from gamebounds.games import Game
    pi = np.array([[0.5, 1 / 6], [1 / 6, 1 / 6]])
    g = Game("chsh-skew", 2, 2, 2, 2, chsh().predicate, pi)
    res = quantum_upper_bound(g)
    assert res.graph.weights is not None
    # uniform weighting of the same graph reproduces theta/k
    uniform = quantum_upper_bound(chsh())
    assert abs(res.bound - uniform.bound) > 1e-3  # skew actually matters


def _odd_cycle_game(n):
    """x uniform, y in {x, x+1}: answers must agree when y = x and differ
    when y = x+1.  Entangled value cos^2(pi/4n) (Cleve, Hoyer, Toner and
    Watrous, 2004)."""
    f = np.zeros((n, n), dtype=int)
    pi = np.zeros((n, n))
    for x in range(n):
        pi[x, x] = pi[x, (x + 1) % n] = 1.0 / (2 * n)
        f[x, (x + 1) % n] = 1
    return xor_game(f, pi)


@pytest.mark.parametrize("game,value", [
    (chsh(), 0.8535533905932737),
    *[(_odd_cycle_game(n), np.cos(np.pi / (4 * n)) ** 2)
      for n in (5, 9, 15, 31)]], ids=["chsh", "5", "9", "15", "31"])
def test_tsirelson_odd_cycles(game, value):
    assert xor_tsirelson_value(game) == pytest.approx(value, abs=1e-6)


def test_odd_cycle_xor_takes_few_steps(monkeypatch):
    # the affine step predicts the end of an odd-cycle solve well, so its
    # correctors go nearly all the way: 6 steps, against 10 when every step
    # goes STEP_FRACTION of the way
    steps = []
    ipm_sdp = sdp._ipm_sdp

    def counting(*args):
        out = ipm_sdp(*args)
        steps.append(out[2])
        return out

    monkeypatch.setattr(sdp, "_ipm_sdp", counting)
    value = xor_tsirelson_value(_odd_cycle_game(31))
    assert value == pytest.approx(np.cos(np.pi / 124) ** 2, abs=1e-9)
    assert len(steps) == 1 and steps[0] <= 7


def test_tsirelson_constant_game():
    g = xor_game(np.zeros((2, 2), dtype=int))
    assert xor_tsirelson_value(g) == pytest.approx(1.0, abs=1e-6)


def test_tsirelson_separable_xor_game_is_classical():
    # f(x, y) = x xor y is winnable outright: answer a = x, b = y
    f = np.array([[0, 1], [1, 0]])
    g = xor_game(f)
    assert xor_tsirelson_value(g) == pytest.approx(1.0, abs=1e-6)
    from gamebounds.independence import classical_value
    assert classical_value(g).value == 1.0


def test_tsirelson_rejects_non_xor():
    from gamebounds.games import magic_square
    with pytest.raises(NotXorGame):
        xor_tsirelson_value(magic_square())  # na = nb = 4
    with pytest.raises(NotXorGame):
        xor_tsirelson_value(all_ones(2, 2, 2, 1))  # nb = 1
    # predicate depending on a, b beyond their parity
    from gamebounds.games import Game
    lam = np.zeros((1, 1, 2, 2))
    lam[0, 0, 0, 0] = 1.0
    with pytest.raises(NotXorGame):
        xor_tsirelson_value(Game("notxor", 1, 1, 2, 2, lam, np.ones((1, 1))))


def test_tsirelson_accepts_parity_degenerate_game():
    # every answer wins: parity-only dependence with zero bias
    assert xor_tsirelson_value(all_ones(2, 2, 2, 2)) == pytest.approx(
        1.0, abs=1e-9)


def test_tsirelson_random_xor_games_bounded_by_theta():
    rng = np.random.default_rng(25)
    tol = 1e-7
    for _ in range(8):
        nx, ny = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        g = xor_game(rng.integers(0, 2, size=(nx, ny)))
        xor_val = xor_tsirelson_value(g)
        bound = quantum_upper_bound(g, tol)
        from gamebounds.independence import classical_value
        omega = classical_value(g).value
        assert omega <= bound.bound + 10 * tol
        assert xor_val <= bound.bound + 1e-4
        assert xor_val >= omega - 1e-9


def test_weighted_theta_checks_the_weight_length():
    with pytest.raises(ValueError, match="weight vector length does not "
                       "match vertex count"):
        weighted_theta(cycle_graph(5), [1.0] * 4)


def test_every_program_meets_the_solver_contract(monkeypatch):
    # _ipm_sdp's start point, _affine_projection and _certify's lambda_min
    # shift rely on three facts of every program they take: a_adj(b) = I,
    # a_map(I) = (sum of mult / b.b) b and mutually orthogonal constraint
    # matrices, so that a_map(a_adj(e_k)) is zero off entry k
    for program, _, _ in _certify_cases(monkeypatch):
        c, b, mult, a_map, a_adj, _ = program
        eye = np.eye(c.shape[0])
        assert np.max(np.abs(a_adj(b) - eye)) <= 1e-12
        assert np.max(np.abs(a_map(eye) - np.sum(mult) / (b @ b) * b)) <= (
            1e-12 * np.sum(mult))
        for k, e_k in enumerate(np.eye(len(b))):
            image = a_map(a_adj(e_k))
            assert image[k] > 0.0
            assert np.max(np.abs(np.delete(image, k)), initial=0.0) <= (
                1e-12 * image[k])
