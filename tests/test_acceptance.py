"""Acceptance suite: the contract the library is shipped against.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  Criterion 5b is expected to fail and is marked xfail: no
size-9 quantum independent set of the magic square game graph exists (see
README, "Known limits"), so the conversion round trip it asks for is
mathematically unattainable; the test asserts the original expectation
unchanged and documents the failure honestly.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from gamebounds.games import (chsh, independent_set_game, magic_square,
                              parallel_repetition)
from gamebounds.gamegraph import (Graph, build_game_graph, complete_graph,
                                  cycle_graph, empty_graph, to_plain_graph)
from gamebounds.independence import (classical_value, classical_value_brute,
                                     independence_number,
                                     weighted_independence)
from gamebounds.quantum import (lift_qis_to_strategy, strategy_to_qis,
                                verify_quantum_independent_set,
                                winning_probability)
from gamebounds.sdp import lovasz_theta, quantum_upper_bound, xor_tsirelson_value

from conftest import random_boolean_game
from quantum_fixtures import check_lemma1, magic_square_strategy

TOL = 1e-7
SQRT2 = np.sqrt(2.0)
CHSH_STAR = 0.5 + 0.5 / (2.0 * SQRT2) * 2.0  # 1/2 + 1/(2 sqrt 2)
COS4_PI8 = float(np.cos(np.pi / 8.0) ** 4)


@contextmanager
def criterion(number: str, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.1f}s)")


# Shared expensive computations (criteria 4, 5 and the sandwich battery).

@pytest.fixture(scope="module")
def chsh2_results():
    g = parallel_repetition(chsh(), 2)
    value = classical_value(g)
    bound = quantum_upper_bound(g, TOL)
    return g, value, bound


@pytest.fixture(scope="module")
def magic_square_results():
    g = magic_square()
    value = classical_value(g)
    bound = quantum_upper_bound(g, TOL)
    return g, value, bound


def test_criterion_1_chsh_exact_chain():
    with criterion("1", "CHSH chain: alpha=3, omega=3/4, theta=2+sqrt(2)"):
        start = time.perf_counter()
        g = chsh()
        res = classical_value(g)
        assert len(res.alpha.witness) == 3          # exact integer alpha
        assert res.exact == Fraction(3, 4)          # exact rational omega
        bound = quantum_upper_bound(g, TOL)
        assert abs(bound.theta.value - (2.0 + SQRT2)) <= 1e-4
        assert abs(bound.bound - 0.853553) <= 1e-4
        assert abs(bound.bound - CHSH_STAR) <= 1e-4
        assert time.perf_counter() - start < 1.0


def test_criterion_2_alpha_equals_brute_force_uniform():
    with criterion("2", "100 random uniform games: game search == graph "
                        "branch and bound == brute force, exact comparison"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        for _ in range(100):
            g = random_boolean_game(rng, max_size=3, uniform=True)
            via_graph = classical_value(g)
            via_brute = classical_value_brute(g)
            assert via_graph.exact == via_brute.exact
            # graph branch and bound on the same game graph
            gg = via_graph.graph
            via_bnb = weighted_independence(gg, gg.objective()[0])
            assert via_bnb.value == via_graph.alpha.value
        assert time.perf_counter() - start < 30.0


def test_criterion_3_weighted_equals_brute_force():
    with criterion("3", "50 random games with rational distributions: "
                        "game search == graph branch and bound == brute "
                        "force within 1e-10"):
        rng = np.random.default_rng(31337)
        for _ in range(50):
            g = random_boolean_game(rng, max_size=3, uniform=False)
            via_graph = classical_value(g)
            via_brute = classical_value_brute(g)
            assert via_graph.exact is None  # weighted pipeline used
            assert abs(via_graph.value - via_brute.value) <= 1e-10
            gg = via_graph.graph
            via_bnb = weighted_independence(gg, gg.objective()[0])
            assert abs(via_bnb.value - via_graph.alpha.value) <= 1e-10


def test_criterion_4_chsh_rep2_non_tightness(chsh2_results):
    with criterion("4", "2-fold CHSH: alpha=10, omega=10/16, strict gap "
                        "theta/16 - cos^4(pi/8) > 1e-3"):
        start = time.perf_counter()
        g, value, bound = chsh2_results
        assert bound.graph.n == 64
        assert len(value.alpha.witness) == 10
        assert value.exact == Fraction(10, 16)
        assert classical_value_brute(g).exact == Fraction(10, 16)
        theta_over_k = bound.bound
        lower = bound.theta.value / 16            # a feasible primal objective
        print(f"  [criterion 4] theta/16 in [{lower:.9f}, "
              f"{theta_over_k:.9f}], cos^4(pi/8) = {COS4_PI8:.9f}")
        assert lower - COS4_PI8 > 1e-3            # strictly not tight
        assert theta_over_k >= COS4_PI8 - 1e-6    # never below the true value
        assert bound.theta.converged
        assert time.perf_counter() - start < 120.0


def test_criterion_5a_magic_square_graph_chain(magic_square_results):
    with criterion("5a", "magic square: alpha=8, omega=8/9, theta/9 >= 1-1e-4"):
        start = time.perf_counter()
        g, value, bound = magic_square_results
        assert len(value.alpha.witness) == 8
        assert value.exact == Fraction(8, 9)
        assert classical_value_brute(g).exact == Fraction(8, 9)
        assert bound.bound >= 1.0 - 1e-4
        assert bound.theta.converged
        assert time.perf_counter() - start < 120.0


@pytest.mark.xfail(
    strict=True,
    reason="no size-9 quantum independent set of the magic square game graph "
           "exists: the conversion demands pairwise commuting projector "
           "families, which would yield nine commuting +-1 observables with "
           "even row and odd column parities - a parity contradiction "
           "(see README, 'Known limits')")
def test_criterion_5b_magic_square_qis_round_trip():
    with criterion("5b", "magic square: perfect strategy converts to a valid "
                         "t=9 certificate and lifts back to probability 1"):
        g = magic_square()
        s = magic_square_strategy()
        assert winning_probability(g, s) == pytest.approx(1.0, abs=1e-9)
        qis = strategy_to_qis(g, s)   # raises NonCommutingStrategy
        gg = build_game_graph(g)
        report = verify_quantum_independent_set(gg, qis, tol=1e-9)
        assert qis.t == 9 and report.valid
        lifted = lift_qis_to_strategy(g, gg, qis)
        assert winning_probability(g, lifted) == pytest.approx(1.0, abs=1e-8)


def test_criterion_6_lemma1_fuzz():
    with criterion("6", "support-projector monotonicity: 1000 random PSD "
                        "pairs, zero failures"):
        rng = np.random.default_rng(777)
        failures = 0
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            rm, rn = int(rng.integers(0, n + 1)), int(rng.integers(0, n + 1))
            m = np.zeros((n, n))
            if rm:
                a = rng.normal(size=(rm, n))
                m = a.T @ a
            nn = np.zeros((n, n))
            if rn:
                a = rng.normal(size=(rn, n))
                nn = a.T @ a
            if not check_lemma1(m, nn, rng.normal(size=n), tol=1e-9):
                failures += 1
        assert failures == 0


def test_criterion_7_sandwich_battery(chsh2_results, magic_square_results):
    with criterion("7", "alpha <= theta + 10*tol on every graph in the battery"):
        pairs = []
        # catalog graphs, including the large ones already solved
        for graph in (cycle_graph(5), complete_graph(4), empty_graph(5),
                      to_plain_graph(build_game_graph(chsh())),
                      to_plain_graph(build_game_graph(
                          independent_set_game(cycle_graph(5), 2)))):
            pairs.append((independence_number(graph).value,
                          lovasz_theta(graph, TOL).dual_bound))
        for _, value, bound in (chsh2_results, magic_square_results):
            pairs.append((len(value.alpha.witness), bound.theta.dual_bound
                          * bound.graph.objective()[1]))
        # random graphs
        rng = np.random.default_rng(4096)
        for _ in range(20):
            n = int(rng.integers(2, 15))
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < rng.uniform(0.2, 0.8)]
            graph = Graph.from_edges(n, edges)
            pairs.append((independence_number(graph).value,
                          lovasz_theta(graph, TOL).dual_bound))
        # random uniform games' graphs
        for _ in range(10):
            g = random_boolean_game(rng, max_size=3, uniform=True)
            graph = to_plain_graph(build_game_graph(g))
            if graph.n == 0:
                continue
            pairs.append((independence_number(graph).value,
                          lovasz_theta(graph, TOL).dual_bound))
        for alpha, theta_upper in pairs:
            assert alpha <= theta_upper + 10.0 * TOL


def test_criterion_8_solver_calibration():
    with criterion("8", "theta calibration: K_n -> 1, edgeless_n -> n, "
                        "C5 -> sqrt(5), all within 1e-5, dual gap < 1e-5"):
        cases = [(complete_graph(3), 1.0), (complete_graph(4), 1.0),
                 (complete_graph(6), 1.0),
                 (empty_graph(5), 5.0), (empty_graph(7), 7.0),
                 (cycle_graph(5), float(np.sqrt(5.0)))]
        for graph, expected in cases:
            res = lovasz_theta(graph, TOL)
            assert res.converged
            assert abs(res.value - expected) <= 1e-5
            assert res.gap < 1e-5


def test_criterion_9_tsirelson_consistency():
    with criterion("9", "CHSH entangled value by the correlation program: "
                        "0.8535534 within 1e-6, below theta/k"):
        value = xor_tsirelson_value(chsh())
        assert abs(value - CHSH_STAR) <= 1e-6
        bound = quantum_upper_bound(chsh(), TOL)
        assert value <= bound.bound + 1e-4


def _graphs_up_to_iso(n: int) -> list[Graph]:
    """All non-isomorphic simple graphs on n vertices."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {p: k for k, p in enumerate(pairs)}
    seen = set()
    reps = []
    for mask in range(1 << len(pairs)):
        canon = mask
        for perm in itertools.permutations(range(n)):
            relabeled = 0
            for k, (i, j) in enumerate(pairs):
                if mask >> k & 1:
                    relabeled |= 1 << index[tuple(sorted((perm[i], perm[j])))]
            canon = min(canon, relabeled)
        if canon not in seen:
            seen.add(canon)
            reps.append(Graph.from_edges(
                n, [p for k, p in enumerate(pairs) if mask >> k & 1]))
    return reps


def test_criterion_10_independent_set_game_semantics():
    with criterion("10", "independent-set games on all graphs with <= 5 "
                         "vertices: perfectly winnable iff t <= alpha"):
        total = 0
        for n in range(1, 6):
            for graph in _graphs_up_to_iso(n):
                alpha = len(independence_number(graph).witness)
                for t in range(1, min(n, alpha + 1) + 1):
                    game = independent_set_game(graph, t)
                    brute = classical_value_brute(game)
                    perfectly_winnable = brute.exact == 1
                    assert perfectly_winnable == (t <= alpha), (
                        f"n={n}, edges={graph.edges()}, t={t}, "
                        f"alpha={alpha}, value={brute.value}")
                    total += 1
        print(f"  [criterion 10] checked {total} (graph, t) pairs")
