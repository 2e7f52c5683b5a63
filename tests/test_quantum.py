import json
import time

import numpy as np
import pytest

from gamebounds import quantum
from gamebounds.games import (Game, all_ones, chsh, magic_square,
                             uniform_distribution)
from gamebounds.gamegraph import build_game_graph, cycle_graph
from gamebounds.independence import classical_value
from gamebounds.quantum import (InvalidQuantumIndependentSet,
                                NonCommutingStrategy, NotPseudoTelepathy,
                                QuantumIndependentSet, QuantumStrategy,
                                lift_qis_to_strategy, qis_from_dict,
                                qis_from_vertex_set, qis_to_dict,
                                strategy_to_dict, strategy_to_qis, supp,
                                verify_quantum_independent_set,
                                winning_probability)

import quantum_oracle
from conftest import random_graph
from quantum_fixtures import (check_lemma1, chsh_optimal_strategy,
                              magic_square_observables, magic_square_strategy,
                              strategy_from_classical, strategy_from_dict)

CHSH_OPT = 0.5 + 0.5 / np.sqrt(2.0)


# --- strategy evaluation ----------------------------------------------------

def test_chsh_classical_embedding_value():
    g = chsh()
    s = strategy_from_classical(g, (0, 0), (0, 0))
    assert winning_probability(g, s) == pytest.approx(0.75, abs=1e-12)


def test_chsh_optimal_strategy_value():
    value = winning_probability(chsh(), chsh_optimal_strategy())
    assert value == pytest.approx(CHSH_OPT, abs=1e-9)


def test_all_ones_any_strategy_wins():
    g = all_ones(2, 2, 2, 2)
    assert winning_probability(g, chsh_optimal_strategy()) == pytest.approx(
        1.0, abs=1e-12)


def test_magic_square_strategy_is_perfect():
    value = winning_probability(magic_square(), magic_square_strategy())
    assert value == pytest.approx(1.0, abs=1e-12)


def _kron_reference_value(g, s):
    """Independent oracle: build the full tensor-product operators."""
    psi = np.asarray(s.state, dtype=complex)
    total = 0.0
    for x in range(g.nx):
        for y in range(g.ny):
            for a in range(g.na):
                for b in range(g.nb):
                    lam = g.predicate[x, y, a, b]
                    if lam == 0.0:
                        continue
                    op = np.kron(np.asarray(s.alice[x][a], dtype=complex),
                                 np.asarray(s.bob[y][b], dtype=complex))
                    total += (g.distribution[x, y] * lam
                              * float(np.real(np.vdot(psi, op @ psi))))
    return total


def _random_projective_family(rng, dim, outcomes):
    """Random orthonormal basis grouped into `outcomes` projectors."""
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(mat)
    split = sorted(rng.choice(range(1, dim), size=outcomes - 1, replace=False)) \
        if outcomes > 1 else []
    groups = np.split(np.arange(dim), split)
    return tuple(q[:, idx] @ q[:, idx].conj().T for idx in groups)


def test_winning_probability_matches_kron_reference():
    rng = np.random.default_rng(41)
    g = chsh()
    for _ in range(8):
        dA, dB = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        state = rng.normal(size=dA * dB) + 1j * rng.normal(size=dA * dB)
        state /= np.linalg.norm(state)
        s = QuantumStrategy(
            dA, dB, state,
            alice=tuple(_random_projective_family(rng, dA, 2) for _ in range(2)),
            bob=tuple(_random_projective_family(rng, dB, 2) for _ in range(2)))
        value = winning_probability(g, s)
        assert 0.0 <= value <= 1.0 + 1e-12
        assert value == pytest.approx(_kron_reference_value(g, s), abs=1e-10)


def test_fast_path_matches_dense_path():
    # maximally entangled states against the Kronecker-product reference
    cases = [(magic_square(), magic_square_strategy()),
             (chsh(), chsh_optimal_strategy())]
    for g, s in cases:
        assert winning_probability(g, s) == pytest.approx(
            _kron_reference_value(g, s), abs=1e-12)


def test_invalid_measurement_rejected():
    g = chsh()
    bad = QuantumStrategy(
        2, 2, np.array([1.0, 0, 0, 0], dtype=complex),
        alice=((np.eye(2) * 0.5, np.eye(2) * 0.5),) * 2,
        bob=((np.eye(2), np.zeros((2, 2))),) * 2)
    with pytest.raises(ValueError, match="not a projector"):
        winning_probability(g, bad)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="does not match"):
        winning_probability(magic_square(), chsh_optimal_strategy())
    # right number of inputs, too few outcomes per measurement
    from gamebounds.games import Game
    lam = np.ones((2, 2, 3, 2))
    wide = Game("wide", 2, 2, 3, 2, lam / 1.0, np.full((2, 2), 0.25))
    with pytest.raises(ValueError, match="fewer outcomes"):
        winning_probability(wide, chsh_optimal_strategy())


def test_magic_square_observables_structure():
    obs = magic_square_observables()
    eye = np.eye(4)
    for r in range(3):
        assert np.allclose(obs[r][0] @ obs[r][1] @ obs[r][2], eye)
    for c in range(3):
        assert np.allclose(obs[0][c] @ obs[1][c] @ obs[2][c], -eye)
    for r in range(3):
        for c in range(3):
            assert np.allclose(obs[r][c], obs[r][c].T)


# --- support projector ------------------------------------------------------

def test_supp_identity_and_zero():
    assert np.allclose(supp(np.eye(4)), np.eye(4))
    assert np.allclose(supp(np.zeros((3, 3))), 0.0)


def test_supp_rank_one_normalization():
    v = np.array([3.0, 4.0]) / 5.0
    assert np.allclose(supp(2.5 * np.outer(v, v)), np.outer(v, v))


def test_supp_is_projector():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        r = int(rng.integers(0, n + 1))
        m = np.zeros((n, n))
        if r:
            a = rng.normal(size=(r, n))
            m = a.T @ a
        p = supp(m)
        assert np.linalg.norm(p @ p - p) <= 1e-10
        assert np.linalg.norm(p - p.T) <= 1e-10
        assert int(round(np.trace(p))) == np.linalg.matrix_rank(m, tol=1e-8)


def test_supp_complex_hermitian():
    v = np.array([1.0, 1j]) / np.sqrt(2.0)
    m = np.outer(v, v.conj())
    p = supp(3.0 * m)
    assert np.allclose(p, m)
    assert np.linalg.norm(p @ p - p) <= 1e-10


def test_supp_rejects_indefinite():
    with pytest.raises(ValueError, match="not positive semidefinite"):
        supp(np.diag([1.0, -1.0]))


def test_lemma1_trivial_cases():
    v = np.array([1.0, 0.0, 0.0])
    assert check_lemma1(np.eye(3), np.zeros((3, 3)), v)
    assert check_lemma1(np.zeros((3, 3)), np.diag([1.0, 2.0, 0.0]), v)


def test_lemma1_fuzz():
    rng = np.random.default_rng(32)
    for _ in range(300):
        n = int(rng.integers(2, 8))
        rm, rn = int(rng.integers(0, n + 1)), int(rng.integers(0, n + 1))
        m = np.zeros((n, n))
        if rm:
            a = rng.normal(size=(rm, n))
            m = a.T @ a
        nn = np.zeros((n, n))
        if rn:
            a = rng.normal(size=(rn, n))
            nn = a.T @ a
        assert check_lemma1(m, nn, rng.normal(size=n))


def test_lemma1_rejects_non_psd():
    with pytest.raises(ValueError, match="not positive semidefinite"):
        check_lemma1(np.diag([-1.0, 0.0]), np.eye(2), np.ones(2))


# --- certificates: verification ---------------------------------------------

def test_classical_embedding_on_isg_graph_is_valid():
    g5 = cycle_graph(5)
    from gamebounds.games import independent_set_game
    game = independent_set_game(g5, 2)
    gg = build_game_graph(game)
    # perfect classical strategy from the independent set {0, 2} of C5
    witness_quads = [(x, y, (0, 2)[x], (0, 2)[y]) for x in range(2)
                     for y in range(2)]
    index = {q: i for i, q in enumerate(gg.vertices)}
    qis = qis_from_vertex_set(gg, [index[q] for q in witness_quads])
    report = verify_quantum_independent_set(gg, qis)
    assert report.valid


def test_nan_certificate_is_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        QuantumIndependentSet(1, 1, 3, {(0, 0): np.array([[np.nan]])})
    # a NaN that slips past construction still fails every defect check
    qis = QuantumIndependentSet(1, 1, 3, {(0, 0): np.ones((1, 1))})
    qis.projectors[(0, 0)] = np.array([[np.nan]])
    report = verify_quantum_independent_set(cycle_graph(3), qis)
    assert not report.valid
    assert {v.kind for v in report.violations} == {"projector", "completeness"}
    # among many entries only the NaN one fails: on C6, each measurement
    # puts 1 on one vertex and 0 on the next, so every candidate pair is
    # orthogonal until entry (1, 2) becomes NaN
    one, zero = np.ones((1, 1)), np.zeros((1, 1))
    qis = QuantumIndependentSet(3, 1, 6, {(0, 0): one, (0, 1): zero,
                                          (1, 2): one, (1, 3): zero,
                                          (2, 4): one, (2, 5): zero})
    assert verify_quantum_independent_set(cycle_graph(6), qis).valid
    qis.projectors[(1, 2)] = np.array([[np.nan]])
    report = verify_quantum_independent_set(cycle_graph(6), qis)
    assert [(v.kind, v.measurement, v.other_measurement, v.vertex,
             v.other_vertex) for v in report.violations] == [
        ("projector", 1, None, 2, None), ("completeness", 1, None, None, None),
        ("orthogonality", 0, 1, 1, 2)]
    assert all(np.isnan(v.magnitude) for v in report.violations)
    # a NaN outcome inside a strategy's family still fails validation
    s = chsh_optimal_strategy()
    outcome = s.bob[1][0].copy()
    outcome[0, 1] = np.nan
    bad = QuantumStrategy(2, 2, s.state, s.alice,
                          (s.bob[0], (outcome, s.bob[1][1])))
    with pytest.raises(ValueError, match="non-finite"):
        bad.validate()
    with pytest.raises(ValueError, match="non-finite"):
        winning_probability(chsh(), bad)


def test_first_bad_entry_is_named_in_dict_order():
    one, nan = np.ones((1, 1)), np.array([[np.nan]])
    with pytest.raises(ValueError, match=r"entry \(0,1\) has non-finite"):
        QuantumIndependentSet(1, 1, 3, {(0, 0): one, (0, 1): nan, (0, 2): nan})
    # a non-finite entry listed before a misfit is named, and after it not
    with pytest.raises(ValueError, match=r"entry \(0,2\) has non-finite"):
        QuantumIndependentSet(1, 1, 3, {(0, 2): nan, (5, 0): one})
    with pytest.raises(ValueError, match=r"entry \(5,0\) out of range"):
        QuantumIndependentSet(1, 1, 3, {(5, 0): one, (0, 2): nan})
    with pytest.raises(ValueError, match=r"entry \(0,1\) has the wrong shape"):
        QuantumIndependentSet(1, 1, 3, {(0, 0): one, (0, 1): np.ones((2, 2)),
                                        (0, 2): nan})


def test_nan_state_is_rejected():
    s = chsh_optimal_strategy()
    nan_state = QuantumStrategy(2, 2, np.full(4, np.nan, dtype=complex),
                                s.alice, s.bob)
    with pytest.raises(ValueError, match="not normalized"):
        nan_state.validate()


def test_classical_embedding_on_plain_graph():
    c5 = cycle_graph(5)
    qis = qis_from_vertex_set(c5, [0, 2])
    assert verify_quantum_independent_set(c5, qis).valid
    bad = qis_from_vertex_set(c5, [0, 1])  # adjacent pair
    report = verify_quantum_independent_set(c5, bad)
    assert not report.valid
    assert report.violations[0].kind == "orthogonality"
    assert report.violations[0].magnitude == pytest.approx(1.0)


def test_certificate_checks_refuse_a_non_graph():
    qis = qis_from_vertex_set(cycle_graph(5), [0, 2])
    with pytest.raises(TypeError, match="expected GameGraph or Graph, got"):
        verify_quantum_independent_set(cycle_graph(5).rows, qis)
    with pytest.raises(TypeError, match="got dict"):
        qis_from_vertex_set({}, [0])


def test_constructed_violation_reported():
    c5 = cycle_graph(5)
    p = np.ones((1, 1))
    qis = QuantumIndependentSet(2, 1, 5, {(0, 0): p, (1, 1): p})
    report = verify_quantum_independent_set(c5, qis)
    kinds = {v.kind for v in report.violations}
    assert "orthogonality" in kinds
    norms = [v.magnitude for v in report.violations
             if v.kind == "orthogonality"]
    assert norms[0] == pytest.approx(1.0)


def test_incomplete_measurement_reported():
    c5 = cycle_graph(5)
    qis = QuantumIndependentSet(1, 2, 5, {(0, 0): np.diag([1.0, 0.0])})
    report = verify_quantum_independent_set(c5, qis)
    assert any(v.kind == "completeness" for v in report.violations)


def test_non_projector_reported():
    c5 = cycle_graph(5)
    qis = QuantumIndependentSet(1, 1, 5, {(0, 0): np.array([[0.5]]),
                                          (0, 2): np.array([[0.5]])})
    report = verify_quantum_independent_set(c5, qis)
    assert any(v.kind == "projector" for v in report.violations)


# --- certificates: lifting --------------------------------------------------

def test_lift_chsh_classical_witness():
    g = chsh()
    gg = build_game_graph(g)
    witness = classical_value(g).alpha.witness
    qis = qis_from_vertex_set(gg, witness)
    strategy = lift_qis_to_strategy(g, gg, qis)
    strategy.validate()
    value = winning_probability(g, strategy)
    assert value >= 3.0 / 4.0 - 1e-9
    assert value >= qis.t / g.k - 1e-6


def test_lift_single_measurement():
    g = chsh()
    gg = build_game_graph(g)
    qis = qis_from_vertex_set(gg, [0])  # lone winning quadruple of (0, 0)
    value = winning_probability(g, lift_qis_to_strategy(g, gg, qis))
    assert value >= 1.0 / g.k - 1e-9


def test_lift_rejects_invalid():
    g = chsh()
    gg = build_game_graph(g)
    qis = qis_from_vertex_set(gg, [0, 1])  # adjacent vertices
    with pytest.raises(InvalidQuantumIndependentSet):
        lift_qis_to_strategy(g, gg, qis)


def test_lift_measurement_invariants():
    g = chsh()
    gg = build_game_graph(g)
    qis = qis_from_vertex_set(gg, classical_value(g).alpha.witness)
    strategy = lift_qis_to_strategy(g, gg, qis)
    # completion outcome appended: na + 1 elements per family
    assert all(len(fam) == g.na + 1 for fam in strategy.alice)
    assert all(len(fam) == g.nb + 1 for fam in strategy.bob)
    strategy.validate()


# --- certificates: conversion from perfect strategies -----------------------

def test_trivial_game_conversion_round_trip():
    g = all_ones(2, 2, 2, 2)
    s = strategy_from_classical(g, (0, 0), (0, 0))
    qis = strategy_to_qis(g, s)
    assert qis.t == g.k and qis.d == 1
    gg = build_game_graph(g)
    assert verify_quantum_independent_set(gg, qis).valid
    lifted = lift_qis_to_strategy(g, gg, qis)
    assert winning_probability(g, lifted) == pytest.approx(1.0, abs=1e-8)


def test_perfect_classical_strategy_conversion():
    from gamebounds.games import independent_set_game
    game = independent_set_game(cycle_graph(5), 2)
    s = strategy_from_classical(game, (0, 2), (0, 2))
    assert winning_probability(game, s) == 1.0
    qis = strategy_to_qis(game, s)
    gg = build_game_graph(game)
    assert verify_quantum_independent_set(gg, qis).valid
    lifted = lift_qis_to_strategy(game, gg, qis)
    assert winning_probability(game, lifted) == pytest.approx(1.0, abs=1e-8)


def test_conversion_rejects_imperfect_strategy():
    with pytest.raises(NotPseudoTelepathy, match="0.8535"):
        strategy_to_qis(chsh(), chsh_optimal_strategy())


def test_conversion_rejects_magic_square_noncommuting():
    # The standard perfect strategy wins with probability 1 but its projector
    # families do not commute as 4x4 matrices, so the product construction
    # is unavailable; see the acceptance suite for the full story.
    with pytest.raises(NonCommutingStrategy):
        strategy_to_qis(magic_square(), magic_square_strategy())


def _agree_game():
    """One question each, win iff a == b."""
    from gamebounds.games import Game
    lam = np.zeros((1, 1, 2, 2))
    lam[0, 0, 0, 0] = lam[0, 0, 1, 1] = 1.0
    return Game("agree", 1, 1, 2, 2, lam, np.ones((1, 1)))


def test_conversion_rejects_unannihilated_losing_pair():
    # wins on |00>, but P_1 Q_0 = diag(0, 1) is not zero as an operator
    s = QuantumStrategy(2, 2, np.array([1.0, 0.0, 0.0, 0.0]),
                        alice=((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),),
                        bob=((np.eye(2), np.zeros((2, 2))),))
    with pytest.raises(NotPseudoTelepathy, match=r"\(x=0,y=0,a=1,b=0\)"):
        strategy_to_qis(_agree_game(), s)


def test_conversion_rejects_weight_on_an_extra_outcome():
    # wins on |00>, but Alice's third outcome, beyond the two answers, is
    # diag(0, 1)
    s = QuantumStrategy(2, 2, np.array([1.0, 0.0, 0.0, 0.0]),
                        alice=((np.diag([1.0, 0.0]), np.zeros((2, 2)),
                                np.diag([0.0, 1.0])),),
                        bob=((np.eye(2), np.zeros((2, 2))),))
    assert winning_probability(_agree_game(), s) == 1.0
    with pytest.raises(ValueError, match="alice: extra measurement outcome"):
        strategy_to_qis(_agree_game(), s)


def test_conversion_rejects_complex_products():
    v = np.array([1.0, 1j]) / np.sqrt(2.0)
    p = np.outer(v, v.conj())
    family = ((p, np.eye(2) - p),)
    s = QuantumStrategy(2, 2, np.kron(v, v), alice=family, bob=family)
    with pytest.raises(ValueError, match="not real-valued"):
        strategy_to_qis(_agree_game(), s)


def test_conversion_reports_non_commutation_first():
    # wins on |00>, but diag(1, 1, 0) does not commute with Bob's projectors
    # and P_0 Q_1, P_1 Q_0 are not zero
    w = np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0)
    w_perp = np.array([0.0, 1.0, -1.0]) / np.sqrt(2.0)
    q0 = np.diag([1.0, 0.0, 0.0]) + np.outer(w, w)
    state = np.zeros(9)
    state[0] = 1.0
    s = QuantumStrategy(3, 3, state,
                        alice=((np.diag([1.0, 1.0, 0.0]),
                                np.diag([0.0, 0.0, 1.0])),),
                        bob=((q0, np.outer(w_perp, w_perp)),))
    assert winning_probability(_agree_game(), s) == pytest.approx(1.0)
    with pytest.raises(NonCommutingStrategy):
        strategy_to_qis(_agree_game(), s)


def test_lift_two_dimensional_certificate():
    # two independent sets stacked block-diagonally give a d=2 certificate;
    # the lift must still clear t/k
    g = chsh()
    gg = build_game_graph(g)

    def independent(vs):
        return all(not gg.has_edge(u, v)
                   for u in vs for v in vs if u != v)

    first = classical_value(g).alpha.witness  # size 3
    # find a second, different independent set of size 3
    import itertools
    second = next(c for c in itertools.combinations(range(gg.n), 3)
                  if independent(c) and set(c) != set(first))
    # P^i_v = diag(v == first[i], v == second[i])
    projectors = {}
    for i in range(3):
        for v in {first[i], second[i]}:
            projectors[(i, v)] = np.diag([float(v == first[i]),
                                          float(v == second[i])])
    qis = QuantumIndependentSet(3, 2, gg.n, projectors)
    assert verify_quantum_independent_set(gg, qis).valid
    strategy = lift_qis_to_strategy(g, gg, qis)
    strategy.validate()
    assert strategy.dA == 2
    value = winning_probability(g, strategy)
    assert value >= 3.0 / 4.0 - 1e-6


def test_theorem_round_trip_general_inequality():
    # lifted value never falls below t/k for valid certificates
    rng = np.random.default_rng(33)
    g = chsh()
    gg = build_game_graph(g)
    res = classical_value(g)
    for size in (1, 2, 3):
        subset = res.alpha.witness[:size]
        qis = qis_from_vertex_set(gg, subset)
        value = winning_probability(g, lift_qis_to_strategy(g, gg, qis))
        assert value >= size / g.k - 1e-6


# --- wire formats -----------------------------------------------------------

def test_strategy_json_round_trip():
    s = chsh_optimal_strategy()
    doc = strategy_to_dict(s)
    s2 = strategy_from_dict(doc)
    assert s2.dA == s.dA and s2.dB == s.dB
    assert np.allclose(s2.state, s.state)
    for fam, fam2 in zip(s.alice, s2.alice):
        for p, p2 in zip(fam, fam2):
            assert np.allclose(p, p2)
    assert winning_probability(chsh(), s2) == pytest.approx(CHSH_OPT, abs=1e-9)


def test_qis_json_round_trip():
    gg = build_game_graph(chsh())
    qis = qis_from_vertex_set(gg, classical_value(chsh()).alpha.witness)
    doc = qis_to_dict(qis)
    qis2 = qis_from_dict(doc)
    assert qis2.t == qis.t and qis2.d == qis.d
    assert set(qis2.projectors) == set(qis.projectors)
    assert verify_quantum_independent_set(gg, qis2).valid


def test_verify_pairs_only_measurements_with_entries():
    # pairing every two of 20,000 claimed measurements is 2e8 loop steps
    t = 20_000
    one = np.ones((1, 1))
    qis = QuantumIndependentSet(t, 1, 8, {(0, 0): one, (t - 1, 0): one})
    start = time.perf_counter()
    report = verify_quantum_independent_set(build_game_graph(chsh()), qis)
    assert time.perf_counter() - start < 5.0
    kinds = [v.kind for v in report.violations]
    assert kinds == ["completeness", "orthogonality"]
    empty, last = report.violations
    # measurements 1 to t - 2 have no entries and are reported together
    assert (empty.measurement, empty.other_measurement) == (1, t - 2)
    assert empty.magnitude == 1.0
    assert (last.measurement, last.other_measurement) == (0, t - 1)


def test_verify_reports_measurements_without_entries_together():
    one = np.ones((1, 1))
    graph = build_game_graph(chsh())
    # a billion claimed measurements cost what their two entries cost;
    # vertices 0 and 2 of the CHSH graph are not adjacent
    t = 10 ** 9
    start = time.perf_counter()
    report = verify_quantum_independent_set(
        graph, QuantumIndependentSet(t, 1, 8, {(0, 0): one, (2, 2): one}))
    assert time.perf_counter() - start < 1.0
    assert [(v.kind, v.measurement, v.other_measurement)
            for v in report.violations] == [("completeness", 1, t - 1)]
    # one measurement without entries keeps the one-measurement form
    report = verify_quantum_independent_set(
        graph, QuantumIndependentSet(3, 1, 8, {(0, 0): one, (2, 2): one}))
    (empty,) = report.violations
    assert (empty.measurement, empty.other_measurement) == (1, None)
    assert empty.describe() == (
        "measurement 1: does not sum to identity (defect 1.000e+00)")
    # only the empty measurements are grouped; at d = 2 each defect is
    # sqrt(2), and the measurement with an entry is reported on its own
    half = np.diag([1.0, 0.0])
    report = verify_quantum_independent_set(
        graph, QuantumIndependentSet(4, 2, 8, {(1, 0): half}))
    assert [(v.kind, v.measurement, v.other_measurement)
            for v in report.violations] == [("completeness", 1, None),
                                            ("completeness", 0, 3)]
    assert report.violations[1].magnitude == pytest.approx(np.sqrt(2.0))
    # measurement 1, between them, has an entry: no range is claimed
    assert report.violations[1].describe() == (
        "measurements without entries (first 0, last 3): none sums to "
        "identity (defect 1.414e+00)")
    # a tolerance above the defect of an empty measurement accepts them
    assert verify_quantum_independent_set(
        graph, QuantumIndependentSet(5, 1, 8, {}), tol=1.5).valid


def test_qis_from_dict_validation():
    with pytest.raises(ValueError, match="missing field"):
        qis_from_dict({"t": 1})
    for t in (True, 1.0, "1"):
        with pytest.raises(ValueError, match="t must be an integer"):
            qis_from_dict({"t": t, "d": 1, "n_vertices": 2, "projectors": []})
    for sizes in ((-1, 1, 2), (1, 0, 2), (1, 1, -2)):
        with pytest.raises(ValueError, match="must be an integer >="):
            QuantumIndependentSet(*sizes, {})
    with pytest.raises(ValueError, match="out of range"):
        qis_from_dict({"t": 1, "d": 1, "n_vertices": 2,
                       "projectors": [{"measurement": 3, "vertex": 0,
                                       "matrix": [[1.0]]}]})


# --- stacked checks against the matrix-at-a-time oracle ---------------------

def _violations(report):
    return [(v.kind, v.measurement, v.other_measurement, v.vertex,
             v.other_vertex) for v in report.violations]


def _random_certificate(rng):
    """Measurements split a real basis, drawn from a pool of two, among
    random vertices; some lose an entry or carry scaled ones, some list
    nothing, and one entry may turn NaN after construction."""
    n, d, t = (int(rng.integers(1, 10)), int(rng.integers(1, 4)),
               int(rng.integers(0, 6)))
    graph = random_graph(rng, n, float(rng.random()))
    bases = [np.eye(d), np.linalg.qr(rng.normal(size=(d, d)))[0]]
    projectors = {}
    for i in range(t):
        style = int(rng.integers(4))  # 0 empty, 1 complete, 2 scaled, 3 holes
        if style == 0:
            continue
        vertices = rng.choice(n, size=int(rng.integers(1, n + 1)),
                              replace=False)
        basis = bases[int(rng.integers(2))]
        for v, idx in zip(vertices,
                          np.array_split(rng.permutation(d), len(vertices))):
            p = basis[:, idx] @ basis[:, idx].T
            if style == 2:
                p = p * rng.uniform(0.5, 1.5)
            if style != 3 or rng.random() < 0.5:
                projectors[(i, int(v))] = p
    if d > 1 and not projectors:
        t = max(t, 1)
        projectors[(0, 0)] = np.eye(d)
    qis = QuantumIndependentSet(t, d, n, projectors)
    if projectors and rng.random() < 0.2:
        keys = sorted(projectors)
        key = keys[int(rng.integers(len(keys)))]
        qis.projectors[key] = qis.projectors[key].copy()
        qis.projectors[key][int(rng.integers(d)), int(rng.integers(d))] = np.nan
    return graph, qis


def test_verify_matches_the_loop_oracle():
    rng = np.random.default_rng(61)
    kinds = set()
    for _ in range(400):
        graph, qis = _random_certificate(rng)
        got = verify_quantum_independent_set(graph, qis)
        want = quantum_oracle.verify_quantum_independent_set(graph, qis)
        assert got.valid == want.valid
        assert _violations(got) == _violations(want)
        for g, w in zip(got.violations, want.violations):
            assert (np.isnan(g.magnitude) and np.isnan(w.magnitude)
                    or abs(g.magnitude - w.magnitude) <= 1e-12)
        kinds |= {v.kind for v in want.violations} | {want.valid}
    # the cases reach every verdict
    assert kinds == {"projector", "completeness", "orthogonality", True, False}


def _random_strategy(rng):
    """Random projective measurements, some with one fault: a scaled or
    NaN outcome, a missing or extra outcome, the wrong dimension, a
    non-square outcome or an unreadable one."""
    dims = [int(rng.integers(1, 4)) for _ in range(2)]
    state = rng.normal(size=dims[0] * dims[1])
    state /= np.linalg.norm(state)

    def family(dim):
        fam = list(_random_projective_family(rng, dim,
                                             int(rng.integers(1, dim + 1))))
        a = int(rng.integers(len(fam)))
        fault = int(rng.integers(16))
        if fault == 0:
            fam[a] = 0.5 * fam[a]
        elif fault == 1:
            fam.pop(a)
        elif fault == 2:
            fam[a] = fam[a].copy()
            fam[a][0, 0] = np.nan
        elif fault == 3:
            fam[a] = np.eye(dim + 1)
        elif fault == 4:
            fam[a] = np.ones((dim, dim + 1))
        elif fault == 5:
            fam[a] = [[1.0], [1.0, 2.0]]
        elif fault == 6:
            fam.append(np.zeros((dim, dim)))
        return tuple(fam)

    return QuantumStrategy(
        dims[0], dims[1], state,
        tuple(family(dims[0]) for _ in range(int(rng.integers(1, 4)))),
        tuple(family(dims[1]) for _ in range(int(rng.integers(1, 4)))))


def _outcome(check, s):
    try:
        check(s)
    except ValueError as exc:
        return str(exc)
    return None


def test_validate_matches_the_loop_oracle():
    rng = np.random.default_rng(62)
    messages = set()
    for _ in range(400):
        s = _random_strategy(rng)
        want = _outcome(quantum_oracle.validate, s)
        assert _outcome(QuantumStrategy.validate, s) == want
        messages.add(want if want is None else want.split(": ")[-1][:20])
    assert len(messages) >= 7  # passes, and each kind of failure


def test_winning_probability_matches_the_loop_oracle():
    # the batched products over validate's stacks give the per-outcome
    # products bit for bit, on games with fewer answers than outcomes too
    rng = np.random.default_rng(64)
    compared = 0
    for _ in range(400):
        s = _random_strategy(rng)
        if _outcome(QuantumStrategy.validate, s) is not None:
            continue
        na, nb = (int(rng.integers(1, min(map(len, fams)) + 1))
                  for fams in (s.alice, s.bob))
        nx, ny = len(s.alice), len(s.bob)
        g = Game("random", nx, ny, na, nb, rng.random((nx, ny, na, nb)),
                 uniform_distribution(nx, ny))
        assert (winning_probability(g, s)
                == quantum_oracle.winning_probability(g, s))
        compared += 1
    assert compared >= 50


def _random_conversion_case(rng):
    """A 0/1 game and a strategy for strategy_to_qis.  The strategy's
    projectors are diagonal in one random real basis, each basis vector
    given an answer per question, on the maximally entangled state, or in
    the standard basis on |00>, where only the first basis vector plays; the
    game wins exactly the answer pairs the strategy gives, or more.  Most
    cases then get one fault: a rotated or complex basis for Bob, an extra
    outcome with or without weight, a lost winning entry, a small
    perturbation of one projector or a non-0/1 entry."""
    nx, ny, na, nb = (int(v) for v in rng.integers(1, 4, size=4))
    d = int(rng.integers(1, 5))
    product = rng.random() < 0.3
    basis = np.eye(d) if product else np.linalg.qr(rng.normal(size=(d, d)))[0]
    fa, fb = rng.integers(na, size=(nx, d)), rng.integers(nb, size=(ny, d))
    lam = np.zeros((nx, ny, na, nb))
    lam[np.arange(nx)[:, None, None], np.arange(ny)[None, :, None],
        fa[:, None], fb[None]] = 1.0
    if rng.random() < 0.3:
        lam[rng.random(lam.shape) < 0.3] = 1.0
    state = np.eye(d).ravel() / np.sqrt(d)
    if product:
        state = np.zeros(d * d)
        state[0] = 1.0
    fault = int(rng.integers(9))
    bob_basis = basis
    if fault == 1:
        angle = 10.0 ** rng.uniform(-12, -3)
        turn = np.eye(d)
        if d > 1:
            turn[:2, :2] = [[np.cos(angle), -np.sin(angle)],
                            [np.sin(angle), np.cos(angle)]]
        bob_basis = basis @ turn
    elif fault == 2:
        bob_basis = np.exp(1j * rng.uniform(0, 0.1, size=(d, 1))) * basis

    def side(f, answers, u):
        return [[u[:, f[x] == a] @ u[:, f[x] == a].conj().T
                 for a in range(answers)] for x in range(len(f))]

    alice, bob = side(fa, na, basis), side(fb, nb, bob_basis)
    if fault == 3:
        x, a = int(rng.integers(nx)), int(rng.integers(na))
        alice[x].append(np.zeros((d, d)))
        if rng.random() < 0.5 and alice[x][a].any():
            i = int(np.flatnonzero(fa[x] == a)[-1])
            moved = np.outer(basis[:, i], basis[:, i])
            alice[x][a] = alice[x][a] - moved
            alice[x][-1] = moved
    elif fault == 4:
        x, y, i = (int(rng.integers(k)) for k in (nx, ny, d))
        lam[x, y, fa[x, i], fb[y, i]] = 0.0
    elif fault == 5:
        x, b = int(rng.integers(ny)), int(rng.integers(nb))
        noise = rng.normal(size=(d, d)) * 10.0 ** rng.uniform(-13, -8)
        bob[x][b] = bob[x][b] + noise + noise.T
    elif fault == 6:
        lam[tuple(int(rng.integers(k)) for k in lam.shape)] = 0.5
    g = Game("random", nx, ny, na, nb, lam, uniform_distribution(nx, ny))
    return g, QuantumStrategy(d, d, state, tuple(map(tuple, alice)),
                              tuple(map(tuple, bob)))


def _conversion(g, s, convert):
    try:
        qis = convert(g, s)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return list(qis.projectors), json.dumps(qis_to_dict(qis))


def test_strategy_to_qis_matches_the_loop_oracle(monkeypatch):
    # the blocks of batched products give the per-quadruple loop's
    # certificate, byte for byte and in the same entry order, or its error,
    # under the default block size and under one small enough to put block
    # boundaries inside every game
    rng = np.random.default_rng(65)
    # wins only (0, 0) on |00>, and answers (1, 1) and (2, 2), which lose,
    # have nonzero products in different blocks: the first is named
    lam = np.zeros((1, 1, 3, 3))
    lam[0, 0, 0, 0] = 1.0
    diagonal = (tuple(np.diag(row) for row in np.eye(3)),)
    fixed = [(chsh(), chsh_optimal_strategy()),
             (magic_square(), magic_square_strategy()),
             (all_ones(2, 2, 2, 2),
              strategy_from_classical(all_ones(2, 2, 2, 2), (0, 0), (0, 0))),
             (Game("first", 1, 1, 3, 3, lam, np.ones((1, 1))),
              QuantumStrategy(3, 3, np.eye(9)[0], diagonal, diagonal))]
    cases = fixed + [_random_conversion_case(rng) for _ in range(400)]
    outcomes = set()
    for g, s in cases:
        want = _conversion(g, s, quantum_oracle.strategy_to_qis)
        for entries in (int(rng.choice([1, 5, 17])), 1 << 20):
            monkeypatch.setattr(quantum, "_PAIR_BLOCK_ENTRIES", entries)
            assert _conversion(g, s, strategy_to_qis) == want
        outcomes.add(want[1][:24] if isinstance(want[0], str) else "valid")
    # every check is reached, and passed
    assert outcomes >= {"valid", "conversion requires a 0/",
                        "strategy wins with proba", "alice: extra measurement",
                        "projector families do no", "strategy does not annihi",
                        "product projectors are n"}


def test_strategy_to_qis_takes_a_large_answer_set_whole():
    # one winning quadruple among 1024 x 1024 answer pairs; the loop took
    # about 10 s
    n = 1024
    lam = np.zeros((1, 1, n, n))
    lam[0, 0, 0, 0] = 1.0
    g = Game("one", 1, 1, n, n, lam, uniform_distribution(1, 1))
    s = strategy_from_classical(g, (0,), (0,))
    start = time.perf_counter()
    qis = strategy_to_qis(g, s)
    assert time.perf_counter() - start < 1.0
    assert list(qis.projectors) == [(0, 0)]


def test_orthogonality_order_across_row_blocks():
    # measurement i on vertex i of C_K, with more entries than one row
    # block holds: exactly the K cycle edges fail, in (i, j) order
    k = int(np.sqrt(quantum._PAIR_BLOCK_ENTRIES)) + 100
    assert quantum._PAIR_BLOCK_ENTRIES // k < k
    one = np.ones((1, 1))
    qis = QuantumIndependentSet(k, 1, k, {(i, i): one for i in range(k)})
    report = verify_quantum_independent_set(cycle_graph(k), qis)
    assert [(v.kind, v.measurement, v.other_measurement, v.vertex,
             v.other_vertex, v.magnitude) for v in report.violations] == (
        [("orthogonality", 0, 1, 0, 1, 1.0),
         ("orthogonality", 0, k - 1, 0, k - 1, 1.0)]
        + [("orthogonality", i, i + 1, i, i + 1, 1.0) for i in range(1, k - 1)])


def test_supp_of_a_stack_is_supp_of_each_matrix():
    rng = np.random.default_rng(63)
    for d in (1, 2, 3, 5):
        mats = []
        for r in rng.integers(0, d + 1, size=12):
            a = rng.normal(size=(r, d))
            mats.append(a.T @ a * 10.0 ** rng.integers(-3, 3))
        stack = np.array(mats).reshape(3, 4, d, d)
        out = supp(stack)
        assert out.shape == stack.shape
        for idx in np.ndindex(3, 4):
            assert np.array_equal(out[idx], supp(stack[idx]))
    with pytest.raises(ValueError, match=r"lambda_min=-2\.000e\+00"):
        supp(np.array([np.eye(2), np.diag([1.0, -2.0]), -np.eye(2)]))


def test_malformed_strategies_and_vertex_sets_are_refused():
    s = chsh_optimal_strategy()
    with pytest.raises(ValueError, match=r"state length must be dA\*dB"):
        QuantumStrategy(2, 2, np.ones(3) / np.sqrt(3), s.alice,
                        s.bob).validate()
    # a 1 x 1 outcome in a d = 2 strategy, read before its dimension
    nan_outcome = ((np.full((1, 1), np.nan), np.eye(2)),) + s.alice[1:]
    with pytest.raises(ValueError, match="matrix has non-finite entries"):
        QuantumStrategy(2, 2, s.state, nan_outcome, s.bob).validate()
    graph = build_game_graph(chsh())
    with pytest.raises(ValueError, match="vertices must be distinct"):
        qis_from_vertex_set(graph, [0, 0])
    with pytest.raises(ValueError, match="vertex index out of range"):
        qis_from_vertex_set(graph, [graph.n])
    half = Game("half", 2, 2, 2, 2, np.full((2, 2, 2, 2), 0.5),
                uniform_distribution(2, 2))
    with pytest.raises(ValueError, match="requires a 0/1 predicate"):
        strategy_to_qis(half, s)
    unequal = QuantumStrategy(1, 2, np.ones(2) / np.sqrt(2),
                              ((np.ones((1, 1)), np.zeros((1, 1))),) * 2,
                              s.bob)
    with pytest.raises(ValueError, match="requires equal local dimensions"):
        strategy_to_qis(chsh(), unequal)
