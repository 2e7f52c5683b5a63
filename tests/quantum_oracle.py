"""Matrix-at-a-time versions of the certificate checks, kept as the oracle of
the stacked ones in `gamebounds.quantum`: one defect per projector, one
adjacency test per pair of entries, one strategy outcome at a time, and one
(x, y, a, b) product at a time when a strategy becomes a certificate."""

from __future__ import annotations

import itertools

import numpy as np

from gamebounds.gamegraph import build_game_graph
from gamebounds.quantum import (MEASUREMENT_TOL, InvalidQuantumIndependentSet,
                                NonCommutingStrategy, NotPseudoTelepathy,
                                QisReport, QisViolation, QuantumIndependentSet,
                                STATE_TOL, _adjacency)
from gamebounds import quantum


def _as_complex_matrix(m) -> np.ndarray:
    out = np.asarray(m, dtype=complex)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {out.shape}")
    if not np.all(np.isfinite(out.view(float))):
        raise ValueError("matrix has non-finite entries")
    return out


def _projector_defect(p: np.ndarray) -> float:
    return max(float(np.linalg.norm(p @ p - p)),
               float(np.linalg.norm(p - p.conj().T)))


def _measurement_defects(family, dim: int) -> tuple[list[float], float]:
    defects = [_projector_defect(np.asarray(p, dtype=complex)) for p in family]
    total = sum(family, np.zeros((dim, dim)))
    return defects, float(np.linalg.norm(total - np.eye(dim)))


def validate(s, tol: float = MEASUREMENT_TOL) -> None:
    """`QuantumStrategy.validate`, one outcome at a time."""
    state = np.asarray(s.state, dtype=complex).ravel()
    if state.shape[0] != s.dA * s.dB:
        raise ValueError("state length must be dA*dB")
    if not abs(np.linalg.norm(state) - 1.0) <= STATE_TOL:
        raise ValueError("state is not normalized")
    for side, dim, fams in (("alice", s.dA, s.alice), ("bob", s.dB, s.bob)):
        for x, family in enumerate(fams):
            family = [_as_complex_matrix(p) for p in family]
            for a, p in enumerate(family):
                if p.shape != (dim, dim):
                    raise ValueError(
                        f"{side} input {x} outcome {a}: wrong dimension")
            defects, completeness = _measurement_defects(family, dim)
            for a, defect in enumerate(defects):
                if not defect <= tol:
                    raise ValueError(
                        f"{side} input {x} outcome {a}: not a projector")
            if not completeness <= tol:
                raise ValueError(
                    f"{side} input {x}: measurement does not sum to identity")


def winning_probability(g, s) -> float:
    """`quantum.winning_probability`, one outcome at a time."""
    validate(s)
    m = np.asarray(s.state, dtype=complex).reshape(s.dA, s.dB)
    alice = np.array([[m.conj().T @ np.asarray(p, dtype=complex) @ m
                       for p in fam[:g.na]] for fam in s.alice])
    bob = np.array([[np.asarray(q, dtype=complex) for q in fam[:g.nb]]
                    for fam in s.bob])
    pairs = np.real(alice.reshape(g.nx * g.na, -1)
                    @ bob.reshape(g.ny * g.nb, -1).T)
    pairs = pairs.reshape(g.nx, g.na, g.ny, g.nb).transpose(0, 2, 1, 3)
    return float(np.sum(g.distribution[:, :, None, None] * g.predicate * pairs))


def verify_quantum_independent_set(graph, qis,
                                   tol: float = MEASUREMENT_TOL) -> QisReport:
    """`quantum.verify_quantum_independent_set`, one pair at a time."""
    adjacency = _adjacency(graph)
    if qis.n_vertices != adjacency.n:
        raise ValueError("certificate and graph disagree on the vertex count")
    violations: list[QisViolation] = []
    supports: dict[int, list[int]] = {}
    for i, v in sorted(qis.projectors):
        supports.setdefault(i, []).append(v)
    for i, vertices in supports.items():
        defects, completeness = _measurement_defects(
            [qis.projectors[i, v] for v in vertices], qis.d)
        for v, defect in zip(vertices, defects):
            if not defect <= tol:
                violations.append(QisViolation("projector", i, None, v, None,
                                               defect))
        if not completeness <= tol:
            violations.append(QisViolation("completeness", i, None, None, None,
                                           completeness))
    if len(supports) < qis.t:
        first = next(i for i in itertools.count() if i not in supports)
        last = next(i for i in range(qis.t - 1, -1, -1) if i not in supports)
        completeness = _measurement_defects([], qis.d)[1]
        if not completeness <= tol:
            violations.append(QisViolation(
                "completeness", first, None if last == first else last,
                None, None, completeness))
    for i, j in itertools.combinations(supports, 2):
        for u in supports[i]:
            for v in supports[j]:
                if u != v and not adjacency.has_edge(u, v):
                    continue
                norm = float(np.linalg.norm(
                    qis.projectors[i, u] @ qis.projectors[j, v]))
                if not norm <= tol:
                    violations.append(QisViolation(
                        "orthogonality", i, j, u, v, norm))
    return QisReport(not violations, tuple(violations))


def strategy_to_qis(g, s) -> QuantumIndependentSet:
    """`quantum.strategy_to_qis`, one (x, y, a, b) product at a time."""
    tol = MEASUREMENT_TOL
    if not g.is_boolean():
        raise ValueError("conversion requires a 0/1 predicate")
    if s.dA != s.dB:
        raise ValueError("conversion requires equal local dimensions")
    value = quantum.winning_probability(g, s)
    if value < 1.0 - tol:
        raise NotPseudoTelepathy(
            f"strategy wins with probability {value:.12f} < 1")
    d = s.dA
    alice = [[np.asarray(p, dtype=complex) for p in fam] for fam in s.alice]
    bob = [[np.asarray(q, dtype=complex) for q in fam] for fam in s.bob]
    for side, fams, count in (("alice", alice, g.na), ("bob", bob, g.nb)):
        for fam in fams:
            for extra in fam[count:]:
                if float(np.linalg.norm(extra)) > tol:
                    raise ValueError(
                        f"{side}: extra measurement outcome beyond the answer "
                        "range carries weight; conversion needs one projector "
                        "per answer")
    gg = build_game_graph(g)
    vertex_index = {quad: idx for idx, quad in enumerate(gg.vertices)}
    worst = 0.0
    losing = None
    complex_product = False
    projectors: dict[tuple[int, int], np.ndarray] = {}
    for quad in itertools.product(range(g.nx), range(g.ny), range(g.na),
                                  range(g.nb)):
        x, y, a, b = quad
        p, q = alice[x][a], bob[y][b]
        prod = p @ q
        worst = max(worst, float(np.linalg.norm(prod - q @ p)))
        if g.predicate[quad] == 0.0:
            norm = float(np.linalg.norm(prod))
            if losing is None and norm > tol:
                losing = ("strategy does not annihilate losing answer "
                          f"pair (x={x},y={y},a={a},b={b}): "
                          f"product norm {norm:.3e}")
            continue
        if float(np.max(np.abs(np.imag(prod)))) > tol:
            complex_product = True
        mat = np.real(prod)
        mat = 0.5 * (mat + mat.T)
        if float(np.linalg.norm(mat)) != 0.0:
            projectors[(x * g.ny + y, vertex_index[quad])] = mat
    if worst > tol:
        raise NonCommutingStrategy(
            f"projector families do not commute (max commutator norm {worst:.3e})")
    if losing is not None:
        raise NotPseudoTelepathy(losing)
    if complex_product:
        raise ValueError("product projectors are not real-valued")
    qis = QuantumIndependentSet(g.k, d, gg.n, projectors)
    report = quantum.verify_quantum_independent_set(gg, qis, tol)
    if not report.valid:
        raise InvalidQuantumIndependentSet(
            "converted certificate fails verification: "
            + "; ".join(v.describe() for v in report.violations[:5]))
    return qis
