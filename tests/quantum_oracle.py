"""Matrix-at-a-time versions of the certificate checks, kept as the oracle of
the stacked ones in `gamebounds.quantum`: one defect per projector, one
adjacency test per pair of entries, and one strategy outcome at a time."""

from __future__ import annotations

import itertools

import numpy as np

from gamebounds.quantum import (MEASUREMENT_TOL, QisReport, QisViolation,
                                STATE_TOL, _adjacency)


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
