"""Strategies and checks that only the tests use: the catalog strategies,
the Lemma 1 check and the strategy reader."""

from __future__ import annotations

import numpy as np

from gamebounds.games import Game
from gamebounds.quantum import QuantumStrategy, _maximally_entangled, supp


def strategy_from_classical(g: Game, fa, fb) -> QuantumStrategy:
    """Deterministic answers as 1-dimensional projective measurements."""
    alice = tuple(tuple(np.ones((1, 1)) if a == fa[x] else np.zeros((1, 1))
                        for a in range(g.na)) for x in range(g.nx))
    bob = tuple(tuple(np.ones((1, 1)) if b == fb[y] else np.zeros((1, 1))
                      for b in range(g.nb)) for y in range(g.ny))
    return QuantumStrategy(1, 1, np.ones(1, dtype=complex), alice, bob)


def _qubit_projectors(angle: float) -> tuple[np.ndarray, np.ndarray]:
    """Projectors onto cos(t)|0> + sin(t)|1> and its orthogonal complement."""
    v0 = np.array([np.cos(angle), np.sin(angle)])
    v1 = np.array([-np.sin(angle), np.cos(angle)])
    return np.outer(v0, v0), np.outer(v1, v1)


def chsh_optimal_strategy() -> QuantumStrategy:
    """The optimal qubit strategy for the CHSH game.

    Alice measures in the bases at angles 0 and pi/4 (the Z and X
    eigenbases), Bob at angles pi/8 and -pi/8, on the state
    (|00> + |11>)/sqrt(2); every question pair then succeeds with
    probability cos^2(pi/8).
    """
    alice = (tuple(_qubit_projectors(0.0)), tuple(_qubit_projectors(np.pi / 4)))
    bob = (tuple(_qubit_projectors(np.pi / 8)),
           tuple(_qubit_projectors(-np.pi / 8)))
    state = np.zeros(4, dtype=complex)
    state[0] = state[3] = 1.0 / np.sqrt(2)
    return QuantumStrategy(2, 2, state, alice, bob)


def magic_square_observables() -> list[list[np.ndarray]]:
    """The nine two-qubit observables of the magic square strategy.

        I(x)Z   Z(x)I   Z(x)Z
        X(x)I   I(x)X   X(x)X
       -X(x)Z  -Z(x)X   Y(x)Y

    Every row multiplies to +I and every column to -I; observables within a
    row (or a column) commute, and all nine are real symmetric, so both
    players measure the plain (untransposed) operators on a maximally
    entangled pair of two-qubit registers and always agree on shared cells.
    """
    i2 = np.eye(2)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    sy = np.array([[0.0, -1j], [1j, 0.0]])
    yy = np.real(np.kron(sy, sy))
    return [
        [np.kron(i2, sz), np.kron(sz, i2), np.kron(sz, sz)],
        [np.kron(sx, i2), np.kron(i2, sx), np.kron(sx, sx)],
        [-np.kron(sx, sz), -np.kron(sz, sx), yy],
    ]


def magic_square_strategy() -> QuantumStrategy:
    """The standard perfect strategy for the magic square game (d = 4).

    On input x Alice jointly measures the two independent observables of row
    x; her answer encodes the two resulting bits (the third is the even-
    parity completion).  Bob does the same with column y using odd parity.
    Shared state: the maximally entangled state of two two-qubit registers.
    """
    obs = magic_square_observables()
    eye = np.eye(4)

    def joint(o1: np.ndarray, o2: np.ndarray, outcome: int) -> np.ndarray:
        s0 = 1.0 - 2.0 * (outcome & 1)
        s1 = 1.0 - 2.0 * ((outcome >> 1) & 1)
        return (eye + s0 * o1) / 2.0 @ (eye + s1 * o2) / 2.0

    alice = tuple(tuple(joint(obs[x][0], obs[x][1], a) for a in range(4))
                  for x in range(3))
    bob = tuple(tuple(joint(obs[0][y], obs[1][y], b) for b in range(4))
                for y in range(3))
    return QuantumStrategy(4, 4, _maximally_entangled(4), alice, bob)


def check_lemma1(m, n, v, tol: float = 1e-9) -> bool:
    """Does <v|supp(M+N)|v> >= <v|supp(M)|v> - tol hold for PSD M, N?"""
    m = np.asarray(m, dtype=float)
    n = np.asarray(n, dtype=float)
    v = np.asarray(v, dtype=float).ravel()
    for name, mat in (("M", m), ("N", n)):
        w = np.linalg.eigvalsh(0.5 * (mat + mat.T))
        if w.size and w[0] < -tol * max(1.0, abs(float(w[-1]))):
            raise ValueError(f"{name} is not positive semidefinite")
    lhs = float(v @ supp(m + n) @ v)
    rhs = float(v @ supp(m) @ v)
    return lhs >= rhs - tol


def _matrix_from_pairs(rows, what: str) -> np.ndarray:
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what}: malformed matrix") from exc
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError(f"{what}: expected rows of [re, im] pairs")
    return arr[:, :, 0] + 1j * arr[:, :, 1]


def strategy_from_dict(doc: dict) -> QuantumStrategy:
    """Read the `strategy_to_dict` shape (the `lift --out` file)."""
    for key in ("dA", "dB", "state", "alice", "bob"):
        if key not in doc:
            raise ValueError(f"strategy document: missing field {key!r}")
    state = np.asarray([complex(re, im) for re, im in doc["state"]])
    alice = tuple(tuple(_matrix_from_pairs(p, "alice") for p in fam)
                  for fam in doc["alice"])
    bob = tuple(tuple(_matrix_from_pairs(p, "bob") for p in fam)
                for fam in doc["bob"])
    return QuantumStrategy(int(doc["dA"]), int(doc["dB"]), state, alice, bob)
