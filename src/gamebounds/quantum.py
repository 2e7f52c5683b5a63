"""Quantum strategies, support projectors, and quantum independent sets.

A quantum independent set of size t for a game graph is a family of t
projective measurements whose outcomes are the graph vertices, such that
projectors from different measurements annihilate each other on adjacent (or
equal) vertices.  Such a certificate lifts to a shared-entanglement strategy
winning at least t/k of the question pairs, and a perfect strategy made of
pairwise commuting projectors converts back into a certificate of size k.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .games import Game
from .gamegraph import GameGraph, Graph, build_game_graph

MEASUREMENT_TOL = 1e-9
STATE_TOL = 1e-10
SUPP_TOL = 1e-8


class InvalidQuantumIndependentSet(ValueError):
    """A claimed quantum independent set fails verification."""


class NotPseudoTelepathy(ValueError):
    """The strategy does not win with probability one (operator level)."""


class NonCommutingStrategy(ValueError):
    """The strategy's projector families do not pairwise commute."""


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
    """The projector defect of each outcome of a measurement on C^dim and
    the completeness defect of their sum, which stays real for real
    outcomes.  Callers test `not defect <= tol`, so a NaN defect fails."""
    defects = [_projector_defect(np.asarray(p, dtype=complex)) for p in family]
    total = sum(family, np.zeros((dim, dim)))
    return defects, float(np.linalg.norm(total - np.eye(dim)))


@dataclass(frozen=True)
class QuantumStrategy:
    """Shared state plus one projective measurement per input, per player.

    alice[x] and bob[y] are tuples of projector matrices; they may carry more
    outcomes than the game has answers (extra outcomes simply never win).
    """

    dA: int
    dB: int
    state: np.ndarray
    alice: tuple[tuple[np.ndarray, ...], ...]
    bob: tuple[tuple[np.ndarray, ...], ...]

    def validate(self, tol: float = MEASUREMENT_TOL) -> None:
        state = np.asarray(self.state, dtype=complex).ravel()
        if state.shape[0] != self.dA * self.dB:
            raise ValueError("state length must be dA*dB")
        if not abs(np.linalg.norm(state) - 1.0) <= STATE_TOL:
            raise ValueError("state is not normalized")
        for side, dim, fams in (("alice", self.dA, self.alice),
                                ("bob", self.dB, self.bob)):
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


def _maximally_entangled(d: int) -> np.ndarray:
    state = np.zeros(d * d, dtype=complex)
    state[:: d + 1] = 1.0 / np.sqrt(d)
    return state


def winning_probability(g: Game, s: QuantumStrategy) -> float:
    """Winning probability sum pi * lam * <psi| P^x_a (x) Q^y_b |psi>.

    With psi reshaped to the dA x dB matrix M, every term is
    <psi| P (x) Q |psi> = tr(M^H P M Q^T), whatever the state: M^H P M is
    formed once per (x, a), and the traces against Bob's first nb
    projectors are one matrix product.
    """
    if len(s.alice) != g.nx or len(s.bob) != g.ny:
        raise ValueError("strategy does not match the game's input sets")
    if any(len(f) < g.na for f in s.alice) or any(len(f) < g.nb for f in s.bob):
        raise ValueError("strategy has fewer outcomes than the game has answers")
    s.validate()
    m = np.asarray(s.state, dtype=complex).reshape(s.dA, s.dB)
    alice = np.array([[m.conj().T @ np.asarray(p, dtype=complex) @ m
                       for p in fam[:g.na]] for fam in s.alice])
    bob = np.array([[np.asarray(q, dtype=complex) for q in fam[:g.nb]]
                    for fam in s.bob])
    # tr(A Q^T) = sum_ij A_ij Q_ij
    pairs = np.real(alice.reshape(g.nx * g.na, -1)
                    @ bob.reshape(g.ny * g.nb, -1).T)
    pairs = pairs.reshape(g.nx, g.na, g.ny, g.nb).transpose(0, 2, 1, 3)
    return float(np.sum(g.distribution[:, :, None, None] * g.predicate * pairs))


# ---------------------------------------------------------------------------
# Support projectors


def supp(m, tol: float = SUPP_TOL) -> np.ndarray:
    """Orthogonal projector onto the column space of a PSD matrix.

    Eigenvalues above tol * lambda_max count as nonzero.  One eigh on the
    Hermitian part serves real and complex input; input with no imaginary
    part is taken as real and gives a real projector.
    """
    m = np.asarray(m)
    if not np.any(np.imag(m)):
        m = np.real(m).astype(float)
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    lam_max = float(w[-1]) if w.size else 0.0
    if w.size and float(w[0]) < -tol * max(1.0, abs(lam_max)):
        raise ValueError(
            f"matrix is not positive semidefinite (lambda_min={w[0]:.3e})")
    if lam_max <= 0.0:
        return np.zeros_like(m)
    vk = v[:, w > tol * lam_max]
    out = vk @ vk.conj().T
    return 0.5 * (out + out.conj().T)


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


# ---------------------------------------------------------------------------
# Quantum independent sets


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True, eq=False)
class QuantumIndependentSet:
    """t projective measurements over game-graph vertices, stored sparsely.

    projectors maps (measurement index, vertex index) to a real d x d array;
    missing entries are zero matrices.
    """

    t: int
    d: int
    n_vertices: int
    projectors: dict[tuple[int, int], np.ndarray]

    def __post_init__(self):
        for name, least in (("t", 0), ("d", 1), ("n_vertices", 0)):
            value = getattr(self, name)
            if not (_is_integer(value) and value >= least):
                raise ValueError(
                    f"certificate {name} must be an integer >= {least}")
        if self.d > 1 and not self.projectors:
            raise ValueError("certificate d > 1 needs at least one projector")
        for (i, v), mat in self.projectors.items():
            if not (_is_integer(i) and _is_integer(v)
                    and 0 <= i < self.t and 0 <= v < self.n_vertices):
                raise ValueError(f"certificate entry ({i},{v}) out of range")
            if np.asarray(mat).shape != (self.d, self.d):
                raise ValueError(
                    f"certificate entry ({i},{v}) has the wrong shape")
            if not np.all(np.isfinite(mat)):
                raise ValueError(
                    f"certificate entry ({i},{v}) has non-finite entries")


@dataclass(frozen=True)
class QisViolation:
    kind: str            # "projector" | "completeness" | "orthogonality"
    measurement: int
    # orthogonality: the second measurement; completeness: the last of the
    # measurements without entries, reported together with measurement the
    # first of them
    other_measurement: int | None
    vertex: int | None
    other_vertex: int | None
    magnitude: float

    def describe(self) -> str:
        if self.kind == "projector":
            return (f"measurement {self.measurement}, vertex {self.vertex}: "
                    f"not a projector (defect {self.magnitude:.3e})")
        if self.kind == "completeness" and self.other_measurement is not None:
            return (f"measurements without entries (first "
                    f"{self.measurement}, last {self.other_measurement}): "
                    f"none sums to identity (defect {self.magnitude:.3e})")
        if self.kind == "completeness":
            return (f"measurement {self.measurement}: does not sum to identity "
                    f"(defect {self.magnitude:.3e})")
        return (f"measurements {self.measurement}/{self.other_measurement}, "
                f"vertices {self.vertex}/{self.other_vertex}: product has norm "
                f"{self.magnitude:.3e}")


@dataclass(frozen=True)
class QisReport:
    valid: bool
    violations: tuple[QisViolation, ...]


def _adjacency(graph) -> Graph:
    """Accept a GameGraph or a plain Graph."""
    if isinstance(graph, GameGraph):
        return graph.graph
    if isinstance(graph, Graph):
        return graph
    raise TypeError(f"expected GameGraph or Graph, got {type(graph).__name__}")


def verify_quantum_independent_set(graph, qis: QuantumIndependentSet,
                                   tol: float = MEASUREMENT_TOL) -> QisReport:
    """Check measurement validity and the cross-measurement orthogonality rule.

    Violations are returned as data rather than raised: a verifier's job is
    to report how badly a claimed certificate fails.  Every defect must
    compare <= tol to pass, so a NaN defect is a violation.
    """
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
    # the measurements without entries all sum to 0: one violation, from
    # the first of them to the last, found in at most len(supports) + 1 steps
    # each, so that the claimed t costs nothing
    if len(supports) < qis.t:
        first = next(i for i in itertools.count() if i not in supports)
        last = next(i for i in range(qis.t - 1, -1, -1) if i not in supports)
        completeness = _measurement_defects([], qis.d)[1]
        if not completeness <= tol:
            violations.append(QisViolation(
                "completeness", first, None if last == first else last,
                None, None, completeness))
    # only measurements with entries, in ascending order, can be non-orthogonal
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


def qis_from_vertex_set(graph, vertices) -> QuantumIndependentSet:
    """Embed a classical independent set as a 1-dimensional certificate.

    The i-th measurement outputs the i-th listed vertex with certainty;
    scalar projectors make every cross product trivially zero whenever the
    listed vertices really are independent and distinct.
    """
    n = _adjacency(graph).n
    vertices = list(vertices)
    if len(set(vertices)) != len(vertices):
        raise ValueError("vertices must be distinct")
    if any(not 0 <= v < n for v in vertices):
        raise ValueError("vertex index out of range")
    projectors = {(i, v): np.ones((1, 1)) for i, v in enumerate(vertices)}
    return QuantumIndependentSet(len(vertices), 1, n, projectors)


# ---------------------------------------------------------------------------
# Lifting a certificate to a strategy


def lift_qis_to_strategy(g: Game, gg: GameGraph, qis: QuantumIndependentSet,
                         tol: float = MEASUREMENT_TOL) -> QuantumStrategy:
    """Strategy on a maximally entangled state built from a certificate.

    Alice's projector for answer a on input x is the support of the sum of
    all certificate projectors sitting on vertices (x, *, a, *); the leftover
    I - sum_a P^x_a is appended as an extra always-losing outcome.  Bob is
    symmetric in (y, b).
    """
    report = verify_quantum_independent_set(gg, qis, tol)
    if not report.valid:
        raise InvalidQuantumIndependentSet(
            "certificate fails verification: "
            + "; ".join(v.describe() for v in report.violations[:5]))
    d = qis.d
    by_xa: dict[tuple[int, int], np.ndarray] = {}
    by_yb: dict[tuple[int, int], np.ndarray] = {}
    for (i, v), p in qis.projectors.items():
        x, y, a, b = gg.vertices[v]
        by_xa.setdefault((x, a), np.zeros((d, d)))
        by_xa[(x, a)] += p
        by_yb.setdefault((y, b), np.zeros((d, d)))
        by_yb[(y, b)] += p

    def build_side(n_inputs: int, n_answers: int, sums: dict) -> tuple:
        families = []
        for x in range(n_inputs):
            family = []
            total = np.zeros((d, d))
            for a in range(n_answers):
                s = sums.get((x, a))
                p = supp(s) if s is not None else np.zeros((d, d))
                family.append(p)
                total += p
            family.append(np.eye(d) - total)  # completion outcome
            families.append(tuple(family))
        return tuple(families)

    return QuantumStrategy(
        dA=d, dB=d, state=_maximally_entangled(d),
        alice=build_side(g.nx, g.na, by_xa),
        bob=build_side(g.ny, g.nb, by_yb))


# ---------------------------------------------------------------------------
# Converting a perfect commuting strategy into a certificate


def strategy_to_qis(g: Game, s: QuantumStrategy, tol: float = 1e-9,
                    gg: GameGraph | None = None) -> QuantumIndependentSet:
    """Turn a perfect strategy with pairwise commuting projectors into a
    quantum independent set of size k = |X x Y|.

    Requirements checked, in order: a 0/1 predicate; equal local
    dimensions; winning probability 1 within tol; no weight on outcomes
    beyond the answer range; commutation of every Alice projector with every
    Bob projector as d x d matrices (the error names the largest commutator
    norm); annihilation of every losing answer pair at the operator level
    (P^x_a Q^y_b = 0 whenever the predicate is 0, the first failing pair in
    (x, y, a, b) order is named), which is what makes the product
    measurements complete over the winning quadruples; real-valued products.
    The last three share one pass over (x, y, a, b) that also builds the
    certificate, which is re-verified before being returned.
    """
    if not g.is_boolean():
        raise ValueError("conversion requires a 0/1 predicate")
    if s.dA != s.dB:
        raise ValueError("conversion requires equal local dimensions")
    value = winning_probability(g, s)
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
    if gg is None:
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
    report = verify_quantum_independent_set(gg, qis, max(tol, MEASUREMENT_TOL))
    if not report.valid:
        raise InvalidQuantumIndependentSet(
            "converted certificate fails verification: "
            + "; ".join(v.describe() for v in report.violations[:5]))
    return qis


# ---------------------------------------------------------------------------
# Catalog strategies (test fixtures shipped with the library)


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


# ---------------------------------------------------------------------------
# JSON wire formats (complex entries as [re, im] pairs, row-major)


def _matrix_to_pairs(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _matrix_from_pairs(rows, what: str) -> np.ndarray:
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what}: malformed matrix") from exc
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError(f"{what}: expected rows of [re, im] pairs")
    return arr[:, :, 0] + 1j * arr[:, :, 1]


def strategy_to_dict(s: QuantumStrategy) -> dict:
    return {
        "dA": s.dA,
        "dB": s.dB,
        "state": [[float(np.real(v)), float(np.imag(v))] for v in s.state],
        "alice": [[_matrix_to_pairs(p) for p in fam] for fam in s.alice],
        "bob": [[_matrix_to_pairs(p) for p in fam] for fam in s.bob],
    }


def strategy_from_dict(doc: dict) -> QuantumStrategy:
    for key in ("dA", "dB", "state", "alice", "bob"):
        if key not in doc:
            raise ValueError(f"strategy document: missing field {key!r}")
    state = np.asarray([complex(re, im) for re, im in doc["state"]])
    alice = tuple(tuple(_matrix_from_pairs(p, "alice") for p in fam)
                  for fam in doc["alice"])
    bob = tuple(tuple(_matrix_from_pairs(p, "bob") for p in fam)
                for fam in doc["bob"])
    return QuantumStrategy(int(doc["dA"]), int(doc["dB"]), state, alice, bob)


def qis_to_dict(qis: QuantumIndependentSet) -> dict:
    entries = []
    for (i, v) in sorted(qis.projectors):
        entries.append({
            "measurement": i,
            "vertex": v,
            "matrix": [[float(x) for x in row] for row in qis.projectors[(i, v)]],
        })
    return {"t": qis.t, "d": qis.d, "n_vertices": qis.n_vertices,
            "projectors": entries}


def qis_from_dict(doc: dict) -> QuantumIndependentSet:
    """Read the qis_to_dict shape; QuantumIndependentSet checks the sizes,
    indices and matrices."""
    if not isinstance(doc, dict):
        raise ValueError("certificate document must be a JSON object")
    for key in ("t", "d", "n_vertices", "projectors"):
        if key not in doc:
            raise ValueError(f"certificate document: missing field {key!r}")
    projectors = {(entry["measurement"], entry["vertex"]):
                  np.asarray(entry["matrix"], dtype=float)
                  for entry in doc["projectors"]}
    return QuantumIndependentSet(doc["t"], doc["d"], doc["n_vertices"],
                                 projectors)
