"""Quantum strategies, support projectors, and quantum independent sets.

A quantum independent set of size t for a game graph is a family of t
projective measurements whose outcomes are the graph vertices, such that
projectors from different measurements annihilate each other on adjacent (or
equal) vertices.  Such a certificate lifts to a shared-entanglement strategy
winning at least t/k of the question pairs, and a perfect strategy made of
pairwise commuting projectors converts back into a certificate of size k.
The checks take any ``Graph``: a game graph is one, with the quadruples a
lift reads, and a DIMACS graph is a plain one.

The checks work on stacks: a certificate's K listed entries form one
(K, d, d) stack, its orthogonality candidates come in bounded row blocks of
entries with one batched product each, so the cost follows K, not the
claimed t; a strategy is checked as one stack per player, a conversion
forms its (x, y, a, b) products from those stacks in bounded blocks, and a
lift takes its supports with one batched eigh.  Strategy checks, supports
and conversions use the fixed MEASUREMENT_TOL and SUPP_TOL; only a
certificate's verification and lift take a tolerance, the one ``--tol``
sets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .games import Game
from .gamegraph import GameGraph, Graph, bit_matrix, build_game_graph

MEASUREMENT_TOL = 1e-9
STATE_TOL = 1e-10
SUPP_TOL = 1e-8
# a certificate's orthogonality candidates are taken a row block of entries
# at a time, each block holding about this many pair entries
_PAIR_BLOCK_ENTRIES = 1 << 20


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


def _defects(stack: np.ndarray, starts) -> tuple[np.ndarray, np.ndarray]:
    """The projector defect max(|P^2 - P|, |P - P^H|) of every matrix of a
    (K, d, d) stack, and the completeness defect |sum - I| of every run of
    it, run r starting at starts[r] and ending at the next start (an empty
    run sums to 0).  Callers test `not defect <= tol`, so a NaN defect
    fails; np.maximum passes a NaN on."""
    d = stack.shape[-1]
    projector = np.maximum(
        np.linalg.norm(stack @ stack - stack, axis=(-2, -1)),
        np.linalg.norm(stack - np.swapaxes(stack.conj(), -1, -2),
                       axis=(-2, -1)))
    starts = np.asarray(starts, dtype=np.intp)
    totals = np.zeros((len(starts), d, d), dtype=stack.dtype)
    filled = starts < np.append(starts[1:], len(stack))
    if filled.any():
        totals[filled] = np.add.reduceat(stack, starts[filled], axis=0)
    return projector, np.linalg.norm(totals - np.eye(d), axis=(-2, -1))


def _stack_families(fams, dim: int) -> tuple[np.ndarray, list[int]]:
    """The outcomes of a player's measurements as one complex stack and the
    start of each measurement's run in it, up to the first measurement with
    an outcome that is unreadable or not dim x dim."""
    mats: list[np.ndarray] = []
    starts: list[int] = []
    for family in fams:
        try:
            family = [np.asarray(p, dtype=complex) for p in family]
        except (TypeError, ValueError, OverflowError):
            break
        if any(p.shape != (dim, dim) for p in family):
            break
        starts.append(len(mats))
        mats += family
    return np.array(mats).reshape(len(mats), dim, dim), starts


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

    def validate(self) -> list[tuple[np.ndarray, list[int]]]:
        """Raise ValueError at the first failing check.  Measurements are
        checked in order, Alice's first; within one, every outcome must be a
        finite square matrix, then of the right dimension, then a projector,
        and then the outcomes must sum to the identity, each within
        MEASUREMENT_TOL.  Each player's outcomes are checked as one stack;
        returns Alice's and Bob's (stack, starts) from _stack_families."""
        state = np.asarray(self.state, dtype=complex).ravel()
        if state.shape[0] != self.dA * self.dB:
            raise ValueError("state length must be dA*dB")
        if not abs(np.linalg.norm(state) - 1.0) <= STATE_TOL:
            raise ValueError("state is not normalized")
        stacks = []
        for side, dim, fams in (("alice", self.dA, self.alice),
                                ("bob", self.dB, self.bob)):
            stack, starts = _stack_families(fams, dim)
            stacks.append((stack, starts))
            finite = np.isfinite(stack).all(axis=(-2, -1))
            projector, completeness = _defects(stack, starts)
            bad = ~finite | ~(projector <= MEASUREMENT_TOL)
            fails = np.append(~(completeness <= MEASUREMENT_TOL), True)
            fails[np.repeat(np.arange(len(starts)),
                            np.diff(starts + [len(stack)]))[bad]] = True
            # the first failing measurement, or the first one left unstacked
            x = int(np.argmax(fails))
            if x == len(fams):
                continue
            if x == len(starts):
                # raises for an unreadable, non-square or non-finite outcome
                family = [_as_complex_matrix(p) for p in fams[x]]
                a = next(a for a, p in enumerate(family)
                         if p.shape != (dim, dim))
                raise ValueError(
                    f"{side} input {x} outcome {a}: wrong dimension")
            lo = starts[x]
            hi = lo + len(fams[x])
            if not finite[lo:hi].all():
                raise ValueError("matrix has non-finite entries")
            failed = np.flatnonzero(bad[lo:hi])
            if failed.size:
                raise ValueError(
                    f"{side} input {x} outcome {failed[0]}: not a projector")
            raise ValueError(
                f"{side} input {x}: measurement does not sum to identity")
        return stacks


def _maximally_entangled(d: int) -> np.ndarray:
    state = np.zeros(d * d, dtype=complex)
    state[:: d + 1] = 1.0 / np.sqrt(d)
    return state


def winning_probability(g: Game, s: QuantumStrategy) -> float:
    """Winning probability sum pi * lam * <psi| P^x_a (x) Q^y_b |psi>.

    With psi reshaped to the dA x dB matrix M, every term is
    <psi| P (x) Q |psi> = tr(M^H P M Q^T), whatever the state: M^H P M is
    one batched product over the first na outcomes of validate's stack for
    Alice, and the traces against the first nb of Bob's are one matrix
    product.
    """
    if len(s.alice) != g.nx or len(s.bob) != g.ny:
        raise ValueError("strategy does not match the game's input sets")
    if any(len(f) < g.na for f in s.alice) or any(len(f) < g.nb for f in s.bob):
        raise ValueError("strategy has fewer outcomes than the game has answers")
    (alice, a_starts), (bob, b_starts) = s.validate()
    m = np.asarray(s.state, dtype=complex).reshape(s.dA, s.dB)
    alice = m.conj().T @ alice[np.add.outer(a_starts, np.arange(g.na))] @ m
    bob = bob[np.add.outer(b_starts, np.arange(g.nb))]
    # tr(A Q^T) = sum_ij A_ij Q_ij
    pairs = np.real(alice.reshape(g.nx * g.na, -1)
                    @ bob.reshape(g.ny * g.nb, -1).T)
    pairs = pairs.reshape(g.nx, g.na, g.ny, g.nb).transpose(0, 2, 1, 3)
    return float(np.sum(g.distribution[:, :, None, None] * g.predicate * pairs))


# ---------------------------------------------------------------------------
# Support projectors


def supp(m) -> np.ndarray:
    """Orthogonal projector onto the column space of a PSD matrix, or of
    each matrix of a (..., d, d) stack.

    Eigenvalues above SUPP_TOL * lambda_max of their own matrix count as
    nonzero.
    One eigh on the Hermitian part serves real and complex input; input with
    no imaginary part is taken as real and gives real projectors.  The
    eigenvalues come in ascending order, so the kept eigenvectors are the
    last r columns; matrices of equal rank r share one product.
    """
    m = np.asarray(m)
    if not np.any(np.imag(m)):
        m = np.real(m).astype(float)
    w, v = np.linalg.eigh(0.5 * (m + np.swapaxes(m.conj(), -1, -2)))
    out = np.zeros(v.shape, dtype=v.dtype)
    if not w.shape[-1]:
        return out
    lam_min, lam_max = w[..., 0], w[..., -1]
    negative = lam_min < -SUPP_TOL * np.maximum(1.0, np.abs(lam_max))
    if negative.any():
        raise ValueError("matrix is not positive semidefinite "
                         f"(lambda_min={lam_min[negative][0]:.3e})")
    rank = np.where(lam_max > 0.0,
                    np.sum(w > SUPP_TOL * lam_max[..., None], axis=-1), 0)
    for r in range(1, w.shape[-1] + 1):
        has_rank = rank == r
        if has_rank.any():
            vk = np.ascontiguousarray(v[has_rank][..., -r:])
            out[has_rank] = vk @ np.swapaxes(vk.conj(), -1, -2)
    return 0.5 * (out + np.swapaxes(out.conj(), -1, -2))


# ---------------------------------------------------------------------------
# Quantum independent sets


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _entry(i, v) -> str:
    # repr keeps a non-integer index, such as "\n", on one line
    i, v = (k if _is_integer(k) else repr(k) for k in (i, v))
    return f"certificate entry ({i},{v})"


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
        mats, misfit = [], None
        for (i, v), mat in self.projectors.items():
            if not (_is_integer(i) and _is_integer(v)
                    and 0 <= i < self.t and 0 <= v < self.n_vertices):
                misfit = f"{_entry(i, v)} out of range"
                break
            mat = np.asarray(mat)
            if mat.shape != (self.d, self.d):
                misfit = f"{_entry(i, v)} has the wrong shape"
                break
            mats.append(mat)
        # the entries are checked in dict order, so a non-finite entry
        # before the first misfit is the one named
        stack = np.array(mats).reshape(len(mats), self.d ** 2)
        finite = np.isfinite(stack).all(axis=1)
        if not finite.all():
            i, v = list(self.projectors)[int(np.argmin(finite))]
            raise ValueError(f"{_entry(i, v)} has non-finite entries")
        if misfit is not None:
            raise ValueError(misfit)


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
    """The argument, checked to be a Graph (a GameGraph is one)."""
    if isinstance(graph, Graph):
        return graph
    raise TypeError(f"expected GameGraph or Graph, got {type(graph).__name__}")


def _stack_entries(qis: QuantumIndependentSet, keys) -> np.ndarray:
    """The listed matrices of `keys`, in that order, as one real or complex
    (K, d, d) stack."""
    stack = np.array([qis.projectors[k] for k in keys])
    stack = stack.reshape(len(keys), qis.d, qis.d)
    return stack.astype(np.promote_types(stack.dtype, float), copy=False)


def _orthogonality(adjacency: Graph, stack: np.ndarray, vertices: np.ndarray,
                   later: np.ndarray, tol: float):
    """The pairs of entries p, q >= later[p] on adjacent or equal vertices
    whose product's norm is not <= tol, as arrays (p, q, norm) in (p, q)
    order, taken in row blocks of about _PAIR_BLOCK_ENTRIES pair entries."""
    count, n, d = len(stack), adjacency.n, stack.shape[-1]
    rows = max(1, _PAIR_BLOCK_ENTRIES // (d * d * max(count, n)))
    found = [(np.zeros(0, np.intp),) * 2 + (np.zeros(0),)]
    for s in range(0, count, rows):
        e = min(s + rows, count)
        lo = later[s]  # later is non-decreasing, so no pair starts below it
        if lo == count:
            break
        bits = bit_matrix([adjacency.rows[v] for v in vertices[s:e].tolist()],
                          n)
        near = bits[:, vertices[lo:]] | (vertices[s:e, None] == vertices[lo:])
        near &= np.arange(lo, count) >= later[s:e, None]
        p, q = np.nonzero(near)
        p += s
        q += lo
        norms = np.linalg.norm(stack[p] @ stack[q], axis=(-2, -1))
        keep = ~(norms <= tol)
        found.append((p[keep], q[keep], norms[keep]))
    return (np.concatenate(part) for part in zip(*found))


def verify_quantum_independent_set(graph, qis: QuantumIndependentSet,
                                   tol: float = MEASUREMENT_TOL) -> QisReport:
    """Check measurement validity and the cross-measurement orthogonality rule.

    Violations are returned as data rather than raised: a verifier's job is
    to report how badly a claimed certificate fails.  Every defect must
    compare <= tol to pass, so a NaN defect is a violation.  The entries,
    sorted by (measurement, vertex), are checked as one stack.
    """
    adjacency = _adjacency(graph)
    if qis.n_vertices != adjacency.n:
        raise ValueError("certificate and graph disagree on the vertex count")
    keys = sorted(qis.projectors)
    count = len(keys)
    stack = _stack_entries(qis, keys)
    # one run of entries per measurement with entries, in ascending order
    starts = [p for p in range(count)
              if p == 0 or keys[p][0] != keys[p - 1][0]]
    bounds = np.array(starts + [count], dtype=np.intp)
    run = np.repeat(np.arange(len(starts)), np.diff(bounds))
    projector, completeness = _defects(stack, starts)
    violations: list[QisViolation] = []
    # per measurement, its projector violations by vertex, then its
    # completeness violation, which takes the index count, past every entry
    found = sorted(
        [(run[p], p) for p in np.flatnonzero(~(projector <= tol))]
        + [(r, count) for r in np.flatnonzero(~(completeness <= tol))])
    for r, p in found:
        if p < count:
            i, v = keys[p]
            violations.append(QisViolation("projector", i, None, v, None,
                                           float(projector[p])))
        else:
            violations.append(QisViolation("completeness", keys[starts[r]][0],
                                           None, None, None,
                                           float(completeness[r])))
    # the measurements without entries all sum to 0, with defect |I|: one
    # violation, from the first of them to the last, found in at most
    # len(measured) + 1 steps each, so that the claimed t costs nothing
    measured = {keys[s][0] for s in starts}
    if len(measured) < qis.t:
        first = next(i for i in itertools.count() if i not in measured)
        last = next(i for i in range(qis.t - 1, -1, -1) if i not in measured)
        empty = float(np.sqrt(qis.d))
        if not empty <= tol:
            violations.append(QisViolation(
                "completeness", first, None if last == first else last,
                None, None, empty))
    vertices = np.array([v for _, v in keys], dtype=np.intp)
    p, q, norms = _orthogonality(adjacency, stack, vertices, bounds[run + 1],
                                 tol)
    for k in np.lexsort((vertices[q], vertices[p], run[q], run[p])):
        (i, u), (j, v) = keys[p[k]], keys[q[k]]
        violations.append(QisViolation("orthogonality", i, j, u, v,
                                       float(norms[k])))
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
    symmetric in (y, b).  Each player's sums form one (inputs, answers, d, d)
    table, and one batched `supp` call takes all their supports.
    """
    report = verify_quantum_independent_set(gg, qis, tol)
    if not report.valid:
        raise InvalidQuantumIndependentSet(
            "certificate fails verification: "
            + "; ".join(v.describe() for v in report.violations[:5]))
    d = qis.d
    keys = list(qis.projectors)
    stack = _stack_entries(qis, keys)
    quads = np.array([gg.vertices[v] for _, v in keys],
                     dtype=np.intp).reshape(len(keys), 4)

    def build_side(n_inputs: int, n_answers: int, question: int,
                   answer: int) -> tuple:
        # the player's input and answer sit at these places of a quadruple;
        # np.add.at adds the entries in dict order
        sums = np.zeros((n_inputs, n_answers, d, d))
        np.add.at(sums, (quads[:, question], quads[:, answer]), stack)
        projectors = supp(sums)
        completion = np.eye(d) - projectors.sum(axis=1)
        return tuple(tuple(family) + (rest,)
                     for family, rest in zip(projectors, completion))

    return QuantumStrategy(
        dA=d, dB=d, state=_maximally_entangled(d),
        alice=build_side(g.nx, g.na, 0, 2), bob=build_side(g.ny, g.nb, 1, 3))


# ---------------------------------------------------------------------------
# Converting a perfect commuting strategy into a certificate


def strategy_to_qis(g: Game, s: QuantumStrategy) -> QuantumIndependentSet:
    """Turn a perfect strategy with pairwise commuting projectors into a
    quantum independent set of size k = |X x Y|.

    Requirements checked, in order, each within MEASUREMENT_TOL: a 0/1
    predicate; equal local dimensions; winning probability 1; no weight on
    outcomes beyond the answer range; commutation of every Alice projector
    with every Bob projector as d x d matrices (the error names the largest
    commutator norm); annihilation of every losing answer pair at the
    operator level (P^x_a Q^y_b = 0 whenever the predicate is 0, the first
    failing pair in (x, y, a, b) order is named), which is what makes the
    product measurements complete over the winning quadruples; real-valued
    products.  The last three share one pass over validate's stacks, in
    blocks of (x, y, a) rows of at most _PAIR_BLOCK_ENTRIES pair entries
    with one batched product each, that also builds the certificate, which
    is re-verified before being returned.
    """
    if not g.is_boolean():
        raise ValueError("conversion requires a 0/1 predicate")
    if s.dA != s.dB:
        raise ValueError("conversion requires equal local dimensions")
    value = winning_probability(g, s)
    if value < 1.0 - MEASUREMENT_TOL:
        raise NotPseudoTelepathy(
            f"strategy wins with probability {value:.12f} < 1")
    d = s.dA
    (alice, a_starts), (bob, b_starts) = s.validate()
    for side, stack, starts, count in (("alice", alice, a_starts, g.na),
                                       ("bob", bob, b_starts, g.nb)):
        if any(float(np.linalg.norm(extra)) > MEASUREMENT_TOL
               for lo, hi in zip(starts, starts[1:] + [len(stack)])
               for extra in stack[lo + count:hi]):
            raise ValueError(
                f"{side}: extra measurement outcome beyond the answer range "
                "carries weight; conversion needs one projector per answer")
    gg = build_game_graph(g)
    alice = alice[np.add.outer(a_starts, np.arange(g.na))]
    bob = bob[np.add.outer(b_starts, np.arange(g.nb))]
    # row r of the table is (x, y, a) in lexicographic order, its columns b;
    # the winning entries are the game graph's vertices in the same order
    table = g.predicate.reshape(-1, g.nb)
    rows = max(1, _PAIR_BLOCK_ENTRIES // (g.nb * d * d))
    worst, losing, complex_product, vertex = 0.0, None, False, 0
    projectors: dict[tuple[int, int], np.ndarray] = {}
    for lo in range(0, len(table), rows):
        r = np.arange(lo, min(lo + rows, len(table)))
        x, y, a = r // (g.ny * g.na), r // g.na % g.ny, r % g.na
        p, q = alice[x, a][:, None], bob[y]
        prod = p @ q
        worst = max(worst, float(np.max(np.linalg.norm(prod - q @ p,
                                                        axis=(-2, -1)))))
        wins = table[r] != 0.0
        norms = np.linalg.norm(prod, axis=(-2, -1))
        bad = ~wins & (norms > MEASUREMENT_TOL)
        if losing is None and bad.any():
            i, b = np.unravel_index(np.argmax(bad), bad.shape)
            losing = ("strategy does not annihilate losing answer pair "
                      f"(x={x[i]},y={y[i]},a={a[i]},b={b}): "
                      f"product norm {norms[i, b]:.3e}")
        prod = prod[wins]
        if np.any(np.max(np.abs(prod.imag), axis=(-2, -1)) > MEASUREMENT_TOL):
            complex_product = True
        mat = np.real(prod)
        mat = 0.5 * (mat + np.swapaxes(mat, -1, -2))
        keep = np.linalg.norm(mat, axis=(-2, -1)) != 0.0
        measurement = (x * g.ny + y)[np.nonzero(wins)[0][keep]]
        projectors.update(zip(zip(measurement.tolist(),
                                  (vertex + np.flatnonzero(keep)).tolist()),
                              mat[keep]))
        vertex += len(mat)
    if worst > MEASUREMENT_TOL:
        raise NonCommutingStrategy(
            f"projector families do not commute (max commutator norm {worst:.3e})")
    if losing is not None:
        raise NotPseudoTelepathy(losing)
    if complex_product:
        raise ValueError("product projectors are not real-valued")
    qis = QuantumIndependentSet(g.k, d, gg.n, projectors)
    report = verify_quantum_independent_set(gg, qis)
    if not report.valid:
        raise InvalidQuantumIndependentSet(
            "converted certificate fails verification: "
            + "; ".join(v.describe() for v in report.violations[:5]))
    return qis


# ---------------------------------------------------------------------------
# JSON wire formats (complex entries as [re, im] pairs, row-major)


def _matrix_to_pairs(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def strategy_to_dict(s: QuantumStrategy) -> dict:
    return {
        "dA": s.dA,
        "dB": s.dB,
        "state": [[float(np.real(v)), float(np.imag(v))] for v in s.state],
        "alice": [[_matrix_to_pairs(p) for p in fam] for fam in s.alice],
        "bob": [[_matrix_to_pairs(p) for p in fam] for fam in s.bob],
    }


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


def _numbers_only(value) -> bool:
    """Is value a number, or a list of such values at any depth?  JSON's
    true and false are not numbers."""
    if isinstance(value, list):
        return all(map(_numbers_only, value))
    return type(value) in (int, float)


def qis_from_dict(doc: dict) -> QuantumIndependentSet:
    """Read the qis_to_dict shape: a list of objects, each with a
    measurement, a vertex and a matrix of numbers, each (measurement,
    vertex) listed once; QuantumIndependentSet checks the sizes, indices
    and matrices."""
    if not isinstance(doc, dict):
        raise ValueError("certificate document must be a JSON object")
    for key in ("t", "d", "n_vertices", "projectors"):
        if key not in doc:
            raise ValueError(f"certificate document: missing field {key!r}")
    if not isinstance(doc["projectors"], list):
        raise ValueError("certificate document: projectors must be a list")
    projectors = {}
    for k, entry in enumerate(doc["projectors"]):
        if not isinstance(entry, dict):
            raise ValueError(
                f"certificate document: projectors[{k}] must be an object")
        for key in ("measurement", "vertex", "matrix"):
            if key not in entry:
                raise ValueError(
                    f"certificate document: missing field {key!r}")
        i, v = entry["measurement"], entry["vertex"]
        if isinstance(i, (list, dict)) or isinstance(v, (list, dict)):
            raise ValueError(f"certificate document: projectors[{k}]: "
                             "measurement and vertex must be integers")
        if (i, v) in projectors:
            raise ValueError(f"{_entry(i, v)} is listed twice")
        if not _numbers_only(entry["matrix"]):
            raise ValueError(f"{_entry(i, v)}: matrix entries must be numbers")
        try:
            projectors[i, v] = np.asarray(entry["matrix"], dtype=float)
        except OverflowError:
            raise ValueError(f"{_entry(i, v)} has non-finite entries") from None
        except ValueError:  # ragged rows
            raise ValueError(f"{_entry(i, v)} has the wrong shape") from None
    return QuantumIndependentSet(doc["t"], doc["d"], doc["n_vertices"],
                                 projectors)
