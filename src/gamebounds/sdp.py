"""An ADMM semidefinite solver for theta numbers and the XOR correlation program.

The theta number is computed from the trace-normalized formulation

    maximize  <C, X>   s.t.  tr X = 1,  X_uv = 0 for every edge (u, v),  X >= 0,

with C the all-ones matrix (weighted: C_uv = sqrt(w_u * w_v)).  The solver
alternates projection onto the affine constraint set (closed form) and onto
the PSD cone (eigenvalue clipping), with a scaled dual update and residual
balancing of the penalty parameter.  A feasibility-repaired primal matrix
provides a true lower bound on the optimum and a repaired dual multiplier a
true upper bound, so value and dual_bound always bracket the exact theta
up to eigensolver precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .games import Game
from .gamegraph import GameGraph, Graph, pipeline_graph

SYMMETRY_TOL = 1e-12
DEFAULT_TOL = 1e-7
MAX_ITERATIONS = 200_000


class NotXorGame(ValueError):
    """The game is not an XOR game (binary outputs, parity-only predicate)."""


def as_symmetric(m, tol: float = SYMMETRY_TOL) -> np.ndarray:
    """Validate near-symmetry and return the symmetrized copy."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.max(np.abs(m))) if m.size else 1.0)
    if m.size and float(np.max(np.abs(m - m.T))) > tol * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    return 0.5 * (m + m.T)


def project_psd(m) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix (eigenvalue clipping)."""
    m = as_symmetric(m)
    w, v = np.linalg.eigh(m)
    w = np.maximum(w, 0.0)
    out = (v * w) @ v.T
    return 0.5 * (out + out.T)


@dataclass(frozen=True)
class ThetaResult:
    """Certified theta computation.

    value is the objective of a strictly feasible primal matrix (a true lower
    bound); dual_bound comes from a repaired dual-feasible solution (a true
    upper bound); gap = dual_bound - value.
    """

    value: float
    dual_bound: float
    gap: float
    iterations: int
    converged: bool
    primal_matrix: np.ndarray


def _admm_sdp(c: np.ndarray, project_affine, tol: float,
              max_iterations: int,
              certify=None) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """maximize <c, X> over {affine set} ∩ {PSD}; returns (Z, scaled dual u,
    iterations, converged).

    project_affine must be the orthogonal projection onto the affine set.
    When residuals pass, the optional certify(z, dual) callback decides
    whether the primal/dual certificates are tight enough; if not, the
    residual target is tightened and iteration continues.  converged=True
    therefore means "certified", not merely "stalled".
    """
    n = c.shape[0]
    x = project_affine(np.zeros((n, n)))
    z = x.copy()
    u = np.zeros((n, n))
    rho = 1.0
    converged = False
    it = 0
    check_every = 10
    residual_target = tol
    for it in range(1, max_iterations + 1):
        x = project_affine(z - u + c / rho)
        z_prev = z
        w, v = np.linalg.eigh(x + u)
        pos = w > 0.0
        z = (v[:, pos] * w[pos]) @ v[:, pos].T
        z = 0.5 * (z + z.T)
        u = u + x - z
        if it % check_every == 0 or it == max_iterations:
            x_norm = np.linalg.norm(x)
            primal_res = np.linalg.norm(x - z)
            dual_res = rho * np.linalg.norm(z - z_prev)
            limit = residual_target * (1.0 + x_norm)
            if primal_res < limit and dual_res < limit:
                if certify is None or certify(z, rho * u):
                    converged = True
                    break
                if residual_target <= 1e-13:
                    break  # cannot reasonably tighten further
                residual_target *= 0.25
            # residual balancing keeps the two residuals comparable
            if primal_res > 10.0 * dual_res:
                rho *= 2.0
                u *= 0.5
            elif dual_res > 10.0 * primal_res:
                rho *= 0.5
                u *= 2.0
    return z, rho * u, it, converged


def _theta_from_objective(graph: Graph, c: np.ndarray, tol: float,
                          max_iterations: int) -> ThetaResult:
    n = graph.n
    edge_mask = np.zeros((n, n), dtype=bool)
    for i, j in graph.edges():
        edge_mask[i, j] = edge_mask[j, i] = True

    def project_affine(m):
        out = m.copy()
        out[edge_mask] = 0.0
        out += (1.0 - np.trace(out)) / n * np.eye(n)
        return out

    def repair(z, dual):
        # Primal: zero the edge entries exactly, shift away any negative
        # eigenvalue, renormalize the trace.  The result is feasible, so its
        # objective is a valid lower bound on theta.
        repaired = z.copy()
        repaired[edge_mask] = 0.0
        repaired = 0.5 * (repaired + repaired.T)
        lam_min = float(np.linalg.eigvalsh(repaired)[0])
        if lam_min < 0.0:
            repaired += (-lam_min) * np.eye(n)
        trace = float(np.trace(repaired))
        if trace <= 0.0:
            repaired = np.eye(n) / n
        else:
            repaired /= trace
        value = float(np.sum(c * repaired))
        # Dual: at optimality C - dual = s*I + Y with Y supported on the
        # edges; any edge-supported Y gives the upper bound lambda_max(C - Y).
        y = np.where(edge_mask, c - dual, 0.0)
        y = 0.5 * (y + y.T)
        dual_bound = float(np.linalg.eigvalsh(c - y)[-1])
        return value, dual_bound, repaired

    scale = max(1.0, float(np.max(np.abs(c))))

    def certify(z, dual):
        value, dual_bound, _ = repair(z, dual)
        return dual_bound - value <= 10.0 * tol * scale

    z, dual, iterations, converged = _admm_sdp(c, project_affine, tol,
                                               max_iterations, certify)
    value, dual_bound, repaired = repair(z, dual)
    return ThetaResult(value, dual_bound, dual_bound - value, iterations,
                       converged, repaired)


def lovasz_theta(graph: Graph, tol: float = DEFAULT_TOL,
                 max_iterations: int = MAX_ITERATIONS) -> ThetaResult:
    """Theta number of a graph, certified by a primal/dual pair."""
    if graph.n < 1:
        raise ValueError("graph must have at least one vertex")
    c = np.ones((graph.n, graph.n))
    return _theta_from_objective(graph, c, tol, max_iterations)


def weighted_theta(graph: Graph, weights, tol: float = DEFAULT_TOL,
                   max_iterations: int = MAX_ITERATIONS) -> ThetaResult:
    """Weighted theta: objective sum_{u,v} sqrt(w_u w_v) X_uv."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (graph.n,):
        raise ValueError("weight vector length does not match vertex count")
    if np.any(w < 0.0):
        raise ValueError("weights must be non-negative")
    if graph.n == 0:
        return ThetaResult(0.0, 0.0, 0.0, 0, True, np.zeros((0, 0)))
    root = np.sqrt(w)
    c = np.outer(root, root)
    return _theta_from_objective(graph, c, tol, max_iterations)


@dataclass(frozen=True)
class QuantumBoundResult:
    """Upper bound on the entangled value, with the theta certificate."""

    bound: float
    theta: ThetaResult
    k: int
    weighted: bool
    graph: GameGraph


def quantum_upper_bound(g: Game, tol: float = DEFAULT_TOL,
                        max_iterations: int = MAX_ITERATIONS) -> QuantumBoundResult:
    """Entangled-value upper bound: weighted theta of the pipeline graph over
    its divisor, which is theta(game graph)/k for uniform 0/1 games."""
    gg = pipeline_graph(g)
    weights, divisor = gg.objective()
    theta = weighted_theta(gg.graph, weights, tol, max_iterations)
    return QuantumBoundResult(theta.value / divisor, theta, g.k,
                              gg.weights is not None, gg)


# ---------------------------------------------------------------------------
# XOR games: the entangled value itself is semidefinite-representable.


def xor_structure(g: Game) -> np.ndarray:
    """For an XOR game, the table s[x, y] = lam(x,y,0,0) - lam(x,y,0,1).

    Raises NotXorGame unless na = nb = 2 and the predicate depends on the
    answers only through their parity.
    """
    if g.na != 2 or g.nb != 2:
        raise NotXorGame(f"outputs are {g.na}x{g.nb}, not binary")
    lam = g.predicate
    if (np.any(lam[:, :, 0, 0] != lam[:, :, 1, 1])
            or np.any(lam[:, :, 0, 1] != lam[:, :, 1, 0])):
        raise NotXorGame("predicate does not depend on the answers via parity only")
    return lam[:, :, 0, 0] - lam[:, :, 0, 1]


def xor_tsirelson_value(g: Game, tol: float = 1e-9,
                        max_iterations: int = MAX_ITERATIONS) -> float:
    """Exact entangled value of an XOR game.

    Over unit vectors u_x, v_y the value is
        sum_xy pi(x,y) * (lam_even + lam_odd)/2
      + sum_xy pi(x,y) * (lam_even - lam_odd)/2 * <u_x, v_y>,
    a semidefinite program over the Gram matrix of the vectors with unit
    diagonal.
    """
    s = xor_structure(g)
    lam = g.predicate
    pi = g.distribution
    constant = float(np.sum(pi * (lam[:, :, 0, 0] + lam[:, :, 0, 1])) / 2.0)
    d = pi * s / 2.0  # coefficient of <u_x, v_y>
    n = g.nx + g.ny
    c = np.zeros((n, n))
    c[:g.nx, g.nx:] = d / 2.0
    c[g.nx:, :g.nx] = d.T / 2.0

    def project_affine(m):
        out = m.copy()
        np.fill_diagonal(out, 1.0)
        return out

    def bracket(z, dual):
        # Dual: C - dual = Diag(t) at optimality; shifting t makes
        # Diag(t) - C PSD, and sum(t) upper-bounds the correlation term.
        t = np.diag(c - dual).copy()
        lam_max = float(np.linalg.eigvalsh(c - np.diag(t))[-1])
        upper = float(np.sum(t) + n * max(lam_max, 0.0))
        # Primal: PSD-project, pin the diagonal to exactly 1, then shift
        # away any eigenvalue debris (the shift keeps the unit diagonal),
        # so the result is a genuinely feasible Gram matrix.
        w, v = np.linalg.eigh(0.5 * (z + z.T))
        zpos = (v * np.maximum(w, 0.0)) @ v.T
        scale = np.sqrt(np.maximum(np.diag(zpos), 1e-12))
        gram = zpos / np.outer(scale, scale)
        np.fill_diagonal(gram, 1.0)
        gram = 0.5 * (gram + gram.T)
        lam_min = float(np.linalg.eigvalsh(gram)[0])
        if lam_min < 0.0:
            gram = (gram - lam_min * np.eye(n)) / (1.0 - lam_min)
        lower = float(np.sum(c * gram))
        return lower, upper

    def certify(z, dual):
        lower, upper = bracket(z, dual)
        return upper - lower <= max(10.0 * tol, 1e-10)

    z, dual, iterations, converged = _admm_sdp(c, project_affine, tol,
                                               max_iterations, certify)
    lower, upper = bracket(z, dual)
    # lower and upper bracket the exact correlation optimum; return the
    # midpoint, which is within (upper - lower)/2 of the truth.
    return constant + 0.5 * (lower + upper)
