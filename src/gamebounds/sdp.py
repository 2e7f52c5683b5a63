"""Semidefinite solvers for theta numbers and the XOR correlation program.

The theta number is computed from the trace-normalized formulation

    maximize  <C, X>   s.t.  tr X = 1,  X_uv = 0 for every edge (u, v),  X >= 0,

with C the all-ones matrix (weighted: C_uv = sqrt(w_u * w_v)).  Any optimum
can be averaged onto the coherent closure of the graph (the smallest
coherent algebra holding I, J, the adjacency matrix and the vertex weights;
Schrijver 1979), and the average keeps X PSD, its trace, its objective and
its zero edges.  So the program has one constraint per edge *class*,
sum_{e in k} X_e = 0, instead of one per edge.  The classes come from 1-WL
colour refinement on the vertices (weights in the initial colouring): when
it separates every vertex, every edge is its own class and the program is
the per-edge one.  Otherwise 2-WL on pairs gives the closure.

The program is described once, as the tuple (c, b, mult, a_map, a_adj,
schur): objective, right-hand side b = (1, 0, ..., 0), row multiplicities,
constraint map a_map with its adjoint a_adj over the class-sorted edges and
Schur builder.  Each builder returns it with the lift to n x n and the block
sizes, and one solver takes it whole, as it takes the XOR program's (unit
diagonal): a primal-dual interior-point method (HKM direction, Mehrotra
predictor-corrector) that factors the m x m Schur complement every
iteration, m = classes + 1.  The predictor goes STEP_FRACTION of the way to
the PSD boundary and the corrector max(STEP_FRACTION, 1 - sigma) of it, with
sigma Mehrotra's centring weight (Mehrotra 1992): where the affine step
predicts the end well, sigma is small and the steps come close to the
boundary.  Its iterates stay primal and dual feasible up to rounding, so
each one's duality gap is <X, Z> (Helmberg, Rendl, Vanderbei and Wolkowicz
1996): it aims for a gap tol wide and stops there, or when a factorization
fails, STALL_STEPS steps in a row do not shrink the gap below STALL_FACTOR
times the gap of the last step that did, or MAX_ITERATIONS steps have run,
keeping the iterate with the smallest gap.  Only that iterate is certified,
by the caller, with one _certify call, which returns the feasible primal and
both ends.  The step cap is a fixed constant, read at each solve and far
above every measured step count; it only bounds the time of a pathological
solve.  The Schur matrix takes 8 m^2 bytes, so a theta program with more
than MAX_CONSTRAINTS constraints raises SizeCapError as soon as its classes
are known, before any m x m array exists.

The closure splits into simple blocks, each repeated on the diagonal
(Wedderburn; computed numerically as in Murota, Kanno, Kojima and Kojima
2010, used for SDPs by de Klerk, Dobre and Pasechnik 2011): in a suitable
orthonormal basis every matrix of the algebra is the direct sum of n_i x n_i
blocks X_i, block i repeated m_i times, with sum n_i m_i = n.  A block is
one pair (P_i, m_i), P_i the orthonormal n x n_i basis of its first copy,
which is all that the block program, its lift and the certificate read.
Two builders give the description, and the input picks one.  When some
block repeats and the decomposition passes its check (_block_bases: the
counts, and a random element of the algebra maps the span of each P_i into
itself), _block_program describes the program on one copy of each block:
block-diagonal matrices of N = sum n_i rows, each row weighted by its
block's m_i, and the Schur matrix M_kl = sum_i m_i tr(B_k,i X_i B_l,i
Z_i^-1) built from the class matrices B_k,i on the blocks.  Otherwise
(1-WL separates the graph, no block repeats, the check fails, or the three
m x sum n_i^2 arrays of the block program would take more than the
8 MAX_CONSTRAINTS^2 bytes allowed the Schur matrix) _theta_program
describes the n x n program, the one-block case, whose Schur builder
computes one representative row per class.  No step lifts an iterate.

The solve ends in _certify on the per-edge n x n program, whatever the
classes or blocks: the lifted primal, averaged over the pair colours, and
the dual with each edge given its class's multiplier.  value and
dual_bound then bracket the exact theta up to eigensolver precision, with
every edge of the primal exactly 0; a partition that is too coarse or a
wrong block basis only widens the bracket.  converged is set in one place:
that bracket is at most 10*tol wide (times the largest objective entry,
when that exceeds 1).  The XOR value is the midpoint of the bracket that
_certify gives its kept iterate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .games import Game, SizeCapError
from .gamegraph import (GameGraph, Graph, _checked_weights, bit_matrix,
                        pipeline_graph)

DEFAULT_TOL = 1e-7
# Interior-point steps per solve.  The most any measured solve took is 13:
# the catalog, theta-battery and xor benchmark corpora take at most 11, 13
# and 11 steps, and the Tier-1 tests at most 13.  The cap leaves a margin of
# 101.
MAX_ITERATIONS = 114

# A theta program with more constraints m (edge classes + 1) than this is
# refused.  The Schur matrix takes 8 m^2 bytes, 288 MB here, and a solve at
# this size already takes about half a minute on one core.  Every catalog
# game has m <= 18 by classes; graphs that 1-WL separates have one
# constraint per edge.
MAX_CONSTRAINTS = 6000
# predictor steps go this fraction of the way to the PSD boundary, corrector
# steps at least this fraction
STEP_FRACTION = 0.95
SCHUR_SHIFTS = (1e-12, 1e-10)
# a step makes progress if its gap is below STALL_FACTOR times the gap of
# the last step that did; STALL_STEPS steps without progress end a solve
STALL_STEPS = 3
STALL_FACTOR = 0.9
# row blocks of the n x n program's Schur matrix are built this many entries
# at a time (besides X and Z^-1 at every edge endpoint, which that builder
# gathers once per build only where they take no more bytes than the Schur
# matrix), and the in-place Cholesky works on blocks of _BLOCK columns
_SCHUR_BLOCK_ENTRIES = 1 << 14
_BLOCK = 64


class NotXorGame(ValueError):
    """The game is not an XOR game (binary outputs, parity-only predicate)."""


@dataclass(frozen=True)
class ThetaResult:
    """Certified theta computation.

    value is the objective of a feasible primal matrix (a true lower bound)
    and dual_bound that of a feasible dual (a true upper bound), both from
    _certify on the per-edge program; gap = dual_bound - value.  m is the
    number of constraints of the program solved (edge classes + 1) and
    blocks its (n_i, m_i) block sizes and multiplicities, ((n, 1),) for the
    n x n program.  The graph with no vertex, plain or weighted, gets the
    zero certificate: value, dual_bound and gap 0.0, no iteration,
    converged, a 0 x 0 primal_matrix, m 0 and blocks ().
    """

    value: float
    dual_bound: float
    gap: float
    iterations: int
    converged: bool
    primal_matrix: np.ndarray
    m: int
    blocks: tuple[tuple[int, int], ...]


def _affine_projection(a_map, a_adj, m: int):
    """project(W, r) = W + a_adj((r - a_map(W)) / gram), the orthogonal
    projection onto {a_map(W) = r}: _ipm_sdp's start, its feasible primal
    steps and _certify's primal; the m constraint matrices must be mutually
    orthogonal, so that gram = diag(A A^T) is all of A A^T."""
    gram = a_map(a_adj(np.ones(m)))
    return lambda w, r: w + a_adj((r - a_map(w)) / gram)


def _certify(program, x: np.ndarray, y: np.ndarray):
    """(X, lower, upper) for the program (c, b, mult, a_map, a_adj, schur)
    that _ipm_sdp takes, from any square x and y; schur is not used.
    lower = <c, X> (rows weighted by mult) is the objective of the
    feasible X and upper that of a feasible dual, so
    lower <= optimum <= upper up to eigensolver roundoff.  Each solve
    calls it once, on the point it reports: theta on the per-edge program,
    the XOR value on the solver's kept iterate.

    X is x symmetrized and projected onto {a_map(X) = b}; if its least
    eigenvalue lam is negative, it becomes (X - lam I) / (1 - lam n / b.b)
    with n = sum(mult), which is feasible as a_map(I) = (n / b.b) b when
    a_adj(b) = I and the constraints where b is nonzero have equal norms.
    The dual y + t b, t = lambda_max(c - a_adj(y)), has the PSD slack
    a_adj(y) - c + t I and the objective b.y + (b.b) t.  Where the two terms
    cancel below lower (an objective of the size of the solver's gap), the
    same bound is taken from y - (b.y / b.b) b, which is orthogonal to b, so
    its objective is the one term (b.b) t."""
    c, b, mult, a_map, a_adj, _ = program
    n, bb = float(np.sum(mult)), float(b @ b)
    x = _affine_projection(a_map, a_adj, len(b))(0.5 * (x + x.T), b)
    lam_min = float(np.linalg.eigvalsh(x)[0])
    if lam_min < 0.0:
        x[np.diag_indices(x.shape[0])] -= lam_min
        x /= 1.0 - lam_min * n / bb
    lower = float(np.sum(c * x * mult[:, None]))
    upper = float(b @ y) + bb * float(np.linalg.eigvalsh(c - a_adj(y))[-1])
    if upper < lower:
        y = y - (float(b @ y) / bb) * b
        upper = bb * float(np.linalg.eigvalsh(c - a_adj(y))[-1])
    return x, lower, upper


def _cholesky_in_place(a: np.ndarray) -> list[np.ndarray]:
    """Overwrite the lower triangle of the positive definite a, read from its
    lower triangle, with its Cholesky factor L, a block column at a time, so
    that no second m x m array is allocated (numpy's cholesky makes two).
    Returns the inverses of L's diagonal blocks, which _cho_solve needs;
    raises LinAlgError when a is not numerically positive definite.  When m
    is at most _BLOCK, L is one block: one cholesky and one inv, the same
    bits as the block loop."""
    m = a.shape[0]
    if m <= _BLOCK:
        a[:] = np.linalg.cholesky(a)
        return [np.linalg.inv(a)]
    inverses = []
    for s in range(0, m, _BLOCK):
        e = min(s + _BLOCK, m)
        left = a[s:e, :s]
        diag = np.linalg.cholesky(a[s:e, s:e] - left @ left.T)
        inverses.append(np.linalg.inv(diag))
        a[s:e, s:e] = diag
        a[e:, s:e] = (a[e:, s:e] - a[e:, :s] @ left.T) @ inverses[-1].T
    return inverses


def _cho_solve(low: np.ndarray, inverses: list[np.ndarray],
               r: np.ndarray) -> np.ndarray:
    """Solve L L^T v = r by block forward and back substitution, given what
    _cholesky_in_place left in low and returned; with one block, L^-1 is
    inverses[0] and v = L^-T (L^-1 r)."""
    if len(inverses) == 1:
        li = inverses[0]
        return li.T @ (li @ r)
    v = r.copy()
    blocks = [(s, s + len(li), li) for s, li in
              zip(range(0, len(r), _BLOCK), inverses)]
    for s, e, li in blocks:
        v[s:e] = li @ (v[s:e] - low[s:e, :s] @ v[:s])
    for s, e, li in reversed(blocks):
        v[s:e] = li.T @ (v[s:e] - low[e:, s:e].T @ v[e:])
    return v


def _step_to_boundary(li: np.ndarray, d: np.ndarray,
                      fraction: float) -> float:
    """Step length along d from the positive definite L L^T, given
    li = L^-1: fraction of the distance to the PSD boundary, capped at 1;
    fraction < 1 keeps the new point positive definite."""
    lam_min = float(np.linalg.eigvalsh(li @ d @ li.T)[0])
    if lam_min >= -fraction:
        return 1.0
    return fraction / -lam_min


def _factor_schur(schur, x: np.ndarray, zi: np.ndarray,
                  low: np.ndarray) -> list[np.ndarray]:
    """Build the Schur matrix into low and factor it there; returns the
    diagonal-block inverses that _cho_solve needs with low.

    Near a degenerate optimum M tends to a singular matrix and rounding
    makes it indefinite, so a failed factorization is retried on a rebuilt
    M with its diagonal raised by each relative shift of SCHUR_SHIFTS in
    turn; the last failure raises LinAlgError."""
    shifts = (0.0,) + SCHUR_SHIFTS
    for shift in shifts:
        schur(x, zi, low)
        low.flat[::low.shape[0] + 1] *= 1.0 + shift
        try:
            return _cholesky_in_place(low)
        except np.linalg.LinAlgError:
            if shift == shifts[-1]:
                raise


def _hkm_step(program, project, x, y, z, low):
    """One Mehrotra predictor-corrector step of the program (c, b, mult,
    a_map, a_adj, schur) along the HKM direction from the interior point
    (x, y, z), with project the program's _affine_projection and low the
    m x m Schur matrix's storage; inner products weight each row by its
    multiplicity in mult.  Returns the new point.
    Raises LinAlgError when X, Z or the Schur matrix fails to factor.

    The affine (predictor) step goes STEP_FRACTION of the way to the PSD
    boundary and predicts mu_aff; sigma = (mu_aff / mu)^3, at most 1,
    centres the corrector, whose primal and dual steps go the fraction
    max(STEP_FRACTION, 1 - sigma) of the way, below 1 even when sigma
    rounds to 0.  A good prediction thus gives a long step, and the
    bracket narrows superlinearly near a well-predicted optimum."""
    c, b, mult, a_map, a_adj, schur = program
    weights = mult[:, None]
    n = float(np.sum(weights))
    lxi = np.linalg.inv(np.linalg.cholesky(x))
    lzi = np.linalg.inv(np.linalg.cholesky(z))
    # Z^-1 as lzi^T lzi is exactly symmetric; inv(z) is not, and near a
    # degenerate optimum its asymmetry makes the computed Schur matrix
    # indefinite
    zi = lzi.T @ lzi
    inverses = _factor_schur(schur, x, zi, low)
    r_p = b - a_map(x)
    r_d = a_adj(y) - c - z
    mu = float(np.sum(x * z * weights)) / n
    x_rd_zi = x @ r_d @ zi

    def direction(k_zi):
        # Newton step for X dZ + dX Z = K, with K given as K Z^-1
        dy = _cho_solve(low, inverses, a_map(k_zi - x_rd_zi) - r_p)
        dz = a_adj(dy) + r_d
        dx = k_zi - x @ dz @ zi
        dx = 0.5 * (dx + dx.T)
        # with M ill-conditioned dy is inexact; project dX back onto
        # A(dX) = r_p so that the primal iterate stays feasible
        return project(dx, r_p), dy, dz

    dx, dy, dz = direction(-x)
    ap = _step_to_boundary(lxi, dx, STEP_FRACTION)
    ad = _step_to_boundary(lzi, dz, STEP_FRACTION)
    mu_aff = float(np.sum((x + ap * dx) * (z + ad * dz) * weights)) / n
    sigma = min(1.0, (mu_aff / mu) ** 3)
    dx, dy, dz = direction(sigma * mu * zi - x - dx @ dz @ zi)
    # sigma rounds to 0, or below it, when the affine step reaches mu = 0
    gamma = max(STEP_FRACTION, min(1.0 - sigma, np.nextafter(1.0, 0.0)))
    ap = _step_to_boundary(lxi, dx, gamma)
    ad = _step_to_boundary(lzi, dz, gamma)
    z = z + ad * dz
    return x + ap * dx, y + ad * dy, 0.5 * (z + z.T)


def _ipm_sdp(program, target: float) -> tuple[np.ndarray, np.ndarray, int]:
    """For the program (c, b, mult, a_map, a_adj, schur):
    maximize <c, X> s.t. a_map(X) = b, X PSD, whose dual is minimize b.y
    s.t. Z = a_adj(y) - c PSD; returns (X, y, steps), the kept iterate and
    the number of steps completed.  It certifies nothing: the caller hands
    (X, y), or what it lifts them to, to _certify once.

    The only SDP solver here: it takes the theta program from either
    builder and the XOR program.  Primal-dual interior point with the HKM
    direction and Mehrotra's predictor-corrector (Helmberg, Rendl,
    Vanderbei and Wolkowicz 1996).
    a_map(W) is the constraint map for any square W (it reads the
    symmetric part) and a_adj its adjoint; the constraint matrices must be
    mutually orthogonal.  schur(X, Z^-1, out) writes the matrix
    M_kl = tr(A_k X A_l Z^-1) into out, of which only the lower triangle is
    read; one out array serves every iteration.  mult gives each row the
    multiplicity of its block, all ones but for a block-diagonal theta
    program that holds one copy of each block: it weights the inner
    products, the traces of M included, and sums to n.
    Both programs have a_adj(b) = I, so the start is strictly feasible: X
    the projection of 0 onto {a_map(X) = b} (I/n for theta, I for XOR) and
    y = t b, Z = t I - C, with t above the Gershgorin bound of C.  Every
    step keeps the iterate feasible up to rounding, so its duality gap
    b.y - <c, X> is <X, Z> (rows weighted by mult).  Iteration stops once
    that gap is at most target, or when a factorization fails, STALL_STEPS
    steps in a row do not shrink it below STALL_FACTOR times the gap of the
    last step that did (so a gap that only oscillates ends the solve), or
    MAX_ITERATIONS steps have run, and returns the iterate with the
    smallest gap (the start if no step was taken).
    """
    c, b, mult, a_map, a_adj, _ = program
    size = c.shape[0]
    weights = mult[:, None]
    project = _affine_projection(a_map, a_adj, len(b))
    x = project(np.zeros((size, size)), b)
    y = (1.0 + float(np.max(np.sum(np.abs(c), axis=1)))) * b
    z = a_adj(y) - c
    best = (np.inf, x, y)
    low = np.zeros((len(y), len(y)))
    progress, stalled, steps = np.inf, 0, 0
    while steps < MAX_ITERATIONS:
        try:
            x, y, z = _hkm_step(program, project, x, y, z, low)
        except np.linalg.LinAlgError:
            break
        steps += 1
        gap = float(np.sum(x * z * weights))
        if gap < best[0]:
            best = (gap, x, y)
        if gap < STALL_FACTOR * progress:
            progress, stalled = gap, 0
        else:
            stalled += 1
        if gap <= target or stalled == STALL_STEPS:
            break
    return best[1], best[2], steps


def _refine(colours: np.ndarray, hashed: np.ndarray) -> np.ndarray:
    """Colours numbered 0, 1, ... by the sorted distinct pairs (colour,
    hash); hashed holds exact non-negative integers, so equal inputs give
    equal ids whatever the vertex labelling.  The pairs are sorted once, as
    colour * span + hash with span above every hash; when those keys could
    pass int64 (they reach colour count * span - 1), the hashes are first
    replaced by their ranks, which keep their order."""
    flat = hashed.ravel()
    span = int(flat.max()) + 1
    if (int(colours.max()) + 1) * span > 1 << 63:
        flat = np.unique(flat, return_inverse=True)[1]
        span = int(flat.max()) + 1
    keys = colours.ravel() * span + flat.astype(np.int64)
    return np.unique(keys, return_inverse=True)[1].reshape(colours.shape)


def _wl_colours(colours: np.ndarray, step) -> np.ndarray:
    """Refine colours by step(r1[colours], r2[colours]) until a round only
    confirms them: every colour below the count is in use and the hash is
    one value on each colour class.  That round returns the colours without
    the sort that _refine makes; a colouring that skips a colour (an
    edgeless graph has no pair colour 1) is renumbered by _refine first.
    r1 and r2 are random integers below 2^20 from a fixed seed, so sums of
    up to 2^13 of their products are exact in float64.  A hash collision
    only merges colours: the result may be coarser than the exact
    refinement, never finer."""
    rng = np.random.default_rng(0)
    count = int(colours.max()) + 1
    while True:
        r1, r2 = rng.integers(1, 1 << 20, size=(2, count)).astype(float)
        hashed = step(r1[colours], r2[colours])
        # the hash of one entry of each class; NaN marks a colour that no
        # entry has
        rep = np.full(count, np.nan)
        rep[colours.ravel()] = hashed.ravel()
        if not np.isnan(rep).any() and np.array_equal(rep[colours], hashed):
            return colours
        colours = _refine(colours, hashed)
        count = int(colours.max()) + 1


def _edge_classes(graph: Graph, vertex_keys: np.ndarray):
    """(ei, ej, starts, colours): the edges sorted by class, the start of
    each class in that order, and the symmetric n x n pair colouring the
    classes come from.

    1-WL colour refinement starts from vertex_keys.  When it separates
    every vertex, each edge is its own class in graph.edges() order and
    colours is None.  Otherwise 2-WL refines the pairs (the coherent
    closure of the graph, up to hash collisions) and each colour is merged
    with its transpose; classes are numbered by colour, so the partition
    does not depend on the vertex labelling."""
    n = graph.n
    bits = bit_matrix(graph.rows, n)
    # row-major, as graph.edges() lists them
    ei, ej = np.nonzero(np.triu(bits, 1))
    adj = bits.astype(float)
    vertex = _wl_colours(np.unique(vertex_keys, return_inverse=True)[1],
                         lambda r1, r2: adj @ r1)
    if int(vertex.max()) + 1 == n:
        return ei, ej, np.arange(len(ei)), None
    pairs = bits.astype(np.int64)
    pairs[np.diag_indices(n)] = 2 + vertex
    pairs = _wl_colours(pairs, np.matmul)
    colours = _refine(np.minimum(pairs, pairs.T), np.maximum(pairs, pairs.T))
    cls = colours[ei, ej]
    order = np.argsort(cls, kind="stable")
    ei, ej, cls = ei[order], ej[order], cls[order]
    starts = np.flatnonzero(np.diff(cls, prepend=-1))
    return ei, ej, starts, colours


def _class_average(colours):
    """w -> w averaged over each class of the pair colouring colours; the
    identity when colours is None (1-WL separates every vertex, so every
    pair is its own class)."""
    if colours is None:
        return lambda w: w
    flat = colours.ravel()
    counts = np.bincount(flat)
    return lambda w: (np.bincount(flat, w.ravel()) / counts)[colours]


def _theta_program(c: np.ndarray, ei: np.ndarray, ej: np.ndarray,
                   starts: np.ndarray, average):
    """(program, lift, blocks): the theta program (c, b, mult, a_map, a_adj,
    schur) with objective c on n x n matrices, whose edges (ei, ej) are
    sorted by class, class k starting at starts[k].  Constraint 0 is
    tr X = 1, constraint k + 1 is <A_k, X> = 0 with A_k = sum of
    (E_ij + E_ji)/2 over the edges of class k, so b = (1, 0, ..., 0).  It is
    the one-block case of _block_program's description: every row has
    multiplicity 1, lift is the identity and blocks is ((n, 1),).
    schur(X, Z^-1, out) writes M_kl = tr(A_k X A_l Z^-1) into out from one
    representative row per class; average, from _class_average, projects X
    and Z^-1 onto the pair colouring before the build.  A block of rows
    reads X and Z^-1 at its representative edges' endpoints (rows) and at
    every edge's endpoints (columns).  With E edges, where the four n x E
    arrays of X and Z^-1 at every edge endpoint hold no more entries than
    the Schur matrix (4 n E <= m^2, so m >> n), they are gathered once per
    build and each block takes its rows from them; otherwise each block
    gathers its rows first.  Both orders form the same products in the
    same order, so the lower triangle is the same bit for bit."""
    n, m = c.shape[0], len(starts) + 1
    bounds = np.append(starts, len(ei))
    sizes = np.diff(bounds)
    # flat indices of the edge entries read much faster than (ei, ej) pairs
    fij, fji = ei * n + ej, ej * n + ei
    # with one edge per class (graphs that 1-WL separates, and the per-edge
    # certificate) a class sum is its one edge's entry
    singletons = len(starts) == len(ei)

    def class_sums(v):
        return v if singletons else np.add.reduceat(v, starts)

    def a_map(w):
        f = w.ravel()
        return np.concatenate(([np.trace(w)],
                               class_sums(0.5 * (f[fij] + f[fji]))))

    def a_adj(y):
        out = np.zeros((n, n))
        np.fill_diagonal(out, y[0])
        f = out.ravel()
        f[fij] = f[fji] = 0.5 * np.repeat(y[1:], sizes)
        return out

    # gather(v)(r, side, f) is v at rows r and at the endpoints
    # ends[side][:f] of the first f edges
    ends = (ei, ej)

    def gather_rows(v):
        return lambda r, side, f: v[r][:, ends[side][:f]]

    def gather_columns(v):
        # take keeps the rows contiguous (v[:, ei] would not), which makes
        # the row gathers about three times faster
        columns = [v.take(e, axis=1) for e in ends]
        return lambda r, side, f: columns[side][r, :f]

    gather = gather_columns if 4 * n * len(ei) <= m * m else gather_rows

    def schur(x, zi, out):
        # lower triangle only, which is all that _cholesky_in_place reads.
        # The iterates lie in the coherent algebra up to rounding; projecting
        # them onto it makes every edge of a class see the same row sums, so
        # one representative row per class serves
        x, zi = average(x), average(zi)
        out[0, 0] = np.sum(x * zi)
        w = x @ zi
        out[1:, 0] = class_sums(0.5 * (w[ei, ej] + w[ej, ei]))
        # M_kl = |k| sum over f = (p, q) in class l of (X_jp Zi_iq +
        # X_jq Zi_ip + X_ip Zi_jq + X_iq Zi_jp) / 4, with (i, j) the first
        # edge of class k, built a block of rows at a time
        x_at, zi_at = gather(x), gather(zi)
        rows = max(1, _SCHUR_BLOCK_ENTRIES // (len(ei) + 1))
        for s in range(0, m - 1, rows):
            e = min(s + rows, m - 1)
            i, j, f = ei[starts[s:e]], ej[starts[s:e]], bounds[e]
            rows_out = out[1 + s:1 + e, 1:1 + e]
            block = rows_out if singletons else np.empty((e - s, f))
            np.multiply(x_at(j, 0, f), zi_at(i, 1, f), out=block)
            block += x_at(j, 1, f) * zi_at(i, 0, f)
            block += x_at(i, 0, f) * zi_at(j, 1, f)
            block += x_at(i, 1, f) * zi_at(j, 0, f)
            if not singletons:
                np.add.reduceat(block, starts[:e], axis=1, out=rows_out)
            rows_out *= 0.25 * sizes[s:e, None]

    b = np.append(1.0, np.zeros(m - 1))
    return (c, b, np.ones(n), a_map, a_adj, schur), lambda w: w, ((n, 1),)


def _wedderburn(colours: np.ndarray):
    """The simple components of the matrix algebra spanned by the symmetric
    pair colouring colours, as a list of pairs (P, m): P is an n x size
    orthonormal basis of the component's first copy and m its number of
    copies, and an element of the algebra acts on every copy as one
    size x size block.  None when every eigenvalue of the random element e1
    below is simple (no block repeats) or when the eigenspaces of a
    component differ in dimension; any other result has a component of two
    or more copies.

    Murota, Kanno, Kojima and Kojima (2010): each eigenspace of a random
    symmetric element e1 lies in one simple component, with the
    component's multiplicity as its dimension; a second random element e2
    links the eigenspaces of one component and no others, and maps a basis
    of its first eigenspace onto aligned bases of the others.  Column r of
    every eigenspace of a component then spans its copy r, and P holds
    column 0 of each.
    """
    rng = np.random.default_rng(0)
    e1, e2 = rng.standard_normal((2, int(colours.max()) + 1))[:, colours]
    lam, vec = np.linalg.eigh(e1)
    tol = 1e-8 * float(np.max(np.abs(lam)))
    starts = np.flatnonzero(np.diff(lam, prepend=-np.inf) > tol)
    if len(starts) == len(lam):
        # every eigenspace, so every multiplicity, is 1: no block repeats
        return None
    spaces = np.split(vec, starts[1:], axis=1)
    coupling = np.add.reduceat((vec.T @ e2 @ vec) ** 2, starts, axis=0)
    linked = np.add.reduceat(coupling, starts, axis=1) > tol ** 2
    linked |= np.eye(len(spaces), dtype=bool)
    while True:
        joined = linked @ linked
        if np.array_equal(joined, linked):
            break
        linked = joined
    blocks = []
    # the first eigenspace of each component; np.unique would do, but with no
    # return options it imports numpy.ma
    for first in np.flatnonzero(np.bincount(np.argmax(linked, axis=1))):
        members = [spaces[a] for a in np.flatnonzero(linked[first])]
        base = members[0]
        if any(v.shape[1] != base.shape[1] for v in members):
            return None
        image = e2 @ base
        # q[:, r] is the basis of copy r, one column from each eigenspace
        q = np.stack([base] + [v @ (v.T @ image) for v in members[1:]],
                     axis=2)
        q /= np.linalg.norm(q, axis=0)
        blocks.append((q[:, 0], q.shape[1]))
    return blocks


def _block_bases(colours: np.ndarray, c: np.ndarray):
    """The blocks of the theta program with objective c: a list of
    (P_i, m_i) by increasing n_i, P_i the n x n_i orthonormal basis of one
    copy of block i and m_i its multiplicity.  None unless some block
    repeats and the decomposition checks out: sum of n_i m_i is n, sum of
    n_i (n_i + 1) / 2 is the colour count (so the symmetric blocks span
    exactly the algebra) and a third random element A of the algebra, plus
    c, maps each span into itself, |A P_i - P_i (P_i^T A P_i)| <= 1e-9 |A|.
    Only these bases and multiplicities reach the block program, its lift
    and the certificate, so the other copies are not checked."""
    blocks = _wedderburn(colours)
    if blocks is None:
        return None
    n, count = colours.shape[0], int(colours.max()) + 1
    a = np.random.default_rng(1).standard_normal(count)[colours] + c
    if (sum(p.shape[1] * m for p, m in blocks) != n
            or sum(p.shape[1] * (p.shape[1] + 1) // 2
                   for p, _ in blocks) != count
            or max(np.linalg.norm(a @ p - p @ (p.T @ a @ p))
                   for p, _ in blocks) > 1e-9 * np.linalg.norm(a)):
        return None
    return sorted(blocks, key=lambda block: block[0].shape[1])


def _block_program(c: np.ndarray, bases, ei: np.ndarray, ej: np.ndarray,
                   starts: np.ndarray):
    """(program, lift, blocks): the theta program (c, b, mult, a_map, a_adj,
    schur) on one copy of each block, given the bases from _block_bases,
    with b = (1, 0, ..., 0) and blocks the (n_i, m_i) of the bases.

    Its matrices are block-diagonal N x N, N = sum of n_i, with row
    multiplicities mult; its objective is c on the blocks, and lift maps
    a block-diagonal W to the n x n sum of m_i P_i W_i P_i^T.  schur(X, Z^-1,
    out) writes M_kl = sum_i m_i tr(B_k,i X_i B_l,i Z_i^-1) into out, with
    B_k,i = P_i^T A_k P_i the class matrices on block i (B_0,i = I); these
    are the in-block entries that a_map and a_adj read, block i's n_i^2 of
    them consecutive and row-major.  Blocks of one size are consecutive in
    bases, so each size takes two batched products, and one product of
    m x (sum of n_i^2) matrices sums every block.  Besides out, schur writes
    only into products, an array the size of rows made once here.  Every
    entry of an iterate outside the blocks stays an exact zero, which
    Cholesky, inverse and products keep."""
    p = np.concatenate([q for q, _ in bases], axis=1)
    sizes = np.array([q.shape[1] for q, _ in bases])
    owner = np.repeat(np.arange(len(bases)), sizes)
    mult = np.array([k for _, k in bases], dtype=float)[owner]
    mask = owner[:, None] == owner[None, :]
    inside = np.flatnonzero(mask)
    size = len(owner)
    # the in-block entries of I and of each class matrix, one row each
    rows = [np.eye(size).ravel()[inside]]
    for s, e in zip(starts, np.append(starts[1:], len(ei))):
        g = p[ei[s:e]].T @ p[ej[s:e]]
        rows.append((0.5 * (g + g.T)).ravel()[inside])
    rows = np.array(rows)
    m = len(rows)
    weighted = rows * np.repeat(mult, size)[inside]
    # (first column, end column, block size) of each run of equal blocks
    ends = np.cumsum(sizes ** 2)
    last = np.flatnonzero(np.diff(sizes, append=0))
    runs = [(int(a), int(e), int(n_i)) for a, e, n_i in
            zip(np.append(0, ends[last[:-1]]), ends[last], sizes[last])]

    def a_map(w):
        return weighted @ w.ravel()[inside]

    def a_adj(y):
        out = np.zeros(size * size)
        out[inside] = y @ rows
        return out.reshape(size, size)

    def lift(w):
        return (p * mult) @ w @ p.T

    products = np.empty_like(rows)

    def schur(x, zi, out):
        # column block i of products holds X_i B_k,i Z_i^-1 for every k;
        # splitting the column axis of a slice is a view, so matmul writes
        # into products itself
        xb, zb = x.ravel()[inside], zi.ravel()[inside]
        for a, e, n_i in runs:
            np.matmul(xb[a:e].reshape(-1, n_i, n_i)
                      @ rows[:, a:e].reshape(m, -1, n_i, n_i),
                      zb[a:e].reshape(-1, n_i, n_i),
                      out=products[:, a:e].reshape(m, -1, n_i, n_i))
        np.matmul(weighted, products.T, out=out)

    b = np.append(1.0, np.zeros(m - 1))
    return ((np.where(mask, p.T @ c @ p, 0.0), b, mult, a_map, a_adj, schur),
            lift, tuple((q.shape[1], k) for q, k in bases))


def _theta_from_objective(graph: Graph, c: np.ndarray, tol: float) -> ThetaResult:
    """Theta of graph with objective c: one _ipm_sdp solve of the program
    that _block_program describes when some block repeats and its arrays
    fit the Schur matrix's byte cap, and _theta_program describes
    otherwise, then _certify on the per-edge n x n program.  The graph with
    no vertex has theta 0, certified by the empty matrix with no step."""
    if graph.n == 0:
        return ThetaResult(0.0, 0.0, 0.0, 0, True, np.zeros((0, 0)), 0, ())
    ei, ej, starts, colours = _edge_classes(graph, np.diag(c))
    m = len(starts) + 1
    if m > MAX_CONSTRAINTS:
        raise SizeCapError(f"theta program has {m} constraints "
                           f"(cap {MAX_CONSTRAINTS})")
    average = _class_average(colours)
    bases = None if colours is None else _block_bases(colours, c)
    # the block route holds three m x (sum of n_i^2) float arrays; where they
    # would take more than the 8 MAX_CONSTRAINTS^2 bytes the cap allows the
    # Schur matrix, the n x n route, whose memory the cap bounds, solves
    if bases is not None and 24 * m * sum(
            p.shape[1] ** 2 for p, _ in bases) > 8 * MAX_CONSTRAINTS ** 2:
        bases = None
    program, lift, blocks = (
        _theta_program(c, ei, ej, starts, average) if bases is None
        else _block_program(c, bases, ei, ej, starts))
    scale = max(1.0, float(np.max(np.abs(c))))
    # aim for a duality gap tol wide but certify at 10*tol: the reported ends
    # then sit well inside the certified width (aiming at 10*tol left the
    # CHSH lower end 5.9e-7 below 2 + sqrt(2)), and a solve that stalls just
    # short of tol still certifies
    x, y, iterations = _ipm_sdp(program, tol * scale)
    # the per-edge program's certificate: the lifted primal averaged over the
    # pair colours (still PSD, each class sum spread over its edges), each
    # edge with its class's multiplier; the projection zeroes every edge
    sizes = np.diff(np.append(starts, len(ei)))
    edge_y = np.append(y[0], np.repeat(y[1:], sizes))
    per_edge = _theta_program(c, ei, ej, np.arange(len(ei)),
                              _class_average(None))[0]
    primal, value, dual_bound = _certify(per_edge, average(lift(x)), edge_y)
    gap = dual_bound - value
    converged = gap <= 10.0 * tol * scale
    return ThetaResult(value, dual_bound, gap, iterations, converged,
                       primal, m, blocks)


def lovasz_theta(graph: Graph, tol: float = DEFAULT_TOL) -> ThetaResult:
    """Theta number of a graph, certified by a primal/dual pair."""
    return _theta_from_objective(graph, np.ones((graph.n, graph.n)), tol)


def weighted_theta(graph: Graph, weights, tol: float = DEFAULT_TOL) -> ThetaResult:
    """Weighted theta: objective sum_{u,v} sqrt(w_u w_v) X_uv."""
    root = np.sqrt(_checked_weights(graph, weights))
    return _theta_from_objective(graph, np.outer(root, root), tol)


@dataclass(frozen=True)
class QuantumBoundResult:
    """Upper bound on the entangled value, with the theta certificate:
    bound is the theta certificate's dual_bound over the divisor."""

    bound: float
    theta: ThetaResult
    graph: GameGraph


def quantum_upper_bound(g: Game, tol: float = DEFAULT_TOL) -> QuantumBoundResult:
    """Entangled-value upper bound: the certified upper end of weighted theta
    of the pipeline graph over its divisor, which is theta(game graph)/k
    for uniform 0/1 games."""
    return _game_graph_bound(pipeline_graph(g), tol)


def _game_graph_bound(gg: GameGraph, tol: float) -> QuantumBoundResult:
    """quantum_upper_bound on a pipeline graph already built."""
    weights, divisor = gg.objective()
    theta = weighted_theta(gg, weights, tol)
    return QuantumBoundResult(theta.dual_bound / divisor, theta, gg)


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


def xor_tsirelson_value(g: Game, tol: float = 1e-9) -> float:
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
    # unit diagonal: A_k = E_kk, so M = X o Z^-1; the certified ends bracket
    # the exact correlation optimum, and their midpoint is within half their
    # distance
    program = (c, np.ones(n), np.ones(n), np.diag, np.diag, np.multiply)
    x, y, _ = _ipm_sdp(program, tol)
    _, lower, upper = _certify(program, x, y)
    return constant + 0.5 * (lower + upper)
