"""Two-player one-round games: domain types, canonical catalog, transformations.

A game is given by finite input sets X, Y and output sets A, B (all handled as
0-based integer ranges), a predicate table lam(x, y, a, b) with values in
[0, 1] deciding which answer pairs win, and an input distribution pi(x, y).
Multi-coordinate inputs/outputs (e.g. from parallel repetition) are packed
into single indices with row-major mixed-radix encoding: the first coordinate
is the most significant digit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DISTRIBUTION_TOL = 1e-12

# Entries of a repeated game's predicate table; a fixed cap.
TABLE_CAP = 1 << 24


class GameFormatError(ValueError):
    """A game document or table violates the format contract."""


class SizeCapError(ValueError):
    """A construction or a search would exceed a size cap."""


@dataclass(frozen=True)
class Game:
    """An immutable two-player game.

    predicate has shape (nx, ny, na, nb) with entries in [0, 1];
    distribution has shape (nx, ny), is non-negative and sums to 1.
    """

    name: str
    nx: int
    ny: int
    na: int
    nb: int
    predicate: np.ndarray
    distribution: np.ndarray

    def __post_init__(self):
        lam = np.ascontiguousarray(np.asarray(self.predicate, dtype=float).reshape(
            self.nx, self.ny, self.na, self.nb))
        pi = np.ascontiguousarray(np.asarray(self.distribution, dtype=float).reshape(
            self.nx, self.ny))
        if min(self.nx, self.ny, self.na, self.nb) < 1:
            raise GameFormatError("all set sizes must be positive")
        if not np.all(np.isfinite(lam)):
            raise GameFormatError("predicate: entries must be finite")
        if not np.all(np.isfinite(pi)):
            raise GameFormatError("distribution: entries must be finite")
        if np.any(lam < 0.0) or np.any(lam > 1.0):
            raise GameFormatError("predicate: entries must lie in [0, 1]")
        if np.any(pi < 0.0):
            raise GameFormatError("distribution: entries must be non-negative")
        if abs(pi.sum() - 1.0) > DISTRIBUTION_TOL:
            raise GameFormatError(
                f"distribution not normalized: sums to {pi.sum()!r}")
        lam.flags.writeable = False
        pi.flags.writeable = False
        object.__setattr__(self, "predicate", lam)
        object.__setattr__(self, "distribution", pi)

    @property
    def k(self) -> int:
        """Number of input pairs |X x Y|."""
        return self.nx * self.ny

    def is_boolean(self) -> bool:
        """True when every predicate entry is exactly 0 or 1."""
        lam = self.predicate
        return bool(np.all((lam == 0.0) | (lam == 1.0)))

    def is_uniform(self) -> bool:
        """True when the input distribution is exactly uniform."""
        return bool(np.all(self.distribution == 1.0 / self.k))

    def winning_quadruples(self) -> list[tuple[int, int, int, int]]:
        """All (x, y, a, b) with a strictly positive predicate value, in
        lexicographic order."""
        idx = np.argwhere(self.predicate > 0.0)
        return [tuple(int(v) for v in q) for q in idx]


@dataclass(frozen=True)
class ClassicalStrategy:
    """A deterministic strategy pair: answer tables indexed by the inputs."""

    fa: tuple[int, ...]
    fb: tuple[int, ...]

    def validate(self, g: Game) -> None:
        if len(self.fa) != g.nx or len(self.fb) != g.ny:
            raise ValueError("strategy tables do not match the input set sizes")
        if any(not 0 <= a < g.na for a in self.fa):
            raise ValueError("strategy output out of range for player A")
        if any(not 0 <= b < g.nb for b in self.fb):
            raise ValueError("strategy output out of range for player B")


def strategy_value(g: Game, s: ClassicalStrategy) -> float:
    """Winning probability of a deterministic strategy pair."""
    s.validate(g)
    total = 0.0
    for x in range(g.nx):
        for y in range(g.ny):
            total += g.distribution[x, y] * g.predicate[x, y, s.fa[x], s.fb[y]]
    return total


def uniform_distribution(nx: int, ny: int) -> np.ndarray:
    return np.full((nx, ny), 1.0 / (nx * ny))


# ---------------------------------------------------------------------------
# Catalog games


def chsh() -> Game:
    """The CHSH game: binary inputs and outputs, win iff a xor b == x and y."""
    x, y, a, b = np.indices((2, 2, 2, 2))
    lam = ((a ^ b) == (x & y)).astype(float)
    return Game("chsh", 2, 2, 2, 2, lam, uniform_distribution(2, 2))


def _row_bits(a: int) -> tuple[int, int, int]:
    # a encodes the first two bits; third bit completes to even parity
    b0, b1 = a & 1, (a >> 1) & 1
    return b0, b1, b0 ^ b1


def _col_bits(b: int) -> tuple[int, int, int]:
    # third bit completes to odd parity
    b0, b1 = b & 1, (b >> 1) & 1
    return b0, b1, b0 ^ b1 ^ 1


def magic_square() -> Game:
    """The 3x3 magic square game.

    Alice fills row x with bits of even parity, Bob fills column y with bits
    of odd parity; answers a, b in {0..3} encode the first two bits with the
    parity bit implied.  They win iff the two fillings agree at cell (x, y).
    """
    rows = np.array([_row_bits(a) for a in range(4)]).T  # [y, a]
    cols = np.array([_col_bits(b) for b in range(4)]).T  # [x, b]
    lam = (rows[None, :, :, None] == cols[:, None, None, :]).astype(float)
    return Game("magic-square", 3, 3, 4, 4, lam, uniform_distribution(3, 3))


def xor_game(f: np.ndarray, distribution: np.ndarray | None = None,
             name: str = "xor") -> Game:
    """XOR game for a boolean table f: win iff a xor b == f(x, y)."""
    f = np.asarray(f)
    if f.ndim != 2:
        raise GameFormatError("xor game table must be two-dimensional")
    if not np.all((f == 0) | (f == 1)):
        raise GameFormatError("xor game table entries must be 0 or 1")
    nx, ny = f.shape
    a, b = np.indices((2, 2))
    lam = ((a ^ b) == f[:, :, None, None]).astype(float)
    if distribution is None:
        distribution = uniform_distribution(nx, ny)
    return Game(name, nx, ny, 2, 2, lam, distribution)


def all_ones(nx: int, ny: int, na: int, nb: int) -> Game:
    """The trivial game in which every answer pair wins."""
    return Game("all-ones", nx, ny, na, nb,
                np.ones((nx, ny, na, nb)), uniform_distribution(nx, ny))


def parallel_repetition(g: Game, n: int) -> Game:
    """n-fold parallel repetition: product predicate, product distribution.

    Inputs/outputs of the repeated game are n-tuples packed row-major (first
    coordinate most significant), so index i decodes to digits of i in base
    nx (resp. ny, na, nb).
    """
    if n < 1:
        raise ValueError("repetition count must be >= 1")
    entries = g.nx * g.ny * g.na * g.nb
    # entries ** n multiplied out only as far as the cap: bit_length(cap)
    # factors of 2 or more exceed it already, whatever n is
    if entries ** min(n, TABLE_CAP.bit_length()) > TABLE_CAP:
        raise SizeCapError(
            f"{n}-fold repetition: the predicate table would hold "
            f"{entries}^{n} entries (cap {TABLE_CAP})")
    lam, pi = g.predicate, g.distribution
    steps = n - 1
    if entries == 1:
        # the cap lets any n through: one power instead of n - 1 steps; past
        # 2^64 factors every entry has reached 0, 1 or overflow already
        lam, pi, steps = lam ** min(n, 1 << 64), pi ** min(n, 1 << 64), 0
    lam_rep, pi_rep = lam, pi
    for _ in range(steps):
        # tensor product, then regroup axes so each of x, y, a, b is contiguous
        lam_rep = np.einsum("xyab,uvcd->xuyvacbd", lam_rep, lam).reshape(
            lam_rep.shape[0] * g.nx, lam_rep.shape[1] * g.ny,
            lam_rep.shape[2] * g.na, lam_rep.shape[3] * g.nb)
        pi_rep = np.einsum("xy,uv->xuyv", pi_rep, pi).reshape(
            pi_rep.shape[0] * g.nx, pi_rep.shape[1] * g.ny)
    return Game(f"{g.name}-rep{n}" if n > 1 else g.name,
                g.nx ** n, g.ny ** n, g.na ** n, g.nb ** n, lam_rep, pi_rep)


def independent_set_game(graph, t: int, name: str | None = None) -> Game:
    """The independent-set game with parameter t on a graph.

    Both players are asked for one of the t members of a claimed independent
    set.  They lose when x == y but the named vertices differ, or when x != y
    and the named vertices are equal or adjacent.  ``graph`` is a
    gamegraph.Graph.  A predicate table of more than TABLE_CAP entries,
    t^2 n^2 for n vertices, raises SizeCapError before any is built.
    """
    if t < 1:
        raise ValueError("parameter t must be >= 1")
    if t * t * graph.n * graph.n > TABLE_CAP:
        raise SizeCapError(
            f"independent-set game: the predicate table would hold "
            f"{t}^2 x {graph.n}^2 entries (cap {TABLE_CAP})")
    adj = np.array([[graph.has_edge(v, w) for w in range(graph.n)]
                    for v in range(graph.n)], dtype=bool)
    nv = adj.shape[0]
    same_vertex = np.eye(nv, dtype=bool)
    # x == y loses on different vertices, x != y on equal or adjacent ones
    lose = np.where(np.eye(t, dtype=bool)[:, :, None, None], ~same_vertex,
                    same_vertex | adj)
    lam = (~lose).astype(float)
    return Game(name or f"isg-t{t}", t, t, nv, nv, lam, uniform_distribution(t, t))
