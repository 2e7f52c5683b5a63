"""The benchmark's four workloads: generated inputs, items and output checks.

Each workload is a fixed corpus of games or graphs.  ``--seed`` draws an
isomorphic relabeling of every corpus member: questions and vertices are
permuted, and each question's answers are permuted (for XOR games, flipped).
The program therefore sees different inputs on every seed while the work
stays the same problem.  This is deliberate: theta and XOR iteration counts
are invariant under relabeling, whereas fresh random games vary by 20-70% per
item (ADMM iterations, branch-and-bound nodes), far more than the benchmark's
bounds allow between seeds.

Calls go through module attributes (``independence.classical_value``, not a
name imported from it), so the tracer's patched bindings see every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from gamebounds import cli, gameio, gamegraph, games, independence, quantum, sdp

THETA_TOL = sdp.DEFAULT_TOL   # the CLI's --tol default is the same 1e-7
XOR_TOL = 1e-9                # xor_tsirelson_value's default
CHSH_STAR = 0.5 + 1.0 / (2.0 * math.sqrt(2.0))
BATTERY_SEED = 4096           # rng of the criterion-7 battery in the tests
CORPUS_SEED = 14043640        # corpus of the classical and xor workloads


@dataclass
class Item:
    """One unit of closed-loop work: ``run`` is timed, ``check`` is not.

    ``check(output, notes)`` returns a list of problems (empty when the
    output is right) and may add observations to the per-pass ``notes``.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object, dict], list[str]]


# ---------------------------------------------------------------------------
# Relabeling and small references


def relabel_game(g: games.Game, rng: np.random.Generator) -> games.Game:
    """An isomorphic copy of g: questions permuted, answers permuted per
    question.  (x, y, a, b) moves to (px[x], py[y], pa[x][a], pb[y][b])."""
    px, py = rng.permutation(g.nx), rng.permutation(g.ny)
    pa = [rng.permutation(g.na) for _ in range(g.nx)]
    pb = [rng.permutation(g.nb) for _ in range(g.ny)]
    lam = np.empty_like(g.predicate)
    pi = np.empty_like(g.distribution)
    pi[np.ix_(px, py)] = g.distribution
    for x in range(g.nx):
        for y in range(g.ny):
            lam[px[x], py[y]][np.ix_(pa[x], pb[y])] = g.predicate[x, y]
    return games.Game(g.name, g.nx, g.ny, g.na, g.nb, lam, pi)


def relabel_graph(g: gamegraph.Graph,
                  rng: np.random.Generator) -> gamegraph.Graph:
    perm = rng.permutation(g.n)
    return gamegraph.Graph.from_edges(
        g.n, [(int(perm[i]), int(perm[j])) for i, j in g.edges()])


def classical_reference(g: games.Game):
    """Classical value by enumerating Alice's tables, Bob best-responding
    per question.  Exact ``Fraction`` for uniform 0/1 games, else a float.
    Independent of the package's graph and pair-enumeration routes."""
    exact = g.is_boolean() and g.is_uniform()
    table = g.predicate if exact else g.predicate * g.distribution[:, :, None, None]
    rows = np.arange(g.nx)
    best = 0
    for fa in itertools.product(range(g.na), repeat=g.nx):
        per_yb = table[rows, :, list(fa), :].sum(axis=0)   # (ny, nb)
        best = max(best, per_yb.max(axis=1).sum())
    return Fraction(int(round(best)), g.k) if exact else float(best)


def odd_cycle_game(n: int) -> games.Game:
    """Odd-cycle XOR game: x uniform, y in {x, x+1}; answers must agree when
    y = x and differ when y = x+1.  Entangled value cos^2(pi/4n) (Cleve,
    Hoyer, Toner and Watrous, 2004)."""
    f = np.zeros((n, n), dtype=int)
    pi = np.zeros((n, n))
    for x in range(n):
        pi[x, x] = pi[x, (x + 1) % n] = 1.0 / (2 * n)
        f[x, (x + 1) % n] = 1
    return games.xor_game(f, pi, name=f"odd-cycle-{n}")


def odd_cycle_value(n: int) -> float:
    return math.cos(math.pi / (4 * n)) ** 2


def write_and_load(workdir: str, g: games.Game) -> tuple[str, games.Game]:
    """Write g as a game document and parse it back, as a user's file is."""
    path = os.path.join(workdir, f"{g.name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(gameio.serialize_game(g))
    return path, gameio.load_game(path)


# ---------------------------------------------------------------------------
# catalog: `gamebounds analyze ... --json`, the command users run


def _dsl_document(rng: np.random.Generator) -> dict:
    """A three-question XOR game given as a predicate expression.  The seed
    shifts the questions cyclically and flips answers: a relabeling."""
    s, t = (int(v) for v in rng.integers(0, 3, size=2))
    u, v = (int(w) for w in rng.integers(0, 2, size=2))
    expr = (f"(((a + {u}) % 2) xor ((b + {v}) % 2)) == "
            f"(((x + {s}) % 3) * ((y + {t}) % 3) % 2)")
    return {"name": "dsl-xor3", "nx": 3, "ny": 3, "na": 2, "nb": 2,
            "predicate": {"dsl": expr}, "distribution": "uniform"}


def _analyze_item(name: str, argv: list[str],
                  game: Callable[[], games.Game], entangled: float | None,
                  tight: bool, xor_ref: float | None) -> Item:
    """``game`` builds the analyzed game for the classical reference, which
    is computed at the first check: outside set-up, and in an untraced pass.
    ``entangled`` is the known entangled value; when ``tight`` the theta
    bracket (divided by k for uniform games) must contain it, otherwise it
    only has to lie below the upper end."""
    first_text: list[str] = []
    reference: list = []

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["analyze", *argv, "--json"])
        return code, out.getvalue()

    def check(output, notes):
        code, text = output
        if code != 0:
            return [f"exit code {code}"]
        problems = []
        if not first_text:
            first_text.append(text)
        elif text != first_text[0]:
            problems.append("report differs from the first pass")
        if not reference:
            reference.append(classical_reference(game()))
        omega = reference[0]
        report = json.loads(text)
        if not report["weighted_pipeline"]:
            if report["omega_exact"] != f"{omega.numerator}/{omega.denominator}":
                problems.append(f"omega_exact {report['omega_exact']} != {omega}")
        elif abs(report["omega_classical"] - float(omega)) > 1e-10:
            problems.append(f"omega {report['omega_classical']} != {omega}")
        theta = report["theta"]
        if not theta["converged"]:
            problems.append("theta did not converge")
        if report["alpha"]["value"] > theta["dual_bound"] + 10 * THETA_TOL:
            problems.append("alpha exceeds the theta dual bound")
        scale = 1 if report["weighted_pipeline"] else report["k"]
        low, high = theta["value"] / scale, theta["dual_bound"] / scale
        slack = 10 * THETA_TOL
        if entangled is not None:
            if entangled > high + slack or (tight and low > entangled + slack):
                problems.append(f"theta bracket [{low}, {high}] misses "
                                f"the entangled value {entangled}")
            if report["theta_over_k"] < entangled:
                notes["theta_over_k_below_ref"] = (
                    notes.get("theta_over_k_below_ref", 0) + 1)
        if xor_ref is not None and abs(report["xor_value"] - xor_ref) > 1e-6:
            problems.append(f"xor value {report['xor_value']} != {xor_ref}")
        return problems

    return Item(name, run, check)


def catalog(seed: int, workdir: str) -> list[Item]:
    rng = np.random.default_rng(seed)
    odd = relabel_game(odd_cycle_game(9), rng)
    odd_path, odd = write_and_load(workdir, odd)
    dsl_path = os.path.join(workdir, "dsl-xor3.json")
    with open(dsl_path, "w", encoding="utf-8") as fh:
        json.dump(_dsl_document(rng), fh)
    dsl = gameio.load_game(dsl_path)

    def isg(t):
        return lambda: games.independent_set_game(gamegraph.cycle_graph(5), t)

    return [
        _analyze_item("chsh", ["chsh"], games.chsh, CHSH_STAR, True,
                      CHSH_STAR),
        _analyze_item("isg-c5-t2", ["isg-c5-t2"], isg(2), None, False, None),
        _analyze_item("isg-c5-t3", ["isg-c5-t3"], isg(3), None, False, None),
        # theta/k of the magic square is exactly 1: theta <= k because each
        # question pair's answers form a clique, and omega* = 1.
        _analyze_item("magic-square", ["magic-square"], games.magic_square,
                      1.0, True, None),
        # XOR values multiply under parallel repetition; theta is not tight.
        _analyze_item("chsh-rep2", ["chsh", "--rep", "2"],
                      lambda: games.parallel_repetition(games.chsh(), 2),
                      CHSH_STAR ** 2, False, None),
        _analyze_item("magic-square-weighted", ["magic-square", "--weighted"],
                      games.magic_square, 1.0, True, None),
        _analyze_item("odd-cycle-9", [odd_path], lambda: odd,
                      odd_cycle_value(9), True, odd_cycle_value(9)),
        _analyze_item("dsl-xor3", [dsl_path], lambda: dsl, None, False, None),
    ]


# ---------------------------------------------------------------------------
# theta-battery: independence_number + lovasz_theta on the criterion-7 graphs


def _random_uniform_game(rng: np.random.Generator) -> games.Game:
    """Same draws, in the same order, as the tests' random_boolean_game
    with its defaults and uniform questions."""
    nx, ny, na, nb = (int(rng.integers(2, 4)) for _ in range(4))
    lam = (rng.random((nx, ny, na, nb)) < 0.5).astype(float)
    return games.Game("random", nx, ny, na, nb, lam,
                      games.uniform_distribution(nx, ny))


# The tenth random-game graph (n = 32) needs 145k ADMM iterations, 27 s on
# its own: longer than a run.  It is left out; see README.md.
EXCLUDED_RANDOM_GAME = 9


def criterion7_battery() -> list[tuple[str, gamegraph.Graph]]:
    """The graphs of test_criterion_7_sandwich_battery, drawn exactly as the
    test draws them, minus EXCLUDED_RANDOM_GAME.  The CHSH^2 and magic-square
    pairs of that test come from the catalog workload instead."""
    out = [("c5", gamegraph.cycle_graph(5)), ("k4", gamegraph.complete_graph(4)),
           ("e5", gamegraph.empty_graph(5)),
           ("chsh", gamegraph.to_plain_graph(gamegraph.build_game_graph(
               games.chsh()))),
           ("isg-c5-t2", gamegraph.to_plain_graph(gamegraph.build_game_graph(
               games.independent_set_game(gamegraph.cycle_graph(5), 2))))]
    rng = np.random.default_rng(BATTERY_SEED)
    for i in range(20):
        n = int(rng.integers(2, 15))
        edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < rng.uniform(0.2, 0.8)]
        out.append((f"random-graph-{i}", gamegraph.Graph.from_edges(n, edges)))
    for i in range(10):
        graph = gamegraph.to_plain_graph(gamegraph.build_game_graph(
            _random_uniform_game(rng)))
        if graph.n and i != EXCLUDED_RANDOM_GAME:
            out.append((f"random-game-{i}", graph))
    return out


def _dimacs(g: gamegraph.Graph) -> str:
    lines = [f"p edge {g.n} {g.num_edges}"]
    lines += [f"e {i + 1} {j + 1}" for i, j in g.edges()]
    return "\n".join(lines) + "\n"


def _battery_item(name: str, graph: gamegraph.Graph) -> Item:
    def run():
        return (independence.independence_number(graph),
                sdp.lovasz_theta(graph, THETA_TOL))

    def check(output, notes):
        alpha, theta = output
        problems = []
        if not theta.converged:
            problems.append("theta did not converge")
        if alpha.value > theta.dual_bound + 10 * THETA_TOL:
            problems.append(f"alpha {alpha.value} > theta {theta.dual_bound}")
        return problems

    return Item(name, run, check)


def theta_battery(seed: int, workdir: str) -> list[Item]:
    rng = np.random.default_rng(seed)
    items = []
    for name, graph in criterion7_battery():
        path = os.path.join(workdir, f"{name}.dimacs")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_dimacs(relabel_graph(graph, rng)))
        with open(path, encoding="utf-8") as fh:
            items.append(_battery_item(name, gamegraph.parse_dimacs(fh.read())))
    return items


# ---------------------------------------------------------------------------
# classical: graph branch and bound, brute force, certificate verify and lift

# (nx, ny, na, nb, predicate density, uniform questions, count).  One game
# sits at the brute-force cap of 2^24 strategy pairs; the others are sized
# so that neither route takes less than a third of a pass.
CLASSICAL_FAMILIES = [
    (6, 6, 4, 4, 0.3, True, 1),
    (5, 5, 4, 4, 0.4, True, 4),
    (6, 6, 3, 3, 0.5, True, 4),
    (5, 5, 3, 3, 0.5, False, 6),
]


def _classical_corpus() -> list[games.Game]:
    rng = np.random.default_rng(CORPUS_SEED)
    out = []
    for nx, ny, na, nb, density, uniform, count in CLASSICAL_FAMILIES:
        for i in range(count):
            lam = (rng.random((nx, ny, na, nb)) < density).astype(float)
            if uniform:
                pi = games.uniform_distribution(nx, ny)
            else:
                raw = rng.integers(1, 10, size=(nx, ny)).astype(float)
                pi = raw / raw.sum()
            kind = "u" if uniform else "w"
            out.append(games.Game(f"{kind}{nx}{ny}{na}{nb}-{i}", nx, ny, na, nb,
                                  lam, pi))
    return out


def _classical_item(g: games.Game) -> Item:
    def run():
        graph_route = independence.classical_value(g)
        brute = independence.classical_value_brute(g)
        gg = graph_route.graph
        qis = quantum.qis_from_vertex_set(gg, graph_route.alpha.witness)
        verdict = quantum.verify_quantum_independent_set(gg, qis)
        strategy = quantum.lift_qis_to_strategy(g, gg, qis)
        return (graph_route, brute, qis, verdict,
                quantum.winning_probability(g, strategy))

    def check(output, notes):
        graph_route, brute, qis, verdict, lifted = output
        problems = []
        if graph_route.exact is not None:
            if graph_route.exact != brute.exact:
                problems.append(f"graph {graph_route.exact} != brute {brute.exact}")
            floor = qis.t / g.k
        else:
            if abs(graph_route.value - brute.value) > 1e-10:
                problems.append(f"graph {graph_route.value} != brute {brute.value}")
            # with non-uniform questions the lift wins the witness's weight
            floor = graph_route.value
        if abs(games.strategy_value(g, graph_route.strategy)
               - graph_route.value) > 1e-12:
            problems.append("witness strategy does not reach the value")
        if not verdict.valid:
            problems.append("witness certificate fails verification")
        if lifted < floor - 1e-9:
            problems.append(f"lifted strategy wins {lifted} < {floor}")
        return problems

    return Item(g.name, run, check)


def classical(seed: int, workdir: str) -> list[Item]:
    rng = np.random.default_rng(seed)
    items = []
    for g in _classical_corpus():
        _, loaded = write_and_load(workdir, relabel_game(g, rng))
        items.append(_classical_item(loaded))
    return items


# ---------------------------------------------------------------------------
# xor: the correlation SDP on odd cycles and dense random XOR games

ODD_CYCLES = (15, 21, 31)
RANDOM_XOR_SIZES = (12, 16)


def _xor_item(g: games.Game, value: float | None) -> Item:
    """``value`` is the known entangled value; without one the result must
    lie between a classical strategy's value and the spectral bound."""
    def run():
        return sdp.xor_tsirelson_value(g, XOR_TOL)

    def check(output, notes):
        if value is not None:
            if abs(output - value) > 1e-6:
                return [f"value {output} != {value}"]
            return []
        signs = sdp.xor_structure(g)
        weighted = g.distribution * signs
        # Alice answers 0 everywhere and Bob best-responds: a classical value
        lower = 0.5 + 0.5 * float(np.abs(weighted.sum(axis=0)).sum())
        upper = 0.5 + 0.5 * math.sqrt(g.nx * g.ny) * float(
            np.linalg.norm(weighted, 2))
        if not lower - 1e-9 <= output <= upper + 1e-9:
            return [f"value {output} outside [{lower}, {upper}]"]
        return []

    return Item(g.name, run, check)


def xor(seed: int, workdir: str) -> list[Item]:
    rng = np.random.default_rng(seed)
    corpus_rng = np.random.default_rng(CORPUS_SEED)
    items = []
    for n in ODD_CYCLES:
        _, g = write_and_load(workdir, relabel_game(odd_cycle_game(n), rng))
        items.append(_xor_item(g, odd_cycle_value(n)))
    for m in RANDOM_XOR_SIZES:
        base = games.xor_game(corpus_rng.integers(0, 2, size=(m, m)),
                              name=f"random-xor-{m}")
        _, g = write_and_load(workdir, relabel_game(base, rng))
        items.append(_xor_item(g, None))
    return items


WORKLOADS = {
    "catalog": catalog,
    "theta-battery": theta_battery,
    "classical": classical,
    "xor": xor,
}
