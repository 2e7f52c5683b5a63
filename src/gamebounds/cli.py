"""Command-line front end: analyze games, verify and lift certificates.

Exit codes: 0 success, 1 usage/format errors (argument parsing included),
size caps, unreadable or unwritable files or a closed stdout, 2 solver
non-convergence, 3 invalid quantum independent set.  main() maps every
command's errors to these codes.  Every size limit is a constant of its
module, such as gamegraph.VERTEX_CAP; no option sets one.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

from . import gameio, quantum
from .games import (Game, chsh, independent_set_game, magic_square,
                    parallel_repetition)
from .gamegraph import (GameGraph, build_game_graph, cycle_graph,
                        dimacs_sidecar, parse_dimacs, pipeline_graph,
                        to_dimacs)
from .independence import _classical_value
from .quantum import (InvalidQuantumIndependentSet, QuantumIndependentSet,
                      lift_qis_to_strategy, qis_from_dict, strategy_to_dict,
                      verify_quantum_independent_set, winning_probability)
from .sdp import (DEFAULT_TOL, NotXorGame, _game_graph_bound,
                  xor_tsirelson_value)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CONVERGED = 2
EXIT_INVALID_QIS = 3

CATALOG = {
    "chsh": chsh,
    "magic-square": magic_square,
    "isg-c5-t2": lambda: independent_set_game(cycle_graph(5), 2, name="isg-c5-t2"),
    "isg-c5-t3": lambda: independent_set_game(cycle_graph(5), 3, name="isg-c5-t3"),
}


def _format_float(v: float) -> str:
    return format(float(v), ".17g")


def _to_json(value, indent: int = 0) -> str:
    """JSON text with floats rendered at 17 significant digits and keys in
    insertion order, so identical reports serialize to identical bytes."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [f"{inner}{json.dumps(str(k))}: {_to_json(v, indent + 1)}"
                 for k, v in value.items()]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = [f"{inner}{_to_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, float):
        return _format_float(value)
    return json.dumps(value)


def _load_game(args) -> Game:
    """The game named by args.game (a catalog name or a file), repeated
    args.rep times."""
    if args.game in CATALOG:
        g = CATALOG[args.game]()
    else:
        g = gameio.load_game(args.game)
    return parallel_repetition(g, args.rep) if args.rep > 1 else g


def _load_qis(path: str) -> QuantumIndependentSet:
    """Read a certificate file; a malformed one raises ValueError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return qis_from_dict(json.load(fh))
    except RecursionError:
        raise ValueError("certificate document is nested too deeply") from None


def build_report(g: Game, tol: float, force_weighted: bool,
                 with_timings: bool) -> tuple[dict, GameGraph]:
    """Run the full pipeline game -> graph -> alpha -> theta; returns the
    report and the game graph it was computed on."""
    timings: dict[str, float] = {}

    def stage(name, fn, *args):
        # fn(*args), its wall time recorded under name once it returns
        t0 = time.perf_counter()
        out = fn(*args)
        timings[name] = time.perf_counter() - t0
        return out

    gg = stage("build_graph", pipeline_graph, g, force_weighted)
    classical = stage("alpha", _classical_value, g, gg)
    alpha, omega, exact = classical.alpha, classical.value, classical.exact
    bound = stage("theta", _game_graph_bound, gg, tol)
    theta = bound.theta
    try:
        xor_value = stage("xor_value", xor_tsirelson_value, g)
    except NotXorGame:
        xor_value = None

    report = {
        "name": g.name,
        "sizes": {"nx": g.nx, "ny": g.ny, "na": g.na, "nb": g.nb},
        "k": g.k,
        "weighted_pipeline": exact is None,
        "graph": {"num_vertices": gg.n, "num_edges": gg.num_edges},
        "alpha": {
            "value": float(alpha.value),
            "witness": [{"index": v, "quadruple": list(gg.vertices[v])}
                        for v in sorted(alpha.witness)],
            "nodes_explored": alpha.nodes_explored,
        },
        "omega_classical": float(omega),
        "omega_exact": (None if exact is None
                        else f"{exact.numerator}/{exact.denominator}"),
        "theta": {
            "value": theta.value,
            "dual_bound": theta.dual_bound,
            "gap": theta.gap,
            "iterations": theta.iterations,
            "converged": theta.converged,
        },
        "theta_over_k": float(bound.bound),
        "xor_value": xor_value,
        # the gap is certified by the lower end of the theta bracket, the
        # objective of a feasible primal matrix, so a loose or unconverged
        # dual bound never sets it; a failure shows against the upper end
        "bell_gap_certificate": bool(
            theta.value / gg.objective()[1] > omega + 10.0 * tol),
        "solver_failure": bool(omega > bound.bound + 10.0 * tol),
        "tolerance": tol,
    }
    if with_timings:
        report["timings"] = timings
    return report, gg


def _render_text(report: dict) -> str:
    lines = []
    sizes = report["sizes"]
    lines.append(f"game: {report['name']}")
    lines.append(f"sizes: |X|={sizes['nx']} |Y|={sizes['ny']} "
                 f"|A|={sizes['na']} |B|={sizes['nb']}  k={report['k']}")
    lines.append("pipeline: " + ("weighted" if report["weighted_pipeline"]
                                 else "uniform 0/1"))
    graph = report["graph"]
    lines.append(f"game graph: {graph['num_vertices']} vertices, "
                 f"{graph['num_edges']} edges")
    alpha = report["alpha"]
    lines.append(f"alpha: {_format_float(alpha['value'])} "
                 f"(nodes explored: {alpha['nodes_explored']})")
    witness = " ".join("({},{},{},{})".format(*w["quadruple"])
                       for w in alpha["witness"])
    lines.append(f"alpha witness: {witness}")
    omega_exact = f" (= {report['omega_exact']})" if report["omega_exact"] else ""
    lines.append(f"omega_classical: {_format_float(report['omega_classical'])}"
                 + omega_exact)
    theta = report["theta"]
    lines.append(f"theta: {_format_float(theta['value'])}")
    lines.append(f"theta dual bound: {_format_float(theta['dual_bound'])} "
                 f"(gap {_format_float(theta['gap'])})")
    lines.append(f"theta iterations: {theta['iterations']} "
                 f"converged: {str(theta['converged']).lower()}")
    lines.append(f"entangled value upper bound (theta/k): "
                 f"{_format_float(report['theta_over_k'])}")
    if report["xor_value"] is not None:
        lines.append(f"xor entangled value: {_format_float(report['xor_value'])}")
    lines.append("bell gap certified (theta/k > omega): "
                 + str(report["bell_gap_certificate"]).lower())
    if report["solver_failure"]:
        lines.append("WARNING: solver failure: omega exceeds theta/k")
    if "timings" in report:
        for stage, seconds in report["timings"].items():
            lines.append(f"time {stage}: {seconds:.3f}s")
    return "\n".join(lines) + "\n"


def cmd_analyze(args) -> int:
    report, gg = build_report(_load_game(args), args.tol, args.weighted,
                              args.timings)
    if args.export_graph:
        with open(args.export_graph, "w", encoding="utf-8") as fh:
            fh.write(to_dimacs(gg))
        with open(args.export_graph + ".json", "w", encoding="utf-8") as fh:
            fh.write(_to_json(dimacs_sidecar(gg)) + "\n")
    if args.json:
        print(_to_json(report))
    else:
        print(_render_text(report), end="")
    if not report["theta"]["converged"]:
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_verify_qis(args) -> int:
    qis = _load_qis(args.qis)  # before any graph, so bad input fails at once
    g = _load_game(args)
    if args.graph:
        with open(args.graph, "r", encoding="utf-8") as fh:
            target = parse_dimacs(fh.read())
    else:
        target = build_game_graph(g)
    report = verify_quantum_independent_set(target, qis, args.tol)
    if report.valid:
        print(f"valid quantum independent set: t={qis.t} d={qis.d}")
        return EXIT_OK
    print(f"invalid quantum independent set: {len(report.violations)} violation(s)")
    for violation in report.violations:
        print("  " + violation.describe())
    return EXIT_INVALID_QIS


def cmd_lift(args) -> int:
    qis = _load_qis(args.qis)
    g = _load_game(args)
    gg = build_game_graph(g)
    strategy = lift_qis_to_strategy(g, gg, qis, args.tol)
    value = winning_probability(g, strategy)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(_to_json(strategy_to_dict(strategy)) + "\n")
    print(f"lifted strategy winning probability: {_format_float(value)}")
    if g.is_uniform():  # t/k bounds the value only on uniform questions
        print(f"certified lower bound t/k: {_format_float(qis.t / g.k)}")
    return EXIT_OK


def cmd_catalog(args) -> int:
    if args.action == "list":
        for name in sorted(CATALOG):
            print(name)
        return EXIT_OK
    if args.name not in CATALOG:
        raise ValueError(f"unknown catalog game {args.name!r}")
    print(gameio.serialize_game(CATALOG[args.name]()))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Raises its errors, and its subparsers', as ValueError: argparse
    itself prints its usage and exits 2, this CLI's non-convergence code."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call; parsing keeps it."""
    parser = _Parser(
        prog="gamebounds",
        description="Classical and entangled-value bounds for non-local games "
                    "via their game graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--rep", type=int, default=1, metavar="N",
                       help="analyze the N-fold parallel repetition")
        p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="tolerance (default %(default)g)")

    p = sub.add_parser("analyze", help="run the bound pipeline on a game")
    p.add_argument("game", help="catalog name or path to a game JSON file")
    add_common(p)
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--weighted", action="store_true",
                   help="force the weighted pipeline")
    p.add_argument("--export-graph", metavar="PATH",
                   help="write the game graph as DIMACS plus a JSON sidecar")
    p.add_argument("--timings", action="store_true",
                   help="include per-stage timings in the report")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify-qis",
                       help="verify a quantum independent set file")
    p.add_argument("game", help="catalog name or path to a game JSON file")
    p.add_argument("qis", help="path to a certificate JSON file")
    add_common(p)
    p.add_argument("--graph", metavar="PATH",
                   help="verify against this DIMACS graph instead of "
                        "rebuilding the game graph")
    p.set_defaults(func=cmd_verify_qis, tol=quantum.MEASUREMENT_TOL)

    p = sub.add_parser("lift",
                       help="lift a quantum independent set to a strategy")
    p.add_argument("game", help="catalog name or path to a game JSON file")
    p.add_argument("qis", help="path to a certificate JSON file")
    add_common(p)
    p.add_argument("--out", metavar="PATH",
                   help="write the lifted strategy JSON here")
    p.set_defaults(func=cmd_lift, tol=quantum.MEASUREMENT_TOL)

    p = sub.add_parser("catalog", help="list or emit built-in games")
    p.add_argument("action", choices=["list", "emit"])
    p.add_argument("name", nargs="?", help="game name (for emit)")
    p.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    try:
        # argparse's errors and these range checks end as one error: line
        args = make_parser().parse_args(argv)
        if getattr(args, "rep", 1) < 1:
            raise ValueError("--rep must be at least 1")
        tol = getattr(args, "tol", 1.0)
        if not tol > 0.0:
            raise ValueError("--tol must be positive")
        if not math.isfinite(tol):
            raise ValueError("--tol must be finite")
        if (args.command == "catalog" and args.action == "emit"
                and not args.name):
            raise ValueError("catalog emit requires a game name")
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:  # stdout closed early, as by `| head`
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except InvalidQuantumIndependentSet as exc:
        print(f"invalid quantum independent set: {exc}", file=sys.stderr)
        return EXIT_INVALID_QIS
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
