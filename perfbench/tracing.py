"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` replaces every binding of each traced function in every
loaded ``gamebounds`` module (``cli`` binds ``build_game_graph`` at import,
``independence`` has its own ``build_game_graph``, and ``cli.build_report``
imports ``lovasz_theta`` lazily from ``sdp``), so nested calls are seen
wherever they are made.  ``uninstall`` restores the originals, so untraced
passes run the unmodified program.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import json
import sys
import time


def _theta_counts(args, kwargs, result):
    graph = args[0]
    return {"iterations": result.iterations, "n": graph.n,
            "m": graph.num_edges, "gap": result.gap,
            "converged": result.converged}


def _graph_counts(args, kwargs, result):
    return {"vertices": result.n, "edges": result.num_edges}


def _nodes(args, kwargs, result):
    return {"nodes": result.nodes_explored}


def _brute_pairs(args, kwargs, result):
    g = args[0]
    return {"pairs": g.na ** g.nx * g.nb ** g.ny}


# module -> {function: (layer, counts read off the call)}.  Layers are the
# per-layer metrics; self time of every function in a layer adds up to it.
TRACED = {
    "cli": {"main": ("cli", None)},
    "gameio": {"load_game": ("gameio.load", None),
               "parse_game": ("gameio.load", None)},
    "games": {"parallel_repetition": ("games.repetition", None)},
    "gamegraph": {"build_game_graph": ("gamegraph.build", _graph_counts),
                  "build_weighted_game_graph": ("gamegraph.build",
                                                _graph_counts),
                  "to_plain_graph": ("gamegraph.to_plain", None),
                  "parse_dimacs": ("gamegraph.parse", None)},
    "independence": {"independence_number": ("independence.alpha", _nodes),
                     "weighted_independence": ("independence.alpha", _nodes),
                     "classical_value": ("independence.alpha", None),
                     "classical_value_brute": ("independence.brute",
                                               _brute_pairs)},
    "sdp": {"lovasz_theta": ("sdp.theta", _theta_counts),
            "weighted_theta": ("sdp.theta", _theta_counts),
            "xor_tsirelson_value": ("sdp.xor", None)},
    "quantum": {"qis_from_vertex_set": ("quantum.embed", None),
                "verify_quantum_independent_set": ("quantum.verify", None),
                "lift_qis_to_strategy": ("quantum.lift", None),
                "winning_probability": ("quantum.winprob", None)},
}

# Counts that must repeat exactly whenever the same inputs are solved again.
EXACT_COUNTS = ("nodes", "pairs", "iterations", "n", "m", "vertices", "edges")


class Span:
    __slots__ = ("index", "name", "layer", "start", "end", "parent", "item",
                 "counts", "child_time")

    def __init__(self, index, name, layer, parent, item):
        self.index, self.name, self.layer = index, name, layer
        self.start = self.end = 0.0
        self.parent, self.item = parent, item
        self.counts = None
        self.child_time = 0.0

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child_time


class Tracer:
    """Records spans; ``item`` labels the spans of the item being run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.item = "setup"
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, layer, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), name, layer,
                        parent.index if parent is not None else -1, self.item)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_time += span.end - span.start
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        loaded = [m for name, m in sorted(sys.modules.items())
                  if name == "gamebounds" or name.startswith("gamebounds.")]
        for module_name, functions in TRACED.items():
            home = sys.modules[f"gamebounds.{module_name}"]
            for fn_name, (layer, counts) in functions.items():
                original = getattr(home, fn_name)
                wrapped = self._wrap(f"{module_name}.{fn_name}", layer,
                                     original, counts)
                for module in loaded:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)
                            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def dump(self, path: str, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(meta) + "\n")
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "item": s.item,
                    "self": s.self_time, "counts": s.counts}) + "\n")


def _time_metric(layer: str) -> str:
    return "cli.self_s" if layer == "cli" else layer + "_s"


def layer_totals(spans) -> dict[str, float]:
    """Per-layer metrics of one group of spans (one pass, or the set-up)."""
    out = {_time_metric(layer): 0.0 for functions in TRACED.values()
           for layer, _ in functions.values()}
    for s in spans:
        out[_time_metric(s.layer)] += s.self_time
    theta = [s.counts for s in spans if s.layer == "sdp.theta" and s.counts]
    iterations = sum(c["iterations"] for c in theta)

    def total(key):
        return sum(s.counts[key] for s in spans if s.counts and key in s.counts)

    out.update({
        "sdp.theta_solves": len(theta),
        "sdp.theta_iterations": iterations,
        "sdp.theta_iter_us": (1e6 * out["sdp.theta_s"] / iterations
                              if iterations else 0.0),
        "sdp.theta_n": max((c["n"] for c in theta), default=0),
        "sdp.theta_m": max((c["m"] for c in theta), default=0),
        "sdp.theta_gap_max": max((c["gap"] for c in theta), default=0.0),
        "sdp.theta_converged_ratio": (
            sum(c["converged"] for c in theta) / len(theta) if theta else 0.0),
        "independence.nodes": total("nodes"),
        "independence.brute_pairs": total("pairs"),
        "gamegraph.vertices": total("vertices"),
        "gamegraph.edges": total("edges"),
    })
    return out


def exact_counts(spans) -> list:
    """The counts of one pass that must repeat exactly on every pass."""
    return [(s.item.split("/", 1)[1], s.name,
             tuple((k, s.counts[k]) for k in EXACT_COUNTS if k in s.counts))
            for s in spans if s.counts]
