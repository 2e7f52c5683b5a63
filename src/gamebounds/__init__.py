"""Bounds on classical and entangled values of two-player non-local games.

The pipeline: a game is compiled into its game graph; the exact classical
value comes from the (weighted) maximum independent set; an upper bound on
the entangled value comes from the Lovász theta number of the same graph;
and quantum independent sets certify lower bounds via lifted strategies.
"""

from .games import (Game, ClassicalStrategy, GameFormatError, SizeCapError,
                    chsh, magic_square, xor_game, all_ones,
                    parallel_repetition, independent_set_game,
                    strategy_value)
from .gameio import parse_game, serialize_game, load_game
from .gamegraph import (Graph, GameGraph, build_game_graph,
                        build_weighted_game_graph, to_plain_graph,
                        cycle_graph, complete_graph, empty_graph)
from .independence import (IndependenceResult, ClassicalValueResult,
                           BruteForceResult, independence_number,
                           weighted_independence, classical_value,
                           classical_value_brute)
from .sdp import (ThetaResult, lovasz_theta, weighted_theta,
                  quantum_upper_bound, xor_tsirelson_value, NotXorGame)
from .quantum import (QuantumStrategy, QuantumIndependentSet,
                      winning_probability, supp,
                      verify_quantum_independent_set, lift_qis_to_strategy,
                      strategy_to_qis, qis_from_vertex_set,
                      InvalidQuantumIndependentSet, NotPseudoTelepathy,
                      NonCommutingStrategy)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
