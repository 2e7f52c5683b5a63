"""README.md documents the command line; check that what it says still holds."""

import argparse
import ast
import importlib
import pathlib
import pkgutil
import re

import gamebounds
from gamebounds import dsl, sdp
from gamebounds.cli import CATALOG, main, make_parser
from gamebounds.games import chsh, independent_set_game, parallel_repetition
from gamebounds.gamegraph import (build_game_graph, complete_graph,
                                  cycle_graph, empty_graph, pipeline_graph)

from conftest import criterion7_random_graphs

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")
MODULES = {m.name: importlib.import_module(f"gamebounds.{m.name}")
           for m in pkgutil.iter_modules(gamebounds.__path__)}
LIMIT = re.compile(r"\w+_CAP|NODE_BUDGET|MAX_\w+")


def test_every_option_in_the_readme_is_accepted():
    # argparse has no public accessor for subcommands and their options
    commands = next(a for a in make_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    accepted = {option for name in ("analyze", "verify-qis", "lift")
                for option in commands[name]._option_string_actions}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", README))
    assert named, "the README names no option"
    assert sorted(named - accepted) == []


def test_quick_start_transcript_is_the_output(capsys):
    transcript = re.search(r"```sh\n\$ gamebounds analyze chsh\n(.*?)```",
                           README, re.S)
    assert transcript is not None
    assert main(["analyze", "chsh"]) == 0
    assert capsys.readouterr().out == transcript.group(1)


def test_every_limit_constant_is_in_the_readme():
    # constants assigned at the top of each module, not those it imports
    limits = set()
    for name, module in MODULES.items():
        tree = ast.parse(pathlib.Path(module.__file__).read_text("utf-8"))
        limits |= {f"{name}.{target.id}" for node in tree.body
                   if isinstance(node, ast.Assign) for target in node.targets
                   if isinstance(target, ast.Name)
                   and LIMIT.fullmatch(target.id)}
    assert "gamegraph.VERTEX_CAP" in limits
    assert sorted(n for n in limits if f"`{n}`" not in README) == []


def test_every_module_name_in_the_readme_exists():
    named = [(module, attr) for module, attr
             in re.findall(r"`(\w+)\.(\w+)`", README) if module in MODULES]
    assert named, "the README names no module attribute"
    assert [f"{module}.{attr}" for module, attr in named
            if not hasattr(MODULES[module], attr)] == []


def test_readme_precedence_is_the_parser_table():
    line = re.search(r"### Predicate language\n.*?```\n(.*?)\n```", README,
                     re.S)
    assert line is not None
    levels = [tuple(level.split()) for level in re.split(r" {2,}",
                                                         line.group(1))]
    assert levels == [*dsl._LEVELS, ("(unary)", "not", "-")]


def test_readme_step_maximum_is_measured():
    # the catalog games, plain and weighted, and the criterion-7 battery:
    # its fixed graphs, CHSH^2, and its random graphs and game graphs
    stated = re.search(r"at most (\d+) on every input\s+measured", README)
    assert stated is not None
    games = [make() for make in CATALOG.values()]
    games.append(parallel_repetition(chsh(), 2))
    steps = [sdp._game_graph_bound(pipeline_graph(g, weighted),
                                   sdp.DEFAULT_TOL).theta.iterations
             for g in games for weighted in (False, True)]
    graphs = [cycle_graph(5), complete_graph(4), empty_graph(5),
              build_game_graph(chsh()),
              build_game_graph(independent_set_game(cycle_graph(5), 2)),
              *criterion7_random_graphs(20, games=10)]
    steps += [sdp.lovasz_theta(graph).iterations for graph in graphs]
    assert max(steps) <= int(stated.group(1))
