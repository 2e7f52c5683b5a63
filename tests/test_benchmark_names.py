"""The benchmark traces package functions by name and calls others through
module attributes; a rename or deletion here would only surface as a failed
benchmark run, so check the names resolve."""

import ast
import importlib
import importlib.util
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{name}"
               for module, functions in tracing.TRACED.items()
               for name in functions
               if not callable(getattr(importlib.import_module(
                   f"gamebounds.{module}"), name, None))]
    assert missing == []


def _names_read(script: pathlib.Path) -> set[tuple[str, str]]:
    """(module, name) for every ``<module>.<name>`` that ``script`` reads from
    a module bound by ``import gamebounds`` or ``from gamebounds import``."""
    tree = ast.parse(script.read_text(encoding="utf-8"))
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "gamebounds":
            modules.update({a.asname or a.name: f"gamebounds.{a.name}"
                            for a in node.names})
        elif isinstance(node, ast.Import):
            modules.update({a.asname or a.name: a.name for a in node.names
                            if a.name == "gamebounds"})
    return {(modules[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in modules}


def test_names_the_benchmark_reads_resolve():
    read = set().union(*(_names_read(PERFBENCH / script)
                         for script in ("corpus.py", "worker.py", "run.py")))
    assert ("gamebounds.gamegraph", "build_game_graph") in read
    missing = [f"{module}.{name}" for module, name in sorted(read)
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
