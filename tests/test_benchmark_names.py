"""The benchmark traces package functions by name and calls others through
module attributes; a rename, a deletion or a reordered signature here would
only surface as a failed benchmark run, so check the names resolve and the
calls bind."""

import ast
import importlib
import importlib.util
import inspect
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


def _modules(tree: ast.AST) -> dict[str, str]:
    """Local name -> module for every module that ``tree`` binds by
    ``import gamebounds`` or ``from gamebounds import``."""
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "gamebounds":
            modules.update({a.asname or a.name: f"gamebounds.{a.name}"
                            for a in node.names})
        elif isinstance(node, ast.Import):
            modules.update({a.asname or a.name: a.name for a in node.names
                            if a.name == "gamebounds"})
    return modules


def _names_read(script: pathlib.Path) -> set[tuple[str, str]]:
    """(module, name) for every ``<module>.<name>`` that ``script`` reads from
    a module bound by ``import gamebounds`` or ``from gamebounds import``."""
    tree = ast.parse(script.read_text(encoding="utf-8"))
    modules = _modules(tree)
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


def _package_calls(script: pathlib.Path):
    """(text, callee, positional count, keyword names) for every call in
    ``script`` of a dotted name rooted at a gamebounds module, such as
    ``sdp.lovasz_theta`` or ``gamegraph.Graph.from_edges``; calls that pass
    ``*args`` or ``**kwargs`` are left out, as their shape is not written."""
    tree = ast.parse(script.read_text(encoding="utf-8"))
    modules = _modules(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        path, root = [], node.func
        while isinstance(root, ast.Attribute):
            path.insert(0, root.attr)
            root = root.value
        if (not path or not isinstance(root, ast.Name)
                or root.id not in modules
                or any(isinstance(a, ast.Starred) for a in node.args)
                or any(k.arg is None for k in node.keywords)):
            continue
        callee = importlib.import_module(modules[root.id])
        for name in path:
            callee = getattr(callee, name)
        yield (f"{script.name}:{node.lineno} {ast.unparse(node.func)}",
               callee, len(node.args), [k.arg for k in node.keywords])


def test_calls_the_benchmark_makes_bind():
    # a call fails at run time if its callee drops a parameter it fills,
    # renames a keyword it passes or gains a required parameter; a
    # parameter with a default inserted before a positional argument still
    # binds, so that takes a look at the calls themselves
    calls, unbound = 0, []
    for script in ("corpus.py", "worker.py", "run.py"):
        for text, callee, positional, keywords in _package_calls(
                PERFBENCH / script):
            calls += 1
            try:
                inspect.signature(callee).bind(
                    *[None] * positional, **dict.fromkeys(keywords))
            except TypeError as exc:
                unbound.append(f"{text}: {exc}")
    assert calls >= 40 and unbound == []
