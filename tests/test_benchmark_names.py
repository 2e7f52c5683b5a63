"""The benchmark traces package functions by name; a rename or deletion here
would only surface as a failed traced run, so check the names resolve."""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
