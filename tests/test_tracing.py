"""The benchmark's span tracer wraps package attributes by name; a rename or
deletion in the package would otherwise surface only in a traced run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_exists_and_is_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    for module, name, _ in tracing.WRAPPED:
        attr = getattr(importlib.import_module(module), name, None)
        assert callable(attr), f"{module}.{name}"
