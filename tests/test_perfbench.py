"""The benchmark tracer's layer table names functions that exist.

`perfbench/tracing.py` wraps each (module, attribute) in `LAYERS` with
`getattr`, so a renamed or deleted library function would break a traced
benchmark run; this test reads that table and imports nothing else from
`perfbench/`.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_layers_resolve_to_callables():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    sites = [(name, module_path, attr)
             for name, pairs in tracing.LAYERS.items() for module_path, attr in pairs]
    assert sites
    for name, module_path, attr in sites:
        owner = importlib.import_module(module_path)
        assert callable(getattr(owner, attr, None)), f"{name}: {module_path}.{attr}"
