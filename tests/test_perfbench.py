"""The benchmark still runs against the library.

`perfbench/tracing.py` wraps each (module, attribute) in `LAYERS` with
`getattr`, so a renamed or deleted library function would break a traced
benchmark run; the first test reads that table and imports nothing else
from `perfbench/`.  The benchmark also calls library functions directly
(`tables.alpha_hints(space, k)`, `tables.automorphism_generators(space)`),
so the second runs `perfbench/selftest.py` as a script.  The tracer
counts patterns by wrapping `lp_kernel.minimize_over_binaries` on its
module, which `spectral_bounds` must look up at call time; the third
checks that the wrapper sees the inertia search's patterns.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

from eigenbounds import lp_kernel
from eigenbounds import spectral_bounds as sb
from eigenbounds.spectra import phase_rotation_spectrum

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_layers_resolve_to_callables():
    tracing = _load_tracing()
    sites = [(name, module_path, attr)
             for name, pairs in tracing.LAYERS.items() for module_path, attr in pairs]
    assert sites
    for name, module_path, attr in sites:
        owner = importlib.import_module(module_path)
        assert callable(getattr(owner, attr, None)), f"{name}: {module_path}.{attr}"


def test_perfbench_selftest_passes():
    """Two traced runs of a table and sweep subset, from the repository root."""
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=TRACING.parents[1],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_tracer_counts_inertia_patterns():
    """A name bound at import would bypass the wrapper: the search would run
    untraced and the pattern count would read 0."""
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        report = sb.inertia_milp_walkreg(phase_rotation_spectrum(3, 3), 2)
    finally:
        tracer.uninstall()
    assert report.raw_value == 7
    assert tracer.counts["lp_kernel.minimize_over_binaries.calls"] == 1
    assert tracer.counts["lp_kernel.patterns"] == 4
