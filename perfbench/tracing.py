"""Spans and counts recorded from outside the library.

Each layer is measured by replacing a public function with a wrapper in
the namespace where its caller looks it up (module globals, or names a
module imported with ``from x import y``).  Nothing under ``src/`` is
changed; `Tracer.uninstall` puts every original back.

A span is (name, start, end, parent span index, row id).  Spans stay in
memory and are written when the run ends.  A layer's busy time is the
total length of its outermost spans; its self time subtracts the part
covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict

# layer name -> the (module, attribute) pairs where callers look it up
LAYERS = {
    # build_distance_graph calls the name it imported from metrics
    "metrics.enumerate_ambient": [("eigenbounds.graphs", "enumerate_ambient")],
    "graphs.build_distance_graph": [("eigenbounds.graphs", "build_distance_graph")],
    "graphs.power_graph": [("eigenbounds.graphs", "power_graph")],
    "graphs.max_independent_set": [("eigenbounds.graphs", "max_independent_set")],
    "tables.spectrum_for": [("eigenbounds.tables", "spectrum_for")],
    "tables.automorphism_generators": [("eigenbounds.tables", "automorphism_generators")],
    "tables.alpha_hints": [("eigenbounds.tables", "alpha_hints")],
    "spectral_bounds.inertia_milp": [("eigenbounds.spectral_bounds", "inertia_milp")],
    "spectral_bounds.inertia_milp_walkreg": [
        ("eigenbounds.spectral_bounds", "inertia_milp_walkreg")],
    "spectral_bounds.minor_polynomial_lp": [
        ("eigenbounds.spectral_bounds", "minor_polynomial_lp")],
    # the best-first search (_best_first_milp) imports it at call time
    "lp_kernel.minimize_over_binaries": [("eigenbounds.lp_kernel", "minimize_over_binaries")],
    # spectral_bounds imported both exact simplex entry points by name
    "lp_kernel.solve_lp": [("eigenbounds.spectral_bounds", "solve_lp"),
                           ("eigenbounds.spectral_bounds", "solve_feasibility")],
    # the float screen imports linprog at call time
    "highs.linprog": [("scipy.optimize", "linprog")],
    "classical_bounds": [("eigenbounds.classical_bounds", name) for name in (
        "plotkin_city_block", "hamming_city_block", "singleton_projective",
        "singleton_phase_rotation", "singleton_block", "singleton_cyclic_burst",
        "varshamov_bound")],
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._row = ""
        self._patched: list[tuple[object, str, object]] = []
        self._pattern_reached: set[str] = set()

    # -- recording ------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self._row))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        name, start, _, parent, row = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent, row)
        self._stack.pop()

    @contextlib.contextmanager
    def row(self, name: str, row_id: str):
        """Root span of one workload row; spans opened inside carry its id."""
        self._row = row_id
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)
            self._row = ""

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name + ".calls"] += 1
            tracer._pattern_reached.add(name)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if name == "graphs.max_independent_set" and result.exact:
                tracer.counts["graphs.max_independent_set.exact"] += 1
            return result

        return wrapper

    def _counted_oracle(self, oracle):
        """Count each pattern by the furthest stage it reached."""
        tracer = self

        def counted(b):
            tracer.counts["lp_kernel.patterns"] += 1
            tracer._pattern_reached = set()
            feasible = oracle(b)
            if "lp_kernel.solve_lp" in tracer._pattern_reached:
                tracer.counts["inertia.exact_checked"] += 1
            elif "highs.linprog" in tracer._pattern_reached:
                tracer.counts["inertia.float_rejected"] += 1
            else:
                tracer.counts["inertia.core_pruned"] += 1
            return feasible

        return counted

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        for name, sites in LAYERS.items():
            for module_path, attr in sites:
                owner = importlib.import_module(module_path)
                original = getattr(owner, attr)
                wrapped = self._wrap(name, original)
                if name == "lp_kernel.minimize_over_binaries":
                    wrapped = self._with_counted_oracle(wrapped)
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapped)

    def _with_counted_oracle(self, minimize):
        tracer = self

        @functools.wraps(minimize)
        def wrapper(weights, oracle, *args, **kwargs):
            return minimize(weights, tracer._counted_oracle(oracle), *args, **kwargs)

        return wrapper

    def original(self, owner, attr: str):
        """The unwrapped function behind `owner.attr` (itself if not wrapped)."""
        for patched_owner, patched_attr, original in self._patched:
            if patched_owner is owner and patched_attr == attr:
                return original
        return getattr(owner, attr)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- summaries ------------------------------------------------------

    def _has_ancestor(self, idx: int, name: str) -> bool:
        p = self.spans[idx][3]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False

    def layer_times(self, inside: str = "") -> tuple[dict, dict]:
        """(busy, self) seconds per span name.

        Busy time counts only spans with no ancestor of the same name, so a
        layer that re-enters itself is not counted twice.  With `inside`,
        only spans nested in a span of that name are counted.
        """
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        busy: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            if inside and not self._has_ancestor(idx, inside):
                continue
            self_s[name] += (end - start) - child_s[idx]
            if not self._has_ancestor(idx, name):
                busy[name] += end - start
        return dict(busy), dict(self_s)

    def dump(self) -> dict:
        return {"span_fields": ["name", "start_s", "end_s", "parent", "row"],
                "spans": [list(s) for s in self.spans], "counts": dict(self.counts)}
