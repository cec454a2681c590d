"""Row computation for the reference tables and the CLI.

This layer wires the pipeline together for a given metric instance:
build the space, its distance graph, the best available spectrum route,
then evaluate the requested bounds and the exact k-independence oracle.
Every per-metric fact lives in one `MetricKind` record of `KINDS`.
It also loads the bundled reference tables and re-verifies every
computable cell (Lovasz-theta and Borden-Plotkin columns are carried as
reference data only; nothing here computes them).
"""

from __future__ import annotations

import csv
import importlib.resources
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

from . import classical_bounds as cb
from . import graphs as gr
from . import metrics as mt
from . import spectral_bounds as sb
from .algebra import FieldVector, make_field
from .errors import EigenboundsError, FixtureNotFound, NotApplicable
from .spectra import Spectrum, cayley_spectrum_abelian, city_block_spectrum, \
    phase_rotation_spectrum, spectrum_of_graph

PRIME_POWER_FIELDS = {4: (2, 2), 8: (2, 3), 9: (3, 2), 16: (2, 4), 25: (5, 2),
                      27: (3, 3), 32: (2, 5)}


def field_for(q: int):
    p, k = PRIME_POWER_FIELDS.get(q, (q, 1))
    return make_field(p, k)


def parse_partition(text: str) -> tuple[tuple[int, ...], ...]:
    """Parse "1,2|3,4|5,6" into a partition tuple."""
    try:
        return tuple(tuple(int(x) for x in blk.split(",")) for blk in text.split("|"))
    except ValueError:
        raise EigenboundsError(f"--partition {text!r} is not of the form 1,2|3,4") from None


def format_partition(partition) -> str:
    return "|".join(",".join(str(x) for x in blk) for blk in partition)


# ----------------------------------------------------------------------
# Lower-bound hints for the exact oracle (verified before use)
# ----------------------------------------------------------------------

def _functional_kernels(space) -> list[list[int]]:
    """Kernels of <lam, .> for lam = (1..1) and (1..1,c): independent sets of
    the phase-rotation graph whenever lam has no zero entry and nonzero sum."""
    f, n = space.field, space.n
    labels = space.elements()
    lams = [(1,) * n] + [(1,) * (n - 1) + (c,) for c in f.nonzero() if c != 1]
    kernels = []
    for lam in lams:
        total = 0
        for l in lam:
            total = f.add(total, l)
        if total == 0:
            continue
        kernel = []
        for i, x in enumerate(labels):
            acc = 0
            for l, c in zip(lam, x.coords):
                acc = f.add(acc, f.mul(l, c))
            if acc == 0:
                kernel.append(i)
        kernels.append(kernel)
    return kernels


def _block_hints(space: mt.BlockSpace, k: int) -> list[list[int]]:
    params = space.params
    sizes = [len(b) for b in params.partition]
    f = params.field
    labels = space.elements()
    hints = []
    if k == 1:
        # pin the largest block to the padded sum of the others
        s0 = sizes[0]
        positions = [tuple(p - 1 for p in blk) for blk in params.partition]
        hint = []
        for i, x in enumerate(labels):
            acc = [0] * s0
            for blk in positions[1:]:
                for slot, p in enumerate(blk):
                    acc[slot] = f.add(acc[slot], x.coords[p])
            if all(x.coords[p] == acc[slot] for slot, p in enumerate(positions[0])):
                hint.append(i)
        hints.append(hint)
    if k == params.m - 1 and len(set(sizes)) == 1:
        positions = [tuple(p - 1 for p in blk) for blk in params.partition]
        hint = []
        for i, x in enumerate(labels):
            contents = {tuple(x.coords[p] for p in blk) for blk in positions}
            if len(contents) == 1:
                hint.append(i)
        hints.append(hint)
    return hints


LINEAR_CODE_CANDIDATES = 4096  # generator matrices one linear-code search may try


def linear_code_hint(space, k: int, target: int) -> list[int]:
    """Vertex indices of a linear code over GF(q) whose nonzero words all have
    metric `weight` > k, so that it is independent in the k-th power graph.

    Tries systematic generator matrices [I_r | A], A in lexicographic order,
    for r from floor(log_q target) down to 1, and returns the first code
    found.  Returns [] once LINEAR_CODE_CANDIDATES matrices have failed.
    """
    f, n = space.field, space.n
    q, add, mul = f.q, f.add_table, f.mul_table
    weights: dict[tuple[int, ...], int] = {}

    def heavy(word: tuple[int, ...]) -> bool:
        if word not in weights:
            weights[word] = space.weight(FieldVector(f, word))
        return weights[word] > k

    def index(word: tuple[int, ...]) -> int:  # position in the lexicographic enumeration
        i = 0
        for c in word:
            i = i * q + c
        return i

    top = 0
    while top < n and q ** (top + 1) <= target:
        top += 1
    tried = 0
    for r in range(top, 0, -1):
        coefficients = [c for c in itertools.product(range(q), repeat=r) if any(c)]
        for entries in itertools.product(range(q), repeat=r * (n - r)):
            if tried == LINEAR_CODE_CANDIDATES:
                return []
            tried += 1
            rows = [entries[i * (n - r):(i + 1) * (n - r)] for i in range(r)]
            words = []
            for c in coefficients:
                tail = [0] * (n - r)
                for ci, row in zip(c, rows):
                    for j, a in enumerate(row):
                        tail[j] = add[tail[j]][mul[ci][a]]
                word = c + tuple(tail)
                if not heavy(word):
                    break
                words.append(word)
            else:
                return sorted([0] + [index(w) for w in words])
    return []


def _transpose(*pairs):
    """The coordinate map exchanging each pair of 0-indexed positions."""
    def fn(c):
        c = list(c)
        for a, b in pairs:
            c[a], c[b] = c[b], c[a]
        return tuple(c)
    return fn


def _adjacent_swaps(space) -> list:
    return [_transpose((i, i + 1)) for i in range(space.n - 1)]


def _block_maps(space) -> list:
    partition = space.params.partition
    maps = [_transpose((blk[0] - 1, blk[1] - 1)) for blk in partition if len(blk) >= 2]
    return maps + [_transpose(*zip((p - 1 for p in b1), (p - 1 for p in b2)))
                   for b1, b2 in zip(partition, partition[1:]) if len(b1) == len(b2)]


# ----------------------------------------------------------------------
# The metric registry
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MetricKind:
    """Everything the pipeline knows about one metric."""

    build: Callable  # (lookup of a flat CLI parameter) -> space
    spectrum: Callable  # (space, graph or None) -> its best spectrum route
    # a walk-regular graph: the inertia search needs only the spectrum, and
    # the ratio bound applies
    walk_regular: bool
    # bound name -> (space, d) -> value; None or NotApplicable where it does not apply
    classical: dict[str, Callable]
    params: Callable  # space -> the `params` dict of a row
    coordinate_maps: Callable = lambda space: []  # space -> isometries of coordinate tuples
    hints: Callable = lambda space, k: []  # (space, k) -> candidate sets for the alpha oracle
    # a translation-invariant weight metric on GF(q)^n: translations and
    # scalings are automorphisms, and linear codes are candidate sets
    field_metric: bool = True


def _build_projective(p) -> mt.MetricSpace:
    field = field_for(int(p("q")))
    try:
        vecs = tuple(FieldVector(field, tuple(int(x) for x in chunk.split(",")))
                     for chunk in p("subspaces").split(";"))
    except ValueError:
        raise EigenboundsError(f"--subspaces {p('subspaces')!r} is not of the form "
                               "1,0;0,1;1,1") from None
    return mt.ProjectiveSpace(mt.ProjectiveParams(field, len(vecs[0]), vecs))


def _build_block(p) -> mt.MetricSpace:
    partition = parse_partition(p("partition"))
    n = sum(len(b) for b in partition)
    return mt.BlockSpace(mt.BlockParams(field_for(int(p("q"))), n, partition))


def _cayley_spectrum(space, graph) -> Spectrum:
    return cayley_spectrum_abelian(space.field.q, space.n, list(space.unit_sphere()))


def _graph_spectrum(space, graph) -> Spectrum:
    return spectrum_of_graph(graph if graph is not None else gr.build_distance_graph(space))


def _floor(x):
    return None if x is None else math.floor(x)


KINDS: dict[str, MetricKind] = {
    "city-block": MetricKind(
        build=lambda p: mt.CityBlockSpace(int(p("m")), int(p("n"))),
        spectrum=lambda s, g: city_block_spectrum(s.m, s.n),
        walk_regular=False,
        classical={"plotkin": lambda s, d: _floor(cb.plotkin_city_block(s.m, s.n, d)),
                   "hamming": lambda s, d: cb.hamming_city_block(s.m, s.n, d)},
        params=lambda s: {"m": s.m, "n": s.n},
        coordinate_maps=lambda s: _adjacent_swaps(s) + [  # then reflections
            lambda x, i=i: x[:i] + (s.m - 1 - x[i],) + x[i + 1:] for i in range(s.n)],
        hints=lambda s, k: [[i for i, x in enumerate(s.elements())
                             if sum(x) % 2 == 0]] if k == 1 else [],
        field_metric=False),
    "projective": MetricKind(
        build=_build_projective,
        spectrum=_cayley_spectrum,
        walk_regular=True,
        classical={"singleton": lambda s, d: cb.singleton_projective(s.params, d)},
        params=lambda s: {"n": s.n, "q": s.field.q, "subspaces": ";".join(
            ",".join(str(c) for c in v.coords) for v in s.params.spanning_vectors)}),
    "phase-rotation": MetricKind(
        build=lambda p: mt.PhaseRotationSpace(field_for(int(p("q"))), int(p("n"))),
        spectrum=lambda s, g: phase_rotation_spectrum(s.field.q, s.n),
        walk_regular=True,
        classical={"singleton": lambda s, d: cb.singleton_phase_rotation(
            s.field.q, s.n, d)},
        params=lambda s: {"n": s.n, "q": s.field.q},
        coordinate_maps=_adjacent_swaps,
        hints=lambda s, k: _functional_kernels(s) if k == 1 else []),
    "block": MetricKind(
        build=_build_block,
        spectrum=_cayley_spectrum,
        walk_regular=True,
        classical={"singleton": lambda s, d: cb.singleton_block(s.params, d)},
        params=lambda s: {"n": s.n, "partition": format_partition(s.params.partition),
                          "q": s.field.q},
        coordinate_maps=_block_maps,
        hints=_block_hints),
    "cyclic-burst": MetricKind(
        build=lambda p: mt.CyclicBurstSpace(mt.CyclicBurstParams(
            field_for(int(p("q"))), int(p("n")), int(p("b")))),
        spectrum=_cayley_spectrum,
        walk_regular=True,
        classical={"singleton": lambda s, d: cb.singleton_cyclic_burst(
            s.n, s.field.q, s.params.b, d)},
        params=lambda s: {"n": s.n, "b": s.params.b, "q": s.field.q},
        coordinate_maps=lambda s: [lambda c: c[1:] + c[:1], lambda c: tuple(reversed(c))]),
    "varshamov": MetricKind(
        build=lambda p: mt.VarshamovSpace(int(p("n"))),
        spectrum=_graph_spectrum,
        walk_regular=False,
        classical={"varshamov": lambda s, d: math.floor(cb.varshamov_bound(s.n, d))},
        params=lambda s: {"n": s.n},
        coordinate_maps=_adjacent_swaps,
        field_metric=False),
}
METRIC_NAMES = tuple(KINDS)


def make_space(metric: str, **params) -> mt.MetricSpace:
    """Build a metric space from flat CLI-style parameters."""
    metric = metric.replace("_", "-")
    if metric not in KINDS:
        raise EigenboundsError(f"unknown metric {metric!r}; choose from {METRIC_NAMES}")

    def arg(key: str):
        if params.get(key) is None:
            raise EigenboundsError(f"{metric} needs --{key}")
        return params[key]
    return KINDS[metric].build(arg)


def kind_of(space: mt.MetricSpace) -> MetricKind:
    """The registry record of the space's metric."""
    return KINDS[space.name.replace("_", "-")]


def spectrum_for(space: mt.MetricSpace, graph: Optional[gr.Graph] = None) -> Spectrum:
    """Best spectrum route: closed form > character sums > eigensolver."""
    return kind_of(space).spectrum(space, graph)


def alpha_hints(space: mt.MetricSpace, k: int,
                target: Optional[int] = None) -> list[list[int]]:
    """Candidate code constructions used only as initial incumbents.

    With a `target` (a proven bound on alpha_k), a field metric whose
    constructions all fall short of it also gets a linear code.  Each hint
    is validated by direct adjacency check inside the solver; they never
    replace the branch-and-bound optimality proof.
    """
    kind = kind_of(space)
    hints = kind.hints(space, k)
    if target is not None and kind.field_metric and max(map(len, hints), default=0) < target:
        code = linear_code_hint(space, k, target)
        if code:
            hints = hints + [code]
    return hints


def automorphism_generators(space: mt.MetricSpace) -> list[list[int]]:
    """Vertex permutations that are metric symmetries by construction:
    translations and scalar maps for the field metrics, then the metric's
    coordinate isometries.

    The oracle re-validates every permutation against the adjacency matrix
    and silently drops anything that fails, so this list only needs to be
    honest, not proven.
    """
    labels = space.elements()
    index = {x: i for i, x in enumerate(labels)}
    kind = kind_of(space)
    maps = kind.coordinate_maps(space)
    if kind.field_metric:
        maps = ([lambda x, s=s: x + s for s in space.unit_sphere()]
                + [lambda x, c=c: x.scale(c) for c in space.field.nonzero() if c != 1]
                + [lambda x, fn=fn: FieldVector(x.field, fn(x.coords)) for fn in maps])
    return [[index[fn(x)] for x in labels] for fn in maps]


# ----------------------------------------------------------------------
# Bound dispatch
# ----------------------------------------------------------------------

@dataclass
class RowResult:
    """One computed table row: metric instance + k, bound name -> display value."""

    metric: str
    params: dict
    k: int
    values: dict
    oracle: Optional[gr.IndependentSetResult] = None  # the alpha_k search, if it ran
    certified_by: Optional[str] = None  # the bound whose value the search stopped at

    def cell(self, name: str) -> str:
        return self.values.get(name, "-")


def available_bounds(space: mt.MetricSpace) -> list[str]:
    kind = kind_of(space)
    return ["inertia"] + ["ratio"] * kind.walk_regular + list(kind.classical)


def inertia_bound(space: mt.MetricSpace, graph: Optional[gr.Graph], spectrum: Spectrum,
                  k: int, **kw) -> sb.BoundReport:
    """The inertia search the metric supports: walk-regular graphs need only
    the spectrum (graph may be None), the others a per-vertex search."""
    if kind_of(space).walk_regular:
        return sb.inertia_milp_walkreg(spectrum, k, **kw)
    return sb.inertia_milp(graph, spectrum, k, **kw)


def compute_row(space: mt.MetricSpace, k: int, bounds: list[str],
                max_nodes: int = gr.MAX_NODES,
                with_alpha: bool = True) -> RowResult:
    """Evaluate the requested bounds (plus alpha_k) for one instance.

    The smallest proven bound among them (a classical bound, or inertia or
    ratio on an exact spectrum) is passed to the oracle as `upper_bound`,
    and seeds the linear-code hint.
    """
    kind = kind_of(space)
    allowed = available_bounds(space)
    for name in bounds:
        if name not in allowed:
            raise EigenboundsError(f"{space.name.replace('_', '-')} has no bound {name!r}; "
                                   f"choose from {','.join(allowed)}")
    values: dict[str, str] = {}
    graph = None
    spectrum = None

    def need_graph():
        nonlocal graph
        if graph is None:
            graph = gr.build_distance_graph(space)
        return graph

    def need_spectrum():
        nonlocal spectrum
        if spectrum is None:
            # the eigensolver route and the per-vertex inertia search share the graph
            spectrum = spectrum_for(space, None if kind.walk_regular else need_graph())
        return spectrum

    proven: dict[str, int] = {}  # bound name -> floored value; a float spectrum proves nothing
    for name in bounds:
        try:
            if name in ("inertia", "ratio"):
                sp = need_spectrum()
                report = (inertia_bound(space, graph, sp, k) if name == "inertia"
                          else sb.minor_polynomial_lp(sp, k))
                values[name] = str(report.floored)
                if report.exact:
                    proven[name] = report.floored
            else:
                v = kind.classical[name](space, k + 1)
                values[name] = "-" if v is None else str(v)
                if v is not None:
                    proven[name] = math.floor(v)
        except NotApplicable:
            values[name] = "-"
    row = RowResult(space.name, kind.params(space), k, values)
    if with_alpha:
        certifier = min(proven, key=proven.get, default=None)
        upper = proven.get(certifier)

        def generators():  # built only if the hints fall short and the oracle searches
            yield from automorphism_generators(space)
        row.oracle = gr.k_independence_number(
            need_graph(), k, max_nodes, initial=alpha_hints(space, k, upper),
            automorphism_generators=generators(), upper_bound=upper)
        alpha = row.oracle.alpha
        values["alpha"] = str(alpha) if row.oracle.exact else f">={alpha} (timeout)"
        if row.oracle.certified:
            row.certified_by = certifier
    return row


# ----------------------------------------------------------------------
# Reference tables
# ----------------------------------------------------------------------

TABLE_KEYS = {
    2: ("m", "n", "k"),
    3: ("partition", "q", "k"),
    4: ("n", "q", "b", "k"),
    5: ("q", "n", "k"),
    6: ("n", "k"),
}
# columns recomputed by verify; everything else is reference-only
TABLE_CHECKED = {
    2: ("inertia", "alpha", "plotkin", "hamming"),
    3: ("inertia", "ratio", "alpha", "singleton"),
    4: ("inertia", "ratio", "alpha", "singleton"),
    5: ("inertia", "ratio", "alpha", "singleton"),
    6: ("inertia", "alpha", "varshamov"),
}
TABLE_METRIC = {2: "city-block", 3: "block", 4: "cyclic-burst", 5: "phase-rotation",
                6: "varshamov"}


def load_fixture(table_id: int) -> list[dict]:
    name = f"table{table_id}.csv"
    try:
        ref = importlib.resources.files("eigenbounds.fixtures") / name
        text = ref.read_text()
    except (FileNotFoundError, ModuleNotFoundError) as exc:
        raise FixtureNotFound(name) from exc
    return list(csv.DictReader(text.splitlines()))


def verify_table(table_id: int, report: Optional[Callable[[str], None]] = None) -> bool:
    """Recompute every checked cell of the table and diff against the fixture."""
    checked = TABLE_CHECKED[table_id]
    keys = TABLE_KEYS[table_id]
    all_ok = True
    for row in load_fixture(table_id):
        result = compute_row(make_space(TABLE_METRIC[table_id], **row), int(row["k"]),
                             [c for c in checked if c != "alpha"])
        label = " ".join(f"{key}={row[key]}" for key in keys)
        diffs = []
        for col in checked:
            got = result.cell(col)
            if got != row[col]:
                diffs.append(f"{col}: computed {got} != table {row[col]}")
        ok = not diffs
        all_ok &= ok
        if report is not None:
            status = "ok" if ok else "FAIL " + "; ".join(diffs)
            report(f"table {table_id} [{label}] {status}")
    return all_ok
