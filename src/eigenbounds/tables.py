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
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import classical_bounds as cb
from . import graphs as gr
from . import metrics as mt
from . import spectral_bounds as sb
from .algebra import MAX_FIELD_ORDER, FieldVector, make_field
from .errors import EigenboundsError, FixtureNotFound, InvalidPrime, NotApplicable
from .spectra import Spectrum, cayley_spectrum_abelian, city_block_spectrum, \
    phase_rotation_spectrum, spectrum_of_graph


def field_for(q: int):
    """GF(q) for a prime power q = p^k, p the least prime factor of q."""
    if q >= 2:
        # make_field refuses every order above the cap, so no longer scan
        p = next((d for d in range(2, math.isqrt(min(q, MAX_FIELD_ORDER)) + 1)
                  if q % d == 0), q)
        k = round(math.log(q, p))
        if p**k == q:
            return make_field(p, k)
    raise InvalidPrime(f"{q} is not a prime power")


def parse_partition(text: str) -> tuple[tuple[int, ...], ...]:
    """Parse "1,2|3,4|5,6" into a partition tuple."""
    try:
        return tuple(tuple(int(x) for x in blk.split(",")) for blk in text.split("|"))
    except ValueError:
        raise EigenboundsError(f"--partition {text!r} is not of the form 1,2|3,4") from None


def format_partition(partition) -> str:
    return "|".join(",".join(str(x) for x in blk) for blk in partition)


# ----------------------------------------------------------------------
# Incumbents and symmetries for the exact oracle, on vertex indices
# ----------------------------------------------------------------------

def linear_code_hint(space, k: int, target: int) -> list[int]:
    """Vertex indices of a linear code over GF(q) whose nonzero words all have
    metric weight > k, so that it is independent in the k-th power graph.

    A linear lexicode (after Conway & Sloane, IEEE Trans. Inf. Theory 32,
    1986): from C = {0}, while q |C| <= target, take the lowest vertex v at
    distance > k from C and set C <- C + span(v).  Every new word c + a v
    (a != 0) has weight dist(v, -a^-1 C) = dist(v, C) > k, because -a^-1 C
    = C and a field metric's unit sphere is closed under translation and
    under nonzero scaling, so x -> c x is an isometry (the guard is
    `test_automorphism_generators_are_automorphisms`, over GF(4) too).
    The vertices within distance k of C are k steps along
    `space.translations()`.
    """
    f = space.field
    radix, digits = space.digits()
    steps = space.translations()
    code = np.zeros(1, dtype=np.intp)
    while f.q * len(code) <= target:
        near = np.zeros(space.ambient_size, dtype=bool)
        near[code] = True
        for _ in range(k):
            near[steps[near].ravel()] = True
        v = near.argmin()
        if near[v]:
            break
        multiples = f.mul_table[:, digits[v]]  # a v for a in GF(q), as digits
        code = (f.add_table[digits[code][:, None], multiples] @ radix).ravel()
    return sorted(code.tolist())


def _transpose(*pairs):
    """The coordinate map exchanging each pair of 0-indexed positions."""
    def fn(digits):
        digits = digits.copy()
        for a, b in pairs:
            digits[:, [a, b]] = digits[:, [b, a]]
        return digits
    return fn


def _adjacent_swaps(space) -> list:
    return [_transpose((i, i + 1)) for i in range(space.n - 1)]


def _phase_rotation_maps(space) -> list:
    """The adjacent swaps, and x -> (-x_1, x_2 - x_1, ..., x_n - x_1): it sends
    e_1 -> -1 and 1 -> -e_1 and fixes the other e_i, so it permutes the lines
    the unit sphere spans.  With the swaps and the scalings it generates, for
    n >= 2, all (q-1)(n+1)! linear maps that permute those n+1 lines."""
    neg, add = space.field.neg_table, space.field.add_table

    def line_map(digits):
        first = neg[digits[:, :1]]
        return np.concatenate([first, add[digits[:, 1:], first]], axis=1)
    return _adjacent_swaps(space) + [line_map]


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
    # bound name -> (space, d) -> value; None or NotApplicable where it does not apply
    classical: dict[str, Callable]
    params: Callable  # space -> the `params` dict of a row
    # space -> isometries, each mapping the V x n digit array of
    # `MetricSpace.digits` to the digits of the image vertices
    coordinate_maps: Callable = lambda space: []
    # a translation-invariant weight metric on GF(q)^n, so a Cayley graph: it
    # is walk-regular (the inertia search needs only the spectrum, and the
    # ratio bound applies), translations and scalings are automorphisms, and
    # linear codes are the oracle's incumbents
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
        classical={"plotkin": lambda s, d: _floor(cb.plotkin_city_block(s.m, s.n, d)),
                   "hamming": lambda s, d: cb.hamming_city_block(s.m, s.n, d)},
        params=lambda s: {"m": s.m, "n": s.n},
        coordinate_maps=lambda s: _adjacent_swaps(s) + [  # then reflections
            lambda d, i=i: np.where(np.arange(s.n) == i, s.m - 1 - d, d) for i in range(s.n)],
        field_metric=False),
    "projective": MetricKind(
        build=_build_projective,
        spectrum=_cayley_spectrum,
        classical={"singleton": lambda s, d: cb.singleton_projective(s.params, d)},
        params=lambda s: {"n": s.n, "q": s.field.q, "subspaces": ";".join(
            ",".join(str(c) for c in v.coords) for v in s.params.spanning_vectors)}),
    "phase-rotation": MetricKind(
        build=lambda p: mt.PhaseRotationSpace(field_for(int(p("q"))), int(p("n"))),
        spectrum=lambda s, g: phase_rotation_spectrum(s.field.q, s.n),
        classical={"singleton": lambda s, d: cb.singleton_phase_rotation(
            s.field.q, s.n, d)},
        params=lambda s: {"n": s.n, "q": s.field.q},
        coordinate_maps=_phase_rotation_maps),
    "block": MetricKind(
        build=_build_block,
        spectrum=_cayley_spectrum,
        classical={"singleton": lambda s, d: cb.singleton_block(s.params, d)},
        params=lambda s: {"n": s.n, "partition": format_partition(s.params.partition),
                          "q": s.field.q},
        coordinate_maps=_block_maps),
    "cyclic-burst": MetricKind(
        build=lambda p: mt.CyclicBurstSpace(mt.CyclicBurstParams(
            field_for(int(p("q"))), int(p("n")), int(p("b")))),
        spectrum=_cayley_spectrum,
        classical={"singleton": lambda s, d: cb.singleton_cyclic_burst(
            s.n, s.field.q, s.params.b, d)},
        params=lambda s: {"n": s.n, "b": s.params.b, "q": s.field.q},
        coordinate_maps=lambda s: [lambda d: np.roll(d, -1, axis=1), lambda d: d[:, ::-1]]),
    "varshamov": MetricKind(
        build=lambda p: mt.VarshamovSpace(int(p("n"))),
        spectrum=_graph_spectrum,
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
    """Initial incumbents for the exact oracle: with a `target` (a proven
    bound on alpha_k), a field metric gets the lexicode `linear_code_hint`
    builds up to that size.  The solver validates each hint by a direct
    adjacency check; hints never replace the branch-and-bound optimality
    proof.
    """
    if target is None or not kind_of(space).field_metric:
        return []
    return [linear_code_hint(space, k, target)]


def automorphism_generators(space: mt.MetricSpace) -> list[list[int]]:
    """Vertex permutations that are metric symmetries by construction:
    translations and scalar maps for the field metrics, then the metric's
    `coordinate_maps`, isometries given as maps on the digit array
    (coordinate swaps and reflections, and phase rotation's line map
    x -> (-x_1, x_2 - x_1, ..., x_n - x_1)), all as index arithmetic on
    `space.digits()`.

    The oracle re-validates every permutation against the adjacency matrix
    and silently drops anything that fails, so this list only needs to be
    honest, not proven.
    """
    kind = kind_of(space)
    gens = []
    radix, digits = space.digits()
    if kind.field_metric:
        scalings = space.field.mul_table[2:, digits] @ radix  # x -> c*x, c = 2..q-1
        gens = space.translations().T.tolist() + scalings.tolist()
    return gens + [(fn(digits) @ radix).tolist() for fn in kind.coordinate_maps(space)]


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
    return ["inertia"] + ["ratio"] * kind.field_metric + list(kind.classical)


def inertia_bound(space: mt.MetricSpace, graph: Optional[gr.Graph], spectrum: Spectrum,
                  k: int, **kw) -> sb.BoundReport:
    """The inertia search the metric supports: a field metric's walk-regular
    graph needs only the spectrum (graph may be None), the others one
    program over the graph's diagonal classes."""
    if kind_of(space).field_metric:
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
            # the eigensolver route and the diagonal-class inertia search share the graph
            spectrum = spectrum_for(space, None if kind.field_metric else need_graph())
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
