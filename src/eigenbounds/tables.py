"""Row computation for the reference tables and the CLI.

This layer wires the pipeline together for a given metric instance:
build the space, its distance graph, the best available spectrum route,
then evaluate the requested bounds and the exact k-independence oracle.
It also loads the bundled reference tables and re-verifies every
computable cell (Lovasz-theta and Borden-Plotkin columns are carried as
reference data only; nothing here computes them).
"""

from __future__ import annotations

import csv
import importlib.resources
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from . import classical_bounds as cb
from . import graphs as gr
from . import metrics as mt
from . import spectral_bounds as sb
from .algebra import FieldVector, make_field
from .errors import EigenboundsError, FixtureNotFound, NotApplicable
from .spectra import Spectrum, cayley_spectrum_abelian, city_block_spectrum, \
    phase_rotation_spectrum, spectrum_of_graph

METRIC_NAMES = ("city-block", "projective", "phase-rotation", "block",
                "cyclic-burst", "varshamov")

PRIME_POWER_FIELDS = {4: (2, 2), 8: (2, 3), 9: (3, 2), 16: (2, 4), 25: (5, 2),
                      27: (3, 3), 32: (2, 5)}


def field_for(q: int):
    p, k = PRIME_POWER_FIELDS.get(q, (q, 1))
    return make_field(p, k)


def parse_partition(text: str) -> tuple[tuple[int, ...], ...]:
    """Parse "1,2|3,4|5,6" into a partition tuple."""
    return tuple(tuple(int(x) for x in blk.split(",")) for blk in text.split("|"))


def format_partition(partition) -> str:
    return "|".join(",".join(str(x) for x in blk) for blk in partition)


def make_space(metric: str, **params) -> mt.MetricSpace:
    """Build a metric space from flat CLI-style parameters."""
    metric = metric.replace("_", "-")
    if metric == "city-block":
        return mt.CityBlockSpace(int(params["m"]), int(params["n"]))
    if metric == "phase-rotation":
        return mt.PhaseRotationSpace(field_for(int(params["q"])), int(params["n"]))
    if metric == "projective":
        field = field_for(int(params["q"]))
        vecs = []
        for chunk in params["subspaces"].split(";"):
            vecs.append(FieldVector(field, tuple(int(x) for x in chunk.split(","))))
        n = len(vecs[0])
        return mt.ProjectiveSpace(mt.ProjectiveParams(field, n, tuple(vecs)))
    if metric == "block":
        partition = parse_partition(params["partition"])
        n = sum(len(b) for b in partition)
        return mt.BlockSpace(mt.BlockParams(field_for(int(params["q"])), n, partition))
    if metric == "cyclic-burst":
        return mt.CyclicBurstSpace(mt.CyclicBurstParams(
            field_for(int(params["q"])), int(params["n"]), int(params["b"])))
    if metric == "varshamov":
        return mt.VarshamovSpace(int(params["n"]))
    raise EigenboundsError(f"unknown metric {metric!r}; choose from {METRIC_NAMES}")


def spectrum_for(space: mt.MetricSpace, graph: Optional[gr.Graph] = None) -> Spectrum:
    """Best spectrum route: closed form > character sums > eigensolver."""
    if isinstance(space, mt.CityBlockSpace):
        return city_block_spectrum(space.m, space.n)
    if isinstance(space, mt.PhaseRotationSpace):
        return phase_rotation_spectrum(space.field.q, space.n)
    if isinstance(space, (mt.ProjectiveSpace, mt.BlockSpace, mt.CyclicBurstSpace)):
        return cayley_spectrum_abelian(space.field.q, space.n,
                                       list(space.unit_sphere()))
    if graph is None:
        graph = gr.build_distance_graph(space)
    return spectrum_of_graph(graph)


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


def alpha_hints(space: mt.MetricSpace, k: int) -> list[list[int]]:
    """Candidate code constructions used only as initial incumbents.

    Each is validated by direct adjacency check inside the solver; they
    never replace the branch-and-bound optimality proof.
    """
    if k == 1 and isinstance(space, mt.PhaseRotationSpace):
        return _functional_kernels(space)
    if k == 1 and isinstance(space, mt.CityBlockSpace):
        labels = space.elements()
        return [[i for i, x in enumerate(labels) if sum(x) % 2 == 0]]
    if isinstance(space, mt.BlockSpace):
        return _block_hints(space, k)
    return []


def automorphism_generators(space: mt.MetricSpace) -> list[list[int]]:
    """Vertex permutations that are metric symmetries by construction:
    translations and scalar maps for the field metrics, coordinate
    permutations where the metric is coordinate-symmetric, reflections for
    city block, rotations/reflection for cyclic bursts.

    The oracle re-validates every permutation against the adjacency matrix
    and silently drops anything that fails, so this list only needs to be
    honest, not proven.
    """
    labels = space.elements()
    index = {x: i for i, x in enumerate(labels)}
    perms: list[list[int]] = []

    def add(fn):
        perms.append([index[fn(x)] for x in labels])

    def coordinate_swap(i, j, coords):
        c = list(coords)
        c[i], c[j] = c[j], c[i]
        return tuple(c)

    if isinstance(space, mt.CityBlockSpace):
        m, n = space.m, space.n
        for i in range(n - 1):
            add(lambda x, i=i: coordinate_swap(i, i + 1, x))
        for i in range(n):
            add(lambda x, i=i: x[:i] + (m - 1 - x[i],) + x[i + 1:])
        return perms
    if isinstance(space, mt.VarshamovSpace):
        for i in range(space.n - 1):
            add(lambda x, i=i: coordinate_swap(i, i + 1, x))
        return perms

    f, n = space.field, space.n
    for s in space.unit_sphere():
        add(lambda x, s=s: x + s)
    for c in f.nonzero():
        if c != 1:
            add(lambda x, c=c: x.scale(c))

    def coords_map(fn):
        add(lambda x, fn=fn: type(x)(x.field, fn(x.coords)))

    if isinstance(space, mt.PhaseRotationSpace):
        for i in range(n - 1):
            coords_map(lambda c, i=i: coordinate_swap(i, i + 1, c))
    elif isinstance(space, mt.BlockSpace):
        partition = space.params.partition
        for blk in partition:
            if len(blk) >= 2:
                a, b = blk[0] - 1, blk[1] - 1
                coords_map(lambda c, a=a, b=b: coordinate_swap(a, b, c))
        for b1, b2 in zip(partition, partition[1:]):
            if len(b1) == len(b2):
                pairs = tuple(zip((p - 1 for p in b1), (p - 1 for p in b2)))

                def swap_blocks(c, pairs=pairs):
                    c = list(c)
                    for a, b in pairs:
                        c[a], c[b] = c[b], c[a]
                    return tuple(c)

                coords_map(swap_blocks)
    elif isinstance(space, mt.CyclicBurstSpace):
        coords_map(lambda c: c[1:] + c[:1])
        coords_map(lambda c: tuple(reversed(c)))
    return perms


# ----------------------------------------------------------------------
# Bound dispatch
# ----------------------------------------------------------------------

def _frac_str(x) -> str:
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return str(x)


@dataclass
class RowResult:
    """One computed table row: metric instance + k, bound name -> display value."""

    metric: str
    params: dict
    k: int
    values: dict

    def cell(self, name: str) -> str:
        return self.values.get(name, "-")


def available_bounds(space: mt.MetricSpace) -> list[str]:
    names = ["inertia"]
    if not isinstance(space, (mt.CityBlockSpace, mt.VarshamovSpace)):
        names.append("ratio")
    if isinstance(space, mt.CityBlockSpace):
        names += ["plotkin", "hamming"]
    if isinstance(space, (mt.ProjectiveSpace, mt.PhaseRotationSpace,
                          mt.BlockSpace, mt.CyclicBurstSpace)):
        names.append("singleton")
    if isinstance(space, mt.VarshamovSpace):
        names.append("varshamov")
    return names


def compute_row(space: mt.MetricSpace, k: int, bounds: list[str],
                time_budget: float = 60.0,
                with_alpha: bool = True) -> RowResult:
    """Evaluate the requested bounds (plus alpha_k) for one instance."""
    d = k + 1
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
            if isinstance(space, mt.VarshamovSpace):
                spectrum = spectrum_for(space, need_graph())
            else:
                spectrum = spectrum_for(space)
        return spectrum

    for name in bounds:
        try:
            if name == "inertia":
                sp = need_spectrum()
                if isinstance(space, (mt.CityBlockSpace, mt.VarshamovSpace)):
                    rep = sb.inertia_milp(need_graph(), sp, k)
                else:
                    rep = sb.inertia_milp_walkreg(sp, k)
                values[name] = str(rep.floored)
            elif name == "ratio":
                rep = sb.minor_polynomial_lp(need_spectrum(), k)
                values[name] = str(rep.floored)
            elif name == "plotkin":
                p = cb.plotkin_city_block(space.m, space.n, d)
                values[name] = "-" if p is None else str(math.floor(p))
            elif name == "hamming":
                values[name] = _frac_str(cb.hamming_city_block(space.m, space.n, d))
            elif name == "singleton":
                if isinstance(space, mt.PhaseRotationSpace):
                    v = cb.singleton_phase_rotation(space.field.q, space.n, d)
                elif isinstance(space, mt.BlockSpace):
                    v = cb.singleton_block(space.params, d)
                elif isinstance(space, mt.CyclicBurstSpace):
                    v = cb.singleton_cyclic_burst(space.n, space.field.q,
                                                  space.params.b, d)
                else:
                    v = cb.singleton_projective(space.params, d)
                values[name] = str(v)
            elif name == "varshamov":
                values[name] = str(math.floor(cb.varshamov_bound(space.n, d)))
            else:
                raise EigenboundsError(f"unknown bound {name!r}")
        except NotApplicable:
            values[name] = "-"
    if with_alpha:
        result = gr.k_independence_number(
            need_graph(), k, time_budget, initial=alpha_hints(space, k),
            automorphism_generators=automorphism_generators(space))
        values["alpha"] = str(result.alpha) if result.exact else f">={result.alpha} (timeout)"
    params = dict(getattr(space, "params").__dict__) if hasattr(space, "params") else {}
    params.pop("windows", None)
    if "field" in params:
        params["q"] = params.pop("field").q
    if "partition" in params:
        params["partition"] = format_partition(params["partition"])
    if "spanning_vectors" in params:
        params["subspaces"] = ";".join(
            ",".join(str(c) for c in v.coords) for v in params.pop("spanning_vectors"))
    return RowResult(space.name, params, k, values)


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


def load_fixture(table_id: int) -> list[dict]:
    name = f"table{table_id}.csv"
    try:
        ref = importlib.resources.files("eigenbounds.fixtures") / name
        text = ref.read_text()
    except (FileNotFoundError, ModuleNotFoundError) as exc:
        raise FixtureNotFound(name) from exc
    return list(csv.DictReader(text.splitlines()))


def _space_for_fixture_row(table_id: int, row: dict) -> tuple[mt.MetricSpace, int]:
    k = int(row["k"])
    if table_id == 2:
        return make_space("city-block", m=row["m"], n=row["n"]), k
    if table_id == 3:
        return make_space("block", q=row["q"], partition=row["partition"]), k
    if table_id == 4:
        return make_space("cyclic-burst", n=row["n"], q=row["q"], b=row["b"]), k
    if table_id == 5:
        return make_space("phase-rotation", q=row["q"], n=row["n"]), k
    if table_id == 6:
        return make_space("varshamov", n=row["n"]), k
    raise FixtureNotFound(f"table{table_id}")


def verify_table(table_id: int, time_budget: float = 120.0,
                 report: Optional[Callable[[str], None]] = None) -> bool:
    """Recompute every checked cell of the table and diff against the fixture."""
    checked = TABLE_CHECKED[table_id]
    keys = TABLE_KEYS[table_id]
    all_ok = True
    for row in load_fixture(table_id):
        space, k = _space_for_fixture_row(table_id, row)
        result = compute_row(space, k, [c for c in checked if c != "alpha"],
                             time_budget=time_budget)
        label = " ".join(f"{key}={row[key]}" for key in keys)
        diffs = []
        for col in checked:
            got = result.cell(col if col != "alpha" else "alpha")
            if got != row[col]:
                diffs.append(f"{col}: computed {got} != table {row[col]}")
        ok = not diffs
        all_ok &= ok
        if report is not None:
            status = "ok" if ok else "FAIL " + "; ".join(diffs)
            report(f"table {table_id} [{label}] {status}")
    return all_ok
