"""Distance graphs, regularity diagnostics, power graphs, exact MIS."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix, identity

import math
from fractions import Fraction

from eigenbounds.algebra import FieldVector, make_field, ones_vector, unit_vector
from eigenbounds.errors import Disconnected, DimensionMismatch, InternalError, TooLarge
from eigenbounds import graphs as gr
from eigenbounds import metrics as mt
from eigenbounds import tables

from test_acceptance import _random_instances
from test_metrics import AXIOM_SPACES
from test_spectral_bounds import diagonal_classes as dense_diagonal_classes

F2 = make_field(2)
F3 = make_field(3)


def pr_space(q, n):
    f = {2: F2, 3: F3, 4: make_field(2, 2), 5: make_field(5)}[q]
    return mt.PhaseRotationSpace(f, n)


def graph_from_edges(n, edges):
    adj = np.zeros((n, n), dtype=np.uint8)
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1
    return gr.Graph(adj)


def test_build_distance_graph_examples():
    g = gr.build_distance_graph(pr_space(2, 1))
    assert g.n_vertices == 2 and g.adjacency[0, 1] == 1  # K_2

    g = gr.build_distance_graph(mt.CityBlockSpace(3, 1))
    assert g.edge_list() == [(0, 1), (1, 2)]  # path 0-1-2

    g = gr.build_distance_graph(pr_space(2, 3))
    assert g.n_vertices == 8
    assert set(g.degree_list.tolist()) == {4}  # degree (q-1)(n+1)


def test_all_pairs_distance_examples():
    k2 = graph_from_edges(2, [(0, 1)])
    assert gr.all_pairs_graph_distance(k2).tolist() == [[0, 1], [1, 0]]
    p3 = graph_from_edges(3, [(0, 1), (1, 2)])
    assert gr.all_pairs_graph_distance(p3).max() == 2
    g = gr.build_distance_graph(mt.CityBlockSpace(4, 2))
    assert gr.all_pairs_graph_distance(g).max() == 6  # corner to corner


def test_unreachable_sentinel():
    g = graph_from_edges(3, [(0, 1)])
    d = gr.all_pairs_graph_distance(g)
    assert d[0, 2] == gr.UNREACHABLE


@pytest.mark.parametrize("space", [
    mt.CityBlockSpace(4, 2),
    mt.CityBlockSpace(3, 3),
    pr_space(3, 3),
    pr_space(2, 5),
    mt.VarshamovSpace(5),
    mt.BlockSpace(mt.BlockParams(F2, 4, ((1, 2), (3, 4)))),
    mt.CyclicBurstSpace(mt.CyclicBurstParams(F2, 5, 3)),
], ids=lambda s: f"{s.name}{s.ambient_size}")
def test_geodesic_equals_metric(space):
    g = gr.build_distance_graph(space)
    assert gr.verify_geodesic_equals_metric(space, g)


def test_power_graph_properties():
    g = gr.build_distance_graph(pr_space(3, 2))
    assert gr.power_graph(g, 1) is g  # G^1 = G, no pack/unpack round trip
    p3 = graph_from_edges(3, [(0, 1), (1, 2)])
    assert gr.power_graph(p3, 1) is p3
    square = gr.power_graph(p3, 2)
    assert square is not p3 and square.edge_list() == [(0, 1), (0, 2), (1, 2)]  # K_3
    # k >= diameter -> complete
    dist = gr.all_pairs_graph_distance(g)
    full = gr.power_graph(g, int(dist.max()))
    assert full.degree_list.tolist() == [g.n_vertices - 1] * g.n_vertices
    # monotone edge sets
    prev = gr.power_graph(g, 1).adjacency
    for k in (2, 3):
        nxt = gr.power_graph(g, k).adjacency
        assert np.all(prev <= nxt)
        prev = nxt


def float32_power_graph(g, k):
    """The float32 route `power_graph` took before its bitset passes, kept as
    the reference: reach_j = min(1, (A + I) reach_(j-1)) by sparse-times-
    dense products from reach_1 = A, the diagonal cleared at the end."""
    a = g.adjacency
    step = csr_matrix(a, dtype=np.float32) + identity(len(a), dtype=np.float32, format="csr")
    reach = a.astype(np.float32)
    for _ in range(k - 1):
        reach = step @ reach
        np.minimum(reach, 1, out=reach)
    adj = reach.astype(np.uint8)
    np.fill_diagonal(adj, 0)
    return adj


def _diameter_of_components(g):
    dist = gr.all_pairs_graph_distance(g)
    return int(dist[dist < gr.UNREACHABLE].max(initial=1))


def _assert_power_graphs_equal_reference(g, ks):
    for k in ks:
        got = gr.power_graph(g, k).adjacency
        assert got.dtype == np.uint8
        assert np.array_equal(got, float32_power_graph(g, k)), k


def _power_graphs_match_distances(g):
    dist = gr.all_pairs_graph_distance(g)
    diam = int(dist[dist < gr.UNREACHABLE].max(initial=1))
    for k in range(1, diam + 2):
        expected = ((dist > 0) & (dist <= k)).astype(np.uint8)
        assert np.array_equal(gr.power_graph(g, k).adjacency, expected), k
    return diam


@pytest.mark.parametrize("space", AXIOM_SPACES, ids=lambda s: s.name)
def test_power_graph_equals_distance_threshold(space):
    """The k - 1 bitset passes reach exactly the pairs at distance 1..k, up
    to one past the diameter."""
    _power_graphs_match_distances(gr.build_distance_graph(space))


def test_power_graph_equals_distance_threshold_on_random_draws():
    for idx, (space, rng) in enumerate(_random_instances()):
        if idx == 100:
            break
        g = gr.build_distance_graph(space)
        diam = _power_graphs_match_distances(g)
        _assert_power_graphs_equal_reference(g, range(1, diam + 2))
        rng.randrange(1, min(3, max(1, diam)) + 1)  # draw k as criterion 9 does: same draws


def test_power_graph_equals_float32_reference_on_table_rows():
    rows = 0
    for tid, metric in tables.TABLE_METRIC.items():
        for row in tables.load_fixture(tid):
            g = gr.build_distance_graph(tables.make_space(metric, **row))
            _assert_power_graphs_equal_reference(g, [int(row["k"])])
            rows += 1
    assert rows == 69


def random_irregular_graph(seed):
    """A random graph with isolated vertices (so irregular and disconnected)
    and a vertex count that is not a multiple of 8."""
    rng = np.random.default_rng(seed)
    n = 8 * int(rng.integers(0, 8)) + int(rng.integers(3, 8))
    upper = np.triu(rng.random((n, n)) < rng.uniform(0.03, 0.3), 1)
    adj = (upper | upper.T).astype(np.uint8)
    isolated = rng.choice(n, size=int(rng.integers(1, n // 2 + 1)), replace=False)
    adj[isolated, :] = 0
    adj[:, isolated] = 0
    u, v = np.setdiff1d(np.arange(n), isolated)[:2]  # at least one edge
    adj[u, v] = adj[v, u] = 1
    return gr.Graph(adj)


@pytest.mark.parametrize("seed", range(30))
def test_power_graph_equals_float32_reference_on_irregular_graphs(seed):
    g = random_irregular_graph(seed)
    assert g.n_vertices % 8 and not g.is_regular()
    assert (gr.all_pairs_graph_distance(g) == gr.UNREACHABLE).any()
    _assert_power_graphs_equal_reference(g, range(1, _diameter_of_components(g) + 2))


def test_power_graph_on_graphs_without_edges():
    for n in (0, 1, 3, 9):
        g = gr.Graph(np.zeros((n, n), dtype=np.uint8))
        for k in (1, 2, 3):
            assert gr.power_graph(g, k).adjacency.shape == (n, n)
            assert not gr.power_graph(g, k).adjacency.any()


@pytest.mark.parametrize("entry", [(57, 83), (83, 57), (98, 99), (99, 0), (0, 99), (10, 9)])
def test_graph_symmetry_check_reads_every_strip(monkeypatch, entry):
    """`Graph` compares the upper triangle with the lower one in strips of
    rows; under a budget of 10-row strips a single asymmetric entry, in the
    first strip or outside it, is refused, and a symmetric matrix is accepted."""
    monkeypatch.setattr(gr, "GATHER_BYTES", 10 * 100)
    rng = np.random.default_rng(4)
    upper = np.triu(rng.random((100, 100)) < 0.3, 1)
    a = (upper | upper.T).astype(np.uint8)
    gr.Graph(a)
    a[entry] ^= 1
    with pytest.raises(ValueError, match="symmetric"):
        gr.Graph(a)


@pytest.mark.parametrize("rows_per_block", [0, 3, 5])
def test_power_graph_gathers_across_blocks(monkeypatch, rows_per_block):
    """A budget below one row's gather, or of a few rows that do not divide
    the vertex count, splits each pass into many blocks; the result is
    unchanged."""
    graphs = [gr.build_distance_graph(mt.CityBlockSpace(4, 3)), random_irregular_graph(7),
              gr.build_distance_graph(mt.VarshamovSpace(6))]
    for g in graphs:
        a = g.adjacency
        row_bytes = (a.sum(axis=1).max() + 1) * ((len(a) + 7) // 8)
        monkeypatch.setattr(gr, "GATHER_BYTES", int(rows_per_block * row_bytes))
        assert len(a) > max(rows_per_block, 1) * 4
        _assert_power_graphs_equal_reference(g, range(1, _diameter_of_components(g) + 2))


def test_power_graph_gather_stays_within_its_budget(monkeypatch):
    """On a dense graph an unblocked pass gathers V x (delta + 1) packed rows
    at once; under a small budget numpy's traced peak drops by most of that
    gather, and the result is unchanged."""
    rng = np.random.default_rng(3)
    upper = np.triu(rng.random((400, 400)) < 0.5, 1)
    g = gr.Graph((upper | upper.T).astype(np.uint8))
    gather = 400 * (int(g.degree_list.max()) + 1) * (400 // 8)

    def traced_peak(budget):
        monkeypatch.setattr(gr, "GATHER_BYTES", budget)
        tracemalloc.start()
        try:
            adj = gr.power_graph(g, 2).adjacency
            return adj, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    whole, whole_peak = traced_peak(2 * gather)
    blocked, blocked_peak = traced_peak(2**14)
    assert np.array_equal(blocked, float32_power_graph(g, 2))
    assert np.array_equal(whole, blocked)
    assert whole_peak > gather
    assert blocked_peak < whole_peak - gather / 2, (blocked_peak, whole_peak, gather)


def test_graph_layer_does_no_field_vector_arithmetic(monkeypatch):
    """Graph build, power graph and the translations and scalings among the
    automorphisms work on vertex indices: they never add or scale a vector."""
    space = tables.make_space("block", q=3, partition="1,2|3,4|5,6")

    def forbidden(*args):
        raise AssertionError("per-vertex FieldVector arithmetic")
    monkeypatch.setattr(FieldVector, "__add__", forbidden)
    monkeypatch.setattr(FieldVector, "scale", forbidden)
    g = gr.build_distance_graph(space)
    assert g.n_vertices == 729 and g.is_regular()
    assert gr.power_graph(g, 3).adjacency.any()
    gens = tables.automorphism_generators(space)
    assert len(gens) == len(space.unit_sphere()) + 1 + len(tables._block_maps(space))


ONE_SPACE_PER_METRIC = [
    ("city-block", {"m": 4, "n": 3}),
    ("projective", {"q": 3, "subspaces": "1,0,0;0,1,0;0,0,1;1,1,1;1,2,0"}),
    ("phase-rotation", {"q": 4, "n": 3}),
    ("block", {"q": 3, "partition": "1,2|3,4|5"}),
    ("cyclic-burst", {"q": 2, "n": 6, "b": 3}),
    ("varshamov", {"n": 6}),
]


def test_field_metric_distance_rejects_mismatched_vectors():
    """`distance` is weight(x - y); the subtraction rejects a vector of
    another length or over another field, in either argument."""
    checked = 0
    for metric, params in ONE_SPACE_PER_METRIC:
        space = tables.make_space(metric, **params)
        if not tables.kind_of(space).field_metric:
            continue
        x = FieldVector(space.field, (0,) * space.n)
        shorter = FieldVector(space.field, (0,) * (space.n - 1))
        foreign = FieldVector(make_field(3 if space.field.q == 2 else 2), (0,) * space.n)
        for y in (shorter, foreign):
            for a, b in ((x, y), (y, x)):
                with pytest.raises(DimensionMismatch):
                    space.distance(a, b)
        checked += 1
    assert checked == 4


# Field metrics over GF(4), where closure of the unit sphere under nonzero
# scaling (which `tables.linear_code_hint` needs) goes beyond the GF(p)^*
# orbits that `cayley_spectrum_abelian` checks
GF4_FIELD_METRICS = [
    ("projective", {"q": 4, "subspaces": "1,0,0;0,1,0;0,0,1;1,1,1"}),
    ("block", {"q": 4, "partition": "1,2|3"}),
    ("cyclic-burst", {"q": 4, "n": 4, "b": 2}),
]


@pytest.mark.parametrize("metric, params", ONE_SPACE_PER_METRIC + GF4_FIELD_METRICS,
                         ids=[m for m, _ in ONE_SPACE_PER_METRIC]
                         + [f"{m}-q4" for m, _ in GF4_FIELD_METRICS])
def test_automorphism_generators_are_automorphisms(metric, params):
    space = tables.make_space(metric, **params)
    g = gr.build_distance_graph(space)
    gens = tables.automorphism_generators(space)
    assert gens
    for gen in gens:
        assert gr._is_automorphism(g, gen)


def test_is_automorphism_rejects_non_permutations():
    g = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])  # C_5
    rotation = [1, 2, 3, 4, 0]
    assert gr._is_automorphism(g, rotation)
    assert gr._is_automorphism(g, np.array(rotation))
    assert gr._is_automorphism(g, [4, 3, 2, 1, 0])  # a reflection
    assert not gr._is_automorphism(g, rotation[:4])  # wrong length
    assert not gr._is_automorphism(g, rotation + [0])
    assert not gr._is_automorphism(g, [rotation])
    assert not gr._is_automorphism(g, [1, 1, 3, 4, 0])  # repeated entry
    assert not gr._is_automorphism(g, [1, 2, 3, 4, 5])  # out of range
    assert not gr._is_automorphism(g, [1, 2, 3, 4, -1])
    assert not gr._is_automorphism(g, [2, 1, 0, 3, 4])  # maps edge {0, 4} to {2, 4}


def test_oracle_inputs_never_enumerate_elements(monkeypatch):
    """Generators, hints and whole table rows work on vertex indices: no
    space builds its `elements()` list on the way to alpha."""
    def forbidden(self):
        raise AssertionError("elements() enumerated")
    for cls in (mt.MetricSpace, mt._FieldMetricSpace, mt.CityBlockSpace, mt.VarshamovSpace):
        monkeypatch.setattr(cls, "elements", forbidden)
    for metric, params in ONE_SPACE_PER_METRIC:
        assert tables.automorphism_generators(tables.make_space(metric, **params))
    for metric, params, k, alpha in [("phase-rotation", {"q": 3, "n": 5}, 2, "11"),
                                     ("block", {"q": 3, "partition": "1,2|3,4|5,6"}, 1, "81")]:
        space = tables.make_space(metric, **params)
        assert tables.compute_row(space, k, tables.available_bounds(space)).cell("alpha") == alpha


def _swap(*pairs):
    def fn(c):
        c = list(c)
        for a, b in pairs:
            c[a], c[b] = c[b], c[a]
        return tuple(c)
    return fn


def _reference_coordinate_maps(space) -> list:
    """Each metric's coordinate isometries as maps of coordinate tuples."""
    adjacent = [_swap((i, i + 1)) for i in range(space.n - 1)]
    if space.name == mt.CITY_BLOCK:
        return adjacent + [lambda x, i=i: x[:i] + (space.m - 1 - x[i],) + x[i + 1:]
                           for i in range(space.n)]
    if space.name == mt.BLOCK:
        partition = space.params.partition
        return ([_swap((blk[0] - 1, blk[1] - 1)) for blk in partition if len(blk) >= 2]
                + [_swap(*zip((p - 1 for p in b1), (p - 1 for p in b2)))
                   for b1, b2 in zip(partition, partition[1:]) if len(b1) == len(b2)])
    if space.name == mt.CYCLIC_BURST:
        return [lambda c: c[1:] + c[:1], lambda c: tuple(reversed(c))]
    return [] if space.name == mt.PROJECTIVE else adjacent


def _label_walk_generators(space) -> list[list[int]]:
    """Reference for `tables.automorphism_generators`: every element is
    mapped as a tuple or a FieldVector and looked up in a label -> index
    dict; translations and scalings use field arithmetic."""
    labels = space.elements()
    index = {x: i for i, x in enumerate(labels)}
    maps = _reference_coordinate_maps(space)
    gens = []
    if isinstance(space, mt._FieldMetricSpace):
        gens = ([[index[x + s] for x in labels] for s in space.unit_sphere()]
                + [[index[x.scale(c)] for x in labels]
                   for c in space.field.nonzero() if c != 1])
        maps = [lambda x, fn=fn: FieldVector(x.field, fn(x.coords)) for fn in maps]
        if space.name == mt.PHASE_ROTATION:  # x -> x - x_1 (1 + e_1)
            line = ones_vector(space.field, space.n) + unit_vector(space.field, space.n, 0)
            maps.append(lambda x: x - line.scale(x.coords[0]))
    return gens + [[index[fn(x)] for x in labels] for fn in maps]


def _table_spaces():
    seen = set()
    for table_id, metric in tables.TABLE_METRIC.items():
        for row in tables.load_fixture(table_id):
            space = tables.make_space(metric, **row)
            key = (metric, tuple(sorted(tables.kind_of(space).params(space).items())))
            if key not in seen:
                seen.add(key)
                yield space


def _criterion_9_spaces(count):
    for idx, (space, rng) in enumerate(_random_instances()):
        if idx == count:
            break
        dist = gr.all_pairs_graph_distance(gr.build_distance_graph(space))
        diam = int(dist[dist < gr.UNREACHABLE].max(initial=1))
        rng.randrange(1, min(3, max(1, diam)) + 1)  # draw k as criterion 9 does: same draws
        yield space


@pytest.mark.parametrize("spaces", [
    lambda: (tables.make_space(m, **p) for m, p in ONE_SPACE_PER_METRIC),
    _table_spaces,
    lambda: _criterion_9_spaces(100),
], ids=["one-per-metric", "table-rows", "criterion-9-draws"])
def test_automorphism_generators_equal_label_walk(spaces):
    for space in spaces():
        assert tables.automorphism_generators(space) == _label_walk_generators(space), \
            (space.name, tables.kind_of(space).params(space))


def test_walk_regularity():
    g = gr.build_distance_graph(pr_space(3, 2))
    assert gr.is_k_partially_walk_regular(g, 6)  # vertex-transitive Cayley graph
    cb = gr.build_distance_graph(mt.CityBlockSpace(3, 2))
    assert not gr.is_k_partially_walk_regular(cb, 2)
    # diag(A^2) = degrees for any graph, so the classes at k = 2 are the degrees
    assert ([u[2] for u in gr.diagonal_classes(cb.adjacency, 2)]
            == sorted(set(cb.degree_list.tolist())))


def _reference_diag_powers(adjacency, k):
    """diag(A^0..A^k) from a Python-int matrix power: row u of A^(i+1) sums
    the rows of A^i at u's neighbours (A is symmetric)."""
    n = len(adjacency)
    nbrs = [np.flatnonzero(row).tolist() for row in adjacency]
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    diags = [[1] * n]
    for _ in range(k):
        power = [[sum(row[w] for w in nbrs[u]) for u in range(n)] for row in power]
        diags.append([power[v][v] for v in range(n)])
    return diags


def _reference_classes(adjacency, k):
    """The distinct per-vertex columns of `_reference_diag_powers`, sorted."""
    return sorted(set(zip(*_reference_diag_powers(adjacency, k))))


def complete_graph(n):
    return gr.Graph(np.ones((n, n), dtype=np.uint8) - np.eye(n, dtype=np.uint8))


@pytest.mark.parametrize("g,k", [(gr.build_distance_graph(s), 4) for s in AXIOM_SPACES]
                         # 20 * 19^12 > 2^52: past where float64 products stay exact
                         + [(complete_graph(20), 12)],
                         ids=[s.name for s in AXIOM_SPACES] + ["K20-k12"])
def test_diag_powers_equal_python_int_matrix_power(g, k):
    """`diagonal_classes` equals the classes of a Python-int matrix power,
    as tuples of Python ints."""
    classes = gr.diagonal_classes(g.adjacency, k)
    assert all(type(x) is int for u in classes for x in u)
    assert classes == _reference_classes(g.adjacency, k)


def test_diagonal_classes_refuse_int64_overflow():
    """A walk count (A^i)_uv is at most delta^(i-1).  K_20 (delta = 19) is
    exact through k = 15 (19^14 < 2^63) and refused at k = 16: its
    diag(A^16) is about 1.4 * 10^19, past int64."""
    a = complete_graph(20).adjacency
    assert gr.diagonal_classes(a, 15) == _reference_classes(a, 15)
    with pytest.raises(TooLarge):
        gr.diagonal_classes(a, 16)


def test_diagonal_classes_form_no_dense_power():
    """City block (4,5), 1,024 vertices: the traced peak stays below a
    quarter of one dense int64 power (V^2 * 8 bytes)."""
    a = gr.build_distance_graph(mt.CityBlockSpace(4, 5)).adjacency
    tracemalloc.start()
    try:
        gr.diagonal_classes(a, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < a.size * 8 / 4, peak


def test_diagonal_classes_equal_dense_reference():
    """On the graphs of all 69 table rows at their k, and of the first 100
    criterion-9 draws at k = 1..3."""
    rows = [(tables.make_space(metric, **row), int(row["k"]))
            for table_id, metric in tables.TABLE_METRIC.items()
            for row in tables.load_fixture(table_id)]
    assert len(rows) == 69
    cases = ([(gr.build_distance_graph(s), k) for s, k in rows]
             + [(gr.build_distance_graph(s), k)
                for s in _criterion_9_spaces(100) for k in (1, 2, 3)])
    for g, k in cases:
        assert gr.diagonal_classes(g.adjacency, k) == dense_diagonal_classes(g, k)


def test_cayley_built_graphs_walk_regular_up_to_6():
    spaces = [
        pr_space(2, 4), pr_space(4, 2),
        mt.BlockSpace(mt.BlockParams(F3, 4, ((1, 2), (3, 4)))),
        mt.CyclicBurstSpace(mt.CyclicBurstParams(F2, 6, 2)),
        mt.ProjectiveSpace(mt.PhaseRotationParams(F3, 3).as_projective()),
    ]
    for space in spaces:
        g = gr.build_distance_graph(space)
        assert g.is_regular(), space.name
        assert gr.is_k_partially_walk_regular(g, 6), space.name


def test_city_block_degree_irregularity():
    # 0 has n neighbors, the all-ones vertex has 2n
    for m, n in [(3, 2), (4, 3)]:
        space = mt.CityBlockSpace(m, n)
        g = gr.build_distance_graph(space)
        degs = g.degree_list
        elements = space.elements()
        assert degs[elements.index((0,) * n)] == n
        assert degs[elements.index((1,) * n)] == 2 * n


def test_distance_regular_phase_rotation():
    # q=2: folded cubes are distance-regular
    for n in (3, 4, 5):
        rep = gr.is_distance_regular(gr.build_distance_graph(pr_space(2, n)))
        assert rep.is_distance_regular
    # n=2, q=3: distance-regular with c_2 = 6
    rep = gr.is_distance_regular(gr.build_distance_graph(pr_space(3, 2)))
    assert rep.is_distance_regular
    bs, cs = rep.intersection_array
    assert cs == (1, 6) and bs[0] == 6
    # q=3, n=3: not distance-regular, with a concrete witness
    rep = gr.is_distance_regular(gr.build_distance_graph(pr_space(3, 3)))
    assert not rep.is_distance_regular
    assert rep.witness is not None


def test_distance_regular_rejects_disconnected():
    g = graph_from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(Disconnected):
        gr.is_distance_regular(g)


def test_triangle_delta():
    p3 = graph_from_edges(3, [(0, 1), (1, 2)])
    assert gr.triangle_delta(p3) == 0  # triangle-free
    assert gr.triangle_delta(gr.build_distance_graph(pr_space(2, 5))) == 0
    for q, n in [(3, 3), (4, 3), (3, 4)]:
        g = gr.build_distance_graph(pr_space(q, n))
        assert gr.triangle_delta(g) == (n + 1) * (q - 1) * (q - 2)


def test_max_independent_set_basics():
    kq = graph_from_edges(4, list(itertools.combinations(range(4), 2)))
    assert gr.max_independent_set(kq).alpha == 1
    empty = graph_from_edges(5, [])
    res = gr.max_independent_set(empty)
    assert res.alpha == 5 and len(res.certificate) == 5
    g = gr.build_distance_graph(pr_space(3, 2))
    assert gr.max_independent_set(g).alpha == 3


def _alpha_bruteforce(adj_masks):
    """Independent reference: plain max over the recursion
    alpha(G) = max(alpha(G - v), 1 + alpha(G - N[v])), no bounding."""
    def rec(cand):
        if not cand:
            return 0
        v = (cand & -cand).bit_length() - 1
        without = rec(cand & ~(1 << v))
        with_v = 1 + rec(cand & ~(adj_masks[v] | (1 << v)))
        return max(without, with_v)
    return rec((1 << len(adj_masks)) - 1)


@pytest.mark.parametrize("seed", range(6))
def test_mis_matches_bruteforce(seed):
    rng = random.Random(seed)
    n = rng.randrange(10, 22)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < rng.choice((0.15, 0.4, 0.7))]
    g = graph_from_edges(n, edges)
    res = gr.max_independent_set(g)
    assert res.exact
    assert res.alpha == _alpha_bruteforce(g.adjacency_bitmasks())
    # certificate is independent and of the right size
    assert len(res.certificate) == res.alpha
    for u, v in itertools.combinations(res.certificate, 2):
        assert not g.adjacency[u, v]


def test_mis_bad_hint_is_ignored():
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    res = gr.max_independent_set(g, initial=[[0, 1, 3]])  # not independent
    assert res.alpha == 2


@pytest.mark.parametrize("bad", [-1, 6])
@pytest.mark.parametrize("bound", [None, 3])
def test_mis_drops_hints_with_indices_outside_the_graph(bad, bound):
    """An index outside 0..n-1 drops its hint: n used to raise IndexError and
    -1 was read as vertex n - 1.  `initial` may be an iterator."""
    path = graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    res = gr.max_independent_set(path, initial=iter([[0, 2, bad]]), upper_bound=bound)
    assert (res.alpha, res.exact, res.certified) == (3, True, bound == 3)
    assert all(0 <= v < 6 for v in res.certificate)
    assert not path.adjacency[np.ix_(res.certificate, res.certificate)].any()


def test_mis_node_budget_inexact():
    rng = random.Random(3)
    n = 120
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.12]
    g = graph_from_edges(n, edges)
    res = gr.max_independent_set(g, max_nodes=0)
    assert not res.exact
    assert res.alpha >= 1  # greedy incumbent survives


def test_mis_node_budget_boundary():
    """A budget of exactly the full search's node count N is enough; N - 1
    is not, and the search then stops within it with an independent set."""
    rng = random.Random(0)
    n = 40
    g = graph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                             if rng.random() < 0.12])
    full = gr.max_independent_set(g)
    assert full.exact and full.nodes > 1
    at = gr.max_independent_set(g, full.nodes)
    assert (at.alpha, at.nodes, at.exact) == (full.alpha, full.nodes, True)
    short = gr.max_independent_set(g, full.nodes - 1)
    assert not short.exact and short.nodes <= full.nodes - 1
    assert len(short.certificate) == short.alpha
    assert not g.adjacency[np.ix_(short.certificate, short.certificate)].any()


def test_library_reads_no_clock(monkeypatch):
    """The oracle's budget counts nodes, so a row never consults a clock,
    even when the oracle has to search (singleton 9 > alpha 6)."""
    def no_clock():
        raise AssertionError("the library read the clock")
    monkeypatch.setattr("time.monotonic", no_clock)
    row = tables.compute_row(pr_space(3, 4), 2, ["singleton"])
    assert (row.cell("singleton"), row.cell("alpha")) == ("9", "6")
    assert row.oracle.nodes > 0


def _first_fit_clique_cover(cand, adj):
    """Reference cover: each candidate in ascending order joins the first
    clique whose every member it is adjacent to."""
    cliques, order = [], []
    rest = cand
    while rest:
        v = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        for idx, cl in enumerate(cliques):
            if cl & ~adj[v] == 0:
                cliques[idx] = cl | (1 << v)
                order.append((v, idx + 1))
                break
        else:
            cliques.append(1 << v)
            order.append((v, len(cliques)))
    order.sort(key=lambda pair: pair[1])
    return order


@pytest.mark.parametrize("seed", range(4))
def test_clique_cover_equals_first_fit(seed):
    """At every floor the cover lists exactly the first-fit classes above it."""
    rng = random.Random(seed)
    for _ in range(60):
        n = rng.randrange(1, 80)
        density = rng.choice((0.1, 0.5, 0.9))
        g = graph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                 if rng.random() < density])
        adj = g.adjacency_bitmasks()
        cand = rng.getrandbits(n)
        reference = _first_fit_clique_cover(cand, adj)
        for floor in range(6):
            assert gr._greedy_clique_cover(cand, adj, floor) == \
                [(v, c) for v, c in reference if c > floor]


def test_adjacency_bitmasks_match_loop():
    rng = random.Random(5)
    for n in (1, 7, 8, 9, 64, 65, 130):
        g = graph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                 if rng.random() < 0.3])
        loop = [sum(1 << int(j) for j in np.flatnonzero(row)) for row in g.adjacency]
        assert g.adjacency_bitmasks() == loop


def test_mis_node_count_is_pinned():
    """The search tree depends only on the graph: phase rotation (3,5), k=2
    with its automorphisms expands 2,223 nodes and no bound stops it."""
    space = pr_space(3, 5)
    res = gr.k_independence_number(
        gr.build_distance_graph(space), 2, initial=tables.alpha_hints(space, 2),
        automorphism_generators=tables.automorphism_generators(space))
    assert (res.alpha, res.nodes, res.exact, res.certified) == (11, 2223, True, False)


@pytest.mark.parametrize("n, density, nodes", [(60, 0.1, 1819), (100, 0.2, 44268)])
def test_mis_without_generators_node_count_is_pinned(n, density, nodes):
    """Without automorphisms every finished branch drops only its own
    vertex, so the search tree is the plain clique-cover one."""
    rng = random.Random(n)
    g = graph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                             if rng.random() < density])
    res = gr.max_independent_set(g)
    assert res.exact and res.nodes == nodes


def _assert_exact_independent(g, res):
    assert res.exact and len(res.certificate) == res.alpha
    assert not g.adjacency[np.ix_(res.certificate, res.certificate)].any()


@pytest.mark.parametrize("seed", range(12))
def test_orbital_branching_keeps_alpha_on_circulants(seed):
    """Circulant graphs on Z_m, 32 <= m <= 48 (past brute-force sizes), with
    rotation and reflection as generators: alpha equals the plain search's."""
    rng = random.Random(seed)
    m = rng.randrange(32, 49)
    connection = rng.sample(range(1, m // 2 + 1), rng.randrange(2, 6))
    g = graph_from_edges(m, [(i, (i + s) % m) for i in range(m) for s in connection])
    rotation_reflection = [[(i + 1) % m for i in range(m)], [(-i) % m for i in range(m)]]
    plain = gr.max_independent_set(g)
    orbital = gr.max_independent_set(g, automorphism_generators=rotation_reflection)
    _assert_exact_independent(g, plain)
    _assert_exact_independent(g, orbital)
    assert orbital.alpha == plain.alpha


def _block(n, partition):
    return mt.BlockSpace(mt.BlockParams(F2, n, partition))


@pytest.mark.parametrize("space, k", [
    (pr_space(3, 4), 1), (pr_space(3, 4), 2), (pr_space(2, 6), 1), (pr_space(2, 6), 2),
    (_block(6, ((1, 2), (3,), (4, 5), (6,))), 1), (_block(6, ((1, 2), (3,), (4, 5), (6,))), 2),
    (_block(7, ((1, 2, 3), (4,), (5, 6), (7,))), 2),
    (pr_space(4, 3), 2), (pr_space(5, 3), 2),
], ids=["pr-3-4-k1", "pr-3-4-k2", "pr-2-6-k1", "pr-2-6-k2",
        "block-2-6-k1", "block-2-6-k2", "block-2-7-k2", "pr-4-3-k2", "pr-5-3-k2"])
def test_orbital_branching_keeps_alpha_on_metric_spaces(space, k):
    """Table-sized power graphs: the metric's automorphisms give the alpha
    of the search without them, and each certificate is a code of minimum
    distance k + 1 by the metric itself."""
    g = gr.power_graph(gr.build_distance_graph(space), k)
    plain = gr.max_independent_set(g)
    orbital = gr.max_independent_set(
        g, automorphism_generators=tables.automorphism_generators(space))
    _assert_exact_independent(g, plain)
    _assert_exact_independent(g, orbital)
    assert orbital.alpha == plain.alpha
    labels = space.elements()
    for res in (plain, orbital):
        code = [labels[i] for i in res.certificate]
        assert all(space.distance(x, y) > k for x, y in itertools.combinations(code, 2))


def test_depth_one_child_keeps_every_linear_generator(monkeypatch):
    """On phase rotation (3,5), k=2 the root branches on vertex 0, which
    every scaling and coordinate map fixes and no translation does, so its
    child searches with all of those generators.  Counted at `_orbit`,
    which each node calls with its own generators: the root with all of
    them, every other node with no translation, and only a node whose
    chosen set is {0} with every linear generator."""
    space = pr_space(3, 5)
    gens = tables.automorphism_generators(space)
    linear = len(gens) - len(space.unit_sphere())
    calls = []
    orbit = gr._orbit

    def counted(v, node_gens):
        calls.append(len(node_gens))
        return orbit(v, node_gens)
    monkeypatch.setattr(gr, "_orbit", counted)
    gr.k_independence_number(gr.build_distance_graph(space), 2,
                             initial=tables.alpha_hints(space, 2), automorphism_generators=gens)
    assert max(calls) == len(gens)
    assert max(c for c in calls if c < len(gens)) == linear


def test_mis_upper_bound_exit():
    g = gr.build_distance_graph(pr_space(3, 4))
    free = gr.k_independence_number(g, 2)
    assert (free.alpha, free.exact, free.certified) == (6, True, False)
    at = gr.k_independence_number(g, 2, upper_bound=free.alpha)
    assert (at.alpha, at.exact, at.certified) == (free.alpha, True, True)
    assert at.nodes <= free.nodes
    above = gr.k_independence_number(g, 2, upper_bound=free.alpha + 1)
    assert (above.alpha, above.exact, above.certified, above.nodes) == \
        (free.alpha, True, False, free.nodes)
    pg = gr.power_graph(g, 2)
    for res in (at, above):
        assert len(res.certificate) == res.alpha
        assert not pg.adjacency[np.ix_(res.certificate, res.certificate)].any()


def test_mis_upper_bound_below_a_hint_raises():
    g = graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    with pytest.raises(InternalError):
        gr.max_independent_set(g, initial=[[0, 2, 4]], upper_bound=2)


def test_k_independence_examples():
    g = gr.build_distance_graph(mt.CityBlockSpace(3, 2))
    assert gr.k_independence_number(g, 2).alpha == 2
    g = gr.build_distance_graph(mt.VarshamovSpace(4))
    assert gr.k_independence_number(g, 3).alpha == 2


def test_export_edge_list():
    p3 = graph_from_edges(3, [(0, 1), (1, 2)])
    assert gr.export_edge_list(p3) == "3 2\n0 1\n1 2\n"


# Every metric, at most 20 vertices: small enough for the plain recursion.
SMALL_SPACES = [
    ("city-block", {"m": 3, "n": 2}), ("city-block", {"m": 4, "n": 2}),
    ("city-block", {"m": 6, "n": 1}),
    ("phase-rotation", {"q": 2, "n": 4}), ("phase-rotation", {"q": 3, "n": 2}),
    ("phase-rotation", {"q": 4, "n": 2}),
    ("block", {"q": 2, "partition": "1,2|3,4"}), ("block", {"q": 2, "partition": "1|2|3,4"}),
    ("block", {"q": 4, "partition": "1|2"}),
    ("cyclic-burst", {"q": 2, "n": 4, "b": 2}), ("cyclic-burst", {"q": 2, "n": 4, "b": 3}),
    ("projective", {"q": 3, "subspaces": "1,0;0,1;1,1"}),
    ("projective", {"q": 2, "subspaces": "1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1;1,1,0,1"}),
    ("varshamov", {"n": 3}), ("varshamov", {"n": 4}),
]


@pytest.mark.parametrize("metric, params", SMALL_SPACES,
                         ids=[f"{m}-{'-'.join(map(str, p.values()))}" for m, p in SMALL_SPACES])
def test_alpha_cross_check_bruteforce(metric, params):
    """The oracle with hints, automorphism generators (orbit branching) and
    an upper bound agrees with the unbounded recursion, on every k."""
    space = tables.make_space(metric, **params)
    g = gr.build_distance_graph(space)
    assert g.n_vertices <= 20
    dist = gr.all_pairs_graph_distance(g)
    gens = tables.automorphism_generators(space)
    for k in range(1, int(dist.max()) + 1):
        truth = _alpha_bruteforce(gr.power_graph(g, k).adjacency_bitmasks())
        for bound in (None, truth, truth + 1):
            res = gr.k_independence_number(
                g, k, initial=tables.alpha_hints(space, k, bound),
                automorphism_generators=gens, upper_bound=bound)
            assert (res.alpha, res.exact, res.certified) == (truth, True, bound == truth)
        row = tables.compute_row(space, k, tables.available_bounds(space))
        assert row.cell("alpha") == str(truth)
        if row.certified_by is not None:
            assert math.floor(Fraction(row.cell(row.certified_by))) == truth
