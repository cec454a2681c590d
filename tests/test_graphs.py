"""Distance graphs, regularity diagnostics, power graphs, exact MIS."""

import itertools
import random

import numpy as np
import pytest

import math
from fractions import Fraction

from eigenbounds.algebra import make_field
from eigenbounds.errors import Disconnected, InternalError
from eigenbounds import graphs as gr
from eigenbounds import metrics as mt
from eigenbounds import tables

F2 = make_field(2)
F3 = make_field(3)


def pr_space(q, n):
    f = {2: F2, 3: F3, 4: make_field(2, 2), 5: make_field(5)}[q]
    return mt.PhaseRotationSpace(f, n)


def graph_from_edges(n, edges):
    adj = np.zeros((n, n), dtype=np.uint8)
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1
    return gr.Graph(list(range(n)), adj)


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
    assert np.array_equal(gr.power_graph(g, 1).adjacency, g.adjacency)
    p3 = graph_from_edges(3, [(0, 1), (1, 2)])
    assert gr.power_graph(p3, 2).edge_list() == [(0, 1), (0, 2), (1, 2)]  # K_3
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


def test_walk_regularity():
    g = gr.build_distance_graph(pr_space(3, 2))
    assert gr.is_k_partially_walk_regular(g, 6)  # vertex-transitive Cayley graph
    cb = gr.build_distance_graph(mt.CityBlockSpace(3, 2))
    assert not gr.is_k_partially_walk_regular(cb, 2)
    # diag(A^2) = degrees for any graph
    diags = gr._diag_powers(cb.adjacency, 2)
    assert np.array_equal(diags[2], cb.degree_list)


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
        assert degs[g.index[(0,) * n]] == n
        assert degs[g.index[(1,) * n]] == 2 * n


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
    rng = random.Random(seed)
    for _ in range(60):
        n = rng.randrange(1, 80)
        density = rng.choice((0.1, 0.5, 0.9))
        g = graph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                 if rng.random() < density])
        adj = g.adjacency_bitmasks()
        cand = rng.getrandbits(n)
        assert gr._greedy_clique_cover(cand, adj) == _first_fit_clique_cover(cand, adj)


def test_adjacency_bitmasks_match_loop():
    rng = random.Random(5)
    for n in (1, 7, 8, 9, 64, 65, 130):
        g = graph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                 if rng.random() < 0.3])
        loop = [sum(1 << int(j) for j in np.flatnonzero(row)) for row in g.adjacency]
        assert g.adjacency_bitmasks() == loop


def test_mis_node_count_is_pinned():
    """The search tree depends only on the graph: phase rotation (3,5), k=2
    with its automorphisms expands 124,410 nodes and no bound stops it."""
    space = pr_space(3, 5)
    res = gr.k_independence_number(
        gr.build_distance_graph(space), 2, initial=tables.alpha_hints(space, 2),
        automorphism_generators=tables.automorphism_generators(space))
    assert (res.alpha, res.nodes, res.exact, res.certified) == (11, 124410, True, False)


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
        truth = _alpha_bruteforce(gr.power_graph(g, k, dist).adjacency_bitmasks())
        for bound in (None, truth, truth + 1):
            res = gr.k_independence_number(
                g, k, initial=tables.alpha_hints(space, k, bound),
                automorphism_generators=gens, upper_bound=bound)
            assert (res.alpha, res.exact, res.certified) == (truth, True, bound == truth)
        row = tables.compute_row(space, k, tables.available_bounds(space))
        assert row.cell("alpha") == str(truth)
        if row.certified_by is not None:
            assert math.floor(Fraction(row.cell(row.certified_by))) == truth
