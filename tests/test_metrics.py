"""The six metric spaces: distances, axioms, enumeration, cross-validation."""

import gc
import itertools
import random
import weakref

import numpy as np
import pytest

from eigenbounds.algebra import FieldVector, make_field, ones_vector, unit_vector
from eigenbounds import graphs as gr
from eigenbounds import metrics as mt
from eigenbounds import tables
from eigenbounds.errors import AmbientTooLarge, DimensionMismatch, InvalidElement
from eigenbounds.metrics import (
    BlockParams,
    BlockSpace,
    CityBlockSpace,
    CyclicBurstParams,
    CyclicBurstSpace,
    PhaseRotationParams,
    PhaseRotationSpace,
    ProjectiveParams,
    ProjectiveSpace,
    VarshamovSpace,
    city_block_distance,
    enumerate_ambient,
    projective_weight,
    varshamov_distance,
)

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)


def distance_matrix(space):
    els = space.elements()
    n = len(els)
    d = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = space.distance(els[i], els[j])
    return d


def check_metric_axioms(space, chunk=64):
    """Identity, symmetry (by construction of the matrix), and the triangle
    inequality via an exhaustive min-plus product on the distance matrix."""
    d = distance_matrix(space)
    n = d.shape[0]
    assert np.all(np.diagonal(d) == 0)
    off = d + np.eye(n, dtype=np.int64)
    assert np.all(off > 0), "identity of indiscernibles fails"
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        best = np.min(d[lo:hi, :, None] + d[None, :, :], axis=1)
        assert np.all(best == d[lo:hi]), "triangle inequality fails"


# ----------------------------------------------------------------------
# City block
# ----------------------------------------------------------------------

def test_city_block_distance_examples():
    assert city_block_distance((1, 2), (1, 2), 5) == 0
    assert city_block_distance((0, 0), (2, 1), 3) == 3
    assert city_block_distance((0, 0), (3, 3), 4) == 6  # max distance n(m-1)


def test_city_block_rejects_bad_entries():
    with pytest.raises(InvalidElement):
        city_block_distance((0, 3), (0, 0), 3)
    with pytest.raises(DimensionMismatch):
        city_block_distance((0, 0), (0,), 3)


def test_city_block_constructor_rejects_m2():
    with pytest.raises(InvalidElement):
        CityBlockSpace(2, 3)


def test_constructors_reject_n0():
    with pytest.raises(InvalidElement):
        CityBlockSpace(3, 0)
    with pytest.raises(InvalidElement):
        VarshamovSpace(0)


def test_city_block_m2_formula_equals_hamming():
    # the raw formula at m=2 is the Hamming distance (constructor rejects m=2,
    # the formula itself is checked here)
    for n in range(1, 5):
        for x in itertools.product((0, 1), repeat=n):
            for y in itertools.product((0, 1), repeat=n):
                hamming = sum(a != b for a, b in zip(x, y))
                assert city_block_distance(x, y, 2) == hamming


# ----------------------------------------------------------------------
# Projective / phase rotation
# ----------------------------------------------------------------------

def test_projective_weight_examples():
    params = PhaseRotationParams(F2, 4).as_projective()
    assert projective_weight(FieldVector(F2, (0, 0, 0, 0)), params) == 0
    assert projective_weight(FieldVector(F2, (1, 1, 0, 1)), params) == 2  # 1 + e_3
    assert projective_weight(FieldVector(F2, (1, 0, 0, 1)), params) == 2  # e_1 + e_4


def test_projective_params_validation():
    with pytest.raises(InvalidElement):  # does not span
        ProjectiveParams(F2, 2, (unit_vector(F2, 2, 0),))
    with pytest.raises(InvalidElement):  # duplicate subspace
        ProjectiveParams(F3, 2, (unit_vector(F3, 2, 0),
                                 unit_vector(F3, 2, 0).scale(2),
                                 unit_vector(F3, 2, 1)))


def test_phase_rotation_distance_examples():
    space = PhaseRotationSpace(F2, 4)
    x = FieldVector(F2, (0, 0, 0, 0))
    assert space.distance(x, x) == 0
    assert space.distance(x, FieldVector(F2, (1, 1, 0, 1))) == 2
    assert PhaseRotationSpace(F3, 2).distance(FieldVector(F3, (0, 0)),
                                              FieldVector(F3, (1, 2))) == 2


@pytest.mark.parametrize("q,n", [(2, 4), (2, 8), (3, 4), (4, 3)])
def test_phase_rotation_fast_path_matches_subset_search(q, n):
    """Fast path == projective-weight definition, exhaustively for q^n <= 256."""
    f = {2: F2, 3: F3, 4: F4}[q]
    pr = PhaseRotationParams(f, n)
    proj = pr.as_projective()
    for coords in itertools.product(range(q), repeat=n):
        v = FieldVector(f, coords)
        assert mt.phase_rotation_weight(v, pr) == projective_weight(v, proj)


# ----------------------------------------------------------------------
# Block
# ----------------------------------------------------------------------

def test_block_distance_examples():
    space = BlockSpace(BlockParams(F2, 4, ((1, 2), (3, 4))))
    x0 = FieldVector(F2, (0, 0, 0, 0))
    assert space.distance(x0, x0) == 0
    assert space.distance(x0, FieldVector(F2, (0, 1, 1, 0))) == 2
    assert space.distance(x0, FieldVector(F2, (1, 1, 0, 0))) == 1


def test_block_params_sorted_and_validated():
    params = BlockParams(F2, 5, ((5,), (1, 2), (3, 4)))
    assert [len(b) for b in params.partition] == [2, 2, 1]
    with pytest.raises(InvalidElement):
        BlockParams(F2, 4, ((1, 2), (2, 3, 4)))  # overlap
    with pytest.raises(InvalidElement):
        BlockParams(F2, 4, ((1, 2),))  # does not cover


def test_block_singletons_equal_hamming():
    for q, n in [(2, 4), (2, 8), (3, 4), (4, 3)]:
        f = {2: F2, 3: F3, 4: F4}[q]
        space = BlockSpace(BlockParams(f, n, tuple((i,) for i in range(1, n + 1))))
        for _ in range(200):
            rng = random.Random(q * 100 + n)
            x = FieldVector(f, tuple(rng.randrange(q) for _ in range(n)))
            y = FieldVector(f, tuple(rng.randrange(q) for _ in range(n)))
            hamming = sum(a != b for a, b in zip(x.coords, y.coords))
            assert space.distance(x, y) == hamming


# ----------------------------------------------------------------------
# Cyclic burst
# ----------------------------------------------------------------------

def test_cyclic_burst_windows():
    params = CyclicBurstParams(F2, 5, 3)
    assert params.windows[0] == frozenset({1, 2, 3})
    assert params.windows[2] == frozenset({3, 4, 5})
    assert params.windows[3] == frozenset({4, 5, 1})
    assert params.windows[4] == frozenset({5, 1, 2})


def test_cyclic_burst_distance_examples():
    space = CyclicBurstSpace(CyclicBurstParams(F2, 5, 3))
    x0 = FieldVector(F2, (0,) * 5)
    assert space.distance(x0, x0) == 0
    assert space.distance(x0, FieldVector(F2, (1, 0, 1, 0, 0))) == 1
    # supp {1,4} fits in the wrap-around window {4,5,1}
    assert space.distance(x0, FieldVector(F2, (1, 0, 0, 1, 0))) == 1
    # supp {1,3,5} fits in no single width-3 cyclic window
    assert space.distance(x0, FieldVector(F2, (1, 0, 1, 0, 1))) == 2


def test_cyclic_burst_requires_valid_b():
    with pytest.raises(InvalidElement):
        CyclicBurstParams(F2, 3, 3)
    with pytest.raises(InvalidElement):
        CyclicBurstParams(F2, 5, 1)


# ----------------------------------------------------------------------
# Varshamov
# ----------------------------------------------------------------------

def test_varshamov_examples():
    assert varshamov_distance((0, 1), (0, 1)) == 0
    assert varshamov_distance((0, 0), (1, 1)) == 2
    assert varshamov_distance((1, 0), (0, 1)) == 1


@pytest.mark.parametrize("n", range(1, 9))
def test_varshamov_definitions_agree_exhaustively(n):
    """max(N01, N10) == (w_H(x-y) + |w_H(x)-w_H(y)|)/2 on every pair;
    varshamov_distance asserts this internally, so calling it on every
    pair is the exhaustive cross-check."""
    for x in itertools.product((0, 1), repeat=n):
        for y in itertools.product((0, 1), repeat=n):
            d = varshamov_distance(x, y)
            assert d == max(
                sum(1 for a, b in zip(x, y) if a == 0 and b == 1),
                sum(1 for a, b in zip(x, y) if a == 1 and b == 0))


# ----------------------------------------------------------------------
# Enumeration and axioms
# ----------------------------------------------------------------------

def test_enumerate_ambient_examples():
    assert enumerate_ambient(CityBlockSpace(3, 1)) == [(0,), (1,), (2,)]
    els = enumerate_ambient(PhaseRotationSpace(F2, 2))
    assert [e.coords for e in els] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    els = enumerate_ambient(BlockSpace(BlockParams(F2, 3, ((1, 2), (3,)))))
    assert len(els) == 8 and els[0].is_zero()


def test_enumerate_ambient_guard():
    space = CityBlockSpace(3, 1)
    space.ambient_size = 2**21  # forced oversize
    with pytest.raises(AmbientTooLarge):
        enumerate_ambient(space)


AXIOM_SPACES = [
    CityBlockSpace(5, 3),                                       # 125
    ProjectiveSpace(ProjectiveParams(F3, 2, (
        unit_vector(F3, 2, 0), unit_vector(F3, 2, 1),
        FieldVector(F3, (1, 1)), FieldVector(F3, (1, 2))))),    # 9
    PhaseRotationSpace(F3, 4),                                  # 81
    BlockSpace(BlockParams(F2, 7, ((1, 2, 3), (4, 5), (6, 7)))),  # 128
    CyclicBurstSpace(CyclicBurstParams(F2, 7, 3)),              # 128
    VarshamovSpace(7),                                          # 128
]


@pytest.mark.parametrize("space", AXIOM_SPACES, ids=lambda s: s.name)
def test_metric_axioms_exhaustive_small(space):
    """Exhaustive triple check (min-plus product) for ambient <= 200."""
    assert space.ambient_size <= 200
    check_metric_axioms(space)


def test_metric_axioms_random_triples_large():
    """10^5 randomized triples on a larger instance."""
    space = PhaseRotationSpace(F3, 6)  # 729
    els = space.elements()
    rng = random.Random(11)
    for _ in range(10**5):
        x, y, z = (els[rng.randrange(len(els))] for _ in range(3))
        dxz = space.distance(x, z)
        assert dxz <= space.distance(x, y) + space.distance(y, z)
        if x == z:
            assert dxz == 0
        else:
            assert dxz > 0


@pytest.mark.parametrize("space", AXIOM_SPACES, ids=lambda s: s.name)
def test_neighbors_are_exactly_the_unit_sphere(space):
    """Every vertex's neighbours in the distance graph are exactly its unit
    sphere: the index-arithmetic adjacency equals the pairwise d(x, y) == 1
    scan over every vertex pair."""
    els = space.elements()
    direct = np.array([[int(space.distance(x, y) == 1) for y in els] for x in els],
                      dtype=np.uint8)
    g = gr.build_distance_graph(space)
    assert g.adjacency.dtype == np.uint8
    assert np.array_equal(g.adjacency, direct)


@pytest.mark.parametrize("metric, params", [
    ("projective", {"q": 2, "subspaces": "1,0;0,1;1,1"}),
    ("phase-rotation", {"q": 3, "n": 2}),
    ("block", {"q": 2, "partition": "1,2|3"}),
    ("cyclic-burst", {"q": 2, "n": 4, "b": 2}),
])
def test_field_metric_space_is_collectable(metric, params):
    """Nothing module-level (such as a cache on `unit_sphere`) keeps a space
    alive once its graph, spectrum and automorphisms are dropped."""
    space = tables.make_space(metric, **params)
    graph = gr.build_distance_graph(space)
    spectrum = tables.spectrum_for(space, graph)
    gens = tables.automorphism_generators(space)
    assert graph.n_vertices and spectrum.n == graph.n_vertices and gens
    ref = weakref.ref(space)
    del space, graph, spectrum, gens
    gc.collect()
    assert ref() is None
