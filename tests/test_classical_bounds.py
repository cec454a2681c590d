"""Plotkin-type, Hamming-type, Singleton-type, and Varshamov bounds."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from eigenbounds.algebra import FieldVector, make_field, ones_vector, unit_vector
from eigenbounds import classical_bounds as cb
from eigenbounds import metrics as mt
from eigenbounds.errors import NotApplicable

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)


def test_plotkin_examples():
    assert cb.plotkin_city_block(3, 1, 2) == 2
    assert cb.plotkin_city_block(4, 1, 2) == 4
    assert cb.plotkin_city_block(5, 1, 2) is None  # 2d = n(m-1): condition fails
    assert cb.plotkin_city_block(6, 1, 4) == Fraction(8, 3)


def test_ball_size_examples():
    assert cb.ball_size_city_block((0,), 0, 3) == 1
    assert cb.ball_size_city_block((0,), 1, 3) == 2
    assert cb.ball_size_city_block((1,), 1, 3) == 3


def test_ball_size_matches_bruteforce():
    for m, n in [(3, 2), (4, 2), (5, 1), (3, 3)]:
        for x in itertools.product(range(m), repeat=n):
            for t in range(0, n * (m - 1) + 1):
                direct = sum(
                    1 for y in itertools.product(range(m), repeat=n)
                    if mt.city_block_distance(x, y, m) <= t)
                assert cb.ball_size_city_block(x, t, m) == direct


def test_hamming_examples():
    assert cb.hamming_city_block(5, 1, 3) == Fraction(5, 2)
    assert cb.hamming_city_block(4, 3, 6) == Fraction(32, 5)
    assert cb.hamming_city_block(7, 2, 2) == 49  # t = 0: trivial bound m^n
    assert cb.hamming_city_block(7, 2, 1) == 49


@pytest.mark.parametrize("d", [0, -1])
def test_hamming_refuses_d_below_1(d):
    """d < 1 gives no radius t >= 0 and an empty ball to divide by."""
    with pytest.raises(NotApplicable):
        cb.hamming_city_block(3, 2, d)


def test_hamming_reads_the_smallest_ball():
    """The corner's ball is the smallest for every radius: against the
    minimum over all centers, from brute-force L1 distances, for every
    m^n <= 729 with m = 3..8 and every t."""
    cases = 0
    for m in range(3, 9):
        for n in itertools.takewhile(lambda n: m**n <= 729, itertools.count(1)):
            points = np.array(list(itertools.product(range(m), repeat=n)))
            dist = np.abs(points[:, None, :] - points[None, :, :]).sum(axis=2)
            for t in range(n * (m - 1) + 1):
                eta = int((dist <= t).sum(axis=1).min())
                assert cb.hamming_city_block(m, n, 2 * t + 1) == Fraction(m**n, eta), (m, n, t)
                cases += 1
    assert cases == 243


def test_singleton_projective_examples():
    params = mt.PhaseRotationParams(F3, 3).as_projective()
    assert cb.singleton_projective(params, 1) == 27  # mu(0) = 0
    hamming_set = mt.ProjectiveParams(F3, 3, tuple(unit_vector(F3, 3, i)
                                                   for i in range(3)))
    for d in (1, 2, 3, 4):
        assert cb.singleton_projective(hamming_set, d) == 3**(3 - d + 1)


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4),
                                 (4, 2), (4, 3), (4, 4)])
def test_singleton_projective_matches_phase_rotation(q, n):
    f = {2: F2, 3: F3, 4: F4}[q]
    params = mt.PhaseRotationParams(f, n).as_projective()
    for d in range(1, n + 2):
        assert cb.singleton_projective(params, d) == \
            cb.singleton_phase_rotation(q, n, d)


def test_singleton_phase_rotation_examples():
    assert cb.singleton_phase_rotation(3, 2, 2) == 3
    assert cb.singleton_phase_rotation(2, 4, 2) == 8
    assert cb.singleton_phase_rotation(2, 2, 2) == 1


def test_singleton_block_examples():
    params = mt.BlockParams(F2, 4, ((1, 2), (3, 4)))
    assert cb.singleton_block(params, 2) == 4
    assert cb.singleton_block(params, 1) == 16  # d=1: no constraint
    params3 = mt.BlockParams(F2, 6, ((1, 2), (3, 4), (5, 6)))
    assert cb.singleton_block(params3, 3) == 4
    assert cb.singleton_block(params3, 4) == 1  # d = m+1


def test_singleton_cyclic_burst_examples():
    assert cb.singleton_cyclic_burst(3, 2, 2, 2) == 2
    assert cb.singleton_cyclic_burst(5, 2, 2, 3) == 2
    assert cb.singleton_cyclic_burst(5, 3, 2, 1) == 3**5
    with pytest.raises(NotApplicable):
        cb.singleton_cyclic_burst(5, 2, 3, 3)


def test_varshamov_bound_examples():
    assert cb.varshamov_bound(4, 4) == 4
    assert cb.varshamov_bound(7, 6) == Fraction(32, 3)  # table prints floor: 10
    assert math.floor(cb.varshamov_bound(7, 6)) == 10
    assert cb.varshamov_bound(2, 2) == 2
