"""Spectrum routes: eigensolver, grouping, closed forms, character sums."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from eigenbounds.algebra import FieldVector, make_field, ones_vector, unit_vector
from eigenbounds.errors import AsymmetricConnectingSet, DimensionMismatch, NotSymmetric
from eigenbounds import graphs as gr
from eigenbounds import metrics as mt
from eigenbounds import spectra
from eigenbounds import tables
from eigenbounds.spectra import (
    EIGENSOLVER_GROUP_TOL,
    Spectrum,
    cayley_spectrum_abelian,
    city_block_spectrum,
    eigs_symmetric,
    group_multiplicities,
    phase_rotation_spectrum,
    spectrum_of_graph,
)

from test_graphs import _criterion_9_spaces

F2 = make_field(2)
F3 = make_field(3)


def test_eigs_symmetric_examples():
    k2 = np.array([[0, 1], [1, 0]])
    assert eigs_symmetric(k2) == pytest.approx([1.0, -1.0])
    p3 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert eigs_symmetric(p3) == pytest.approx([math.sqrt(2), 0.0, -math.sqrt(2)])
    g = gr.build_distance_graph(mt.PhaseRotationSpace(F2, 3))  # folded 4-cube
    spec = group_multiplicities(eigs_symmetric(g.adjacency))
    assert spec.mults == (1, 6, 1)
    assert spec.distinct == pytest.approx((4.0, 0.0, -4.0))


def test_eigs_symmetric_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        eigs_symmetric(np.array([[0, 1], [0, 0]]))


def test_group_multiplicities():
    spec = group_multiplicities([1.0, 1.0 - 1e-12, -2.0])
    assert spec.distinct == pytest.approx((1.0, -2.0))
    assert spec.mults == (2, 1)
    p3 = eigs_symmetric(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]))
    assert len(group_multiplicities(p3).distinct) == 3


def test_spectrum_invariants():
    with pytest.raises(ValueError):
        Spectrum((1, 2), (1, 1), exact=True)  # not descending
    s = Spectrum((4, 0, -4), (1, 6, 1), exact=True)
    assert s.n == 8 and s.r == 2 and s.trace() == 0


@pytest.mark.parametrize("distinct", [(1.5, -1.5), (Fraction(1, 2), Fraction(-1, 2))])
def test_exact_spectrum_takes_integers_only(distinct):
    """An integer symmetric matrix's rational eigenvalues are integers, so
    an exact spectrum of other values is refused; a float one takes them."""
    with pytest.raises(ValueError):
        Spectrum(distinct, (1, 1), exact=True)
    assert not Spectrum(distinct, (1, 1), exact=False).exact
    assert Spectrum((1, -1), (1, 1), exact=True).exact


def test_city_block_spectrum_small():
    s = city_block_spectrum(3, 1)
    assert s.distinct == pytest.approx((math.sqrt(2), 0.0, -math.sqrt(2)))
    s = city_block_spectrum(4, 1)
    phi = (1 + math.sqrt(5)) / 2
    assert s.distinct == pytest.approx((phi, phi - 1, 1 - phi, -phi))
    assert s.mults == (1, 1, 1, 1)


@pytest.mark.parametrize("m,n", [(3, 2), (4, 2), (5, 2), (4, 3), (6, 2)])
def test_city_block_spectrum_trace_and_count(m, n):
    s = city_block_spectrum(m, n)
    assert s.n == m**n
    assert abs(s.trace()) < 1e-8


def test_phase_rotation_spectrum_examples():
    assert phase_rotation_spectrum(3, 1) == Spectrum((2, -1), (1, 2), exact=True)
    s = phase_rotation_spectrum(3, 2)
    assert s.distinct == (6, 0, -3) and s.mults == (1, 6, 2)
    s = phase_rotation_spectrum(2, 3)
    assert s.distinct == (4, 0, -4) and s.mults == (1, 6, 1)
    s = phase_rotation_spectrum(2, 4)
    assert s.distinct == (5, 1, -3)  # 2i-n-1 for i = 1, 3, n+1


@pytest.mark.parametrize("q,n", [(2, 5), (2, 6), (3, 3), (3, 4), (4, 3), (5, 2)])
def test_phase_rotation_distinct_pattern(q, n):
    """Distinct eigenvalues follow the iq - n - 1 pattern."""
    s = phase_rotation_spectrum(q, n)
    if q == 2 and n % 2 == 0:
        expected = [2 * i - n - 1 for i in (*range(1, n, 2), n + 1)]
    elif q == 2:
        expected = [2 * i - n - 1 for i in (*range(0, n, 2), n + 1)]
    else:
        expected = [q * i - n - 1 for i in (*range(0, n), n + 1)]
    assert sorted(s.distinct, reverse=True) == sorted(expected, reverse=True)
    assert s.trace() == 0
    assert s.distinct[0] == (q - 1) * (n + 1)  # theta_0 = degree


def test_cayley_hypercube():
    sphere = [unit_vector(F2, 4, i) for i in range(4)]
    s = cayley_spectrum_abelian(2, 4, sphere)
    assert s.distinct == (4, 2, 0, -2, -4)
    assert s.mults == (1, 4, 6, 4, 1)  # binomial: hypercube spectrum n-2i


def test_cayley_matches_phase_rotation_route():
    for q, n in [(3, 2), (2, 4), (3, 3), (4, 2)]:
        space = mt.PhaseRotationSpace(make_field(*{4: (2, 2)}.get(q, (q, 1))), n)
        s1 = cayley_spectrum_abelian(q, n, list(space.unit_sphere()))
        s2 = phase_rotation_spectrum(q, n)
        assert s1 == s2


def test_cayley_single_pair():
    v = FieldVector(F3, (1, 0))
    s = cayley_spectrum_abelian(3, 2, [v, -v])
    assert s.distinct == (2, -1)
    assert s.trace() == 0


def test_cayley_rejects_bad_sets():
    with pytest.raises(AsymmetricConnectingSet):
        cayley_spectrum_abelian(3, 2, [FieldVector(F3, (1, 0))])  # not symmetric
    with pytest.raises(AsymmetricConnectingSet):
        cayley_spectrum_abelian(3, 2, [FieldVector(F3, (0, 0))])  # has 0


def test_cayley_refuses_sets_that_are_not_unions_of_prime_field_orbits():
    """Over GF(5), {v, -v} is closed under negation but not under scaling by
    2 and 3; its character sums are irrational (2, 0.618..., -1.618...), so
    the integer count refuses it rather than returning a float spectrum."""
    f5 = make_field(5)
    v = FieldVector(f5, (1, 0))
    with pytest.raises(AsymmetricConnectingSet, match="orbits"):
        cayley_spectrum_abelian(5, 2, [v, -v])
    assert cayley_spectrum_abelian(5, 2, [v.scale(c) for c in f5.nonzero()]) == \
        Spectrum((4, -1), (5, 20), exact=True)
    f4 = make_field(2, 2)  # GF(2)^* is trivial: any set of distinct nonzero vectors
    s = cayley_spectrum_abelian(4, 1, [FieldVector(f4, (2,)), FieldVector(f4, (3,))])
    assert s == Spectrum((2, 0, -2), (1, 2, 1), exact=True)


def test_cayley_refuses_a_repeated_vector():
    """{v, v} over GF(3) has as many vectors as the orbit {v, -v}, so only
    the repeat check refuses it."""
    v = FieldVector(F3, (1, 0))
    with pytest.raises(AsymmetricConnectingSet, match="repeated"):
        cayley_spectrum_abelian(3, 2, [v, v])
    with pytest.raises(AsymmetricConnectingSet, match="repeated"):
        cayley_spectrum_abelian(3, 2, [v, -v, -v, v])


def test_cayley_refuses_vectors_not_of_length_n():
    """The 2^20 guard reads q^n, so vectors longer than n would count
    q^length characters (here 2^22) and shorter ones a smaller group."""
    with pytest.raises(DimensionMismatch):
        cayley_spectrum_abelian(2, 1, [unit_vector(F2, 22, i) for i in range(22)])
    f5 = make_field(5)
    sphere = [unit_vector(f5, 3, i).scale(c) for i in range(3) for c in f5.nonzero()]
    with pytest.raises(DimensionMismatch):
        cayley_spectrum_abelian(5, 5, sphere)
    assert cayley_spectrum_abelian(5, 3, sphere).n == 125


def complex_character_spectrum(q: int, n: int, connecting_set) -> Spectrum:
    """Reference: the character sums as complex exponentials, the route the
    integer count replaced.  Integral sums (real parts within 1e-6 of an
    integer) give an exact spectrum with Python-int eigenvalues; anything
    else is grouped as floats."""
    field = connecting_set[0].field
    p = field.p
    coords = np.array([s.coords for s in connecting_set], dtype=np.intp)
    s_digits = field.digits[coords].reshape(len(connecting_set), -1)
    dim = s_digits.shape[1]
    chars = np.zeros((q**n, dim), dtype=np.int64)
    idx = np.arange(q**n)
    for j in range(dim):
        chars[:, j] = idx % p
        idx = idx // p
    lam = (np.exp(2j * math.pi / p) ** ((chars @ s_digits.T) % p)).sum(axis=1)
    assert np.abs(lam.imag).max(initial=0.0) <= 1e-9
    real = lam.real
    rounded = np.rint(real)
    if np.abs(real - rounded).max(initial=0.0) <= 1e-6:
        counts: dict[int, int] = {}
        for v in rounded.astype(np.int64).tolist():
            counts[v] = counts.get(v, 0) + 1
        distinct = tuple(sorted(counts, reverse=True))
        return Spectrum(distinct, tuple(counts[t] for t in distinct), exact=True)
    real.sort()
    return group_multiplicities(real[::-1].tolist(), tol=EIGENSOLVER_GROUP_TOL)


def _assert_equals_complex_reference(space):
    sphere = list(space.unit_sphere())
    got = cayley_spectrum_abelian(space.field.q, space.n, sphere)
    want = complex_character_spectrum(space.field.q, space.n, sphere)
    label = (space.name, tables.kind_of(space).params(space))
    assert got == want and got.exact, label
    assert all(type(t) is int for t in got.distinct + got.mults), label


def _table_3_to_5_spaces():
    for tid in (3, 4, 5):
        for row in tables.load_fixture(tid):
            yield tables.make_space(tables.TABLE_METRIC[tid], **row)


def _extra_spaces():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31):
        for n in range(1, 11):
            if q**n > 1024:
                break
            yield mt.PhaseRotationSpace(tables.field_for(q), n)
    yield mt.PhaseRotationSpace(tables.field_for(1021), 1)
    for q, n, b in ((2, 8, 3), (2, 10, 4), (3, 5, 2), (3, 6, 3), (4, 4, 2), (5, 3, 2)):
        yield mt.CyclicBurstSpace(mt.CyclicBurstParams(tables.field_for(q), n, b))
    for q, subspaces in ((4, "1,0,0;0,1,0;0,0,1;1,1,1"), (4, "1,0;0,1;1,2;1,3"),
                         (5, "1,0,0;0,1,0;0,0,1;1,2,3"), (5, "1,0,0;0,1,1;1,4,0")):
        yield tables.make_space("projective", q=q, subspaces=subspaces)
    for q, partition in ((7, "1,2|3"), (7, "1|2|3"), (9, "1|2,3"), (11, "1|2"), (11, "1,2")):
        yield tables.make_space("block", q=q, partition=partition)


@pytest.mark.parametrize("spaces,count", [
    (_table_3_to_5_spaces, 41),
    (lambda: (s for s in _criterion_9_spaces(200) if tables.kind_of(s).field_metric), 131),
    (_extra_spaces, 70),
], ids=["tables-3-to-5", "criterion-9-field-draws", "extra-spaces"])
def test_cayley_count_equals_complex_character_sums(spaces, count):
    """The integer count equals the complex character sums in value and type."""
    spaces = list(spaces())
    assert len(spaces) == count
    for space in spaces:
        _assert_equals_complex_reference(space)


def test_cayley_count_stays_within_its_byte_budget(monkeypatch):
    """Phase rotation's sphere over GF(2)^16: 2^16 characters x 17 orbit
    representatives.  A small budget splits the characters into blocks and
    keeps numpy's traced peak far below the unblocked V x R int64 product."""
    sphere = list(mt.PhaseRotationSpace(F2, 16).unit_sphere())
    unblocked = 2**16 * len(sphere) * 8

    def run(budget):
        monkeypatch.setattr(spectra, "GATHER_BYTES", budget)
        tracemalloc.start()
        try:
            return cayley_spectrum_abelian(2, 16, sphere), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    whole, whole_peak = run(2**24)
    blocked, blocked_peak = run(2**14)
    assert whole == blocked == phase_rotation_spectrum(2, 16)
    assert whole_peak > unblocked
    assert blocked_peak < unblocked / 20


@pytest.mark.parametrize("q,n", [(2, 4), (3, 2), (3, 3), (4, 2), (5, 2), (2, 6)])
def test_route_agreement(q, n):
    """Closed form == character sums == numeric eigensolver."""
    p = {4: (2, 2), 8: (2, 3), 9: (3, 2)}.get(q, (q, 1))
    space = mt.PhaseRotationSpace(make_field(*p), n)
    closed = phase_rotation_spectrum(q, n)
    chars = cayley_spectrum_abelian(q, n, list(space.unit_sphere()))
    numeric = spectrum_of_graph(gr.build_distance_graph(space))
    assert closed == chars
    assert numeric.mults == closed.mults
    for a, b in zip(numeric.distinct, closed.distinct):
        assert abs(a - b) < 1e-8


def test_spectrum_json():
    s = phase_rotation_spectrum(3, 2)
    assert s.as_json() == '{"distinct": [6, 0, -3], "mults": [1, 6, 2], "exact": true}'
