"""Finite field arithmetic, Gaussian elimination, polynomial evaluation."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from eigenbounds.algebra import (
    MAX_FIELD_ORDER,
    FieldVector,
    Polynomial,
    make_field,
    ones_vector,
    poly_eval,
    row_reduce,
    span_contains,
    unit_vector,
    zero_vector,
)
from eigenbounds.errors import DimensionMismatch, InvalidPrime


def test_gf2_basics():
    f = make_field(2, 1)
    assert f.add(1, 1) == 0
    assert f.mul(1, 1) == 1


def test_gf4_structure():
    f = make_field(2, 2)
    # the two non-{0,1} elements a, a+1 satisfy a*a = a+1 under x^2+x+1
    assert f.reduction_polynomial == (1, 1, 1)
    a = 2
    assert f.mul(a, a) == f.add(a, 1)


def test_gf3_arithmetic():
    f = make_field(3)
    assert f.mul(2, 2) == 1


def test_not_prime_rejected():
    with pytest.raises(InvalidPrime):
        make_field(6)
    with pytest.raises(InvalidPrime):
        make_field(1)


def test_field_order_cap():
    """GF(q) is built up to q = MAX_FIELD_ORDER = 1024 and refused above."""
    assert MAX_FIELD_ORDER == 1024
    assert make_field(2, 10).q == 1024 and make_field(1021).q == 1021
    with pytest.raises(InvalidPrime, match=r"GF\(2048\): field order exceeds 1024"):
        make_field(2, 11)
    with pytest.raises(InvalidPrime, match=r"GF\(1031\): field order exceeds 1024"):
        make_field(1031)
    with pytest.raises(InvalidPrime):
        make_field(2, 0)


# First monic irreducible in counting order, as each field's reduction
# polynomial (low coefficient first); prime fields reduce by x.
REDUCTION = {4: (1, 1, 1), 8: (1, 1, 0, 1), 9: (1, 0, 1), 16: (1, 1, 0, 0, 1),
             25: (2, 0, 1), 27: (1, 2, 0, 1), 32: (1, 0, 1, 0, 0, 1), 49: (1, 0, 1),
             64: (1, 1, 0, 0, 0, 0, 1), 81: (2, 1, 0, 0, 1), 121: (1, 0, 1),
             125: (1, 1, 0, 1), 128: (1, 1, 0, 0, 0, 0, 0, 1),
             243: (1, 2, 0, 0, 0, 1), 256: (1, 1, 0, 1, 1, 0, 0, 0, 1)}


def _prime_powers(limit):
    primes = [p for p in range(2, limit + 1) if all(p % d for d in range(2, p))]
    return [(p, k) for p in primes for k in range(1, limit.bit_length())
            if p**k <= limit]


def _reference_tables(p, k, reduction):
    """GF(p^k)'s digits and add, mul, neg and inv tables, built one element
    or pair at a time: each product is a polynomial multiplication reduced
    modulo the reduction polynomial."""
    q = p**k
    digits = [[a // p**i % p for i in range(k)] for a in range(q)]

    def index(d):
        return sum(c * p**i for i, c in enumerate(d))

    def mul_poly(da, db):
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % p
        for deg in range(2 * k - 2, k - 1, -1):
            c, prod[deg] = prod[deg], 0
            for i in range(k):
                prod[deg - k + i] = (prod[deg - k + i] - c * reduction[i]) % p
        return index(prod[:k])

    add = [[index([(x + y) % p for x, y in zip(digits[a], digits[b])]) for b in range(q)]
           for a in range(q)]
    mul = [[0] * q for _ in range(q)]
    for a in range(q):
        for b in range(a, q):
            mul[a][b] = mul[b][a] = mul_poly(digits[a], digits[b])
    neg = [index([-x % p for x in digits[a]]) for a in range(q)]
    inv = [0] + [row.index(1) for row in mul[1:]]
    return digits, add, mul, neg, inv


@pytest.mark.parametrize("p,k", _prime_powers(128) + [(3, 5), (2, 8)],
                         ids=lambda v: str(v))
def test_tables_equal_per_pair_reference(p, k):
    """The vectorized tables and the reduction polynomial equal the
    per-pair construction's, and so do the element-level operations."""
    f = make_field(p, k)
    q = f.q
    assert f.reduction_polynomial == REDUCTION.get(q, (0, 1))
    digits, add, mul, neg, inv = _reference_tables(p, k, f.reduction_polynomial)
    assert f.digits.tolist() == digits
    assert f.add_table.tolist() == add and f.mul_table.tolist() == mul
    assert f.neg_table.tolist() == neg and f.inv_table.tolist() == inv
    els = range(q)
    assert [[f.add(a, b) for b in els] for a in els] == add
    assert [[f.mul(a, b) for b in els] for a in els] == mul
    assert [f.neg(a) for a in els] == neg and [f.inv(a) for a in els[1:]] == inv[1:]


def _assert_field_axioms(f, a, b, c):
    """Every axiom on the triples (a, b, c), index arrays that broadcast."""
    add, mul = f.add_table, f.mul_table
    assert (add[add[a, b], c] == add[a, add[b, c]]).all()
    assert (mul[mul[a, b], c] == mul[a, mul[b, c]]).all()
    assert (mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]).all()
    assert (add[a, b] == add[b, a]).all() and (mul[a, b] == mul[b, a]).all()


def _assert_identities_and_inverses(f):
    e = np.arange(f.q)
    assert (f.digits @ f.p ** np.arange(f.k) == e).all()
    assert (f.add_table[e, 0] == e).all() and (f.mul_table[e, 1] == e).all()
    assert (f.mul_table[e, 0] == 0).all()
    assert (f.add_table[e, f.neg_table] == 0).all()
    assert (f.mul_table[e[1:], f.inv_table[1:]] == 1).all()


@pytest.mark.parametrize("p,k", _prime_powers(64), ids=lambda v: str(v))
def test_field_axioms_vectorized_exhaustive(p, k):
    """Every axiom on every triple of GF(q), q <= 64, read off the tables."""
    f = make_field(p, k)
    _assert_identities_and_inverses(f)
    e = np.arange(f.q)
    _assert_field_axioms(f, e[:, None, None], e[None, :, None], e[None, None, :])


@pytest.mark.parametrize("p,k", [(1021, 1), (2, 10)], ids=["1021", "1024"])
def test_field_axioms_vectorized_sampled(p, k):
    """The axioms on 10^5 random triples at the two largest orders."""
    f = make_field(p, k)
    _assert_identities_and_inverses(f)
    a, b, c = np.random.default_rng(2024).integers(f.q, size=(3, 10**5))
    _assert_field_axioms(f, a, b, c)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                 (2, 3), (3, 2), (2, 4), (13, 1), (11, 1)])
def test_field_axioms_exhaustive(p, k):
    """All axioms over every triple, for q <= 16."""
    f = make_field(p, k)
    assert f.q <= 16
    els = list(f.elements())
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
    for a, b, c in itertools.product(els, repeat=3):
        assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)


@pytest.mark.parametrize("p,k", [(5, 2), (3, 3), (2, 5)])
def test_field_axioms_random_large(p, k):
    """Randomized triples for q > 16."""
    f = make_field(p, k)
    rng = random.Random(2024)
    for _ in range(10**4):
        a, b, c = (rng.randrange(f.q) for _ in range(3))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
    for a in range(1, f.q):
        assert f.mul(a, f.inv(a)) == 1


def test_row_reduce_examples():
    f2 = make_field(2)
    e1 = unit_vector(f2, 2, 0)
    rank, basis = row_reduce([e1, e1])
    assert rank == 1 and len(basis) == 1
    f3 = make_field(3)
    rank, _ = row_reduce([FieldVector(f3, (1, 1)), FieldVector(f3, (1, 2))])
    assert rank == 2  # determinant 1*2 - 1*1 = 1 != 0 mod 3
    assert row_reduce([]) == (0, [])


def test_row_reduce_idempotent():
    f3 = make_field(3)
    rng = random.Random(7)
    for _ in range(50):
        rows = [FieldVector(f3, tuple(rng.randrange(3) for _ in range(4)))
                for _ in range(rng.randrange(1, 6))]
        rank, basis = row_reduce(rows)
        rank2, basis2 = row_reduce(basis)
        assert rank2 == rank
        assert basis2 == basis


def test_row_reduce_mixed_inputs():
    f2, f3 = make_field(2), make_field(3)
    with pytest.raises(DimensionMismatch):
        row_reduce([unit_vector(f2, 2, 0), unit_vector(f3, 2, 0)])
    with pytest.raises(DimensionMismatch):
        row_reduce([unit_vector(f2, 2, 0), unit_vector(f2, 3, 0)])


def test_span_contains_examples():
    f2 = make_field(2)
    e1 = unit_vector(f2, 3, 0)
    assert span_contains([e1], zero_vector(f2, 3))
    one = ones_vector(f2, 3)
    assert not span_contains([one], FieldVector(f2, (1, 1, 0)))
    assert span_contains([e1, one], FieldVector(f2, (0, 1, 1)))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_span_contains_against_bruteforce(q):
    """Agreement with enumeration of all q^|G| combinations, |G| <= 4."""
    p, k = (2, 2) if q == 4 else (q, 1)
    f = make_field(p, k)
    rng = random.Random(q)
    n = 4
    for _ in range(25):
        gens = [FieldVector(f, tuple(rng.randrange(q) for _ in range(n)))
                for _ in range(rng.randrange(1, 5))]
        v = FieldVector(f, tuple(rng.randrange(q) for _ in range(n)))
        combos = set()
        for coeffs in itertools.product(range(q), repeat=len(gens)):
            acc = zero_vector(f, n)
            for c, g in zip(coeffs, gens):
                acc = acc + g.scale(c)
            combos.add(acc.coords)
        assert span_contains(gens, v) == (v.coords in combos)


def test_poly_eval():
    assert poly_eval(Polynomial.from_list([0, 1]), 7) == 7
    assert poly_eval(Polynomial.from_list([1, 0, 1]), 2) == 5
    root = poly_eval(Polynomial.from_list([-3, 0, 1]), math.sqrt(3.0))
    assert abs(root) < 1e-12
    exact = poly_eval(Polynomial.from_list([1, 2]), Fraction(1, 2))
    assert exact == Fraction(2) and isinstance(exact, Fraction)


def test_polynomial_degree_and_scale():
    p = Polynomial.from_list([1, 0, 3, 0])
    assert p.degree == 2
    assert p.scale(2).coeffs[2] == Fraction(6)
