"""Exact finite-field arithmetic, vectors, Gaussian elimination, polynomials.

Field elements are represented as indices 0..q-1.  The index encodes the
element's coordinates over GF(p): index i has base-p digits (d_0, d_1, ...)
standing for d_0 + d_1*x + ... modulo the reduction polynomial.  This makes
0 and 1 land at indices 0 and 1 and makes the additive group of GF(q)
literally (Z/p)^k on digits, which the character machinery in `spectra`
relies on.  A field is built once as numpy tables (`FiniteField.digits`,
`add_table`, `mul_table`, `neg_table`, `inv_table`) by digit arithmetic;
the metric spaces, the incumbent search and the character sums index them
directly.  Orders above `MAX_FIELD_ORDER` are rejected: their q x q tables
would exceed the 2^20-entry guard that every space obeys.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, InternalError, InvalidPrime

MAX_FIELD_ORDER = 2**10  # q^2 table entries stay within 2^20


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# ----------------------------------------------------------------------
# Polynomial helpers over GF(p), coefficient lists low-to-high degree.
# Only what irreducibility-by-trial-division needs.
# ----------------------------------------------------------------------

def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a modulo monic-up-to-unit b, coefficients mod p."""
    a = list(a)
    db, lead = len(b) - 1, b[-1]
    inv_lead = pow(lead, p - 2, p)
    while len(a) - 1 >= db and _poly_trim(a):
        shift = len(a) - 1 - db
        factor = (a[-1] * inv_lead) % p
        for i, bc in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * bc) % p
        _poly_trim(a)
    return a


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg/2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for code in range(p**d):
            divisor = _digits(code, p, d) + [1]
            if not _poly_trim(_poly_mod(poly, divisor, p)):
                return False
    return True


def _digits(value: int, p: int, k: int) -> list[int]:
    out = []
    for _ in range(k):
        out.append(value % p)
        value //= p
    return out


class FiniteField:
    """GF(p^k) as numpy tables on element indices.

    `digits` is the q x k array of base-p digits, low digit first;
    `add_table` and `mul_table` (q x q), `neg_table` and `inv_table` (q)
    are intp arrays that vectorized callers index directly.  The
    element-level operations read list copies of them, which keeps them at
    Python-int speed.  Construct via :func:`make_field`; the constructor
    itself assumes a valid irreducible reduction polynomial.
    """

    def __init__(self, p: int, k: int, reduction_polynomial: Sequence[int]):
        self.p = p
        self.k = k
        self.q = q = p**k
        self.reduction_polynomial = tuple(reduction_polynomial)

        radix = p ** np.arange(k, dtype=np.intp)
        elements = np.arange(q, dtype=np.intp)
        self.digits = elements[:, None] // radix % p
        self.add_table = add = np.zeros((q, q), dtype=np.intp)
        for d, r in zip(self.digits.T, radix):  # by digit column: no q x q x k temporary
            add += (d[:, None] + d) % p * r
        # scalar[c, e] = c*e for c in GF(p), digit by digit
        scalar = np.arange(p)[:, None, None] * self.digits % p @ radix
        # x*e shifts e's digits up and folds its top digit t back in as
        # t*x^k = t*(-r_0 - r_1 x - ... - r_{k-1} x^{k-1})
        top = self.digits[:, -1]
        x_to_k = (-np.array(self.reduction_polynomial[:k]) % p) @ radix
        times_x = add[(elements - top * radix[-1]) * p, scalar[top, x_to_k]]
        # a*b = sum_i a_i (x^i b)
        mul = np.zeros((q, q), dtype=np.intp)
        power = elements
        for d in self.digits.T:
            mul = add[mul, scalar[d[:, None], power]]
            power = times_x[power]
        self.mul_table = mul
        self.neg_table = -self.digits % p @ radix
        self.inv_table = np.argmax(mul == 1, axis=1)
        if (mul[elements[1:], self.inv_table[1:]] != 1).any():  # pragma: no cover
            raise InternalError(f"GF({q}) has an element without inverse")
        # list copies for the element-level operations, sharing one int per element
        ints = elements.astype(object)
        self._add, self._mul = ints[add].tolist(), ints[mul].tolist()
        self._neg, self._inv = ints[self.neg_table].tolist(), ints[self.inv_table].tolist()

    # element-level operations -----------------------------------------
    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self._inv[a]

    def elements(self) -> range:
        return range(self.q)

    def nonzero(self) -> range:
        return range(1, self.q)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FiniteField)
                and (self.p, self.k, self.reduction_polynomial)
                == (other.p, other.k, other.reduction_polynomial))

    def __hash__(self) -> int:
        return hash((self.p, self.k, self.reduction_polynomial))

    def __repr__(self) -> str:
        return f"GF({self.q})"


_FIELD_CACHE: dict[tuple[int, int], FiniteField] = {}


def make_field(p: int, k: int = 1) -> FiniteField:
    """Build GF(p^k), p prime, p^k <= MAX_FIELD_ORDER.

    The reduction polynomial is the first monic irreducible of degree k in
    counting order of the non-leading coefficient vector (constant digit
    least significant), i.e. the lexicographically smallest choice.  All
    downstream results are independent of this choice.
    """
    if (p, k) in _FIELD_CACHE:
        return _FIELD_CACHE[(p, k)]
    if k < 1:
        raise InvalidPrime(f"degree k={k} < 1")
    if p**k > MAX_FIELD_ORDER:  # before the primality test, which is trial division
        raise InvalidPrime(f"GF({p**k}): field order exceeds {MAX_FIELD_ORDER}")
    if not is_prime(p):
        raise InvalidPrime(f"{p} is not prime")
    if k == 1:
        reduction = [0, 1]  # x itself; arithmetic is plain mod p
    else:
        for code in range(p**k):
            candidate = _digits(code, p, k) + [1]
            if _is_irreducible(candidate, p):
                reduction = candidate
                break
        else:  # pragma: no cover - an irreducible always exists
            raise InternalError(f"no irreducible of degree {k} over GF({p})")
    field = FiniteField(p, k, reduction)
    _FIELD_CACHE[(p, k)] = field
    return field


# ----------------------------------------------------------------------
# Vectors
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FieldVector:
    """Immutable vector over a finite field; coords are element indices."""

    field: FiniteField
    coords: tuple[int, ...]

    def __post_init__(self):
        if any(not (0 <= c < self.field.q) for c in self.coords):
            raise DimensionMismatch("coordinate index outside field")

    def __len__(self) -> int:
        return len(self.coords)

    def __add__(self, other: "FieldVector") -> "FieldVector":
        _check_compatible(self, other)
        f = self.field
        return FieldVector(f, tuple(f.add(a, b) for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "FieldVector") -> "FieldVector":
        _check_compatible(self, other)
        f = self.field
        return FieldVector(f, tuple(f.sub(a, b) for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "FieldVector":
        f = self.field
        return FieldVector(f, tuple(f.neg(a) for a in self.coords))

    def scale(self, c: int) -> "FieldVector":
        f = self.field
        return FieldVector(f, tuple(f.mul(c, a) for a in self.coords))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def support(self) -> tuple[int, ...]:
        """1-indexed positions of nonzero coordinates."""
        return tuple(i + 1 for i, c in enumerate(self.coords) if c != 0)

    def hamming_weight(self) -> int:
        return sum(1 for c in self.coords if c != 0)


def zero_vector(field: FiniteField, n: int) -> FieldVector:
    return FieldVector(field, (0,) * n)


def unit_vector(field: FiniteField, n: int, i: int) -> FieldVector:
    """Standard basis vector e_{i+1} (0-based position i)."""
    coords = [0] * n
    coords[i] = 1
    return FieldVector(field, tuple(coords))


def ones_vector(field: FiniteField, n: int) -> FieldVector:
    return FieldVector(field, (1,) * n)


def _check_compatible(a: FieldVector, b: FieldVector) -> None:
    if a.field != b.field or len(a.coords) != len(b.coords):
        raise DimensionMismatch("vectors over different fields or lengths")


def row_reduce(rows: Sequence[FieldVector]) -> tuple[int, list[FieldVector]]:
    """Row-echelon reduction; returns (rank, echelon basis).

    Idempotent: reducing the returned basis yields the same rank.
    """
    rows = list(rows)
    if not rows:
        return 0, []
    field = rows[0].field
    n = len(rows[0].coords)
    for r in rows[1:]:
        if r.field != field or len(r.coords) != n:
            raise DimensionMismatch("mixed fields or lengths in row_reduce")

    mat = [list(r.coords) for r in rows]
    basis: list[list[int]] = []
    pivot_cols: list[int] = []
    for row in mat:
        row = row[:]
        for b, col in zip(basis, pivot_cols):
            if row[col] != 0:
                factor = row[col]
                row = [field.sub(x, field.mul(factor, y)) for x, y in zip(row, b)]
        lead = next((i for i, x in enumerate(row) if x != 0), None)
        if lead is None:
            continue
        inv = field.inv(row[lead])
        row = [field.mul(inv, x) for x in row]
        basis.append(row)
        pivot_cols.append(lead)
    order = sorted(range(len(basis)), key=lambda i: pivot_cols[i])
    echelon = [FieldVector(field, tuple(basis[i])) for i in order]
    return len(echelon), echelon


def span_contains(generators: Sequence[FieldVector], v: FieldVector) -> bool:
    """True iff v is a linear combination of the generators."""
    if generators:
        _check_compatible(generators[0], v)
    rank_without, basis = row_reduce(generators)
    rank_with, _ = row_reduce(list(basis) + [v])
    return rank_with == rank_without


# ----------------------------------------------------------------------
# Real/rational polynomials (bound machinery)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Polynomial:
    """Polynomial a_0 + a_1 x + ... with exact rational coefficients."""

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def from_list(values: Sequence) -> "Polynomial":
        return Polynomial(tuple(Fraction(v) for v in values))

    @property
    def degree(self) -> int:
        for i in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[i] != 0:
                return i
        return 0

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        return Polynomial(tuple(a * c for a in self.coeffs))


def poly_eval(p: Polynomial, x):
    """Horner evaluation; exact inputs stay exact, floats stay float."""
    acc = 0 if not isinstance(x, float) else 0.0
    for a in reversed(p.coeffs):
        acc = acc * x + (float(a) if isinstance(x, float) else a)
    return acc
