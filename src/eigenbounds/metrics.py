"""The six discrete metric spaces: city block, projective, phase-rotation,
block, cyclic b-burst, Varshamov.

Every space exposes the same surface: `elements()` enumerates the ambient
set in lexicographic order with the all-zeros element at index 0,
`distance(x, y)` is the exact metric, and `adjacency()` is the 0/1 matrix
of the distance-1 graph in that order.  `adjacency()` works on vertex
indices alone: the index of a vertex is the mixed-radix number of its
coordinates (first coordinate most significant) in the space's `base`, and
`digits()` holds those coordinates for every vertex, so the unit sphere
around every vertex is a few numpy operations on index arrays, not a loop
over elements.  It equals the pairwise `distance(x, y) == 1` scan; the
equivalence is tested exhaustively.

City block elements are plain integer tuples, Varshamov elements are 0/1
tuples, the field metrics use :class:`~eigenbounds.algebra.FieldVector`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .algebra import (
    FieldVector,
    FiniteField,
    ones_vector,
    row_reduce,
    span_contains,
    unit_vector,
)
from .errors import AmbientTooLarge, DimensionMismatch, InternalError, InvalidElement

MAX_AMBIENT = 2**20

CITY_BLOCK = "city_block"
PROJECTIVE = "projective"
PHASE_ROTATION = "phase_rotation"
BLOCK = "block"
CYCLIC_BURST = "cyclic_burst"
VARSHAMOV = "varshamov"


# ----------------------------------------------------------------------
# Parameter records
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectiveParams:
    """A set F of one-dimensional subspaces given by spanning vectors."""

    field: FiniteField
    n: int
    spanning_vectors: tuple[FieldVector, ...]

    def __post_init__(self):
        vs = self.spanning_vectors
        if any(v.is_zero() or len(v) != self.n or v.field != self.field for v in vs):
            raise InvalidElement("spanning vectors must be nonzero, length n, over the field")
        rank, _ = row_reduce(list(vs))
        if rank != self.n:
            raise InvalidElement("subspaces must span the full space")
        # no subspace listed twice: spanning vectors pairwise non-proportional
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                if span_contains([vs[i]], vs[j]):
                    raise InvalidElement("duplicate one-dimensional subspace")

    @property
    def m(self) -> int:
        return len(self.spanning_vectors)


@dataclass(frozen=True)
class PhaseRotationParams:
    field: FiniteField
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidElement("n >= 1 required")

    def as_projective(self) -> ProjectiveParams:
        """The defining set {span(e_1),...,span(e_n),span(1)} (n >= 2)."""
        f, n = self.field, self.n
        vs = [unit_vector(f, n, i) for i in range(n)]
        if n >= 2:
            vs.append(ones_vector(f, n))
        return ProjectiveParams(f, n, tuple(vs))


@dataclass(frozen=True)
class BlockParams:
    """Partition of {1..n}; blocks stored sorted by descending size."""

    field: FiniteField
    n: int
    partition: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = [tuple(sorted(b)) for b in self.partition]
        if any(not b for b in blocks):
            raise InvalidElement("empty block")
        flat = sorted(itertools.chain.from_iterable(blocks))
        if flat != list(range(1, self.n + 1)):
            raise InvalidElement("blocks must partition {1..n}")
        blocks.sort(key=lambda b: (-len(b), b))
        object.__setattr__(self, "partition", tuple(blocks))

    @property
    def m(self) -> int:
        return len(self.partition)


@dataclass(frozen=True)
class CyclicBurstParams:
    field: FiniteField
    n: int
    b: int
    windows: tuple[frozenset, ...] = dc_field(init=False)

    def __post_init__(self):
        if not (2 <= self.b <= self.n - 1):
            raise InvalidElement("cyclic burst requires 2 <= b <= n-1")
        # A_i = {i+j mod n : j=1..b}, residue 0 written as n (1-indexed support)
        wins = []
        for i in range(self.n):
            win = frozenset(((i + j - 1) % self.n) + 1 for j in range(1, self.b + 1))
            wins.append(win)
        object.__setattr__(self, "windows", tuple(wins))


# ----------------------------------------------------------------------
# Distance functions (module-level operations)
# ----------------------------------------------------------------------

def city_block_distance(x: Sequence[int], y: Sequence[int], m: int) -> int:
    """Sum of coordinate-wise absolute differences on [[m-1]]^n."""
    if len(x) != len(y):
        raise DimensionMismatch("length mismatch")
    if any(not (0 <= v < m) for v in x) or any(not (0 <= v < m) for v in y):
        raise InvalidElement("entry outside 0..m-1")
    return sum(abs(a - b) for a, b in zip(x, y))


def projective_weight(x: FieldVector, params: ProjectiveParams) -> int:
    """Minimal number of subspaces of F whose joint span contains x.

    Increasing-cardinality subset search; exact but exponential in the
    answer, which is fine at desk scale (m <= ~12).
    """
    if x.is_zero():
        return 0
    vs = params.spanning_vectors
    for size in range(1, params.m + 1):
        for subset in itertools.combinations(vs, size):
            if span_contains(list(subset), x):
                return size
    raise InternalError("full-span invariant violated")  # pragma: no cover


def phase_rotation_weight(v: FieldVector, params: PhaseRotationParams) -> int:
    """min(wt(v), 1 + min_{c != 0} wt(v - c*1)): cover by e_i's, optionally 1."""
    f = params.field
    best = v.hamming_weight()
    if params.n >= 2:
        for c in f.nonzero():
            w = 1 + sum(1 for a in v.coords if a != c)
            if w < best:
                best = w
    else:
        best = min(best, 1)
    return best


def block_weight(v: FieldVector, params: BlockParams) -> int:
    supp = set(v.support())
    return sum(1 for blk in params.partition if supp.intersection(blk))


def cyclic_burst_weight(v: FieldVector, params: CyclicBurstParams) -> int:
    """Minimal number of width-b cyclic windows covering supp(v)."""
    supp = frozenset(v.support())
    if not supp:
        return 0
    wins = params.windows
    useful = [w for w in wins if w & supp]
    for size in range(1, len(supp) + 1):  # each window covers >= 1 support point
        for combo in itertools.combinations(useful, size):
            if supp <= frozenset().union(*combo):
                return size
    raise InternalError("windows cover [n], so a cover always exists")  # pragma: no cover


def varshamov_distance(x: Sequence[int], y: Sequence[int]) -> int:
    """max(N01, N10); cross-checked against the Hamming-weight form."""
    if len(x) != len(y):
        raise DimensionMismatch("length mismatch")
    if any(v not in (0, 1) for v in x) or any(v not in (0, 1) for v in y):
        raise InvalidElement("binary vectors required")
    n01 = sum(1 for a, b in zip(x, y) if a == 0 and b == 1)
    n10 = sum(1 for a, b in zip(x, y) if a == 1 and b == 0)
    by_max = max(n01, n10)
    wx, wy = sum(x), sum(y)
    doubled = (n01 + n10) + abs(wx - wy)
    if doubled != 2 * by_max:
        raise InternalError("the two Varshamov definitions disagree")
    return by_max


# ----------------------------------------------------------------------
# Space objects
# ----------------------------------------------------------------------

class MetricSpace:
    """Common surface: name, ambient_size, elements, distance, adjacency,
    digits."""

    name: str
    ambient_size: int
    n: int
    base: int  # every coordinate is one of 0..base-1

    def digits(self) -> tuple[np.ndarray, np.ndarray]:
        """(radix, digits): radix[i] = base^(n-1-i), and row v of digits holds
        the coordinates of the v-th element, so that digits @ radix ==
        arange(base^n)."""
        radix = self.base ** np.arange(self.n - 1, -1, -1, dtype=np.intp)
        digits = (np.arange(self.base**self.n, dtype=np.intp)[:, None] // radix) % self.base
        return radix, digits

    def elements(self) -> list:
        raise NotImplementedError

    def distance(self, x, y) -> int:
        raise NotImplementedError

    def adjacency(self) -> np.ndarray:
        """Symmetric 0/1 uint8 matrix with a 1 where d(x, y) = 1, rows and
        columns in `elements()` order."""
        raise NotImplementedError


def _edges_to_adjacency(size: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Symmetric 0/1 uint8 matrix with the edges {rows[i], cols[i]}."""
    adj = np.zeros((size, size), dtype=np.uint8)
    adj[rows, cols] = 1
    adj[cols, rows] = 1
    return adj


def _field_tuples(field: FiniteField, n: int) -> Iterator[FieldVector]:
    for coords in itertools.product(range(field.q), repeat=n):
        yield FieldVector(field, coords)


def _scalings(field: FiniteField, vectors: Iterable[FieldVector]) -> tuple[FieldVector, ...]:
    """Every nonzero multiple of each vector, in order of first appearance."""
    seen: dict[tuple, FieldVector] = {}
    for v in vectors:
        for c in field.nonzero():
            s = v.scale(c)
            seen.setdefault(s.coords, s)
    return tuple(seen.values())


def _window_vectors(field: FiniteField, n: int,
                    windows: Iterable[Iterable[int]]) -> tuple[FieldVector, ...]:
    """Every nonzero vector supported inside one window (1-indexed
    positions), window by window, in order of first appearance."""
    seen: dict[tuple, FieldVector] = {}
    for win in windows:
        positions = [p - 1 for p in sorted(win)]
        for values in itertools.product(range(field.q), repeat=len(positions)):
            if any(values):
                coords = [0] * n
                for pos, val in zip(positions, values):
                    coords[pos] = val
                seen.setdefault(tuple(coords), FieldVector(field, tuple(coords)))
    return tuple(seen.values())


class _FieldMetricSpace(MetricSpace):
    """Translation-invariant metric on F_q^n given by a weight function."""

    def __init__(self, field: FiniteField, n: int):
        self.field = field
        self.n = n
        self.base = field.q
        self.ambient_size = field.q**n

    def weight(self, v: FieldVector) -> int:
        raise NotImplementedError

    def distance(self, x: FieldVector, y: FieldVector) -> int:
        return self.weight(x - y)

    def elements(self) -> list[FieldVector]:
        return list(_field_tuples(self.field, self.n))

    def unit_sphere(self) -> tuple[FieldVector, ...]:
        """All weight-1 difference vectors; subclasses compute them once in
        `__init__`."""
        return self._unit_sphere

    def translations(self) -> np.ndarray:
        """V x |S| index table: column j maps every vertex x to x + s_j,
        s_j the j-th `unit_sphere()` vector."""
        radix, digits = self.digits()
        add = self.field.add_table
        sphere = np.array([s.coords for s in self.unit_sphere()], dtype=np.intp)
        table = np.zeros((len(digits), len(sphere)), dtype=np.intp)
        for i in range(self.n):  # one coordinate at a time keeps memory at V x |S|
            table += add[digits[:, i, None], sphere[None, :, i]] * radix[i]
        return table

    def adjacency(self) -> np.ndarray:
        table = self.translations()
        rows = np.broadcast_to(np.arange(len(table))[:, None], table.shape)
        return _edges_to_adjacency(len(table), rows, table)


class CityBlockSpace(MetricSpace):
    name = CITY_BLOCK

    def __init__(self, m: int, n: int):
        if m < 3:
            raise InvalidElement("city block requires m >= 3 (m=2 is the Hamming metric)")
        if n < 1:
            raise InvalidElement("n >= 1 required")
        self.m, self.n = m, n
        self.base = m
        self.ambient_size = m**n

    def elements(self) -> list[tuple[int, ...]]:
        return list(itertools.product(range(self.m), repeat=self.n))

    def distance(self, x, y) -> int:
        return city_block_distance(x, y, self.m)

    def adjacency(self) -> np.ndarray:
        """x ~ x + e_i wherever coordinate i is below m - 1."""
        radix, digits = self.digits()
        idx = np.arange(len(digits))
        rows = [idx[digits[:, i] < self.m - 1] for i in range(self.n)]
        cols = [r + radix[i] for i, r in enumerate(rows)]
        return _edges_to_adjacency(len(idx), np.concatenate(rows), np.concatenate(cols))


class ProjectiveSpace(_FieldMetricSpace):
    name = PROJECTIVE

    def __init__(self, params: ProjectiveParams):
        super().__init__(params.field, params.n)
        self.params = params
        self._unit_sphere = _scalings(self.field, params.spanning_vectors)

    def weight(self, v: FieldVector) -> int:
        return projective_weight(v, self.params)


class PhaseRotationSpace(_FieldMetricSpace):
    name = PHASE_ROTATION

    def __init__(self, field: FiniteField, n: int):
        super().__init__(field, n)
        self.params = PhaseRotationParams(field, n)
        gens = [unit_vector(field, n, i) for i in range(n)] + [ones_vector(field, n)]
        self._unit_sphere = _scalings(field, gens)

    def weight(self, v: FieldVector) -> int:
        return phase_rotation_weight(v, self.params)


class BlockSpace(_FieldMetricSpace):
    name = BLOCK

    def __init__(self, params: BlockParams):
        super().__init__(params.field, params.n)
        self.params = params
        self._unit_sphere = _window_vectors(self.field, self.n, params.partition)

    def weight(self, v: FieldVector) -> int:
        return block_weight(v, self.params)


class CyclicBurstSpace(_FieldMetricSpace):
    name = CYCLIC_BURST

    def __init__(self, params: CyclicBurstParams):
        super().__init__(params.field, params.n)
        self.params = params
        self._unit_sphere = _window_vectors(self.field, self.n, params.windows)

    def weight(self, v: FieldVector) -> int:
        return cyclic_burst_weight(v, self.params)


class VarshamovSpace(MetricSpace):
    name = VARSHAMOV

    def __init__(self, n: int):
        if n < 1:
            raise InvalidElement("n >= 1 required")
        self.n = n
        self.base = 2
        self.ambient_size = 2**n

    def elements(self) -> list[tuple[int, ...]]:
        return list(itertools.product((0, 1), repeat=self.n))

    def distance(self, x, y) -> int:
        return varshamov_distance(x, y)

    def adjacency(self) -> np.ndarray:
        """x ~ x with one bit flipped, and x ~ x with a 1 and a 0 swapped
        (bits a and b that differ, flipped together)."""
        idx = np.arange(self.ambient_size)
        rows, cols = [], []
        for a in range(self.n):
            rows.append(idx)
            cols.append(idx ^ (1 << a))
            for b in range(a):
                differ = idx[((idx >> a) ^ (idx >> b)) & 1 == 1]
                rows.append(differ)
                cols.append(differ ^ (1 << a | 1 << b))
        return _edges_to_adjacency(len(idx), np.concatenate(rows), np.concatenate(cols))


def enumerate_ambient(space: MetricSpace) -> list:
    """Canonical (lexicographic) enumeration; index 0 is the zero element."""
    if space.ambient_size > MAX_AMBIENT:
        raise AmbientTooLarge(f"ambient size {space.ambient_size} > {MAX_AMBIENT}")
    return space.elements()
