"""Classical comparison bounds: Plotkin-type and Hamming-type for the city
block metric, Singleton-type bounds for the projective / phase-rotation /
block / cyclic-burst metrics, and Varshamov's bound for the asymmetric
metric.  All outputs are exact (rationals where fractional values occur).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import FieldVector, row_reduce
from .errors import AmbientTooLarge, NotApplicable
from .metrics import BlockParams, ProjectiveParams, projective_weight

MAX_ENUM = 2**16


def plotkin_city_block(m: int, n: int, d: int) -> Optional[Fraction]:
    """2d / (2d - n(m-1)) when d > n(m-1)/2, else None (not applicable)."""
    if 2 * d <= n * (m - 1):
        return None
    return Fraction(2 * d, 2 * d - n * (m - 1))


def ball_size_city_block(x: Sequence[int], t: int, m: int) -> int:
    """|B_t(x)| in [[m-1]]^n via per-coordinate distance convolution."""
    if t < 0:
        return 0
    acc = [1] + [0] * t  # points counted by total distance spent so far
    for xi in x:
        coord = [0] * (t + 1)
        for s in range(t + 1):
            if s == 0:
                coord[0] = 1
            else:
                coord[s] = (1 if xi - s >= 0 else 0) + (1 if xi + s <= m - 1 else 0)
        nxt = [0] * (t + 1)
        for a in range(t + 1):
            if acc[a]:
                for b in range(t + 1 - a):
                    if coord[b]:
                        nxt[a + b] += acc[a] * coord[b]
        acc = nxt
    return sum(acc)


def hamming_city_block(m: int, n: int, d: int) -> Fraction:
    """m^n / eta_t, t = floor((d-1)/2), eta_t the smallest ball of radius t:
    the corner's.  Per coordinate, the corner's counts by distance (1, 1,
    ..., 1) are prefix-dominated by any other position's (1, 2, ..., 2, 1,
    ..., 1), both summing to m, and convolution over the n coordinates
    keeps that dominance.  NotApplicable for d < 1 (no radius t >= 0)."""
    if d < 1:
        raise NotApplicable("d >= 1 required")
    t = (d - 1) // 2
    return Fraction(m**n, ball_size_city_block((0,) * n, t, m))


def _span_elements(field, vectors: list[FieldVector]):
    n = len(vectors[0]) if vectors else 0
    for coeffs in itertools.product(field.elements(), repeat=len(vectors)):
        acc = [0] * n
        for c, v in zip(coeffs, vectors):
            if c:
                acc = [field.add(a, field.mul(c, b)) for a, b in zip(acc, v.coords)]
        yield FieldVector(field, tuple(acc))


def projective_mu(params: ProjectiveParams, t: int) -> int:
    """Largest size of an independent G subset of F with max weight of <G> <= t.

    Descending-size subset search; every span is enumerated outright
    (guarded at 2^16 elements).
    """
    field = params.field
    vs = params.spanning_vectors
    for size in range(min(params.m, params.n), 0, -1):
        if field.q**size > MAX_ENUM:
            raise AmbientTooLarge(f"span of size q^{size} exceeds the guard")
        for subset in itertools.combinations(vs, size):
            rank, _ = row_reduce(list(subset))
            if rank != size:
                continue
            if all(projective_weight(v, params) <= t
                   for v in _span_elements(field, list(subset))):
                return size
    return 0


def singleton_projective(params: ProjectiveParams, d: int) -> int:
    """q^(n - mu_F(d-1)); specializes to the classic Singleton bound."""
    if not 1 <= d <= params.n + 1:
        raise NotApplicable("need 1 <= d <= n+1")
    mu = projective_mu(params, d - 1)
    return params.field.q ** (params.n - mu)


def singleton_phase_rotation(q: int, n: int, d: int) -> int:
    """q^(n-d+1) when d < 1 + ceil(n - n/q), else 1."""
    if d < 1:
        raise NotApplicable("d >= 1 required")
    if d < 1 + (n - n // q):
        return q ** (n - d + 1)
    return 1


def singleton_block(params: BlockParams, d: int) -> int:
    """q^(sum of the block sizes from the d-th largest on)."""
    m = params.m
    if not 1 <= d <= m + 1:
        raise NotApplicable("need 1 <= d <= m+1")
    sizes = [len(b) for b in params.partition]  # already descending
    exponent = sum(sizes[d - 1:])
    return params.field.q ** exponent


def singleton_cyclic_burst(n: int, q: int, b: int, d: int) -> int:
    """Extended Reiger bound q^(n - b(d-1))."""
    exponent = n - b * (d - 1)
    if exponent < 0:
        raise NotApplicable("b(d-1) exceeds n")
    return q**exponent


def varshamov_bound(n: int, d: int) -> Fraction:
    """2^(n+1) over the halved-binomial sum; exact rational."""
    if d < 1:
        raise NotApplicable("d >= 1 required")
    lo, hi = n // 2, n - n // 2
    denom = sum(math.comb(lo, i) + math.comb(hi, i) for i in range(d))
    return Fraction(2 ** (n + 1), denom)
