"""Adjacency spectra: closed forms, abelian-Cayley character sums, and a
dense numeric route, plus multiplicity grouping.

Exact spectra carry integer eigenvalues (the Cayley/phase-rotation cases);
float spectra come from the eigensolver or the city-block cosine formula
and are grouped with a relative tolerance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import FieldVector
from .errors import (
    AmbientTooLarge,
    AsymmetricConnectingSet,
    NotSymmetric,
    NumericalInconsistency,
)

CITY_BLOCK_GROUP_TOL = 1e-9
EIGENSOLVER_GROUP_TOL = 1e-8


@dataclass(frozen=True)
class Spectrum:
    """Distinct eigenvalues theta_0 > ... > theta_r with multiplicities."""

    distinct: tuple
    mults: tuple[int, ...]
    exact: bool

    def __post_init__(self):
        if len(self.distinct) != len(self.mults):
            raise ValueError("distinct/mults length mismatch")
        for a, b in zip(self.distinct, self.distinct[1:]):
            if not a > b:
                raise ValueError("distinct eigenvalues must be strictly descending")
        if any(m < 1 for m in self.mults):
            raise ValueError("multiplicities must be positive")

    @property
    def n(self) -> int:
        return sum(self.mults)

    @property
    def r(self) -> int:
        return len(self.distinct) - 1

    def trace(self):
        return sum(m * t for m, t in zip(self.mults, self.distinct))

    def as_json(self) -> str:
        distinct = [t if self.exact else float(t) for t in self.distinct]
        return json.dumps({"distinct": distinct, "mults": list(self.mults),
                           "exact": self.exact})


def eigs_symmetric(a: np.ndarray) -> list[float]:
    """All eigenvalues of a symmetric real matrix, descending."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.array_equal(a, a.T):
        raise NotSymmetric("input must be a symmetric square matrix")
    vals = np.linalg.eigvalsh(a)
    return vals[::-1].tolist()


def group_multiplicities(eigs: Sequence[float], tol: float = EIGENSOLVER_GROUP_TOL) -> Spectrum:
    """Merge consecutive values within tol*max(1, |theta|); mean representative."""
    if not eigs:
        return Spectrum((), (), exact=False)
    groups: list[list[float]] = [[float(eigs[0])]]
    for v in eigs[1:]:
        v = float(v)
        if v > groups[-1][-1] + 1e-15:
            raise ValueError("eigenvalues must be sorted descending")
        if abs(groups[-1][-1] - v) <= tol * max(1.0, abs(v)):
            groups[-1].append(v)
        else:
            groups.append([v])
    distinct = tuple(sum(gr) / len(gr) for gr in groups)
    mults = tuple(len(gr) for gr in groups)
    return Spectrum(distinct, mults, exact=False)


def spectrum_of_graph(g) -> Spectrum:
    """Numeric spectrum of a Graph's adjacency matrix."""
    return group_multiplicities(eigs_symmetric(g.adjacency))


def city_block_spectrum(m: int, n: int) -> Spectrum:
    """Eigenvalues sum_j 2cos(k_j pi/(m+1)) over tuples k in [m]^n.

    The city-block distance graph is the n-fold Cartesian product of the
    path on m vertices, so its spectrum is the n-fold sumset of the path
    spectrum.
    """
    if m**n > 2**20:
        raise AmbientTooLarge(f"{m}^{n} eigenvalues exceed the 2^20 guard")
    path_vals = 2.0 * np.cos(np.arange(1, m + 1) * math.pi / (m + 1))
    acc = path_vals.copy()
    for _ in range(n - 1):
        acc = (acc[:, None] + path_vals[None, :]).ravel()
    acc.sort()
    return group_multiplicities(acc[::-1].tolist(), tol=CITY_BLOCK_GROUP_TOL)


def phase_rotation_spectrum(q: int, n: int) -> Spectrum:
    """Exact integer spectrum of the phase-rotation distance graph.

    For n >= 2 each tuple r in [[q-1]]^n contributes the eigenvalue
    q*#{l: r_l = 0} + q*[sum r_l = 0 mod q] - n - 1; for n = 1 the graph
    is the complete graph on q vertices.
    """
    if n == 1:
        return Spectrum((q - 1, -1), (1, q - 1), exact=True)
    # ways[t][s] = #{(r_1..r_t) in {1..q-1}^t : sum = s mod q}
    ways = [1] + [0] * (q - 1)
    by_length = [ways]
    for _ in range(n):
        nxt = [0] * q
        for s, cnt in enumerate(ways):
            if cnt:
                for c in range(1, q):
                    nxt[(s + c) % q] += cnt
        by_length.append(nxt)
        ways = nxt
    counts: dict[int, int] = {}
    for z in range(n + 1):
        t = n - z
        zero_sum = by_length[t][0]
        total = (q - 1) ** t
        choose = math.comb(n, z)
        lam_hit = q * z + q - n - 1
        lam_miss = q * z - n - 1
        if zero_sum:
            counts[lam_hit] = counts.get(lam_hit, 0) + choose * zero_sum
        if total - zero_sum:
            counts[lam_miss] = counts.get(lam_miss, 0) + choose * (total - zero_sum)
    distinct = tuple(sorted(counts, reverse=True))
    return Spectrum(distinct, tuple(counts[t] for t in distinct), exact=True)


def cayley_spectrum_abelian(q: int, n: int,
                            connecting_set: Sequence[FieldVector]) -> Spectrum:
    """Spectrum of the Cayley graph on F_q^n via character sums.

    Each character r gives the eigenvalue sum_{s in S} zeta_p^<r, s> where
    the pairing runs over the (Z/p)^(k*n) digit coordinates.  Imaginary
    parts must cancel (S symmetric); near-integer real parts produce an
    exact spectrum, anything else is grouped as floats.
    """
    if not connecting_set:
        raise AsymmetricConnectingSet("empty connecting set")
    field = connecting_set[0].field
    if field.q != q:
        raise AsymmetricConnectingSet("connecting set not over GF(q)")
    if q**n > 2**20:
        raise AmbientTooLarge(f"{q}^{n} characters exceed the 2^20 guard")
    seen = {s.coords for s in connecting_set}
    for s in connecting_set:
        if s.is_zero():
            raise AsymmetricConnectingSet("0 in connecting set")
        if (-s).coords not in seen:
            raise AsymmetricConnectingSet("connecting set not closed under negation")

    p = field.p
    # coordinates of each s in the additive group (Z/p)^(k*n)
    coords = np.array([s.coords for s in connecting_set], dtype=np.intp)
    s_digits = field.digits[coords].reshape(len(connecting_set), -1)
    dim = s_digits.shape[1]
    # all q^n characters = all digit vectors of (Z/p)^dim, counting order
    chars = np.zeros((q**n, dim), dtype=np.int64)
    idx = np.arange(q**n)
    for j in range(dim):
        chars[:, j] = idx % p
        idx = idx // p
    phases = (chars @ s_digits.T) % p
    lam = np.exp(2j * math.pi / p) ** phases
    lam = lam.sum(axis=1)
    if np.abs(lam.imag).max(initial=0.0) > 1e-9:
        raise NumericalInconsistency("character sums have residual imaginary part")
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
