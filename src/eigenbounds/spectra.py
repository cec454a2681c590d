"""Adjacency spectra: closed forms, abelian-Cayley character counts, and a
dense numeric route, plus multiplicity grouping.

Exact spectra carry integer eigenvalues (phase rotation's closed form, the
field metrics' character counts); float spectra come from the eigensolver
or the city-block cosine formula and are grouped with a relative tolerance.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import FieldVector
from .errors import AmbientTooLarge, AsymmetricConnectingSet, DimensionMismatch, NotSymmetric
from .graphs import GATHER_BYTES

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
        if self.exact and not all(isinstance(t, numbers.Integral) for t in self.distinct):
            # the rational eigenvalues of an integer symmetric matrix are integers
            raise ValueError("an exact spectrum takes integer eigenvalues")

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
    """Exact spectrum of the Cayley graph on F_q^n, by counting.

    Characters r are digit vectors of (Z/p)^(k*n).  S must be a union of
    GF(p)^* orbits; with one representative rho per orbit (first nonzero
    digit 1), R of them, each orbit adds p - 1 to r's character sum where
    <r, rho> = 0 mod p and -1 elsewhere, so r's eigenvalue is p*Z(r) - R,
    Z(r) = #{rho : <r, rho> = 0 mod p}.  Each array a block of characters
    builds stays within GATHER_BYTES.
    """
    if not connecting_set:
        raise AsymmetricConnectingSet("empty connecting set")
    field = connecting_set[0].field
    if field.q != q:
        raise AsymmetricConnectingSet("connecting set not over GF(q)")
    if q**n > 2**20:
        raise AmbientTooLarge(f"{q}^{n} characters exceed the 2^20 guard")
    p = field.p
    coords = np.array([s.coords for s in connecting_set], dtype=np.intp)
    digits = field.digits[coords].reshape(len(connecting_set), -1)
    if digits.shape[1] != field.k * n:
        raise DimensionMismatch(f"connecting set vectors are not of length n = {n}")
    lead = digits[np.arange(len(digits)), (digits != 0).argmax(axis=1)]
    if not lead.all():
        raise AsymmetricConnectingSet("0 in connecting set")
    if len(np.unique(digits, axis=0)) != len(digits):
        raise AsymmetricConnectingSet("repeated vector in connecting set")
    # lead < p is a GF(p) element, so its field inverse is a digit too
    reps = np.unique(digits * field.inv_table[lead][:, None] % p, axis=0)
    orbits = len(reps)
    if len(digits) != (p - 1) * orbits:
        raise AsymmetricConnectingSet("connecting set not a union of GF(p)^* orbits")
    # r = (low digits | high digits): a block pairs all low parts with one high part
    dim = digits.shape[1]
    split = dim
    while split and p**split * max(split, orbits) * 8 > GATHER_BYTES:
        split -= 1
    low = np.arange(p**split)[:, None] // p ** np.arange(split) % p @ reps[:, :split].T % p
    weights = p ** np.arange(dim - split)
    z_counts = np.zeros(orbits + 1, dtype=np.int64)
    for high in range(p ** (dim - split)):
        target = -(high // weights % p @ reps[:, split:].T) % p
        z_counts += np.bincount(np.count_nonzero(low == target, axis=1), minlength=orbits + 1)
    z = np.flatnonzero(z_counts)[::-1]
    return Spectrum(tuple((p * z - orbits).tolist()), tuple(z_counts[z].tolist()), exact=True)
