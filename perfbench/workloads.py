"""Inputs of the three workloads, made from the seed alone.

`tables_float` and `tables_exact` are fixed row sets (the bundled
reference tables); `random_sweep` is a seeded draw from the randomized
soundness criterion's instance distribution (six metrics in rotation,
ambient <= 256, k <= min(3, diameter)).
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass

from eigenbounds import metrics as mt
from eigenbounds import tables
from eigenbounds.algebra import FieldVector, unit_vector

TABLE_SETS = {
    "tables_float": (2, 6),     # city block, Varshamov: float spectra
    "tables_exact": (3, 4, 5),  # block, cyclic burst, phase rotation: exact
}
SWEEP = "random_sweep"
DEFAULT_SEED = 20250809  # the randomized soundness criterion's seed
SWEEP_POOL = 512   # draws made per seed; a run takes a prefix of their order
SWEEP_STRATA = 64  # equal-count strata of the pool (a power of two)


@dataclass(frozen=True)
class TableRow:
    table_id: int
    fixture: dict  # one CSV row, all cells as text

    @property
    def row_id(self) -> str:
        keys = tables.TABLE_KEYS[self.table_id]
        return f"t{self.table_id}[" + ",".join(
            f"{k}={self.fixture[k]}" for k in keys) + "]"


@dataclass(frozen=True)
class SweepInstance:
    index: int
    space: mt.MetricSpace
    k_draw: float  # uniform in [0, 1); picks k once the diameter is known

    @property
    def row_id(self) -> str:
        return f"sweep#{self.index}:{describe(self.space)}"

    def k_for(self, diameter: int) -> int:
        top = min(3, max(1, diameter))
        return 1 + int(self.k_draw * top)


def table_rows(workload: str) -> list[TableRow]:
    return [TableRow(tid, row) for tid in TABLE_SETS[workload]
            for row in tables.load_fixture(tid)]


def describe(space: mt.MetricSpace) -> str:
    """Short, stable text for a metric instance (hashed into the run record)."""
    if isinstance(space, mt.CityBlockSpace):
        return f"city_block(m={space.m},n={space.n})"
    if isinstance(space, mt.VarshamovSpace):
        return f"varshamov(n={space.n})"
    p = space.params
    q = space.field.q
    if isinstance(space, mt.ProjectiveSpace):
        subs = ";".join(",".join(map(str, v.coords)) for v in p.spanning_vectors)
        return f"projective(q={q},n={space.n},F={subs})"
    if isinstance(space, mt.PhaseRotationSpace):
        return f"phase_rotation(q={q},n={space.n})"
    if isinstance(space, mt.BlockSpace):
        return f"block(q={q},partition={tables.format_partition(p.partition)})"
    return f"cyclic_burst(q={q},n={space.n},b={p.b})"


def _random_space(kind: str, rng: random.Random):
    """One draw of the given kind, or None when the draw is out of range."""
    if kind == "city":
        m = rng.choice((3, 4, 5, 6))
        n_max = max(1, int(math.log(256, m)))
        return mt.CityBlockSpace(m, rng.randrange(1, n_max + 1))
    if kind == "projective":
        q = rng.choice((2, 3, 4))
        n = rng.randrange(2, 5)
        if q**n > 256:
            return None
        f = tables.field_for(q)
        vecs = [unit_vector(f, n, i) for i in range(n)]
        extras = rng.randrange(0, 3)
        tries = 0
        while extras and tries < 20:
            tries += 1
            v = FieldVector(f, tuple(rng.randrange(q) for _ in range(n)))
            if v.is_zero() or any(v.coords == w.scale(c).coords
                                  for w in vecs for c in f.nonzero()):
                continue
            vecs.append(v)
            extras -= 1
        return mt.ProjectiveSpace(mt.ProjectiveParams(f, n, tuple(vecs)))
    if kind == "pr":
        q = rng.choice((2, 3, 4, 5))
        n_max = int(math.log(256, q))
        return mt.PhaseRotationSpace(tables.field_for(q), rng.randrange(1, n_max + 1))
    if kind == "block":
        q = rng.choice((2, 3, 4))
        n_max = int(math.log(256, q))
        n = rng.randrange(2, max(3, n_max + 1))
        if q**n > 256:
            return None
        cuts = sorted(rng.sample(range(1, n), rng.randrange(0, n - 1))) + [n]
        partition, start = [], 1
        for cut in cuts:
            partition.append(tuple(range(start, cut + 1)))
            start = cut + 1
        return mt.BlockSpace(mt.BlockParams(tables.field_for(q), n, tuple(partition)))
    if kind == "burst":
        q = rng.choice((2, 3))
        n = rng.randrange(3, 9)
        if q**n > 256:
            return None
        b = rng.randrange(2, n)
        return mt.CyclicBurstSpace(mt.CyclicBurstParams(tables.field_for(q), n, b))
    return mt.VarshamovSpace(rng.randrange(2, 9))


def sweep_instances(seed: int, count: int) -> list[SweepInstance]:
    """The first `count` draws for `seed`, the six metrics in rotation."""
    rng = random.Random(seed)
    kinds = itertools.cycle(("city", "projective", "pr", "block", "burst", "var"))
    out: list[SweepInstance] = []
    while len(out) < count:
        space = _random_space(next(kinds), rng)
        if space is not None:
            out.append(SweepInstance(len(out), space, rng.random()))
    return out


def sweep_order(seed: int) -> list[SweepInstance]:
    """The seed's draws in stratified order.

    The pool is sorted by ambient size, metric and k draw (what a row's
    cost depends on) and cut into equal-count strata.  The run takes one
    draw from every stratum per round, in seeded order within a stratum;
    within a round the strata come in bit-reversed order, so a run that
    stops part-way through a round still spans small and large instances.
    Two seeds therefore give runs of the same make-up, while every row is
    one of the criterion's draws.
    """
    pool = sweep_instances(seed, SWEEP_POOL)
    pool.sort(key=lambda inst: (inst.space.ambient_size, inst.space.name, inst.k_draw))
    size = SWEEP_POOL // SWEEP_STRATA
    rng = random.Random(seed)
    strata = []
    for s in range(SWEEP_STRATA):
        stratum = pool[s * size:(s + 1) * size]
        rng.shuffle(stratum)
        strata.append(stratum)
    bits = SWEEP_STRATA.bit_length() - 1
    visit = [int(format(s, f"0{bits}b")[::-1], 2) for s in range(SWEEP_STRATA)]
    return [strata[s][i] for i in range(size) for s in visit]


def instance_hash(row_ids) -> str:
    h = hashlib.sha256()
    for rid in row_ids:
        h.update(rid.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]
