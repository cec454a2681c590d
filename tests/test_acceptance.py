"""Acceptance suite: one test per criterion, each reporting a PASS/FAIL line.

The criteria, in order:
  1  Table 2 (city block) reproduces exactly.
  2  Table 5 (phase rotation) reproduces exactly.
  3  Tables 3 (block) and 4 (cyclic b-burst) reproduce exactly.
  4  Table 6 (Varshamov) reproduces exactly.
  5  Closed-form bounds equal the optimizing evaluators (exact rationals).
  6  Spectrum routes agree (closed form / characters / eigensolver).
  7  Distance-regularity criterion n=1 or n=2 or q=2, with c_2 = 6 witness.
  8  Triangle-count Delta formula.
  9  Soundness on 200 randomized instances; Varshamov definitions agree;
     metric axioms hold.
  10 Ratio-type vs Singleton-type comparison with the exact exception list.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import record_acceptance

from eigenbounds.algebra import FieldVector, Polynomial, make_field, unit_vector
from eigenbounds import classical_bounds as cb
from eigenbounds import graphs as gr
from eigenbounds import metrics as mt
from eigenbounds import spectral_bounds as sb
from eigenbounds import tables
from eigenbounds.errors import BudgetExceeded, NotApplicable
from eigenbounds.spectra import (
    cayley_spectrum_abelian,
    city_block_spectrum,
    phase_rotation_spectrum,
    spectrum_of_graph,
)

PRIME_POWERS_32 = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32)


def pr_sweep(limit=1024, min_n=1):
    for q in PRIME_POWERS_32:
        n = min_n
        while q**n <= limit:
            yield q, n
            n += 1


_GRAPH_CACHE: dict = {}


def pr_graph(q, n):
    if (q, n) not in _GRAPH_CACHE:
        space = mt.PhaseRotationSpace(tables.field_for(q), n)
        _GRAPH_CACHE[(q, n)] = gr.build_distance_graph(space)
    return _GRAPH_CACHE[(q, n)]


def check_table(criterion, table_id, note=""):
    lines = []
    ok = tables.verify_table(table_id, report=lines.append)
    fails = [l for l in lines if "FAIL" in l]
    detail = f"{len(lines)} rows" + (f"; {note}" if note else "")
    if fails:
        detail += " | " + " | ".join(fails[:4])
    record_acceptance(criterion, ok, detail)
    assert ok, fails


def test_criterion_1_table2_city_block():
    check_table("1: Table 2 (city block)", 2)


def test_criterion_2_table5_phase_rotation():
    check_table("2: Table 5 (phase rotation)", 5)


def test_criterion_3_tables3_and_4():
    lines3, lines4 = [], []
    ok3 = tables.verify_table(3, report=lines3.append)
    ok4 = tables.verify_table(4, report=lines4.append)
    record_acceptance("3: Tables 3 (block) and 4 (cyclic burst)", ok3 and ok4,
                      f"{len(lines3)}+{len(lines4)} rows")
    assert ok3 and ok4, [l for l in lines3 + lines4 if "FAIL" in l]


def test_criterion_4_table6_varshamov():
    check_table("4: Table 6 (Varshamov)", 6, note="Borden column reference-only")


def _closed_form_cases():
    for q in (2, 3, 4, 5):
        for n in range(2, 9):
            if q**n > 1024:
                continue
            yield q, n


def test_criterion_5_closed_form_consistency():
    failures = []
    checked = 0
    for q, n in _closed_form_cases():
        spec = phase_rotation_spectrum(q, n)
        for k in (1, 2, 3):
            try:
                closed = sb.phase_rotation_closed_bound(q, n, k).raw_value
            except NotApplicable:
                continue
            checked += 1
            lp = sb.minor_polynomial_lp(spec, k).raw_value
            if lp != closed:
                failures.append((q, n, k, "lp", lp, closed))
            if k == 1:
                other = sb.ratio_type_bound(spec, Polynomial.from_list([0, 1]),
                                            Fraction(0), 1).raw_value
            elif k == 2:
                other = sb.ratio_alpha2_closed(spec).raw_value
            else:
                delta = 0 if q == 2 else (n + 1) * (q - 1) * (q - 2)
                other = sb.ratio_alpha3_closed(spec, delta).raw_value
            if other != closed:
                failures.append((q, n, k, "theorem", other, closed))
    record_acceptance("5: closed-form consistency (exact rational equality)",
                      not failures, f"{checked} comparisons")
    assert not failures, failures[:5]


def test_criterion_6_spectrum_triple_agreement():
    failures = []
    checked = 0
    for q, n in pr_sweep():
        closed = phase_rotation_spectrum(q, n)
        space = mt.PhaseRotationSpace(tables.field_for(q), n)
        if cayley_spectrum_abelian(q, n, list(space.unit_sphere())) != closed:
            failures.append((q, n, "characters"))
        numeric = spectrum_of_graph(pr_graph(q, n))
        if tuple(numeric.mults) != tuple(closed.mults) or any(
                abs(a - b) > 1e-8 for a, b in zip(numeric.distinct, closed.distinct)):
            failures.append((q, n, "eigensolver"))
        checked += 1
    for m in range(3, 33):
        n = 1
        while m**n <= 1024:
            closed = city_block_spectrum(m, n)
            g = gr.build_distance_graph(mt.CityBlockSpace(m, n))
            numeric = spectrum_of_graph(g)
            if tuple(numeric.mults) != tuple(closed.mults) or any(
                    abs(a - b) > 1e-8
                    for a, b in zip(numeric.distinct, closed.distinct)):
                failures.append((m, n, "city"))
            checked += 1
            n += 1
    record_acceptance("6: spectrum triple agreement (characters == closed form; "
                      "eigensolver mults exact, values 1e-8)",
                      not failures, f"{checked} instances")
    assert not failures, failures[:5]


def test_criterion_7_distance_regularity_criterion():
    failures = []
    checked = 0
    c2_seen = None
    for q, n in pr_sweep():
        report = gr.is_distance_regular(pr_graph(q, n))
        expected = (n == 1) or (n == 2) or (q == 2)
        if report.is_distance_regular != expected:
            failures.append((q, n, report.is_distance_regular))
        if (q, n) == (3, 2):
            c2_seen = report.intersection_array[1][1]
        checked += 1
    if c2_seen != 6:
        failures.append(("c2", c2_seen))
    record_acceptance("7: distance-regular iff n=1 | n=2 | q=2; c2=6 at (3,2)",
                      not failures, f"{checked} instances")
    assert not failures, failures[:5]


def test_criterion_8_triangle_delta_formula():
    failures = []
    checked = 0
    for q, n in pr_sweep(min_n=3):
        delta = gr.triangle_delta(pr_graph(q, n))
        expected = 0 if q == 2 else (n + 1) * (q - 1) * (q - 2)
        if delta != expected:
            failures.append((q, n, delta, expected))
        checked += 1
    record_acceptance("8: Delta = 0 (q=2) or (n+1)(q-1)(q-2) (q>=3), n>=3",
                      not failures, f"{checked} instances")
    assert not failures, failures[:5]


# ----------------------------------------------------------------------
# Criterion 9: randomized soundness
# ----------------------------------------------------------------------

def _random_instances(count=400, seed=20250809):
    """Deterministic mix of all six metrics with ambient <= 256."""
    rng = random.Random(seed)
    kinds = itertools.cycle(("city", "projective", "pr", "block", "burst", "var"))
    made = 0
    while made < count:
        kind = next(kinds)
        if kind == "city":
            m = rng.choice((3, 4, 5, 6))
            n_max = max(1, int(math.log(256, m)))
            n = rng.randrange(1, n_max + 1)
            space = mt.CityBlockSpace(m, n)
        elif kind == "projective":
            q = rng.choice((2, 3, 4))
            n = rng.randrange(2, 5)
            if q**n > 256:
                continue
            f = tables.field_for(q)
            vecs = [unit_vector(f, n, i) for i in range(n)]
            extras = rng.randrange(0, 3)
            tries = 0
            while extras and tries < 20:
                tries += 1
                v = FieldVector(f, tuple(rng.randrange(q) for _ in range(n)))
                if v.is_zero():
                    continue
                if any(mt.projective_weight(v, mt.ProjectiveParams(f, n, tuple(vecs)))
                       == 1 for _ in (0,)):
                    # proportional to an existing subspace: skip
                    if any(v.coords == w.scale(c).coords
                           for w in vecs for c in f.nonzero()):
                        continue
                vecs.append(v)
                extras -= 1
            space = mt.ProjectiveSpace(mt.ProjectiveParams(f, n, tuple(vecs)))
        elif kind == "pr":
            q = rng.choice((2, 3, 4, 5))
            n_max = int(math.log(256, q))
            n = rng.randrange(1, n_max + 1)
            space = mt.PhaseRotationSpace(tables.field_for(q), n)
        elif kind == "block":
            q = rng.choice((2, 3, 4))
            n_max = int(math.log(256, q))
            n = rng.randrange(2, max(3, n_max + 1))
            if q**n > 256:
                continue
            cuts = sorted(rng.sample(range(1, n), rng.randrange(0, n - 1))) + [n]
            partition, start = [], 1
            for cut in cuts:
                partition.append(tuple(range(start, cut + 1)))
                start = cut + 1
            space = mt.BlockSpace(mt.BlockParams(tables.field_for(q), n,
                                                 tuple(partition)))
        elif kind == "burst":
            q = rng.choice((2, 3))
            n = rng.randrange(3, 9)
            if q**n > 256:
                continue
            b = rng.randrange(2, n)
            space = mt.CyclicBurstSpace(mt.CyclicBurstParams(tables.field_for(q), n, b))
        else:
            space = mt.VarshamovSpace(rng.randrange(2, 9))
        made += 1
        yield space, rng


def _axioms_hold(space):
    els = space.elements()
    n = len(els)
    d = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = space.distance(els[i], els[j])
    if np.any(np.diagonal(d) != 0) or np.any(d + np.eye(n, dtype=np.int64) <= 0):
        return False
    for lo in range(0, n, 64):
        hi = min(n, lo + 64)
        if np.any(np.min(d[lo:hi, :, None] + d[None, :, :], axis=1) != d[lo:hi]):
            return False
    return True


def test_criterion_9_randomized_soundness():
    failures = []
    axiom_checked = 0
    completed = 0
    skipped = 0
    for idx, (space, rng) in enumerate(_random_instances()):
        if completed >= 200:
            break
        g = gr.build_distance_graph(space)
        dist = gr.all_pairs_graph_distance(g)
        diam = int(dist[dist < gr.UNREACHABLE].max(initial=1))
        k = rng.randrange(1, min(3, max(1, diam)) + 1)
        d = k + 1
        oracle = gr.k_independence_number(
            g, k, max_nodes=20_000, automorphism_generators=tables.automorphism_generators(space))
        if not oracle.exact:
            # a handful of random instances are out of the exact oracle's
            # reach at this budget; soundness needs exact alpha, so redraw.
            # The budget counts nodes, so these draws depend on the seed
            # alone: each completed draw needs at most 9,444 nodes and
            # each redrawn one more than 150,000
            skipped += 1
            continue
        alpha = oracle.alpha
        completed += 1

        bounds = {}
        spec = tables.spectrum_for(space, g)
        cap = 4000  # random draws can have huge MILP optima; cap the search
        try:
            bounds["inertia"] = tables.inertia_bound(space, g, spec, k, max_nodes=cap).floored
        except BudgetExceeded:
            bounds["inertia"] = sb.inertia_type_bound(
                g, spec, Polynomial.from_list([0, 1]), k).floored
        kind = tables.kind_of(space)
        if kind.field_metric:
            bounds["ratio"] = sb.minor_polynomial_lp(spec, k).floored
        for name, bound in kind.classical.items():
            try:
                value = bound(space, d)
            except NotApplicable:
                continue
            if value is not None:
                bounds[name] = value

        for name, value in bounds.items():
            if value < alpha:
                failures.append((idx, space.name, k, name, value, alpha))
        if idx % 10 == 0:  # axiom spot checks across the mix
            axiom_checked += 1
            if not _axioms_hold(space):
                failures.append((idx, space.name, "axioms"))

    # Varshamov's two definitions agree exhaustively for n <= 8
    # (varshamov_distance raises InternalError on any disagreement)
    for n in range(1, 9):
        for x in itertools.product((0, 1), repeat=n):
            for y in itertools.product((0, 1), repeat=n):
                mt.varshamov_distance(x, y)

    ok = not failures and completed == 200
    record_acceptance(
        "9: soundness on 200 random instances (+axioms, +Varshamov defs)",
        ok, f"{completed} instances, {skipped} oracle-budget redraws, "
            f"{axiom_checked} axiom checks")
    assert ok, (failures[:5], completed)


def test_criterion_10_ratio_vs_singleton_exceptions():
    expected_exceptions = {(3, 3, 2), (3, 4, 3), (4, 4, 3)}  # (q, n, k)
    violations = set()
    checked = 0
    for q, n in _closed_form_cases():
        spec = phase_rotation_spectrum(q, n)
        for k in (1, 2, 3):
            ratio = sb.minor_polynomial_lp(spec, k).raw_value
            singleton = cb.singleton_phase_rotation(q, n, k + 1)
            checked += 1
            if ratio > singleton:
                violations.add((q, n, k))
    ok = violations == expected_exceptions
    record_acceptance("10: ratio <= singleton except {(3,3,2),(3,4,3),(4,4,3)}",
                      ok, f"{checked} comparisons; violations={sorted(violations)}")
    assert ok, violations
