"""Exact simplex and the best-first binary enumeration driver."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from eigenbounds.errors import DimensionMismatch, NoFeasibleAssignment, TooLarge
from eigenbounds.lp_kernel import (
    EQ,
    GE,
    INFEASIBLE,
    LE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    certify_float_optimum,
    minimize_over_binaries,
    solve_feasibility,
    solve_lp,
)

F = Fraction


def test_min_x_geq_3():
    r = solve_lp(LinearProgram((F(1),), (((F(1),), GE, F(3)),)))
    assert r.status == OPTIMAL and r.value == 3 and r.solution == (3,)


def test_infeasible():
    r = solve_lp(LinearProgram((F(0),), (((F(1),), LE, F(-1)),
                                         ((F(1),), GE, F(0)))))
    assert r.status == INFEASIBLE
    assert r.farkas_rows  # both rows participate


def test_unbounded():
    r = solve_lp(LinearProgram((F(-1),), (((F(1),), GE, F(0)),)))
    assert r.status == UNBOUNDED


def test_equality_and_bounds():
    # min x + y st x + y = 1, x <= 1, x, y >= 0
    lp = LinearProgram((F(1), F(1)), (((F(1), F(1)), EQ, F(1)),
                                      ((F(1), F(0)), LE, F(1))))
    r = solve_lp(lp)
    assert r.status == OPTIMAL and r.value == 1


def test_feasibility_wrapper():
    r = solve_feasibility([((F(1),), EQ, F(1)), ((F(1),), GE, F(0))], 1)
    assert r.status == OPTIMAL
    r = solve_feasibility([((F(1),), EQ, F(1)), ((F(1),), LE, F(0))], 1)
    assert r.status == INFEASIBLE


def test_guard():
    with pytest.raises(TooLarge):
        solve_lp(LinearProgram((F(0),) * 200, ()))


def test_row_longer_than_objective_raises():
    with pytest.raises(DimensionMismatch):
        solve_lp(LinearProgram((F(1),), (((F(1), F(1)), LE, F(1)),)))


def _bruteforce_lp(c, rows, ub):
    """Exact reference for min c.x over Ax<=b, 0<=x<=ub: enumerate every
    candidate vertex (all n-subsets of tight constraints) and keep the
    feasible minimum.  The box keeps the region bounded, so the vertex
    enumeration is complete."""
    n = len(c)
    cons = [(row, rhs) for row, rhs in rows]
    for i in range(n):
        lo = [F(0)] * n
        lo[i] = F(-1)
        cons.append((tuple(lo), F(0)))           # -x_i <= 0
        hi = [F(0)] * n
        hi[i] = F(1)
        cons.append((tuple(hi), F(ub)))          # x_i <= ub
    best = None
    for subset in itertools.combinations(range(len(cons)), n):
        mat = [list(cons[i][0]) for i in subset]
        rhs = [cons[i][1] for i in subset]
        x = _solve_square(mat, rhs)
        if x is None:
            continue
        if all(sum(a * xi for a, xi in zip(row, x)) <= b for row, b in cons):
            val = sum(ci * xi for ci, xi in zip(c, x))
            if best is None or val < best:
                best = val
    return best


def _solve_square(mat, rhs):
    n = len(rhs)
    a = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def test_against_vertex_enumeration():
    """Random boxed LPs vs the exhaustive vertex oracle."""
    rng = random.Random(99)
    for case in range(1000):
        n = rng.randrange(2, 4)
        n_rows = rng.randrange(1, 5)
        c = tuple(F(rng.randrange(-4, 5)) for _ in range(n))
        rows = [(tuple(F(rng.randrange(-3, 4)) for _ in range(n)),
                 F(rng.randrange(-2, 7))) for _ in range(n_rows)]
        expected = _bruteforce_lp(c, rows, ub=5)
        box = [(tuple(F(i == j) for j in range(n)), F(5)) for i in range(n)]
        lp = LinearProgram(c, tuple((row, LE, rhs) for row, rhs in rows + box))
        got = solve_lp(lp)
        if expected is None:
            assert got.status == INFEASIBLE, case
        else:
            assert got.status == OPTIMAL and got.value == expected, case


def test_farkas_rows_are_infeasible_alone():
    """On random infeasible systems over x >= 0, the rows `farkas_rows`
    names are infeasible by themselves: core pruning relies on it."""
    rng = random.Random(7)
    infeasible = 0
    for case in range(400):
        n = rng.randrange(1, 4)
        rows = [(tuple(F(rng.randrange(-3, 4)) for _ in range(n)),
                 rng.choice((LE, EQ, GE)), F(rng.randrange(-4, 5)))
                for _ in range(rng.randrange(1, 6))]
        got = solve_feasibility(rows, n)
        if got.status != INFEASIBLE:
            continue
        infeasible += 1
        core = sorted(got.farkas_rows)
        assert core and core[-1] < len(rows), case
        assert solve_feasibility([rows[i] for i in core], n).status == INFEASIBLE, case
    assert infeasible >= 50


def _rationalized(x: float) -> Fraction:
    return F(round(x * 2**40), 2**40)


def _random_program(rng, kind):
    """A random standard-form LP with LE, EQ and GE rows.  "integer" has small
    integer data (often degenerate); "rationalized" has floats rounded to
    denominator 2^40; "min-norm" mimics the inertia witness programs: free
    coefficients split over [x+ | x-], sum(x+ + x-) minimized, one EQ row,
    rationalized eigenvalue powers p(theta) <= -1 and a few GE rows."""
    if kind == "integer":
        n = rng.randrange(2, 7)
        rows = tuple((tuple(F(rng.randrange(-3, 4)) for _ in range(n)),
                      rng.choice((LE, EQ, GE)), F(rng.randrange(-4, 5)))
                     for _ in range(rng.randrange(1, 6)))
        return LinearProgram(tuple(F(rng.randrange(-1, 4)) for _ in range(n)), rows)
    if kind == "rationalized":
        n = rng.randrange(2, 7)
        rows = tuple((tuple(_rationalized(rng.uniform(-3, 3)) for _ in range(n)),
                      rng.choice((LE, EQ, GE)), _rationalized(rng.uniform(-3, 3)))
                     for _ in range(rng.randrange(1, 6)))
        return LinearProgram(tuple(_rationalized(rng.uniform(-0.5, 3)) for _ in range(n)), rows)
    deg = rng.randrange(1, 5)

    def split(coeffs, rel, rhs):
        return tuple(coeffs) + tuple(-c for c in coeffs), rel, rhs

    rows = [split([F(0)] + [_rationalized(rng.uniform(-2, 2)) for _ in range(deg)], EQ, F(0))]
    rows += [split([_rationalized(rng.uniform(-2, 2)) for _ in range(deg + 1)], GE, F(0))
             for _ in range(rng.randrange(0, 3))]
    for _ in range(rng.randrange(1, 7)):
        theta = rng.uniform(-4, 4)
        rows.append(split([_rationalized(theta ** i) for i in range(deg + 1)], LE, F(-1)))
    return LinearProgram((F(1),) * (2 * deg + 2), tuple(rows))


@pytest.mark.parametrize("kind", ["integer", "rationalized", "min-norm"])
def test_certified_float_optimum_equals_simplex(kind):
    """Whenever the float route returns a result, it is optimal, its solution
    satisfies every row exactly and its value equals the exact simplex's;
    on infeasible and unbounded programs it returns None."""
    rng = random.Random(23)
    tally = Counter()
    for case in range(200):
        lp = _random_program(rng, kind)
        exact = solve_lp(lp)
        got = certify_float_optimum(lp)
        tally[exact.status, got is not None] += 1
        if got is None:
            continue
        assert exact.status == OPTIMAL and got.status == OPTIMAL, case
        assert got.value == exact.value, case
        x = got.solution
        assert len(x) == len(lp.objective) and all(v >= 0 for v in x), case
        assert got.value == sum(c * v for c, v in zip(lp.objective, x)), case
        for coeffs, rel, rhs in lp.constraints:
            lhs = sum(a * v for a, v in zip(coeffs, x))
            assert {LE: lhs <= rhs, EQ: lhs == rhs, GE: lhs >= rhs}[rel], case
    assert tally[INFEASIBLE, True] == tally[UNBOUNDED, True] == 0
    assert tally[INFEASIBLE, False] >= 20
    assert tally[OPTIMAL, True] >= 75
    assert tally[OPTIMAL, True] >= 9 * tally[OPTIMAL, False]
    if kind != "min-norm":  # an all-ones objective over x >= 0 is bounded
        assert tally[UNBOUNDED, False] >= 10


def test_certify_float_optimum_guard_and_empty_program():
    with pytest.raises(TooLarge):
        certify_float_optimum(LinearProgram((F(0),) * 200, ()))
    assert certify_float_optimum(LinearProgram((), ())) is None


def test_minimize_over_binaries_basic():
    value, b = minimize_over_binaries([1, 1], lambda bb: sum(bb) >= 1)
    assert value == 1 and b == (0, 1)  # lexicographic tie-break


def test_minimize_over_binaries_all_ones_last():
    seen = []

    def oracle(b):
        seen.append(b)
        return b == (1, 1, 1)

    value, b = minimize_over_binaries([1, 1, 1], oracle)
    assert b == (1, 1, 1) and value == 3
    assert seen[-1] == (1, 1, 1) and len(seen) == 8


def test_minimize_over_binaries_none_feasible():
    with pytest.raises(NoFeasibleAssignment):
        minimize_over_binaries([2, 3], lambda b: False)


@pytest.mark.parametrize("seed", range(5))
def test_minimize_over_binaries_matches_full_enumeration(seed):
    rng = random.Random(seed)
    n = rng.randrange(4, 12)
    weights = [rng.randrange(1, 9) for _ in range(n)]
    mask = rng.randrange(1, 1 << n)
    threshold = rng.randrange(1, 4)

    def oracle(b):
        return sum(1 for i, bit in enumerate(b) if bit and (mask >> i) & 1) >= threshold

    # exhaustive reference over all 2^n (<= 2^12) vectors
    best = None
    for bits in itertools.product((0, 1), repeat=n):
        if oracle(bits):
            w = sum(wi for wi, bi in zip(weights, bits) if bi)
            if best is None or w < best[0] or (w == best[0] and bits < best[1]):
                best = (w, bits)
    if best is None:
        with pytest.raises(NoFeasibleAssignment):
            minimize_over_binaries(weights, oracle)
    else:
        value, b = minimize_over_binaries(weights, oracle)
        assert (value, b) == best
