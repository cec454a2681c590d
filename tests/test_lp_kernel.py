"""Exact simplex and the best-first binary enumeration driver."""

import itertools
import random
from fractions import Fraction

import pytest

from eigenbounds import lp_kernel, spectral_bounds, tables
from eigenbounds.errors import DimensionMismatch, NoFeasibleAssignment, TooLarge
from eigenbounds.lp_kernel import (
    EQ,
    GE,
    INFEASIBLE,
    LE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    LpResult,
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


def _boxed_programs():
    """1000 random LPs min c.x over Ax <= b, 0 <= x <= 5: (c, rows, program)."""
    rng = random.Random(99)
    for _ in range(1000):
        n = rng.randrange(2, 4)
        n_rows = rng.randrange(1, 5)
        c = tuple(F(rng.randrange(-4, 5)) for _ in range(n))
        rows = [(tuple(F(rng.randrange(-3, 4)) for _ in range(n)),
                 F(rng.randrange(-2, 7))) for _ in range(n_rows)]
        box = [(tuple(F(i == j) for j in range(n)), F(5)) for i in range(n)]
        yield c, rows, LinearProgram(c, tuple((row, LE, rhs) for row, rhs in rows + box))


def test_against_vertex_enumeration():
    """Random boxed LPs vs the exhaustive vertex oracle."""
    for case, (c, rows, lp) in enumerate(_boxed_programs()):
        expected = _bruteforce_lp(c, rows, ub=5)
        got = solve_lp(lp)
        if expected is None:
            assert got.status == INFEASIBLE, case
        else:
            assert got.status == OPTIMAL and got.value == expected, case


def _feasibility_systems():
    """400 random small systems over x >= 0: (rows, number of variables)."""
    rng = random.Random(7)
    for _ in range(400):
        n = rng.randrange(1, 4)
        yield [(tuple(F(rng.randrange(-3, 4)) for _ in range(n)),
                rng.choice((LE, EQ, GE)), F(rng.randrange(-4, 5)))
               for _ in range(rng.randrange(1, 6))], n


def test_farkas_rows_are_infeasible_alone():
    """On random infeasible systems over x >= 0, the rows `farkas_rows`
    names are infeasible by themselves: core pruning relies on it."""
    infeasible = 0
    for case, (rows, n) in enumerate(_feasibility_systems()):
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


# ----------------------------------------------------------------------
# Reference: the Fraction tableau that the integer kernel replaced
# ----------------------------------------------------------------------

class _FractionTableau:
    """Dense simplex tableau over Fractions, counting its pivots."""

    def __init__(self, rows, rhs):
        self.rows = rows
        self.rhs = rhs
        self.basis = [-1] * len(rows)
        self.pivots = 0

    def pivot(self, r, c):
        self.pivots += 1
        inv = 1 / self.rows[r][c]
        row = [x * inv for x in self.rows[r]]
        self.rows[r] = row
        self.rhs[r] *= inv
        for i in range(len(self.rows)):
            if i != r:
                f = self.rows[i][c]
                if f:
                    self.rows[i] = [a - f * b for a, b in zip(self.rows[i], row)]
                    self.rhs[i] -= f * self.rhs[r]
        self.basis[r] = c


def _fraction_run_simplex(tab, cost, banned=frozenset()):
    m = len(tab.rows)
    ncols = len(cost)
    rc = list(cost)
    value = F(0)
    for i in range(m):
        ci = cost[tab.basis[i]]
        if ci:
            row = tab.rows[i]
            for j in range(ncols):
                if row[j]:
                    rc[j] -= ci * row[j]
            value += ci * tab.rhs[i]
    while True:
        entering = next((j for j in range(ncols) if rc[j] < 0 and j not in banned), -1)
        if entering < 0:
            return OPTIMAL, value, rc
        leaving, best = -1, None
        for i in range(m):
            a = tab.rows[i][entering]
            if a > 0:
                ratio = tab.rhs[i] / a
                if best is None or ratio < best or (
                        ratio == best and tab.basis[i] < tab.basis[leaving]):
                    best, leaving = ratio, i
        if leaving < 0:
            return UNBOUNDED, F(0), rc
        tab.pivot(leaving, entering)
        f = rc[entering]
        if f:
            row = tab.rows[leaving]
            for j in range(ncols):
                if row[j]:
                    rc[j] -= f * row[j]
            value += f * tab.rhs[leaving]


def _fraction_solve_lp(lp):
    """(LpResult, pivots) of the two-phase Fraction simplex."""
    nvars = len(lp.objective)
    m = len(lp.constraints)
    rels = [rel for _, rel, _ in lp.constraints]
    rhs = [F(b) for _, _, b in lp.constraints]
    total = nvars + sum(rel != EQ for rel in rels) + m
    rows = [[F(c) for c in coeffs] + [F(0)] * (total - len(coeffs))
            for coeffs, _, _ in lp.constraints]
    next_col = nvars
    art_cols, dual_read = [], []
    tab = _FractionTableau(rows, rhs)
    for i in range(m):
        s_col = -1
        if rels[i] != EQ:
            rows[i][next_col] = F(1 if rels[i] == LE else -1)
            s_col = next_col
            next_col += 1
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
        if s_col >= 0 and rows[i][s_col] == 1:
            tab.basis[i] = s_col
            dual_read.append((s_col, 0))
        else:
            rows[i][next_col] = F(1)
            art_cols.append(next_col)
            tab.basis[i] = next_col
            dual_read.append((next_col, 1))
            next_col += 1
    used = next_col
    for i in range(m):
        rows[i] = rows[i][:used]
    art_set = set(art_cols)
    if art_set:
        _, value, rc = _fraction_run_simplex(tab, [F(j in art_set) for j in range(used)])
        if value > 0:
            support = frozenset(i for i, (col, kind) in enumerate(dual_read)
                                if ((1 - rc[col]) if kind == 1 else -rc[col]) != 0)
            return LpResult(INFEASIBLE, farkas_rows=support), tab.pivots
        for i in range(m):
            if tab.basis[i] in art_set and tab.rhs[i] == 0:
                for j in range(used):
                    if j not in art_set and tab.rows[i][j] != 0:
                        tab.pivot(i, j)
                        break
    cost = [F(c) for c in lp.objective] + [F(0)] * (used - nvars)
    status, value, _ = _fraction_run_simplex(tab, cost, banned=frozenset(art_set))
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED), tab.pivots
    solution = [F(0)] * used
    for i, b in enumerate(tab.basis):
        solution[b] = tab.rhs[i]
    return LpResult(OPTIMAL, value, tuple(solution[:nvars])), tab.pivots


@pytest.fixture
def integer_kernel(monkeypatch):
    """solve_lp of the integer kernel, returning its result and the number
    of pivots it took."""
    pivot, pivots, solve_lp = lp_kernel._Tableau.pivot, [], lp_kernel.solve_lp

    def counted(self, r, c):
        pivots.append((r, c))
        pivot(self, r, c)
    monkeypatch.setattr(lp_kernel._Tableau, "pivot", counted)

    def solve(lp):
        pivots.clear()
        result = solve_lp(lp)
        return result, len(pivots)
    return solve


def _assert_equal_to_fraction_kernel(integer_kernel, programs):
    """Equal LpResults and pivot counts on every program."""
    for case, lp in enumerate(programs):
        assert integer_kernel(lp) == _fraction_solve_lp(lp), case


def test_integer_kernel_equals_fraction_kernel_on_random_programs(integer_kernel):
    """Fraction-free pivoting takes the Fraction tableau's pivots: the same
    LpResult (status, value, solution, farkas_rows) and pivot count on the
    boxed, feasibility and random corpora above."""
    programs = [lp for _, _, lp in _boxed_programs()]
    for rows, n in _feasibility_systems():
        programs.append(LinearProgram((F(0),) * n, tuple(rows)))
    for kind in ("integer", "rationalized", "min-norm"):
        rng = random.Random(23)
        programs += [_random_program(rng, kind) for _ in range(200)]
    assert len(programs) == 2000
    _assert_equal_to_fraction_kernel(integer_kernel, programs)


def test_integer_kernel_equals_fraction_kernel_on_tables(integer_kernel, monkeypatch):
    """The same on every exact LP of tables 2-6: the 93 simplex programs,
    best-first feasibility and ratio LPs, all on tables 3-5."""
    programs, solve = [], lp_kernel.solve_lp

    def capture(lp):
        programs.append(lp)
        return solve(lp)
    # solve_feasibility looks solve_lp up in lp_kernel, spectral_bounds
    # calls the name it imported
    monkeypatch.setattr(lp_kernel, "solve_lp", capture)
    monkeypatch.setattr(spectral_bounds, "solve_lp", capture)
    assert all(tables.verify_table(t) for t in range(2, 7))
    assert len(programs) == 93
    _assert_equal_to_fraction_kernel(integer_kernel, programs)


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
