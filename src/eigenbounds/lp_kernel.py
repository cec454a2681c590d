"""Exact rational linear programming: two-phase primal simplex with Bland's
rule over standard-form programs (every variable x >= 0; callers split a
free variable into two columns), a feasibility front end that reports
Farkas row supports, a float-proposed optimum certified in exact
arithmetic, and the best-first binary enumeration driver used by the
inertia MILPs.

Every result is exact: programs hold Fractions (the callers rationalize
any floating-point spectra at fixed 2^40 denominators, see
spectral_bounds).  `certify_float_optimum` lets HiGHS pick a vertex in
floating point, but only an exact Gauss-Jordan solve and an exact primal
and dual check make it a result (Applegate, Cook, Dash & Espinoza, "Exact
solutions to linear programming problems", Oper. Res. Lett. 2007); when
a check fails it returns None and the caller runs the exact simplex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import index
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, NoFeasibleAssignment, TooLarge

MAX_VARIABLES = 128
FLOAT_ACTIVE_TOL = 1e-9  # relative: float values below it count as 0 when picking active sets

LE, EQ, GE = "<=", "==", ">="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """minimize objective . x subject to rows (coeffs, rel, rhs) and x >= 0.

    Standard form only: a caller with a free variable a splits it into two
    columns, a = x_plus - x_minus.
    """

    objective: tuple
    constraints: tuple


@dataclass
class LpResult:
    status: str
    value: Optional[Fraction] = None
    solution: Optional[tuple] = None
    farkas_rows: Optional[frozenset] = None  # constraint indices witnessing infeasibility


def _fr(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class _Tableau:
    """Dense simplex tableau over Fractions; rows + objective handled apart."""

    def __init__(self, rows: list[list[Fraction]], rhs: list[Fraction]):
        self.rows = rows
        self.rhs = rhs
        self.basis: list[int] = [-1] * len(rows)

    def pivot(self, r: int, c: int) -> None:
        piv = self.rows[r][c]
        inv = 1 / piv
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


def _run_simplex(tab: _Tableau, cost: list[Fraction],
                 banned: frozenset = frozenset()) -> tuple[str, Fraction, list[Fraction]]:
    """Minimize cost over the tableau's feasible region (Bland's rule).

    Returns (status, objective value, reduced costs).  The reduced-cost
    row is maintained incrementally like any other tableau row.
    """
    m = len(tab.rows)
    ncols = len(cost)
    rc = list(cost)
    value = Fraction(0)  # current objective value sum c_B * rhs
    for i in range(m):
        ci = cost[tab.basis[i]]
        if ci:
            row = tab.rows[i]
            for j in range(ncols):
                if row[j]:
                    rc[j] -= ci * row[j]
            value += ci * tab.rhs[i]
    while True:
        entering = -1
        for j in range(ncols):
            if rc[j] < 0 and j not in banned:
                entering = j
                break
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
            return UNBOUNDED, Fraction(0), rc
        tab.pivot(leaving, entering)
        f = rc[entering]
        if f:
            row = tab.rows[leaving]
            for j in range(ncols):
                if row[j]:
                    rc[j] -= f * row[j]
            value += f * tab.rhs[leaving]


def solve_lp(lp: LinearProgram) -> LpResult:
    """Exact optimum of a small standard-form LP (x >= 0) via two-phase simplex."""
    nvars = len(lp.objective)
    if nvars > MAX_VARIABLES:
        raise TooLarge(f"{nvars} variables exceeds the {MAX_VARIABLES} guard")

    # slacks, sign-fix, artificials; every row i reads its dual from dual_read[i]
    m = len(lp.constraints)
    rels = [rel for _, rel, _ in lp.constraints]
    rhs = [_fr(b) for _, _, b in lp.constraints]
    total = nvars + sum(rel != EQ for rel in rels) + m  # worst case: artificial on every row
    rows = []
    for coeffs, _, _ in lp.constraints:
        row = [_fr(c) for c in coeffs]
        if len(row) > nvars:
            raise DimensionMismatch(f"a row has {len(row)} coefficients for {nvars} variables")
        rows.append(row + [Fraction(0)] * (total - len(row)))
    next_col = nvars
    art_cols: list[int] = []
    dual_read: list[tuple[int, int]] = []  # (column, kind 0=slack 1=artificial)
    tab = _Tableau(rows, rhs)
    for i in range(m):
        if rels[i] == LE:
            rows[i][next_col] = Fraction(1)
            s_col = next_col
            next_col += 1
        elif rels[i] == GE:
            rows[i][next_col] = Fraction(-1)
            s_col = next_col
            next_col += 1
        else:
            s_col = -1
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
        if s_col >= 0 and rows[i][s_col] == 1:
            tab.basis[i] = s_col
            dual_read.append((s_col, 0))
        else:
            rows[i][next_col] = Fraction(1)
            art_cols.append(next_col)
            tab.basis[i] = next_col
            dual_read.append((next_col, 1))
            next_col += 1
    used = next_col
    for i in range(m):
        rows[i] = rows[i][:used]

    art_set = set(art_cols)
    if art_set:
        phase1 = [Fraction(1) if j in art_set else Fraction(0) for j in range(used)]
        status, value, rc = _run_simplex(tab, phase1)
        if status != OPTIMAL:  # pragma: no cover - phase 1 is always bounded
            raise AssertionError("phase-1 simplex cannot be unbounded")
        if value > 0:
            support = set()
            for i in range(m):
                col, kind = dual_read[i]
                y = (1 - rc[col]) if kind == 1 else -rc[col]
                if y != 0:
                    support.add(i)
            return LpResult(INFEASIBLE, farkas_rows=frozenset(support))
        # drive leftover artificials out of the basis where possible
        for i in range(m):
            if tab.basis[i] in art_set and tab.rhs[i] == 0:
                for j in range(used):
                    if j not in art_set and tab.rows[i][j] != 0:
                        tab.pivot(i, j)
                        break

    cost = [_fr(c) for c in lp.objective] + [Fraction(0)] * (used - nvars)
    status, value, _ = _run_simplex(tab, cost, banned=frozenset(art_set))
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED)
    solution = [Fraction(0)] * used
    for i, b in enumerate(tab.basis):
        solution[b] = tab.rhs[i]
    return LpResult(OPTIMAL, value, tuple(solution[:nvars]))


def _solve_exact(rows: list[list[Fraction]], rhs: list[Fraction],
                 ncols: int) -> Optional[list[Fraction]]:
    """The unique x with rows . x = rhs, by Gauss-Jordan over Fractions, or
    None when there is no solution or more than one."""
    tab = _Tableau(rows, rhs)
    unpivoted = list(range(len(rows)))
    for c in range(ncols):
        r = next((i for i in unpivoted if tab.rows[i][c]), None)
        if r is None:
            return None
        tab.pivot(r, c)
        unpivoted.remove(r)
    if any(tab.rhs[i] for i in unpivoted):
        return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(tab.basis):
        if c >= 0:
            x[c] = tab.rhs[i]
    return x


def certify_float_optimum(lp: LinearProgram) -> Optional[LpResult]:
    """The optimum of a standard-form LP from a HiGHS solve, proved exactly,
    or None when HiGHS fails or any exact check does (then run `solve_lp`).

    HiGHS's primal and dual solutions only pick the active sets.  The
    vertex x lives on the columns with x_j > 0 and solves the rows with
    zero slack, every EQ row included; the duals y live on the rows with
    y_i != 0 and solve B^T y = c_B over the columns with zero reduced cost.
    (At a degenerate vertex the tight rows outnumber the support and leave
    y undetermined, hence the float duals.)  One Fraction Gauss-Jordan
    solve per side, each with a unique solution, gives x and y.  The
    result stands only if x >= 0 and every row holds, y has the sign of
    each LE (<= 0) and GE (>= 0) row, every reduced cost c_j - A_j^T y is
    >= 0 and c.x = b.y: an exact proof of optimality, whatever the float
    solve did.
    """
    from scipy.optimize import linprog

    n = len(lp.objective)
    if n > MAX_VARIABLES:
        raise TooLarge(f"{n} variables exceeds the {MAX_VARIABLES} guard")
    if n == 0:  # linprog rejects an empty objective
        return None
    cost = [_fr(c) for c in lp.objective]
    rels = [rel for _, rel, _ in lp.constraints]
    rhs = [_fr(b) for _, _, b in lp.constraints]
    mat = []
    for coeffs, _, _ in lp.constraints:
        if len(coeffs) > n:
            raise DimensionMismatch(f"a row has {len(coeffs)} coefficients for {n} variables")
        mat.append([_fr(a) for a in coeffs] + [Fraction(0)] * (n - len(coeffs)))
    a_f = np.array(mat, dtype=float).reshape(len(mat), n)
    b_f, c_f = np.array(rhs, dtype=float), np.array(cost, dtype=float)
    ub = [i for i, rel in enumerate(rels) if rel != EQ]
    eq = [i for i, rel in enumerate(rels) if rel == EQ]
    sign = np.array([1.0 if rels[i] == LE else -1.0 for i in ub])
    res = linprog(c_f, bounds=(0, None), method="highs",
                  A_ub=a_f[ub] * sign[:, None] if ub else None,
                  b_ub=b_f[ub] * sign if ub else None,
                  A_eq=a_f[eq] if eq else None, b_eq=b_f[eq] if eq else None)
    if res.status != 0:
        return None
    x_f, y_f = res.x, np.zeros(len(mat))
    y_f[ub] = res.ineqlin.marginals * sign  # y_i = d(optimum) / d(b_i)
    y_f[eq] = res.eqlin.marginals

    x_scale = max(1.0, float(np.abs(x_f).max(initial=0.0)))
    y_scale = max(1.0, float(np.abs(y_f).max(initial=0.0)))
    abs_a = np.abs(a_f)
    row_tol = FLOAT_ACTIVE_TOL * np.maximum(np.maximum(1.0, np.abs(b_f)),
                                            abs_a.max(axis=1, initial=0.0) * x_scale)
    col_tol = FLOAT_ACTIVE_TOL * np.maximum(np.maximum(1.0, np.abs(c_f)),
                                            abs_a.max(axis=0, initial=0.0) * y_scale)
    in_support = x_f > FLOAT_ACTIVE_TOL * x_scale
    support = np.flatnonzero(in_support).tolist()
    dual_support = np.flatnonzero(np.abs(y_f) > FLOAT_ACTIVE_TOL * y_scale).tolist()
    tight_rows = np.flatnonzero((np.array(rels) == EQ)
                                | (np.abs(a_f @ x_f - b_f) <= row_tol)).tolist()
    tight_cols = np.flatnonzero(in_support | (np.abs(c_f - a_f.T @ y_f) <= col_tol)).tolist()
    primal = _solve_exact([[mat[i][j] for j in support] for i in tight_rows],
                          [rhs[i] for i in tight_rows], len(support))
    dual = _solve_exact([[mat[i][j] for i in dual_support] for j in tight_cols],
                        [cost[j] for j in tight_cols], len(dual_support))
    if primal is None or dual is None:
        return None

    x = [Fraction(0)] * n
    for j, v in zip(support, primal):
        x[j] = v
    y = [Fraction(0)] * len(mat)
    for i, v in zip(dual_support, dual):
        y[i] = v
    if any(v < 0 for v in x):
        return None
    for row, rel, b, yi in zip(mat, rels, rhs, y):
        lhs = sum(a * v for a, v in zip(row, x) if v)
        if (rel == LE and (lhs > b or yi > 0)) or (rel == GE and (lhs < b or yi < 0)) \
                or (rel == EQ and lhs != b):
            return None
    for j in range(n):
        if cost[j] < sum(row[j] * yi for row, yi in zip(mat, y) if yi):
            return None
    value = sum(c * v for c, v in zip(cost, x))
    if value != sum(b * yi for b, yi in zip(rhs, y)):
        return None
    return LpResult(OPTIMAL, value, tuple(x))


def solve_feasibility(constraints: Sequence, n_vars: int) -> LpResult:
    """Phase-1 only: feasibility of the constraint system over x >= 0."""
    lp = LinearProgram(tuple(Fraction(0) for _ in range(n_vars)), tuple(constraints))
    return solve_lp(lp)


# ----------------------------------------------------------------------
# Best-first binary enumeration
# ----------------------------------------------------------------------

def _subsets_of_weight(wts: list[int], target: int):
    """All b with sum(w_i b_i) == target, lexicographically ascending."""
    n = len(wts)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + wts[i]
    b = [0] * n

    def rec(i: int, need: int):
        if need < 0 or need > suffix[i]:
            return
        if i == n:
            yield tuple(b)
            return
        b[i] = 0
        yield from rec(i + 1, need)
        b[i] = 1
        yield from rec(i + 1, need - wts[i])
        b[i] = 0

    yield from rec(0, target)


def minimize_over_binaries(weights: Sequence[int], oracle: Callable[[tuple], bool],
                           max_nodes: int = 1 << 20) -> tuple[int, tuple]:
    """(weight, b) of the first feasible binary vector in order of
    increasing sum(w_i b_i), over nonnegative integer weights.

    Ties are broken lexicographically (so the all-ones vector is tested
    last).  Enumeration is lazy by target weight: achievable subset sums are
    computed by bitset DP, and only vectors of each achievable weight are
    generated.  `max_nodes` caps oracle calls.
    """
    wts = [index(w) for w in weights]
    if len(wts) > 64:
        raise TooLarge("more than 64 binary variables")
    if any(w < 0 for w in wts):
        raise TooLarge("weights must be nonnegative")
    total = sum(wts)
    if total > 10**7:
        raise TooLarge("weight range too large to enumerate by value")

    achievable = 1
    for w in wts:
        achievable |= achievable << w
    tested = 0
    for target in range(total + 1):
        if not (achievable >> target) & 1:
            continue
        for b in _subsets_of_weight(wts, target):
            tested += 1
            if tested > max_nodes:
                raise BudgetExceeded(f"enumeration exceeded {max_nodes} oracle calls")
            if oracle(b):
                return target, b
    raise NoFeasibleAssignment("no binary assignment satisfied the oracle")
