"""Exact rational linear programming: two-phase primal simplex with Bland's
rule over standard-form programs (every variable x >= 0; callers split a
free variable into two columns), a feasibility front end that reports
Farkas row supports, and the best-first binary enumeration that the
inertia searches run on exact spectra.

Every result is exact: programs hold rationals, and in this package they
come from exact spectra only (a float-spectrum inertia search confirms
its MILP's point without an LP, and the ratio LP refuses a float
spectrum).  Each program is scaled once to integers, by the lcm of
its denominators, and pivoted fraction-free (Edmonds 1967; Bareiss 1968):
one integer tableau over one common denominator, every division exact.
The logical tableau, and so every pivot Bland's rule picks, is the one a
rational tableau would have; Fractions appear only in the results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import index
from typing import Callable, Optional, Sequence

from .errors import BudgetExceeded, DimensionMismatch, NoFeasibleAssignment, TooLarge

MAX_VARIABLES = 128

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


def _integral(rows: list[list[Fraction]]) -> tuple[list[list[int]], int]:
    """(rows times s, s) for s the lcm of every denominator in the rows.

    One common positive factor keeps the ratios between rows, so a simplex
    on the scaled rows takes the pivots it takes on the rational ones."""
    scale = math.lcm(*(a.denominator for row in rows for a in row))
    return [[a.numerator * (scale // a.denominator) for a in row] for row in rows], scale


class _Tableau:
    """Dense fraction-free tableau over ints (Edmonds 1967, Bareiss 1968).

    The logical tableau is rows / d for one common denominator d > 0; each
    row ends with its right-hand side, and a basic column holds d in its
    row.  Every stored entry is a minor of the integer program, so each
    pivot's division by the old d is exact.
    """

    def __init__(self, rows: list[list[int]]):
        self.rows = rows
        self.d = 1
        self.basis: list[int] = [-1] * len(rows)

    def pivot(self, r: int, c: int) -> None:
        """Pivot on (r, c); every row, a reduced-cost row appended by
        `_run_simplex` included, becomes (p * row - row[c] * pivot row) / d."""
        row = self.rows[r]
        p = row[c]
        if p < 0:  # keep d positive: negate the pivot row, not the logical one
            p, row = -p, [-a for a in row]
        d = self.d
        rows = self.rows
        for i, other in enumerate(rows):
            f = other[c]
            if i == r:
                rows[i] = row
            elif f:
                rows[i] = [(p * a - f * b) // d for a, b in zip(other, row)]
            elif p != d:
                rows[i] = [p * a // d for a in other]
        self.d = p
        self.basis[r] = c


def _run_simplex(tab: _Tableau, cost: list[int],
                 banned: frozenset = frozenset()) -> tuple[str, list[int]]:
    """Minimize cost over the tableau's feasible region (Bland's rule).

    `cost` is the true cost times one positive factor, which leaves every
    sign, and so every pivot, as it is.  Returns (status, reduced-cost
    row): entry j is d * rc_j times that factor, the last entry -d * value
    times it.  The row is kept as one more tableau row while pivoting.
    """
    m = len(tab.basis)
    rc = [tab.d * c for c in cost] + [0]
    for i in range(m):
        ci = cost[tab.basis[i]]
        if ci:
            rc = [a - ci * b for a, b in zip(rc, tab.rows[i])]
    tab.rows.append(rc)
    try:
        while True:
            rc = tab.rows[m]
            entering = next((j for j in range(len(cost)) if rc[j] < 0 and j not in banned), -1)
            if entering < 0:
                return OPTIMAL, rc
            leaving = -1
            for i in range(m):
                a = tab.rows[i][entering]
                if a > 0:
                    b = tab.rows[i][-1]
                    if leaving < 0:
                        leaving, best_b, best_a = i, b, a
                        continue
                    lhs, rhs = b * best_a, best_b * a  # rhs_i / a_i against the best ratio
                    if lhs < rhs or (lhs == rhs and tab.basis[i] < tab.basis[leaving]):
                        leaving, best_b, best_a = i, b, a
            if leaving < 0:
                return UNBOUNDED, rc
            tab.pivot(leaving, entering)
    finally:
        tab.rows.pop()


def solve_lp(lp: LinearProgram) -> LpResult:
    """Exact optimum of a small standard-form LP (x >= 0) via two-phase simplex."""
    nvars = len(lp.objective)
    if nvars > MAX_VARIABLES:
        raise TooLarge(f"{nvars} variables exceeds the {MAX_VARIABLES} guard")

    # scale to integers, then slacks, sign-fix, artificials (those columns
    # hold +-1 only); every row i reads its dual from dual_read[i]
    m = len(lp.constraints)
    rels = [rel for _, rel, _ in lp.constraints]
    total = nvars + sum(rel != EQ for rel in rels) + m  # worst case: artificial on every row
    program = []
    for coeffs, _, b in lp.constraints:
        if len(coeffs) > nvars:
            raise DimensionMismatch(f"a row has {len(coeffs)} coefficients for {nvars} variables")
        program.append([_fr(a) for a in coeffs] + [_fr(b)])
    rows = [row[:-1] + [0] * (total + 1 - len(row)) + row[-1:] for row in _integral(program)[0]]
    next_col = nvars
    art_cols: list[int] = []
    dual_read: list[tuple[int, int]] = []  # (column, kind 0=slack 1=artificial)
    tab = _Tableau(rows)
    for i, row in enumerate(rows):
        s_col = -1
        if rels[i] != EQ:
            row[next_col] = 1 if rels[i] == LE else -1
            s_col = next_col
            next_col += 1
        if row[-1] < 0:
            row[:] = [-a for a in row]
        if s_col >= 0 and row[s_col] == 1:
            tab.basis[i] = s_col
            dual_read.append((s_col, 0))
        else:
            row[next_col] = 1
            art_cols.append(next_col)
            tab.basis[i] = next_col
            dual_read.append((next_col, 1))
            next_col += 1
    used = next_col
    tab.rows = [row[:used] + row[-1:] for row in rows]

    art_set = set(art_cols)
    if art_set:
        status, rc = _run_simplex(tab, [int(j in art_set) for j in range(used)])
        if status != OPTIMAL:  # pragma: no cover - phase 1 is always bounded
            raise AssertionError("phase-1 simplex cannot be unbounded")
        if rc[-1] < 0:  # phase-1 value > 0
            # y_i = 1 - rc (artificial) or -rc (slack), rc = rc[col] / d
            support = frozenset(i for i, (col, kind) in enumerate(dual_read)
                                if rc[col] != (tab.d if kind == 1 else 0))
            return LpResult(INFEASIBLE, farkas_rows=support)
        # drive leftover artificials out of the basis where possible
        for i in range(m):
            if tab.basis[i] in art_set and tab.rows[i][-1] == 0:
                for j in range(used):
                    if j not in art_set and tab.rows[i][j] != 0:
                        tab.pivot(i, j)
                        break

    (cost,), scale = _integral([[_fr(c) for c in lp.objective]])
    status, rc = _run_simplex(tab, cost + [0] * (used - nvars), banned=frozenset(art_set))
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED)
    solution = [Fraction(0)] * used
    for i, b in enumerate(tab.basis):
        solution[b] = Fraction(tab.rows[i][-1], tab.d)
    return LpResult(OPTIMAL, Fraction(-rc[-1], tab.d * scale), tuple(solution[:nvars]))


def solve_feasibility(constraints: Sequence, n_vars: int) -> LpResult:
    """Feasibility of the constraint system over x >= 0: `solve_lp` with a zero objective."""
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
