"""Inertia-type and Ratio-type eigenvalue bounds on the k-independence
number, their optimal-polynomial MILP/LP formulations, and the closed
forms for the phase-rotation graph.

MILP conventions
----------------
The optimal-polynomial search minimizes m.b over binary patterns b, where
b_j = 0 forces p(theta_j) <= -1 and b_j = 1 leaves theta_j unconstrained,
in one program per search.  All other constraints are homogeneous in the
coefficients of p: diag(p(A))_u >= 0 for every class u of vertices sharing
a diagonal of A^0..A^k (see `inertia_milp`), one if the graph is walk-regular.
Exact spectra enumerate patterns best-first by weight, each checked by an
exact-rational feasibility LP (Farkas cores prune later patterns); the
first feasible one is optimal.  Float spectra solve the big-M form as one
HiGHS MILP (see `_propose_pattern`) and confirm its proposal from the
MILP's own point, made exact (`_PatternOracle.pin`): any exact p that
satisfies the pattern's rows proves it, so no optimality proof is needed
(Abiad, Coutinho & Fiol, Discrete Math. 2019).  A point that cannot be
pinned raises NumericalInconsistency; a reported value always comes from
an exactly confirmed pattern.  The best-first search's feasibility LPs
and the ratio LP use the exact simplex.  Exact here means integer:
`lp_kernel` scales each program to integers once and pivots
fraction-free, taking the pivots a rational tableau would take.

The Ratio-type bounds take exact spectra only and raise NotApplicable on
a float one: only the field metrics get them, and their spectra are
exact.

The MILPs run with the HiGHS options in `MILP_OPTIONS`.  Three primal
heuristics are off: Feasibility Jump, and the sub-MIP heuristics RENS and
RINS (Danna, Rothberg & Le Pape, Math. Program. 2005).
`mip_pscost_minreliable=0` skips reliability branching's strong-branching
LPs (Achterberg, Koch & Martin, Oper. Res. Lett. 2005): a variable's
pseudocosts count as reliable from the start.  On tables 2 and 6 these
MILPs have 7-27 columns and most close at the root node, yet the
heuristics and the strong branching took most of HiGHS's time there.  No
option can change an optimum value.  A heuristic only supplies
incumbents, the reliability setting only changes the branching order, and
`mip_rel_gap=0` still proves the optimum.  Every proposal is also
confirmed exactly.  Where patterns tie, HiGHS may return another of equal
weight.  Without strong branching, branch and bound takes more nodes,
each cheaper, so a `max_nodes` budget covers fewer instances: city block
(6,3) takes 597 nodes at k=2 (385 with strong branching) and 502 at k=3
(125).  scipy passes the options to HiGHS verbatim; a HiGHS build that
does not know one warns ("Unrecognized options detected") and skips it,
so the MILPs then run with that default.

Floating spectra (city block, Varshamov) enter the inertia programs
through eigenvalue powers rationalized at denominator 2^40 (error
< 1e-12); the winning polynomial is re-checked in floating point with
slack 1e-6.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial import chebyshev as C, polyutils as pu

# minimize_over_binaries is looked up on the module at call time, so a
# wrapper installed there sees every search
from . import lp_kernel
from .algebra import Polynomial, poly_eval
from .errors import (
    AssumptionViolated,
    BudgetExceeded,
    DegreeTooHigh,
    DimensionMismatch,
    InternalError,
    NotApplicable,
    NotRegular,
    NumericalInconsistency,
    TooFewEigenvalues,
)
from .graphs import Graph, diagonal_classes
from .lp_kernel import (
    EQ,
    GE,
    INFEASIBLE,
    LE,
    OPTIMAL,
    LinearProgram,
    solve_feasibility,
    solve_lp,
)
from .spectra import Spectrum

RATIONALIZE_DENOM = 1 << 40  # fixed power-of-two denominator, error < 1e-12
FLOAT_VERIFY_SLACK = 1e-6
FLOAT_COUNT_TOL = 1e-9


def rationalize(x) -> Fraction:
    """Exact values pass through; floats are rounded to denominator 2^40."""
    if isinstance(x, float):
        return Fraction(round(x * RATIONALIZE_DENOM), RATIONALIZE_DENOM)
    return Fraction(x)


@dataclass(frozen=True)
class BoundReport:
    bound_name: str
    raw_value: Fraction
    k: int
    exact: bool
    witness: Optional[dict] = None
    flags: tuple[str, ...] = ()

    @property
    def floored(self) -> int:
        return math.floor(self.raw_value)

    def as_json_dict(self) -> dict:
        return {"bound": self.bound_name, "raw": str(self.raw_value), "floored": self.floored,
                "k": self.k, "exact": self.exact, "flags": list(self.flags)}


# ----------------------------------------------------------------------
# Inertia-type bound: theorem evaluator
# ----------------------------------------------------------------------

def inertia_type_bound(g: Graph, spectrum: Spectrum, p: Polynomial, k: int) -> BoundReport:
    """alpha_k <= min(#{i: p(lam_i) >= w(p)}, #{i: p(lam_i) <= W(p)}).

    Counts run over the full eigenvalue multiset (sums of multiplicities
    over qualifying distinct values); W(p), w(p) are the extreme diagonal
    entries of p(A): the extremes of sum_i a_i u_i over the exact
    diagonal classes u of `graphs.diagonal_classes`.
    """
    if p.degree > k:
        raise DegreeTooHigh(f"deg {p.degree} > k={k}")
    if g.n_vertices != spectrum.n:
        raise DimensionMismatch(f"{spectrum.n} eigenvalues for {g.n_vertices} vertices")
    diag_vals = [sum(a * d for a, d in zip(p.coeffs, u))
                 for u in diagonal_classes(g.adjacency, len(p.coeffs) - 1)]
    w_p, big_w = min(diag_vals), max(diag_vals)

    def p_at(theta):
        return poly_eval(p, float(theta)) if not spectrum.exact else poly_eval(p, Fraction(theta))

    count_ge = 0
    count_le = 0
    for theta, mult in zip(spectrum.distinct, spectrum.mults):
        val = p_at(theta)
        if spectrum.exact:
            ge, le = val >= w_p, val <= big_w
        else:
            slack = FLOAT_COUNT_TOL * max(1.0, abs(val))
            ge, le = val >= float(w_p) - slack, val <= float(big_w) + slack
        count_ge += mult if ge else 0
        count_le += mult if le else 0
    bound = min(count_ge, count_le)
    return BoundReport("inertia_type", Fraction(bound), k, exact=spectrum.exact,
                       witness={"polynomial": p.coeffs, "W": big_w, "w": w_p})


# ----------------------------------------------------------------------
# Inertia-type MILPs
# ----------------------------------------------------------------------

def _eigen_power_table(spectrum: Spectrum, k: int) -> list[list[Fraction]]:
    """T[j][i] = theta_j^i, exact or rationalized power by power."""
    return [[rationalize(t**i if spectrum.exact else float(t) ** i) for i in range(k + 1)]
            for t in spectrum.distinct]


def _k1_inertia_value(spectrum: Spectrum) -> tuple[int, dict]:
    """Exact optimum of the inertia program for k=1.

    Degree-1 polynomials have constant diagonal a_0 >= 0, and lowering it
    to 0 keeps every pattern, so the optimum is min over sign sides of the
    multiplicity mass: the classical inertia bound.
    """
    tol = 0.0 if spectrum.exact else FLOAT_COUNT_TOL
    neg = sum(m for t, m in zip(spectrum.distinct, spectrum.mults) if t < -tol)
    pos = sum(m for t, m in zip(spectrum.distinct, spectrum.mults) if t > tol)
    value = spectrum.n - max(neg, pos)
    if neg >= pos:
        side, extreme = "negative", max((t for t in spectrum.distinct if t < -tol), default=None)
    else:
        side, extreme = "positive", min((t for t in spectrum.distinct if t > tol), default=None)
    coeff = Fraction(0) if extreme is None else -1 / rationalize(extreme)
    witness = {"polynomial": (Fraction(0), coeff), "excluded_side": side}
    return value, witness


MILP_COEFF_BOX = 1e4  # |c_i| <= box on the Chebyshev coefficients of p
# HiGHS options of every inertia MILP besides its node limit; the module
# docstring says why none of them can change an optimum value
MILP_OPTIONS = {"mip_rel_gap": 0,
                "mip_heuristic_run_feasibility_jump": False,
                "mip_heuristic_run_rens": False,
                "mip_heuristic_run_rins": False,
                "mip_pscost_minreliable": 0}


def _split(coeffs, rel, rhs) -> tuple:
    """A row over free coefficients a, rewritten over a = x+ - x- >= 0 with
    the columns ordered [x+ | x-]."""
    return (tuple(coeffs) + tuple(-c for c in coeffs), rel, rhs)


class _PatternOracle:
    """Exact-rational feasibility of the inertia program under zero-patterns.

    The program of pattern b is the base rows (one diagonal row per vertex
    class) plus p(theta_j) <= -1 for every b_j = 0, each row split over
    a = x+ - x- (see `_split`).  Calling the oracle on b decides that
    program's feasibility: the best-first search's test.  Infeasible
    patterns donate their Farkas row support as a core, and a later pattern
    whose zero-set contains a known core is rejected without an LP call.
    `pin` turns the float MILP's point into an exact witness of its
    pattern, solving no LP.
    """

    def __init__(self, base_rows: list, eig_table: list[list[Fraction]]):
        self.base_rows = base_rows
        self.eig_table = eig_table
        self.n_vars = len(eig_table[0])
        self.cores: list[int] = []
        self.last_solution = None
        self._split_base = tuple(_split(*row) for row in base_rows)
        self._split_eig = [_split(t, LE, Fraction(-1)) for t in eig_table]

    def _program(self, zeros: list[int]) -> tuple:
        return self._split_base + tuple(self._split_eig[j] for j in zeros)

    def _coefficients(self, solution: tuple) -> tuple:
        nv = self.n_vars
        return tuple(solution[i] - solution[nv + i] for i in range(nv))

    def __call__(self, b: tuple) -> bool:
        zeros = [j for j, bit in enumerate(b) if not bit]
        zero_mask = sum(1 << j for j in zeros)
        for core in self.cores:
            if core & zero_mask == core:
                return False
        result = solve_feasibility(self._program(zeros), 2 * self.n_vars)
        if result.status == INFEASIBLE:
            n_base = len(self._split_base)
            core = 0
            for idx in result.farkas_rows:
                if idx >= n_base:
                    core |= 1 << zeros[idx - n_base]
            if core:
                self.cores.append(core)
            return False
        self.last_solution = self._coefficients(result.solution)
        return True

    def pin(self, b: tuple, point: Sequence[float]) -> Optional[tuple]:
        """Exact coefficients of p satisfying every row of pattern b's
        program, made from the float coefficients `point`, or None when the
        point cannot be pinned.

        The point is rationalized and a_0 set to the least value every base
        row allows: each base row is a class diagonal u . a >= 0 with
        u_0 = (A^0)_vv = 1, so this makes the smallest class diagonal
        exactly 0.  Then p is scaled so that its largest value over b's
        zeros is exactly -1.  Both steps keep every row; the scaling needs
        that largest value < 0, else the point is rejected (a pattern
        without zeros is left unscaled).
        """
        a = [rationalize(float(x)) for x in point]
        a[0] = max(-sum(c * x for c, x in zip(u[1:], a[1:])) for u, _, _ in self.base_rows)
        top = max((sum(t * x for t, x in zip(self.eig_table[j], a))
                   for j, bit in enumerate(b) if not bit), default=-1)
        if top >= 0:
            return None
        return tuple(x / -top for x in a)


def _float_verify(spectrum: Spectrum, coeffs: Sequence[Fraction], b: tuple) -> None:
    """Re-evaluate the winning polynomial at float eigenvalues (slack 1e-6)."""
    p = Polynomial(tuple(coeffs))
    for theta, bit in zip(spectrum.distinct, b):
        if not bit and poly_eval(p, float(theta)) > -1 + FLOAT_VERIFY_SLACK:
            raise NumericalInconsistency(
                f"rationalized MILP winner fails float re-check at theta={theta}")


def _quiet_milp(*args, **kwargs):
    """scipy.optimize.milp with file descriptor 1 on the null device: HiGHS's
    MIP solver writes to it even with disp=False.  C stdio is flushed on
    both sides of the redirect: when stdout is not a terminal and Python
    runs buffered, HiGHS's text would otherwise wait in the C buffer and
    reach the real stdout after it is restored.  scipy warns about every
    option it passes to HiGHS verbatim (a RuntimeWarning), and its HiGHS
    wrapper about one HiGHS does not know (an OptimizeWarning); both are
    silenced too.  Process-wide, so not for use from threads."""
    import ctypes

    from scipy.optimize import milp

    libc = ctypes.CDLL(None)
    sys.stdout.flush()
    libc.fflush(None)
    saved, devnull = os.dup(1), os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, 1)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "Unrecognized options detected")
            return milp(*args, **kwargs)
    finally:
        libc.fflush(None)
        os.dup2(saved, 1)
        os.close(saved)
        os.close(devnull)


def _chebyshev_basis(spectrum: Spectrum, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(to_monomial, values) of T_0..T_k (k >= 1) on [theta_min, theta_max]:
    column i of to_monomial holds T_i's monomial coefficients, and
    values[j, i] is T_i(theta_j).  Both equal, bit for bit, what numpy's
    `Chebyshev.basis` objects on that domain give through `convert` and
    evaluation.  to_monomial is `chebval`'s Clenshaw recursion on all k + 1
    basis vectors at once: row i of c0 and c1 is vector i's series in t,
    on k + 1 columns, for the domain map x(t) = off + scl t.  A single
    eigenvalue theta gets the domain [theta - 1, theta + 1]."""
    theta = np.array([float(t) for t in spectrum.distinct])
    pad = float(theta.min() == theta.max())
    off, scl = pu.mapparms([theta.min() - pad, theta.max() + pad], [-1, 1])

    def times(c, x0, x1):  # every row's series times x0 + x1 t
        out = c * x0
        out[:, 1:] += c[:, :-1] * x1
        return out
    e = np.eye(k + 1)
    c0, c1 = np.zeros((2, k + 1, k + 1))
    c0[:, 0], c1[:, 0] = e[:, -2], e[:, -1]
    for i in range(3, k + 2):
        c0, c1 = -c1, c0 + times(c1, 2 * off, 2 * scl)
        c0[:, 0] += e[:, -i]
    return (c0 + times(c1, off, scl)).T, C.chebval(off + scl * theta, e).T


def _propose_pattern(spectrum: Spectrum, oracle: _PatternOracle,
                     max_nodes: int) -> tuple[int, tuple, np.ndarray]:
    """(weight, pattern, monomial coefficients of p) of the program's
    lightest pattern by one HiGHS MILP, all three in floating point.

    Variables: Chebyshev coefficients c of p on [theta_min, theta_max] with
    |c_i| <= MILP_COEFF_BOX (see `_chebyshev_basis`), then binaries b_j.
    |T_i| <= 1 there, so the big-M (k+1) * box + 2 never binds when b_j = 1;
    the box can only hide patterns, never admit one.  Raises BudgetExceeded
    if HiGHS stops unsolved.
    """
    from scipy.optimize import Bounds, LinearConstraint

    k = oracle.n_vars - 1
    to_monomial, values = _chebyshev_basis(spectrum, k)
    rows = np.array([[float(c) for c in coeffs] for coeffs, _, _ in oracle.base_rows]) @ to_monomial
    rows /= np.abs(rows).max(axis=1, keepdims=True)
    r1 = len(values)
    weights = np.concatenate([np.zeros(k + 1), spectrum.mults])
    constraints = [
        LinearConstraint(np.hstack([rows, np.zeros((len(rows), r1))]), 0, np.inf),
        LinearConstraint(np.hstack([values,
                                    -((k + 1) * MILP_COEFF_BOX + 2) * np.eye(r1)]), -np.inf, -1)]
    res = _quiet_milp(weights, constraints=constraints, integrality=weights > 0,
                      bounds=Bounds([-MILP_COEFF_BOX] * (k + 1) + [0] * r1,
                                    [MILP_COEFF_BOX] * (k + 1) + [1] * r1),
                      options={"node_limit": max_nodes, **MILP_OPTIONS})
    if res.status != 0:
        raise BudgetExceeded(f"inertia MILP unsolved within {max_nodes} nodes: {res.message}")
    b = tuple(int(round(x)) for x in res.x[k + 1:])
    return sum(m for m, bit in zip(spectrum.mults, b) if bit), b, to_monomial @ res.x[:k + 1]


def _inertia_search(spectrum: Spectrum, base_rows: list, eig_table: list,
                    max_nodes: int) -> tuple[int, dict]:
    """Lightest feasible pattern of the program with these base rows.

    Exact spectra: best-first search.  Float spectra: one HiGHS MILP
    proposes a pattern and its point, pinned exactly, confirms it.  A
    point that cannot be pinned raises NumericalInconsistency.  The MILP's
    rows have coefficients of at most about 1 and ask p <= -1 on the
    zeros, so a pin fails only if HiGHS breaks its own rows by about 1
    (on tables 2 and 6 the pinned value stays at most -0.9999998).
    """
    oracle = _PatternOracle(base_rows, eig_table)
    if spectrum.exact:
        weight, b = lp_kernel.minimize_over_binaries(spectrum.mults, oracle, max_nodes)
        return weight, {"pattern": b, "polynomial": oracle.last_solution}
    weight, b, point = _propose_pattern(spectrum, oracle, max_nodes)
    coeffs = oracle.pin(b, point)
    if coeffs is None:
        raise NumericalInconsistency(
            f"the inertia MILP's point does not satisfy its own pattern {b}")
    _float_verify(spectrum, coeffs, b)
    return weight, {"pattern": b, "polynomial": coeffs}


def _inertia_bound(name: str, g: Optional[Graph], spectrum: Spectrum, k: int,
                   max_nodes: int) -> BoundReport:
    """The bound of the program with one row u . a >= 0 per distinct diagonal
    vector u = ((A^0)_vv, ..., (A^k)_vv): g's `graphs.diagonal_classes`, or
    with g None a walk-regular graph's one vector, read off the spectrum as
    u_i = (1/n) sum_j m_j theta_j^i (whole numbers on an exact spectrum)."""
    if k == 1:
        value, witness = _k1_inertia_value(spectrum)
    else:
        table = _eigen_power_table(spectrum, k)
        classes = diagonal_classes(g.adjacency, k) if g is not None else [
            tuple(sum(m * t for m, t in zip(spectrum.mults, col)) / spectrum.n
                  for col in zip(*table))]
        value, witness = _inertia_search(spectrum, [(u, GE, 0) for u in classes], table, max_nodes)
    return BoundReport(name, Fraction(value), k, exact=spectrum.exact, witness=witness)


def inertia_milp(g: Graph, spectrum: Spectrum, k: int,
                 max_nodes: int = 1 << 20) -> BoundReport:
    """Optimal-polynomial Inertia-type bound for arbitrary graphs.

    One program for the whole graph: sum_i a_i u_i >= 0 for every
    distinct diagonal vector u = ((A^0)_vv, ..., (A^k)_vv), in the sorted
    order `graphs.diagonal_classes` gives them (u determines
    diag(p(A))_v; walk counts past int64 raise TooLarge there).  Its
    optimum is the minimum over the per-vertex programs that pin one
    class's diagonal to 0: each of those only adds its pin, and a feasible
    p minus its smallest class diagonal w >= 0 is feasible for that class,
    with the same pattern, as every p(theta_j) only drops.
    `max_nodes` is a work budget, not a time, so no result depends on
    machine speed: it caps the patterns the search tries, and on float
    spectra also HiGHS's branch-and-bound nodes.  Running out raises
    BudgetExceeded; a spectrum whose size is not g's raises
    DimensionMismatch.
    """
    if g.n_vertices != spectrum.n:
        raise DimensionMismatch(f"{spectrum.n} eigenvalues for {g.n_vertices} vertices")
    return _inertia_bound("inertia_milp", g, spectrum, k, max_nodes)


def inertia_milp_walkreg(spectrum: Spectrum, k: int,
                         max_nodes: int = 1 << 20) -> BoundReport:
    """Optimal-polynomial Inertia-type bound from the spectrum alone.

    Valid for k-partially walk-regular graphs (caller-verified): every
    vertex has the same diagonal (A^i)_vv = (1/n) sum_j m_j theta_j^i for
    i <= k, so the program is `inertia_milp`'s with that one class.
    `max_nodes` is the work budget described at `inertia_milp`.
    """
    return _inertia_bound("inertia_milp_walkreg", None, spectrum, k, max_nodes)


# ----------------------------------------------------------------------
# Ratio-type bound
# ----------------------------------------------------------------------

def _exact_eigenvalues(spectrum: Spectrum) -> list[Fraction]:
    """The distinct eigenvalues as Fractions; NotApplicable on a float
    spectrum, which the Ratio-type bounds do not take."""
    if not spectrum.exact:
        raise NotApplicable("the Ratio-type bounds need an exact spectrum")
    return [Fraction(t) for t in spectrum.distinct]


def ratio_type_bound(spectrum: Spectrum, p: Polynomial, big_w, k: int,
                     degrees: Optional[Sequence[int]] = None) -> BoundReport:
    """alpha_k <= n (W(p) - lambda(p)) / (p(theta_0) - lambda(p)).

    W is the max diagonal of p(A), supplied by the caller (for walk-regular
    graphs it is (1/n) sum m_i p(theta_i)); lambda(p) minimizes p over the
    distinct eigenvalues theta_1..theta_r.
    """
    if degrees is not None and len(set(int(d) for d in degrees)) > 1:
        raise NotRegular("ratio-type bound requires a regular graph")
    if p.degree > k:
        raise DegreeTooHigh(f"deg {p.degree} > k={k}")
    if spectrum.r < 1:
        raise TooFewEigenvalues("need at least two distinct eigenvalues")
    theta = _exact_eigenvalues(spectrum)
    p_top = poly_eval(p, theta[0])
    lam = min(poly_eval(p, t) for t in theta[1:])
    big_w = Fraction(big_w)
    if not p_top > lam:
        raise AssumptionViolated("p(lambda_1) > lambda(p) fails")
    value = spectrum.n * (big_w - lam) / (p_top - lam)
    return BoundReport("ratio_type", value, k, exact=True,
                       witness={"polynomial": p.coeffs, "lambda_p": lam, "W": big_w})


def ratio_alpha2_closed(spectrum: Spectrum) -> BoundReport:
    """Best degree-2 Ratio-type bound: pivot on the largest eigenvalue <= -1."""
    if spectrum.r < 2:
        raise TooFewEigenvalues("alpha_2 closed form needs r >= 2")
    theta = _exact_eigenvalues(spectrum)
    idx = next((i for i, t in enumerate(theta) if t <= -1), None)
    if idx is None or idx == 0:
        raise NotApplicable("no eigenvalue <= -1 below theta_0")
    t0, ti, tim1 = theta[0], theta[idx], theta[idx - 1]
    value = spectrum.n * (t0 + ti * tim1) / ((t0 - ti) * (t0 - tim1))
    return BoundReport("ratio_alpha2", value, 2, exact=True,
                       witness={"theta_i": ti, "theta_im1": tim1})


def ratio_alpha3_closed(spectrum: Spectrum, delta: int) -> BoundReport:
    """Best degree-3 Ratio-type bound; delta = max diagonal of A^3."""
    if spectrum.r < 3:
        raise TooFewEigenvalues("alpha_3 closed form needs r >= 3")
    theta = _exact_eigenvalues(spectrum)
    t0, tr = theta[0], theta[-1]
    if tr == -1:
        raise NotApplicable("theta_r = -1 makes the threshold undefined")
    threshold = -(t0 * t0 + t0 * tr - delta) / (t0 * (tr + 1))
    ge = [i for i, t in enumerate(theta) if t >= threshold]
    if not ge:
        raise NotApplicable("no eigenvalue above the threshold")
    s = max(ge)  # smallest eigenvalue >= threshold (inclusive ties)
    if s + 1 > spectrum.r:
        raise NotApplicable("theta_{s+1} does not exist")
    ts, ts1 = theta[s], theta[s + 1]
    num = delta - t0 * (ts + ts1 + tr) - ts * ts1 * tr
    den = (t0 - ts) * (t0 - ts1) * (t0 - tr)
    value = spectrum.n * num / den
    return BoundReport("ratio_alpha3", value, 3, exact=True,
                       witness={"theta_s": ts, "theta_s1": ts1, "threshold": threshold})


def minor_polynomial_lp(spectrum: Spectrum, k: int) -> BoundReport:
    """Optimal Ratio-type bound via the minor-polynomial LP.

    Variables x_i = f(theta_i) with x_0 = 1, x_i >= 0; the requirement
    deg f <= k is expressed by vanishing Newton divided differences
    f[theta_0..theta_s] = 0 for s = k+1..r, in closed form the linear
    forms sum_{i<=s} x_i / prod_{j<=s, j!=i} (theta_i - theta_j).  The
    objective sum m_i x_i is the bound.  For k >= r the constraint set is
    empty and the optimum is m_0 (a valid bound: the graph's diameter is
    at most r, so G^k is complete).
    """
    r = spectrum.r
    theta = _exact_eigenvalues(spectrum)
    m0 = Fraction(spectrum.mults[0])
    flags = ()
    if k >= r:
        flags = ("unconstrained",)
    # prods[i] = prod_{j<=s, j!=i} (theta_i - theta_j), grown one s at a time
    prods = [Fraction(1)]
    constraints = []
    for s in range(1, r + 1):
        prods = [p * (theta[i] - theta[s]) for i, p in enumerate(prods)]
        prods.append(math.prod(theta[s] - theta[j] for j in range(s)))
        if s > k:
            vec = [1 / p for p in prods] + [Fraction(0)] * (r - s)
            constraints.append((tuple(vec[1:]), EQ, -vec[0]))
    objective = tuple(Fraction(m) for m in spectrum.mults[1:])
    result = solve_lp(LinearProgram(objective, tuple(constraints)))
    if result.status != OPTIMAL:
        raise InternalError(f"minor-polynomial LP is {result.status}; "
                            "the interpolating minor polynomial is always feasible")
    value = result.value + m0
    witness = {"values": (Fraction(1),) + tuple(result.solution)}
    return BoundReport("ratio_minor_lp", value, k, exact=True,
                       witness=witness, flags=flags)


# ----------------------------------------------------------------------
# Phase-rotation closed forms
# ----------------------------------------------------------------------

def phase_rotation_closed_bound(q: int, n: int, k: int) -> BoundReport:
    """Closed-form optimal Ratio-type bounds for the phase-rotation graph,
    k in {1, 2, 3}; raises NotApplicable outside each formula's range."""
    F = Fraction
    if k == 1:
        if n < 2:
            raise NotApplicable("k=1 closed form needs n >= 2")
        if q == 2 and n % 2 == 0:
            value = F(2**(n - 1) * (n - 1), n)
        else:
            value = F(q**(n - 1))
    elif k == 2:
        if q == 2:
            if n < 3:
                raise NotApplicable("k=2, q=2 closed form needs n >= 3")
            mod = n % 4
            if mod == 0:
                value = F(2**n * (n - 2), n * (n + 4))
            elif mod == 1:
                value = F(2**n * (n - 3), (n + 3) * (n - 1))
            elif mod == 2:
                value = F(2**n, n + 2)
            else:
                value = F(2**n, n + 5)
        else:
            if n < 2:
                raise NotApplicable("k=2, q>=3 closed form needs n >= 2")
            f = n // q
            num = n * (n + 1) + f * q * (-2 - 2 * n + q + f * q)
            value = F(q**(n - 2) * num, (n - f) * (n + 1 - f))
    elif k == 3:
        if q == 2:
            if n < 5:
                raise NotApplicable("k=3, q=2 closed form needs n >= 5")
            mod = n % 4
            if mod == 0:
                value = F(2**(n - 1) * (n * n - n + 4), n * n * (n + 4))
            elif mod == 1:
                value = F(2**(n - 1) * (n - 3), (n - 1) * (n + 3))
            elif mod == 2:
                value = F(2**(n - 1) * (n - 5), (n + 2) * (n - 2))
            else:
                value = F(2**(n - 1), n + 1)
        else:
            if n < 3:
                raise NotApplicable("k=3, q>=3 closed form needs n >= 3")
            c = -((1 - n) // q)  # ceil((n-1)/q)
            fl = (1 - n) // q    # floor((1-n)/q) = -c
            num = n * (n + 2 * q - 1) + q * c * (-2 * n - q + q * c)
            den = q**3 * (n + fl) * (n + 1 + fl)
            value = F(q**n * num, den)
    else:
        raise NotApplicable("closed forms exist for k in {1, 2, 3} only")
    return BoundReport("phase_rotation_closed", value, k, exact=True)
