"""Inertia-type and Ratio-type bounds, their MILP/LP optimizers, closed forms."""

import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize

from eigenbounds.algebra import Polynomial, make_field
from eigenbounds.errors import (
    AssumptionViolated,
    BudgetExceeded,
    DegreeTooHigh,
    DimensionMismatch,
    NotApplicable,
    NotRegular,
    NumericalInconsistency,
    TooFewEigenvalues,
)
from eigenbounds import graphs as gr
from eigenbounds import lp_kernel
from eigenbounds import metrics as mt
from eigenbounds import spectral_bounds as sb
from eigenbounds import tables
from eigenbounds.lp_kernel import LinearProgram, solve_lp
from eigenbounds.spectra import (
    Spectrum,
    city_block_spectrum,
    cayley_spectrum_abelian,
    phase_rotation_spectrum,
    spectrum_of_graph,
)

F2 = make_field(2)
F3 = make_field(3)
X = Polynomial.from_list([0, 1])


def complete_graph(q):
    adj = np.ones((q, q), dtype=np.uint8) - np.eye(q, dtype=np.uint8)
    return gr.Graph(adj)


def test_rationalize():
    assert sb.rationalize(3) == 3
    r = sb.rationalize(0.1)
    assert abs(r - Fraction(1, 10)) < Fraction(1, 10**12)
    assert r.denominator <= 2**40


def test_inertia_type_bound_examples():
    g = complete_graph(3)
    spec = Spectrum((2, -1), (1, 2), exact=True)
    rep = sb.inertia_type_bound(g, spec, X, 1)
    assert rep.floored == 1 and rep.exact
    # path on 3 vertices (city block m=3, n=1): min count is 2
    space = mt.CityBlockSpace(3, 1)
    g = gr.build_distance_graph(space)
    spec = city_block_spectrum(3, 1)
    rep = sb.inertia_type_bound(g, spec, X, 1)
    assert rep.floored == 2 and not rep.exact  # float counts carry a slack
    # the zero polynomial degenerates to n
    zero = Polynomial.from_list([0])
    assert sb.inertia_type_bound(g, spec, zero, 1).floored == 3


def test_inertia_type_degree_guard():
    g = complete_graph(3)
    spec = Spectrum((2, -1), (1, 2), exact=True)
    with pytest.raises(DegreeTooHigh):
        sb.inertia_type_bound(g, spec, Polynomial.from_list([0, 0, 1]), 1)


def test_inertia_bounds_refuse_a_spectrum_of_another_size():
    """City block (3,2) has 9 vertices; the (4,2) spectrum has 16
    eigenvalues and phase rotation (3,3)'s 27.  Both used to give a bound
    silently (6 and 13, where the graph's own spectrum gives 3)."""
    g = gr.build_distance_graph(mt.CityBlockSpace(3, 2))
    with pytest.raises(DimensionMismatch):
        sb.inertia_milp(g, city_block_spectrum(4, 2), 2)
    with pytest.raises(DimensionMismatch):
        sb.inertia_type_bound(g, phase_rotation_spectrum(3, 3), X, 1)
    assert sb.inertia_milp(g, city_block_spectrum(3, 2), 2).floored == 3


def test_inertia_milp_on_an_edgeless_graph():
    """One distinct eigenvalue: the float route widens the Chebyshev
    domain around it and pins a pattern without zeros as it is, giving the
    exact spectrum's value 3, with no warning."""
    g = gr.Graph(np.zeros((3, 3), np.uint8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = spectrum_of_graph(g)
        assert not spec.exact and spec.r == 0
        assert sb.inertia_milp(g, spec, 2).raw_value == 3
    assert sb.inertia_milp(g, Spectrum((0,), (3,), exact=True), 2).raw_value == 3


def test_inertia_type_scale_invariance():
    space = mt.PhaseRotationSpace(F3, 2)
    g = gr.build_distance_graph(space)
    spec = phase_rotation_spectrum(3, 2)
    p = Polynomial.from_list([Fraction(-1), Fraction(1, 2), Fraction(1, 3)])
    base = sb.inertia_type_bound(g, spec, p, 2).raw_value
    for c in (Fraction(2), Fraction(7, 3), Fraction(1, 5)):
        assert sb.inertia_type_bound(g, spec, p.scale(c), 2).raw_value == base


def diagonal_classes(g, k):
    """The distinct diagonal vectors ((A^0)_uu..(A^k)_uu), sorted: a
    reference for `gr.diagonal_classes` from dense float64 powers, exact
    while every entry stays below 2^53 (asserted)."""
    a = g.adjacency.astype(np.float64)
    power = np.eye(len(a))
    diags = [np.diagonal(power)]
    for _ in range(k):
        power = a @ power
        assert power.max(initial=0) < 2**53
        diags.append(np.diagonal(power))
    return sorted({tuple(int(d[v]) for d in diags) for v in range(g.n_vertices)})


def joint_rows(g, k):
    """`sb.inertia_milp`'s base rows: every class diagonal of p(A) >= 0."""
    return [(u, ">=", 0) for u in diagonal_classes(g, k)]


def walkreg_rows(spec, k):
    """`sb.inertia_milp_walkreg`'s base row: the one class diagonal of p(A)
    is at least 0, u_i = (1/n) sum_j m_j theta_j^i, with a float
    spectrum's powers rationalized."""
    def power(t, i):
        return Fraction(t) ** i if spec.exact else sb.rationalize(float(t) ** i)
    return [(tuple(sum(m * power(t, i) for t, m in zip(spec.distinct, spec.mults)) / spec.n
                   for i in range(k + 1)), ">=", 0)]


def searched_inertia_milp(g, spec, k):
    """`sb.inertia_milp`, except that at k = 1, which it reads off the
    spectrum, its search runs on the same base rows."""
    if k > 1:
        return sb.inertia_milp(g, spec, k)
    value, witness = sb._inertia_search(spec, joint_rows(g, k),
                                        sb._eigen_power_table(spec, k), 1 << 20)
    return sb.BoundReport("inertia_milp", Fraction(value), k, exact=spec.exact,
                          witness=witness)


def test_k1_shortcut_equals_generic(monkeypatch):
    """The closed-form k=1 path must equal the search over the entry
    points' base rows, which are the rows they search at k = 2."""
    cases = [phase_rotation_spectrum(3, 2), phase_rotation_spectrum(2, 4),
             phase_rotation_spectrum(4, 3), city_block_spectrum(4, 2)]
    for spec in cases:
        slow, _ = sb._inertia_search(spec, walkreg_rows(spec, 1),
                                     sb._eigen_power_table(spec, 1), 1 << 20)
        assert sb.inertia_milp_walkreg(spec, 1).floored == slow, spec
    space = mt.CityBlockSpace(3, 2)
    g = gr.build_distance_graph(space)
    spec = city_block_spectrum(3, 2)
    assert sb.inertia_milp(g, spec, 1).floored == searched_inertia_milp(g, spec, 1).floored
    captured = _captured_searches(monkeypatch)
    sb.inertia_milp(g, spec, 2)
    sb.inertia_milp_walkreg(cases[0], 2)
    assert [rows for rows, _, _ in captured] == [joint_rows(g, 2), walkreg_rows(cases[0], 2)]


def walk_regular_instances():
    """(space, k) for every row of tables 3-5 with k >= 2, and for each
    field metric among the first 200 draws of criterion 9's generator at
    k = 2 and 3."""
    from test_graphs import _criterion_9_spaces  # test_graphs imports this module
    for table_id in (3, 4, 5):
        for row in tables.load_fixture(table_id):
            if int(row["k"]) >= 2:
                yield tables.make_space(tables.TABLE_METRIC[table_id], **row), int(row["k"])
    for space in _criterion_9_spaces(200):
        if tables.kind_of(space).field_metric:
            yield space, 2
            yield space, 3


def test_walkreg_class_is_the_graphs_one_diagonal_class(monkeypatch):
    """On walk-regular graphs the spectrum's one class is
    `graphs.diagonal_classes`' only class, so both entry points search the
    same base rows and find the same optimum."""
    searches = _captured_searches(monkeypatch)
    cases = 0
    for space, k in walk_regular_instances():
        g = gr.build_distance_graph(space)
        spec = tables.spectrum_for(space)
        general = sb.inertia_milp(g, spec, k, max_nodes=4000)
        walkreg = sb.inertia_milp_walkreg(spec, k, max_nodes=4000)
        (rows, _, _), (walkreg_base, _, _) = searches
        assert rows == walkreg_base == [(gr.diagonal_classes(g.adjacency, k)[0], ">=", 0)]
        assert general.raw_value == walkreg.raw_value, (space.name, k)
        searches.clear()
        cases += 1
    assert cases == 279


@pytest.mark.parametrize("q,n,k,expect", [
    (3, 2, 1, 7), (2, 4, 1, 5), (3, 5, 2, 53)])
def test_inertia_walkreg_table_values(q, n, k, expect):
    spec = phase_rotation_spectrum(q, n)
    assert sb.inertia_milp_walkreg(spec, k).floored == expect


@pytest.mark.parametrize("m,n,k,expect", [
    (3, 2, 2, 3), (4, 3, 1, 32), (3, 1, 1, 2)])
def test_inertia_milp_city_block_values(m, n, k, expect):
    g = gr.build_distance_graph(mt.CityBlockSpace(m, n))
    spec = city_block_spectrum(m, n)
    assert sb.inertia_milp(g, spec, k).floored == expect


def test_inertia_milp_varshamov():
    space = mt.VarshamovSpace(4)
    g = gr.build_distance_graph(space)
    spec = spectrum_of_graph(g)
    assert sb.inertia_milp(g, spec, 3).floored == 2


def float_instance(metric, **params):
    space = tables.make_space(metric, **params)
    g = gr.build_distance_graph(space)
    spec = tables.spectrum_for(space, g)
    assert not spec.exact
    return g, spec


def exact_search(spectrum, base_rows, eig_table, max_nodes):
    """Reference: the best-first search with the exact oracle, which the
    float route does not run."""
    oracle = sb._PatternOracle(base_rows, eig_table)
    value, b = lp_kernel.minimize_over_binaries(spectrum.mults, oracle, max_nodes)
    return value, {"pattern": b, "polynomial": oracle.last_solution}


def assert_witness_certifies(g, spec, k, rep):
    """The witness polynomial re-derives a bound at most the reported one."""
    p = Polynomial(tuple(rep.witness["polynomial"]))
    assert sb.inertia_type_bound(g, spec, p, k).raw_value <= rep.raw_value
    pattern = rep.witness["pattern"]
    assert sum(m for m, bit in zip(spec.mults, pattern) if bit) == rep.raw_value


SMALL_FLOAT_INSTANCES = (
    [("city-block", dict(m=m, n=n), k) for m in (3, 4, 5) for n in (1, 2) for k in (1, 2, 3, 4)]
    + [("city-block", dict(m=3, n=3), 3)]
    + [("varshamov", dict(n=n), k) for n in range(2, 6) for k in range(1, n)])


@pytest.mark.parametrize("metric,params,k", SMALL_FLOAT_INSTANCES, ids=[
    "-".join([metric] + [f"{key}{v}" for key, v in params.items()] + [f"k{k}"])
    for metric, params, k in SMALL_FLOAT_INSTANCES])
def test_float_milp_route_equals_exact_best_first(metric, params, k, monkeypatch):
    """The MILP's pinned point is an exact witness: it satisfies every row
    of its pattern's rationalized program, and the pattern's weight is the
    best-first optimum."""
    g, spec = float_instance(metric, **params)
    searches = _captured_searches(monkeypatch)
    rep = searched_inertia_milp(g, spec, k)
    assert_witness_certifies(g, spec, k, rep)
    (base_rows, eig_table, witness), = searches
    assert_witness_solves_program(base_rows, eig_table, witness)
    monkeypatch.setattr(sb, "_inertia_search", exact_search)
    assert rep.raw_value == searched_inertia_milp(g, spec, k).raw_value


def _captured_searches(monkeypatch) -> list:
    """Route the module's inertia searches through a recorder of their
    (base rows, eigenvalue power table, witness)."""
    captured = []
    search = sb._inertia_search

    def capture(spectrum, base_rows, eig_table, max_nodes):
        weight, witness = search(spectrum, base_rows, eig_table, max_nodes)
        captured.append((base_rows, eig_table, witness))
        return weight, witness

    monkeypatch.setattr(sb, "_inertia_search", capture)
    return captured


def _row_holds(coeffs, rel, rhs, a):
    lhs = sum(c * x for c, x in zip(coeffs, a))
    return {"==": lhs == rhs, "<=": lhs <= rhs, ">=": lhs >= rhs}[rel]


def assert_witness_solves_program(base_rows, eig_table, witness):
    """Exact feasibility: the witness polynomial satisfies the base rows and
    p(theta_j) <= -1 on every zero of its pattern."""
    rows = list(base_rows) + [(eig_table[j], "<=", -1)
                              for j, bit in enumerate(witness["pattern"]) if not bit]
    assert all(_row_holds(*row, witness["polynomial"]) for row in rows)


@pytest.mark.parametrize("make_programs", [
    lambda: sb.inertia_milp_walkreg(phase_rotation_spectrum(3, 3), 2),
    lambda: sb.inertia_milp(*float_instance("city-block", m=3, n=2), 2),
], ids=["phase-rotation-3-3-walkreg", "city-block-3-2-per-class"])
def test_pattern_oracle_agrees_with_min_norm_witness(make_programs, monkeypatch):
    """On every pattern of the program: the feasibility oracle (with its
    core pruning) and a reference LP, minimizing sum |a_i| on the exact
    simplex, agree, and both solutions satisfy every row of the pattern
    exactly."""
    captured = []

    def capture(spectrum, base_rows, eig_table, max_nodes):
        captured.append((base_rows, eig_table))
        return 0, {}

    monkeypatch.setattr(sb, "_inertia_search", capture)
    make_programs()
    (base_rows, eig_table), = captured
    oracle = sb._PatternOracle(base_rows, eig_table)
    feasible = 0
    for b in itertools.product((0, 1), repeat=len(eig_table)):
        zeros = [j for j, bit in enumerate(b) if not bit]
        rows = list(base_rows) + [(eig_table[j], "<=", -1) for j in zeros]
        min_norm = solve_lp(LinearProgram((Fraction(1),) * (2 * oracle.n_vars),
                                          oracle._program(zeros)))
        assert oracle(b) == (min_norm.status == lp_kernel.OPTIMAL), b
        if min_norm.status == lp_kernel.OPTIMAL:
            feasible += 1
            for a in (oracle._coefficients(min_norm.solution), oracle.last_solution):
                assert all(_row_holds(*row, a) for row in rows), b
    assert 0 < feasible < 2 ** len(eig_table)


def per_class_programs(g, k):
    """Reference: the per-vertex programs the joint program replaced, one
    per diagonal class u, with u's diagonal of p(A) pinned to 0 and every
    other class's diagonal >= 0."""
    classes = diagonal_classes(g, k)
    return [[(u, "==", 0)] + [(other, ">=", 0) for other in classes if other != u]
            for u in classes]


EQUIVALENCE_INSTANCES = [
    ("city-block", dict(m=3, n=2), 2), ("city-block", dict(m=3, n=2), 3),
    ("city-block", dict(m=4, n=1), 2), ("city-block", dict(m=4, n=1), 3),
    ("varshamov", dict(n=4), 2),
    ("phase-rotation", dict(q=3, n=3), 2)]


@pytest.mark.parametrize("metric,params,k", EQUIVALENCE_INSTANCES, ids=[
    "-".join([metric] + [f"{key}{v}" for key, v in params.items()] + [f"k{k}"])
    for metric, params, k in EQUIVALENCE_INSTANCES])
def test_joint_program_equals_per_class_minimum(metric, params, k, monkeypatch):
    """A pattern is feasible for the joint program (every class diagonal of
    p(A) >= 0) exactly when it is for some per-class program, and the joint
    optimum is the per-class minimum, on float and exact spectra alike."""
    space = tables.make_space(metric, **params)
    g = gr.build_distance_graph(space)
    spec = tables.spectrum_for(space, g)
    captured = _captured_searches(monkeypatch)
    rep = sb.inertia_milp(g, spec, k)
    (base_rows, eig_table, _), = captured
    programs = per_class_programs(g, k)
    joint = sb._PatternOracle(base_rows, eig_table)
    per_class = [sb._PatternOracle(rows, eig_table) for rows in programs]
    for b in itertools.product((0, 1), repeat=len(eig_table)):
        assert joint(b) == any(oracle(b) for oracle in per_class), b
    per_class_min = min(exact_search(spec, rows, eig_table, 1 << 20)[0] for rows in programs)
    assert exact_search(spec, base_rows, eig_table, 1 << 20)[0] == per_class_min == rep.raw_value


def test_unpinnable_proposal_raises_without_a_search(monkeypatch):
    """A proposal whose point cannot be pinned raises; the float route runs
    no exact search or simplex in its place."""
    g, spec = float_instance("city-block", m=3, n=2)
    calls = []

    def infeasible_proposal(spectrum, oracle, max_nodes):
        # p(theta) <= -1 at every eigenvalue contradicts diagonals of p(A) >= 0
        calls.append("proposal")
        return 0, (0,) * len(spectrum.distinct), np.ones(oracle.n_vars)

    def unused(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} ran")
        return call

    monkeypatch.setattr(sb, "_propose_pattern", infeasible_proposal)
    monkeypatch.setattr(lp_kernel, "minimize_over_binaries", unused("best-first"))
    monkeypatch.setattr(sb, "solve_lp", unused("simplex"))
    with pytest.raises(NumericalInconsistency):
        sb.inertia_milp(g, spec, 2)
    assert calls == ["proposal"]


def _counting_solve_lp(monkeypatch) -> list:
    """Route the module's exact-simplex calls through a recorder."""
    calls = []

    def counted(lp):
        calls.append(lp)
        return solve_lp(lp)

    monkeypatch.setattr(sb, "solve_lp", counted)
    return calls


@pytest.mark.parametrize("all_zeros", [False, True], ids=["winning-pattern", "all-zeros"])
def test_zero_point_cannot_be_pinned(all_zeros, monkeypatch):
    """p = 0 cannot be pinned: after a_0 is set its largest value over any
    zero is 0, not below.  `pin` says so without an LP, on city block
    (3,2), k=2's winning pattern and on the all-zeros one, and a MILP
    proposing that point makes the float route raise."""
    g, spec = float_instance("city-block", m=3, n=2)
    searches = _captured_searches(monkeypatch)
    sb.inertia_milp(g, spec, 2)
    (base_rows, eig_table, witness), = searches
    oracle = sb._PatternOracle(base_rows, eig_table)
    b = (0,) * len(eig_table) if all_zeros else witness["pattern"]
    calls = _counting_solve_lp(monkeypatch)
    assert oracle.pin(b, np.zeros(oracle.n_vars)) is None
    monkeypatch.setattr(sb, "_propose_pattern",
                        lambda spectrum, oracle, max_nodes: (0, b, np.zeros(oracle.n_vars)))
    with pytest.raises(NumericalInconsistency):
        sb.inertia_milp(g, spec, 2)
    assert calls == []


def _captured_milp_options(monkeypatch) -> list:
    """Route the module's MILPs through a recorder of their options."""
    captured = []
    quiet_milp = sb._quiet_milp

    def recorded(*args, options, **kwargs):
        captured.append(dict(options))  # milp pops entries from the dict it is given
        return quiet_milp(*args, options=options, **kwargs)

    monkeypatch.setattr(sb, "_quiet_milp", recorded)
    return captured


TABLE_FLOAT_MILPS = 22  # HiGHS MILPs on tables 2 and 6: one per row with k >= 2
PIN_MARGIN = Fraction(-1, 2)  # bound on pin's largest p(theta_j) over the zeros


def _float_table_inertia():
    """compute_row's inertia cell on every row of tables 2 and 6, checked
    against the fixture."""
    for table_id in (2, 6):
        for row in tables.load_fixture(table_id):
            space = tables.make_space(tables.TABLE_METRIC[table_id], **row)
            result = tables.compute_row(space, int(row["k"]), ["inertia"], with_alpha=False)
            assert result.cell("inertia") == row["inertia"]


def test_float_table_milp_and_lp_counts_are_pinned(monkeypatch):
    """Tables 2 and 6 confirm each row's pattern from its MILP's point; count
    the exact-simplex solves (none: the float route runs no LP), the HiGHS
    MILPs that proposed the patterns, and HiGHS LPs (none: no LP is solved
    in floating point).  The counts are deterministic, so a change that
    quietly sends these rows to the exact simplex, or solves more MILPs,
    fails here rather than only in wall time.  Every witness satisfies its
    program's rows exactly."""
    calls = _counting_solve_lp(monkeypatch)
    milps = _captured_milp_options(monkeypatch)
    linprogs = []
    linprog = scipy.optimize.linprog

    def counted_linprog(*args, **kwargs):
        linprogs.append(args)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counted_linprog)
    searches = _captured_searches(monkeypatch)
    _float_table_inertia()
    assert len(searches) == 22
    assert calls == []
    assert len(milps) == TABLE_FLOAT_MILPS
    assert linprogs == []
    for base_rows, eig_table, witness in searches:
        assert_witness_solves_program(base_rows, eig_table, witness)


def test_pinned_points_keep_their_margin(monkeypatch):
    """On the float searches of tables 2 and 6, `pin`'s largest value of p
    over the pattern's zeros, before it scales p to make that value -1, is
    at most -1/2 (measured: at most -0.9999998).  A point fails to pin
    only once that value reaches 0, so a HiGHS change that erodes the
    margin fails here before it fails a search."""
    proposals = []
    propose = sb._propose_pattern

    def capture(spectrum, oracle, max_nodes):
        proposal = propose(spectrum, oracle, max_nodes)
        proposals.append((oracle, proposal))
        return proposal

    monkeypatch.setattr(sb, "_propose_pattern", capture)
    _float_table_inertia()
    assert len(proposals) == TABLE_FLOAT_MILPS
    for oracle, (_, b, point) in proposals:
        coeffs = oracle.pin(b, point)
        assert coeffs is not None, b
        # pin divides the rationalized point by -top, so a_i (i >= 1) reads top back
        i = max(range(1, oracle.n_vars), key=lambda i: abs(point[i]))
        top = -sb.rationalize(float(point[i])) / coeffs[i]
        assert top <= PIN_MARGIN, (b, float(top))


def test_milp_runs_with_the_module_options(monkeypatch):
    """The inertia MILP passes its node limit and `MILP_OPTIONS`: an exact
    gap, no Feasibility Jump, RENS or RINS, and no strong-branching
    reliability set-up."""
    options = _captured_milp_options(monkeypatch)
    assert sb.inertia_milp(*float_instance("city-block", m=3, n=2), 2).floored == 3
    assert options == [{"node_limit": 1 << 20, **sb.MILP_OPTIONS}]
    assert sb.MILP_OPTIONS == {"mip_rel_gap": 0,
                               "mip_heuristic_run_feasibility_jump": False,
                               "mip_heuristic_run_rens": False,
                               "mip_heuristic_run_rins": False,
                               "mip_pscost_minreliable": 0}


def test_highs_knows_every_milp_option():
    """`_quiet_milp` silences HiGHS's warning about options it does not
    know, so a misspelled name would be dropped without a sign; here the
    options go to `scipy.optimize.milp` directly, and its HiGHS wrapper
    must not warn about any of them."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = scipy.optimize.milp(np.ones(2), integrality=np.ones(2),
                                  bounds=scipy.optimize.Bounds(0, 1),
                                  options={"node_limit": 10, **sb.MILP_OPTIONS})
    assert res.status == 0 and res.fun == 0
    unknown = [w for w in caught if issubclass(w.category, scipy.optimize.OptimizeWarning)
               and "Unrecognized options detected" in str(w.message)]
    assert unknown == []


def test_inertia_milp_warns_nothing():
    """scipy warns about each option it passes to HiGHS verbatim, and
    about one HiGHS does not know; `_quiet_milp` keeps both from callers."""
    g, spec = float_instance("city-block", m=3, n=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sb.inertia_milp(g, spec, 2).floored == 3
        # a name HiGHS does not know either: warned about, skipped, solved
        res = sb._quiet_milp(np.ones(2), bounds=scipy.optimize.Bounds(0, 1),
                             options={"no_such_highs_option": 1})
        assert res.status == 0 and res.fun == 0


def test_float_milp_node_budget_raises():
    g, spec = float_instance("city-block", m=6, n=3)
    with pytest.raises(BudgetExceeded):
        sb.inertia_milp(g, spec, 2, max_nodes=1)
    assert sb.inertia_milp(g, spec, 2).floored == 84


@pytest.mark.parametrize("space,k", [
    (mt.PhaseRotationSpace(F3, 3), 2),
    (mt.BlockSpace(mt.BlockParams(F2, 4, ((1, 2), (3, 4)))), 1),
    (mt.CyclicBurstSpace(mt.CyclicBurstParams(F2, 5, 2)), 2),
], ids=("pr33", "block", "burst"))
def test_milp_matches_walkreg_on_walk_regular_graphs(space, k):
    g = gr.build_distance_graph(space)
    assert gr.is_k_partially_walk_regular(g, k)
    spec = cayley_spectrum_abelian(space.field.q, space.n, list(space.unit_sphere()))
    general = sb.inertia_milp(g, spec, k)
    walkreg = sb.inertia_milp_walkreg(spec, k)
    assert general.floored == walkreg.floored


def test_ratio_type_examples():
    # Hoffman on K_q: exactly 1
    for q in (3, 4, 5):
        spec = Spectrum((q - 1, -1), (1, q - 1), exact=True)
        rep = sb.ratio_type_bound(spec, X, Fraction(0), 1)
        assert rep.raw_value == 1
    # phase-rotation closed forms for k=1
    assert sb.ratio_type_bound(phase_rotation_spectrum(3, 2), X, Fraction(0), 1) \
        .raw_value == 3
    rep = sb.ratio_type_bound(phase_rotation_spectrum(2, 4), X, Fraction(0), 1)
    assert rep.raw_value == Fraction(2**3 * 3, 4)  # 2^{n-1}(n-1)/n


def test_ratio_type_guards():
    spec = Spectrum((2, -1), (1, 2), exact=True)
    with pytest.raises(NotRegular):
        sb.ratio_type_bound(spec, X, Fraction(0), 1, degrees=[2, 3])
    # p = -x has p(theta_0) < lambda(p)
    neg = Polynomial.from_list([0, -1])
    with pytest.raises(AssumptionViolated):
        sb.ratio_type_bound(spec, neg, Fraction(0), 1)


def test_ratio_alpha2_closed_examples():
    # q=2, n = 2 mod 4: 2^n/(n+2)
    assert sb.ratio_alpha2_closed(phase_rotation_spectrum(2, 6)).raw_value == \
        Fraction(2**6, 8)
    assert sb.ratio_alpha2_closed(phase_rotation_spectrum(3, 4)).floored == 6
    # q >= 3 with n < q reduces to q^{n-2}
    assert sb.ratio_alpha2_closed(phase_rotation_spectrum(5, 4)).raw_value == 25
    with pytest.raises(TooFewEigenvalues):
        sb.ratio_alpha2_closed(Spectrum((2, -1), (1, 2), exact=True))
    with pytest.raises(NotApplicable):
        sb.ratio_alpha2_closed(Spectrum((4, 1, 0), (1, 2, 2), exact=True))


def test_ratio_alpha3_closed_examples():
    spec = phase_rotation_spectrum(2, 7)
    assert sb.ratio_alpha3_closed(spec, 0).raw_value == Fraction(2**6, 8)
    spec = phase_rotation_spectrum(5, 4)
    delta = 5 * 4 * 3  # (n+1)(q-1)(q-2)
    assert sb.ratio_alpha3_closed(spec, delta).floored == 5
    with pytest.raises(TooFewEigenvalues):
        sb.ratio_alpha3_closed(Spectrum((4, 0, -4), (1, 6, 1), exact=True), 0)
    # theta_r = -1 threshold undefined
    with pytest.raises(NotApplicable):
        sb.ratio_alpha3_closed(Spectrum((9, 3, 1, -1), (1, 2, 2, 2), exact=True), 0)


def test_minor_polynomial_lp_examples():
    spec = phase_rotation_spectrum(3, 2)
    rep = sb.minor_polynomial_lp(spec, 1)
    assert rep.raw_value == 3  # Hoffman, Table row (3,2,1)
    assert sb.minor_polynomial_lp(phase_rotation_spectrum(3, 5), 3).floored == 6
    # k >= r: unconstrained LP, optimum m_0
    rep = sb.minor_polynomial_lp(phase_rotation_spectrum(2, 4), 3)
    assert rep.raw_value == 1 and "unconstrained" in rep.flags


def test_minor_lp_matches_alpha2_closed():
    for q, n in [(3, 4), (4, 4), (5, 4), (2, 6), (3, 5)]:
        spec = phase_rotation_spectrum(q, n)
        assert sb.minor_polynomial_lp(spec, 2).raw_value == \
            sb.ratio_alpha2_closed(spec).raw_value


def test_minor_lp_matches_closed_forms_on_other_regular_graphs():
    """The best-possible claims hold for any regular walk-regular graph, not
    just phase rotation: cross-check on block and burst instances."""
    spaces = [
        mt.BlockSpace(mt.BlockParams(F2, 6, ((1, 2), (3, 4), (5, 6)))),
        mt.BlockSpace(mt.BlockParams(F3, 4, ((1, 2), (3, 4)))),
        mt.CyclicBurstSpace(mt.CyclicBurstParams(F2, 6, 2)),
        mt.CyclicBurstSpace(mt.CyclicBurstParams(F2, 7, 2)),
    ]
    for space in spaces:
        g = gr.build_distance_graph(space)
        spec = cayley_spectrum_abelian(space.field.q, space.n,
                                       list(space.unit_sphere()))
        if spec.r >= 2:
            assert sb.minor_polynomial_lp(spec, 2).raw_value == \
                sb.ratio_alpha2_closed(spec).raw_value, space.name
        if spec.r >= 3:
            delta = gr.triangle_delta(g)
            assert sb.minor_polynomial_lp(spec, 3).raw_value == \
                sb.ratio_alpha3_closed(spec, delta).raw_value, space.name


def test_ratio_bounds_refuse_float_spectra():
    """Only the field metrics get the Ratio-type bounds, and their spectra
    are exact; a float spectrum is not applicable."""
    spec = city_block_spectrum(3, 2)
    assert not spec.exact and spec.r >= 3
    for bound in (lambda: sb.ratio_type_bound(spec, X, Fraction(0), 1),
                  lambda: sb.ratio_alpha2_closed(spec),
                  lambda: sb.ratio_alpha3_closed(spec, 0),
                  lambda: sb.minor_polynomial_lp(spec, 2)):
        with pytest.raises(NotApplicable):
            bound()


def _newton_table_rows(spectrum, k):
    """Reference: the minor-polynomial LP's rows from the full Newton table
    of divided differences, one coefficient vector per f[theta_i..theta_j]."""
    r = spectrum.r
    theta = [Fraction(t) for t in spectrum.distinct]
    dd = {(i, i): [Fraction(i == j) for j in range(r + 1)] for i in range(r + 1)}
    for span in range(1, r + 1):
        for i in range(r + 1 - span):
            j = i + span
            dd[i, j] = [(a - b) / (theta[j] - theta[i])
                        for a, b in zip(dd[i + 1, j], dd[i, j - 1])]
    return tuple((tuple(dd[0, s][1:]), lp_kernel.EQ, -dd[0, s][0]) for s in range(k + 1, r + 1))


@pytest.mark.parametrize("spec", [phase_rotation_spectrum(q, n) for q, n in [
    (2, 6), (3, 4), (3, 5), (4, 4)]] + [
        tables.spectrum_for(tables.make_space("cyclic-burst", q=2, n=12, b=2)),
        tables.spectrum_for(tables.make_space(
            "block", q=2, partition="|".join(str(i) for i in range(1, 15))))],
    ids=["phase-rotation-2-6", "phase-rotation-3-4", "phase-rotation-3-5",
         "phase-rotation-4-4", "cyclic-burst-2-12-2", "block-2-14-singletons"])
def test_minor_polynomial_rows_equal_newton_table(spec, monkeypatch):
    """The closed-form divided differences give the Newton table's rows
    exactly, so the ratio LP, its value and its witness are the same."""
    programs = []

    def capture(lp):  # the rows are the test; skip the solve
        programs.append(lp)
        return lp_kernel.LpResult(lp_kernel.OPTIMAL, Fraction(0), (Fraction(0),) * len(lp.objective))
    monkeypatch.setattr(sb, "solve_lp", capture)
    for k in range(1, spec.r + 1):
        sb.minor_polynomial_lp(spec, k)
        assert programs.pop().constraints == _newton_table_rows(spec, k), k


def _numpy_chebyshev_basis(spectrum, k):
    """Reference: `_chebyshev_basis` through numpy's Chebyshev objects."""
    theta = np.array([float(t) for t in spectrum.distinct])
    cheb = [np.polynomial.Chebyshev.basis(i, domain=[theta.min(), theta.max()])
            for i in range(k + 1)]
    to_monomial = np.array([np.pad(t.convert(kind=np.polynomial.Polynomial).coef, (0, k - i))
                            for i, t in enumerate(cheb)]).T
    return to_monomial, np.array([t(theta) for t in cheb]).T


@pytest.mark.parametrize("metric,params", [
    ("city-block", dict(m=4, n=3)), ("city-block", dict(m=6, n=3)), ("varshamov", dict(n=7))])
def test_chebyshev_basis_equals_numpy_objects(metric, params):
    """Bit for bit, so HiGHS receives the same MILP and its proposals, and
    so the witnesses, cannot move."""
    spec = float_instance(metric, **params)[1]
    for k in range(1, 9):
        got, expected = sb._chebyshev_basis(spec, k), _numpy_chebyshev_basis(spec, k)
        for a, b in zip(got, expected):
            assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes(), k


def test_bound_monotonicity_soft_warning(capsys):
    """bound(k+1) <= bound(k) is not a theorem; report, never fail."""
    spec = phase_rotation_spectrum(3, 4)
    values = [sb.inertia_milp_walkreg(spec, k).floored for k in (1, 2, 3)]
    for k, (a, b) in enumerate(zip(values, values[1:]), start=1):
        if b > a:
            print(f"note: inertia bound not monotone at k={k}: {a} -> {b}")
    assert values  # the check above is informational only


def test_phase_rotation_closed_bound_examples():
    assert sb.phase_rotation_closed_bound(2, 6, 2).raw_value == 8
    assert sb.phase_rotation_closed_bound(2, 7, 3).raw_value == 8
    assert sb.phase_rotation_closed_bound(3, 2, 1).raw_value == 3
    with pytest.raises(NotApplicable):
        sb.phase_rotation_closed_bound(2, 4, 3)  # k=3, q=2 needs n >= 5
    with pytest.raises(NotApplicable):
        sb.phase_rotation_closed_bound(3, 2, 4)


def test_bound_report_json():
    rep = sb.phase_rotation_closed_bound(2, 4, 1)
    d = rep.as_json_dict()
    assert d["raw"] == "6" and d["floored"] == 6 and d["exact"] is True
    rep2 = sb.ratio_alpha2_closed(phase_rotation_spectrum(3, 5))
    assert rep2.as_json_dict()["raw"] == "81/5"
