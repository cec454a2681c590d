"""eigenbounds benchmark: one workload per run, end-to-end or per-layer.

Run from the repository root:

    python3 perfbench/run.py --workload tables_float --seed 1 --seconds 35 --trace 0

Workloads (see perfbench/README.md for why each exists):

  tables_float  tables 2 and 6 through tables.verify_table (float spectra)
  tables_exact  tables 3, 4 and 5 through tables.verify_table (exact spectra)
  random_sweep  stratified seeded draws from the randomized soundness
                criterion's instance distribution; every available bound
                and alpha per instance

With --trace 0 the last stdout line is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced pass over the same rows as an untraced pass made just before it.
Every output is checked: table cells against the fixture CSVs, sweep
bounds against alpha and the alpha certificate against the power graph.
A wrong row is named on stderr, marks the result incorrect and makes the
exit code 1.  Anything the solvers print goes to stderr, never stdout.
Run records and traces are written under .perfbench_out/.
"""

import time

START = time.perf_counter()  # set-up time counts from here

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# random_sweep parameters: fixed, so that which draws hit a budget depends
# on the seed alone, never on machine speed
SWEEP_PATTERN_CAP = 500        # inertia patterns per search (max_nodes)
SWEEP_ALPHA_CLOCK_TICKS = 64   # alpha budget, in branch-and-bound clock reads
ALPHA_NODES_PER_TICK = 256     # max_independent_set reads its clock every 256 nodes
SWEEP_TRACE_ROWS = 64          # rows of a traced sweep run (counts repeat exactly)
SETUP_REPEATS = 5
TAIL_BEYOND = 10               # the tail percentile keeps ten rows beyond it

END_TO_END_UNITS = {"setup_s": "s", "rows_per_s": "1/s", "row_p50_s": "s",
                    "row_ptail_s": "s", "peak_rss_mb": "MB"}


class StepClock:
    """Stands in for `time` inside eigenbounds.graphs: each clock read
    advances by one, so a time budget of T becomes T reads, i.e. about
    256*T branch-and-bound nodes."""

    def __init__(self):
        self.reads = 0

    def monotonic(self) -> float:
        self.reads += 1
        return float(self.reads)


def load_library():
    """Import eigenbounds from this checkout's src/ (and nothing else)."""
    if not (SRC / "eigenbounds" / "__init__.py").is_file():
        sys.exit(f"perfbench: no eigenbounds sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import eigenbounds
    import scipy.optimize  # noqa: F401  (imported lazily by the float screen)

    if Path(eigenbounds.__file__).resolve().parent != SRC / "eigenbounds":
        sys.exit(f"perfbench: imported eigenbounds from {eigenbounds.__file__}")


# ----------------------------------------------------------------------
# Workload runners.  They time each row and add the time of every unit of
# work (a verify_table call, a sweep row) to the run's wall time; the
# correctness checks run between units, outside the timed intervals.
# ----------------------------------------------------------------------

class Run:
    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies: list[float] = []
        self.pass_latencies: list[list[float]] = []  # row order is the same in every pass
        self.pass_walls: list[float] = []
        self.wall_s = 0.0
        self.wrong: list[str] = []
        self.alpha_calls = 0
        self.alpha_timeouts = 0
        self.inertia_searches = 0
        self.inertia_caps = 0
        self.row_ids: list[str] = []

    @property
    def rows(self) -> int:
        return len(self.latencies)

    def fail(self, row_id: str, why: str) -> None:
        self.wrong.append(f"{row_id}: {why}")
        print(f"perfbench: WRONG {row_id}: {why}", file=sys.stderr)


def run_tables(rows, seconds: float, run: Run, passes: int = 0) -> None:
    """Passes over every row through tables.verify_table.

    Without `passes`, starts a new pass while less than `seconds` of
    workload time has gone (at least one pass).
    """
    from eigenbounds import tables

    by_table: dict[int, list] = {}
    for row in rows:
        by_table.setdefault(row.table_id, []).append(row)
    original = tables.compute_row

    def another_pass() -> bool:
        if passes:
            return len(run.pass_latencies) < passes
        return not run.pass_latencies or run.wall_s < seconds

    while another_pass():
        pass_lat: list[float] = []
        pass_wall = 0.0
        for tid, trows in by_table.items():
            results = []
            pending = iter(trows)

            def compute_row(space, k, bounds, **kwargs):
                row = next(pending)
                t0 = time.perf_counter()
                if run.tracer is None:
                    result = original(space, k, bounds, **kwargs)
                else:
                    with run.tracer.row("tables.compute_row", row.row_id):
                        result = original(space, k, bounds, **kwargs)
                pass_lat.append(time.perf_counter() - t0)
                results.append((row, result))
                return result

            tables.compute_row = compute_row
            try:
                t0 = time.perf_counter()
                verified = tables.verify_table(tid)
                pass_wall += time.perf_counter() - t0
            finally:
                tables.compute_row = original
            wrong_before = len(run.wrong)
            for row, result in results:
                check_table_row(row, result, run)
            if not verified and len(run.wrong) == wrong_before:
                run.fail(f"table {tid}", "verify_table reported a mismatch")
        run.pass_latencies.append(pass_lat)
        run.pass_walls.append(pass_wall)
        run.latencies.extend(pass_lat)
        run.wall_s += pass_wall


def check_table_row(row, result, run: Run) -> None:
    from eigenbounds import tables

    run.row_ids.append(row.row_id)
    run.alpha_calls += 1
    run.inertia_searches += 1
    if "timeout" in result.cell("alpha"):
        run.alpha_timeouts += 1
    diffs = [f"{col}: computed {result.cell(col)} != fixture {row.fixture[col]}"
             for col in tables.TABLE_CHECKED[row.table_id]
             if result.cell(col) != row.fixture[col]]
    if diffs:
        run.fail(row.row_id, "; ".join(diffs))


def sweep_row(inst, tick_budget: int, cap: int) -> dict:
    """Every available bound and alpha for one drawn instance."""
    from eigenbounds import graphs as gr
    from eigenbounds import metrics as mt
    from eigenbounds import spectral_bounds as sb
    from eigenbounds import tables
    from eigenbounds.algebra import Polynomial
    from eigenbounds.errors import BudgetExceeded

    space = inst.space
    g = gr.build_distance_graph(space)
    dist = gr.all_pairs_graph_distance(g)
    k = inst.k_for(int(dist[dist < gr.UNREACHABLE].max(initial=1)))
    spectrum = tables.spectrum_for(space, g)
    names = tables.available_bounds(space)
    bounds: dict[str, int] = {}
    cap_hit = False
    try:
        if isinstance(space, (mt.CityBlockSpace, mt.VarshamovSpace)):
            report = sb.inertia_milp(g, spectrum, k, max_nodes=cap)
        else:
            report = sb.inertia_milp_walkreg(spectrum, k, max_nodes=cap)
    except BudgetExceeded:
        # as in the soundness criterion: fall back to the degree-1 polynomial
        cap_hit = True
        report = sb.inertia_type_bound(g, spectrum, Polynomial.from_list([0, 1]), k)
    bounds["inertia"] = report.floored
    if "ratio" in names:
        bounds["ratio"] = sb.minor_polynomial_lp(spectrum, k).floored
    classical = [n for n in names if n not in ("inertia", "ratio")]
    cells = tables.compute_row(space, k, classical, with_alpha=False).values
    for name in classical:
        if cells[name] != "-":
            bounds[name] = int(Fraction(cells[name]))  # floor of a positive value
    alpha = gr.k_independence_number(
        g, k, tick_budget, initial=tables.alpha_hints(space, k),
        automorphism_generators=tables.automorphism_generators(space))
    return {"graph": g, "k": k, "bounds": bounds, "alpha": alpha, "cap_hit": cap_hit}


def run_sweep(order, seconds: float, run: Run, limit: int = 0) -> None:
    """Rows in stratified order until `seconds` of workload time (or `limit` rows).

    The alpha oracle reads a StepClock meanwhile, so its budget counts
    branch-and-bound work, not seconds.
    """
    from eigenbounds import graphs as gr

    # the check calls the unwrapped function, so it adds no spans or counts
    power_graph = run.tracer.original(gr, "power_graph") if run.tracer else gr.power_graph
    gr.time = StepClock()
    try:
        _sweep_rows(order, seconds, run, limit, power_graph)
    finally:
        gr.time = time
    run.pass_latencies.append(list(run.latencies))
    run.pass_walls.append(run.wall_s)


def _sweep_rows(order, seconds: float, run: Run, limit: int, power_graph) -> None:
    import numpy as np

    for inst in order:
        if (limit and run.rows >= limit) or (not limit and run.wall_s >= seconds):
            break
        t0 = time.perf_counter()
        if run.tracer is None:
            out = sweep_row(inst, SWEEP_ALPHA_CLOCK_TICKS, SWEEP_PATTERN_CAP)
        else:
            with run.tracer.row("sweep.row", inst.row_id):
                out = sweep_row(inst, SWEEP_ALPHA_CLOCK_TICKS, SWEEP_PATTERN_CAP)
        dt = time.perf_counter() - t0
        run.wall_s += dt
        run.latencies.append(dt)
        run.row_ids.append(inst.row_id)
        alpha = out["alpha"]
        run.alpha_calls += 1
        run.alpha_timeouts += not alpha.exact
        run.inertia_searches += 1
        run.inertia_caps += out["cap_hit"]
        cert = list(alpha.certificate)
        adjacency = power_graph(out["graph"], out["k"]).adjacency
        problems = []
        if len(set(cert)) != alpha.alpha:
            problems.append(f"certificate has {len(set(cert))} vertices, alpha {alpha.alpha}")
        if cert and adjacency[np.ix_(cert, cert)].any():
            problems.append("alpha certificate is not independent in G^k")
        problems += [f"{name} = {value} < alpha = {alpha.alpha}"
                     for name, value in out["bounds"].items() if value < alpha.alpha]
        if problems:
            run.fail(f"{inst.row_id} k={out['k']}", "; ".join(problems))


# ----------------------------------------------------------------------
# Metrics and metadata
# ----------------------------------------------------------------------

def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of the order statistics, the weights taken from
    Beta(p(n+1), (1-p)(n+1)).  With a few dozen rows of very different
    cost, a single order statistic jumps by the gap between two rows
    whenever noise swaps them; this estimate moves smoothly instead.
    """
    from scipy.special import betainc

    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [float(betainc(a, b, i / n)) for i in range(n + 1)]
    return sum(x * (hi - lo) for x, lo, hi in zip(ordered, cdf, cdf[1:]))


def tail_fraction(n: int) -> float:
    """The highest percentile (as a fraction) with ten rows beyond it."""
    return max(0.5, (n - TAIL_BEYOND) / n)


def end_to_end(run: Run, setup_s: float) -> tuple[dict, float, list[float]]:
    """Medians over passes: throughput per pass, and each row's latency."""
    per_row = [statistics.median(samples) for samples in zip(*run.pass_latencies)]
    p_tail = tail_fraction(len(per_row))
    return {
        "setup_s": setup_s,
        "rows_per_s": statistics.median(
            len(lat) / wall for lat, wall in zip(run.pass_latencies, run.pass_walls)),
        "row_p50_s": quantile(per_row, 0.5),
        "row_ptail_s": quantile(per_row, p_tail),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, 100.0 * p_tail, per_row


def fractions(run: Run) -> dict:
    return {
        "wrong_frac": len(run.wrong) / max(1, run.rows),
        "alpha_timeout_frac": run.alpha_timeouts / max(1, run.alpha_calls),
        "inertia_cap_frac": run.inertia_caps / max(1, run.inertia_searches),
    }


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"revision": None, "dirty": None}
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                                capture_output=True, text=True, timeout=30,
                                check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return {"revision": None, "dirty": None}
    return {"revision": rev, "dirty": bool(status.strip())}


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "eigenbounds").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def metadata(args, run: Run) -> dict:
    import numpy
    import scipy
    from workloads import instance_hash

    return {
        **git_state(),
        "source_sha256": source_hash(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS", "unset"),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "alpha_budget": (f"{SWEEP_ALPHA_CLOCK_TICKS} clock reads "
                         f"(~{SWEEP_ALPHA_CLOCK_TICKS * ALPHA_NODES_PER_TICK} B&B nodes)"
                         if args.workload == "random_sweep" else "library default (120 s)"),
        "pattern_cap": SWEEP_PATTERN_CAP if args.workload == "random_sweep"
        else "library default (2^20)",
        "rows": run.rows,
        "instance_hash": instance_hash(dict.fromkeys(run.row_ids)),  # one pass
    }


# layers every workload calls: busy seconds
BUSY_LAYERS = ("metrics.enumerate_ambient", "graphs.build_distance_graph",
               "graphs.power_graph", "graphs.max_independent_set",
               "tables.spectrum_for", "tables.automorphism_generators",
               "tables.alpha_hints", "lp_kernel.minimize_over_binaries",
               "lp_kernel.solve_lp", "classical_bounds")
# layers that only some workloads call: share of the traced row time
SHARE_LAYERS = ("spectral_bounds.inertia_milp", "spectral_bounds.inertia_milp_walkreg",
                "spectral_bounds.minor_polynomial_lp", "highs.linprog")
CALL_COUNTS = ("graphs.build_distance_graph", "graphs.max_independent_set",
               "tables.spectrum_for", "lp_kernel.solve_lp", "highs.linprog")
PATTERN_COUNTS = ("lp_kernel.patterns", "inertia.core_pruned", "inertia.float_rejected",
                  "inertia.exact_checked")


def per_layer(tracer, traced: Run, untraced: Run) -> dict:
    busy, _ = tracer.layer_times()
    c = tracer.counts
    out = {name + ".s": (busy.get(name, 0.0), "s") for name in BUSY_LAYERS}
    # the two inertia searches never nest, so their busy times add
    out["spectral_bounds.inertia.s"] = (busy.get("spectral_bounds.inertia_milp", 0.0) + busy.get(
        "spectral_bounds.inertia_milp_walkreg", 0.0), "s")
    for name in SHARE_LAYERS:
        out[name + ".share"] = (busy.get(name, 0.0) / traced.wall_s, "ratio")
    for name in CALL_COUNTS:
        out[name + ".calls"] = (c[name + ".calls"], "count")
    mis = c["graphs.max_independent_set.calls"]
    out["graphs.max_independent_set.exact_ratio"] = (
        c["graphs.max_independent_set.exact"] / mis if mis else 0.0, "ratio")
    for name in PATTERN_COUNTS:
        out[name] = (c[name], "count")
    lp = c["highs.linprog.calls"]
    out["highs.reject_ratio"] = (c["inertia.float_rejected"] / lp if lp else 0.0, "ratio")
    out["trace.rows_per_s_ratio"] = (
        (traced.rows / traced.wall_s) / (untraced.rows / untraced.wall_s), "ratio")
    return out


def layer_report(tracer, wall_s: float) -> list[str]:
    busy, self_s = tracer.layer_times()
    lines = [f"  {'layer':40s} {'busy s':>9s} {'share':>6s} {'self s':>9s}"]
    for name in sorted(busy, key=busy.get, reverse=True):
        lines.append(f"  {name:40s} {busy[name]:9.3f} {busy[name] / wall_s:6.1%} "
                     f"{self_s[name]:9.3f}")
    if "spectral_bounds.inertia_milp" in busy:
        _, inside = tracer.layer_times(inside="spectral_bounds.inertia_milp")
        lines.append("  self time inside spectral_bounds.inertia_milp:")
        for name in sorted(inside, key=inside.get, reverse=True):
            lines.append(f"    {name:38s} {inside[name]:9.3f}")
    return lines


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def make_inputs(workload: str, seed: int):
    import workloads as wl

    if workload == wl.SWEEP:
        return wl.sweep_order(seed)
    return wl.table_rows(workload)


def run_workload(workload: str, inputs, seconds: float, tracer=None,
                 rows: int = 0, passes: int = 0) -> Run:
    """One measured run: `seconds` of work, or exactly `rows` sweep rows or
    `passes` table passes."""
    import workloads as wl

    run = Run(tracer)
    if workload == wl.SWEEP:
        run_sweep(inputs, seconds, run, limit=rows)
    else:
        run_tables(inputs, seconds, run, passes=passes)
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("tables_float", "tables_exact", "random_sweep"))
    parser.add_argument("--seed", type=int, default=20250809)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # anything written to fd 1 from here on (solver chatter included) lands
    # on stderr; results go to a private copy of the original stdout
    result_out = os.fdopen(os.dup(1), "w")
    sys.stdout.flush()
    os.dup2(2, 1)

    load_library()
    import_s = time.perf_counter() - START
    os.environ.pop("SCB_THREADS", None)  # library default: serial verify
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = make_inputs(args.workload, args.seed)
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)

    if args.trace:
        from tracing import Tracer

        # a fixed amount of work, so that the counts repeat exactly
        fixed = {"rows": SWEEP_TRACE_ROWS} if args.workload == "random_sweep" \
            else {"passes": 1}
        untraced = run_workload(args.workload, inputs, 0, **fixed)
        tracer = Tracer()
        tracer.install()
        try:
            run = run_workload(args.workload, inputs, 0, tracer=tracer, **fixed)
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, run, untraced)
        report = layer_report(tracer, run.wall_s)
    else:
        untraced = None
        run = run_workload(args.workload, inputs, args.seconds)
        e2e, percentile, per_row = end_to_end(run, setup_s)
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in e2e.items()}
        report = [f"  row_p50_s and row_ptail_s (p{percentile:.1f}) are over {len(per_row)} rows, "
                  f"each the median of its {len(run.pass_latencies)} pass(es): "
                  f"{run.rows} row samples"]

    meta = metadata(args, run)
    fracs = fractions(run)
    metrics_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {"meta": meta, "fractions": fracs, "wrong_rows": run.wrong,
              "metrics": metrics_json,
              "row_latencies_s": dict(zip(dict.fromkeys(run.row_ids),
                                          map(list, zip(*run.pass_latencies))))}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        trace = {"meta": meta, **tracer.dump()}
        (OUT_DIR / f"trace-{stem}.json").write_text(json.dumps(trace))

    # a traced run also answers for the untraced pass before it
    correct = not run.wrong and not (untraced and untraced.wrong)
    lines = [f"perfbench {args.workload} seed={args.seed} trace={args.trace}",
             "meta " + json.dumps(meta, sort_keys=True)]
    lines += [f"  {name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines += [f"  {name} = {value:.6g} (of {den} {what})" for (name, value), den, what in zip(
        fracs.items(), (run.rows, run.alpha_calls, run.inertia_searches),
        ("rows", "alpha calls", "inertia searches"))]
    lines += report
    lines.append(json.dumps({
        "correct": correct, "attempted": run.rows, "failed": len(run.wrong),
        "metrics": metrics_json}))
    result_out.write("\n".join(lines) + "\n")
    result_out.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
