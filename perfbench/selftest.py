"""Self-test: two traced runs of a small subset give identical work counts.

Run from the repository root:

    python3 perfbench/selftest.py

The subset is table 6 (float spectra: the HiGHS screen and the exact LP),
tables 3 and 4 (exact spectra: walk-regular inertia, ratio LP, alpha) and
the first 16 random_sweep rows for the default seed (pattern cap and
alpha budget in play).  Each is run twice under the tracer in this
process.  The counts (patterns, inertia stages, LP solves, HiGHS calls,
oracle calls and exact results) must match exactly, the three inertia
stages must add up to the patterns, and every row must pass its check.
Exit code 0 on success, 1 otherwise.
"""

import sys

import run as bench

SUBSETS = {"tables_float": (6,), "tables_exact": (3, 4)}
SWEEP_ROWS = 16


def traced_counts(workload: str, inputs, **fixed) -> dict:
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        run = bench.run_workload(workload, inputs, 0, tracer=tracer, **fixed)
    finally:
        tracer.uninstall()
    if run.wrong:
        raise SystemExit(f"selftest: wrong rows in {workload}: {run.wrong}")
    return dict(run.tracer.counts)


def main() -> int:
    bench.load_library()
    import workloads as wl

    cases = [(name, [r for r in wl.table_rows(name) if r.table_id in ids], {"passes": 1})
             for name, ids in SUBSETS.items()]
    cases.append((wl.SWEEP, wl.sweep_order(wl.DEFAULT_SEED), {"rows": SWEEP_ROWS}))
    ok = True
    for name, inputs, fixed in cases:
        first, second = (traced_counts(name, inputs, **fixed) for _ in range(2))
        stages = sum(first.get(k, 0) for k in ("inertia.core_pruned", "inertia.float_rejected",
                                                "inertia.exact_checked"))
        same = first == second
        summed = stages == first.get("lp_kernel.patterns", 0)
        ok &= same and summed
        print(f"{name}: counts {'identical' if same else 'DIFFER'}, inertia stages "
              f"{'sum' if summed else 'DO NOT sum'} to patterns")
        for key in sorted(set(first) | set(second)):
            a, b = first.get(key, 0), second.get(key, 0)
            print(f"  {key:45s} {a:8d} {b:8d}{'' if a == b else '  <-- differs'}")
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
