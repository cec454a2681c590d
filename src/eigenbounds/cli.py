"""Command-line front end.

Subcommands:
    bound <metric> [params] (--k N | --d N) [--bounds list] [--format f] [--max-nodes N]
    spectrum <metric> [params] [--check]
    verify <table-id>
    export-graph <metric> [params] --out PATH

Metric parameters: city-block --m --n; phase-rotation --q --n;
projective --q --subspaces "1,0,0;0,1,0;1,1,1"; block --q --partition
"1,2|3,4"; cyclic-burst --q --n --b; varshamov --n.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import graphs as gr
from . import tables
from .errors import EigenboundsError, NumericalInconsistency
from .spectra import spectrum_of_graph


def _add_metric_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("metric", choices=tables.METRIC_NAMES)
    parser.add_argument("--m", type=int)
    parser.add_argument("--n", type=int)
    parser.add_argument("--q", type=int)
    parser.add_argument("--b", type=int)
    parser.add_argument("--partition")
    parser.add_argument("--subspaces")


def _render_row(row: tables.RowResult, columns: list[str], fmt: str,
                out) -> None:
    header = ["metric", "params", "k", "d"] + columns
    cells = [row.metric,
             " ".join(f"{k}={v}" for k, v in row.params.items()),
             str(row.k), str(row.k + 1)] + [row.cell(c) for c in columns]
    if fmt == "json":
        payload = {"metric": row.metric, "params": row.params,
                   "k": row.k, "d": row.k + 1,
                   "bounds": {c: row.cell(c) for c in columns}}
        out.write(json.dumps(payload) + "\n")
    elif fmt == "csv":
        out.write(",".join(header) + "\n")
        out.write(",".join('"%s"' % c if "," in c else c for c in cells) + "\n")
    else:
        out.write("| " + " | ".join(header) + " |\n")
        out.write("|" + "|".join("---" for _ in header) + "|\n")
        out.write("| " + " | ".join(cells) + " |\n")


def cmd_bound(args, out=None) -> int:
    out = out if out is not None else sys.stdout
    if (args.k is None) == (args.d is None):
        raise EigenboundsError("supply exactly one of --k or --d (d = k+1)")
    k = args.k if args.k is not None else args.d - 1
    if k < 1:
        raise EigenboundsError("k >= 1 (equivalently d >= 2) required")
    if args.max_nodes < 0:
        raise EigenboundsError("--max-nodes must be >= 0")
    space = tables.make_space(**vars(args))
    names = args.bounds.split(",") if args.bounds else tables.available_bounds(space)
    row = tables.compute_row(space, k, names, max_nodes=args.max_nodes)
    _render_row(row, names + ["alpha"], args.format, out)
    return 0


def cmd_spectrum(args, out=None) -> int:
    out = out if out is not None else sys.stdout
    space = tables.make_space(**vars(args))
    spectrum = tables.spectrum_for(space)
    if args.check:
        if space.ambient_size > 1024:
            raise EigenboundsError("--check requires at most 1024 vertices")
        numeric = spectrum_of_graph(gr.build_distance_graph(space))
        if tuple(numeric.mults) != tuple(spectrum.mults) or any(
                abs(float(a) - float(b)) > 1e-8
                for a, b in zip(numeric.distinct, spectrum.distinct)):
            raise NumericalInconsistency(
                "closed-form and eigensolver spectra disagree")
    if args.format == "json":
        out.write(spectrum.as_json() + "\n")
    else:
        pairs = ", ".join(f"{t if spectrum.exact else round(float(t), 10)}:{m}"
                          for t, m in zip(spectrum.distinct, spectrum.mults))
        out.write("{" + pairs + "}\n")
    return 0


def cmd_verify(args, out=None) -> int:
    out = out if out is not None else sys.stdout
    ok = tables.verify_table(args.table, report=lambda line: out.write(line + "\n"))
    out.write(("PASS" if ok else "FAIL") + f" table {args.table}\n")
    return 0 if ok else 1


def cmd_export_graph(args, out=None) -> int:
    out = out if out is not None else sys.stdout
    space = tables.make_space(**vars(args))
    text = gr.export_edge_list(gr.build_distance_graph(space))
    with open(args.out, "w") as fh:
        fh.write(text)
    out.write(f"wrote {args.out}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="eigenbounds",
                                     description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="compute bounds for one metric instance")
    _add_metric_args(p)
    p.add_argument("--k", type=int, help="bound alpha_k (codes of minimum distance k+1)")
    p.add_argument("--d", type=int, help="minimum distance; k = d-1")
    p.add_argument("--bounds", help="comma list of bound names; the valid names depend "
                   "on the metric (default: all of the metric's bounds)")
    p.add_argument("--format", choices=("markdown", "csv", "json"), default="markdown")
    p.add_argument("--max-nodes", type=int, default=gr.MAX_NODES,
                   help="exact-oracle budget in branch-and-bound nodes; if it runs out, "
                   "alpha shows as '>=x (timeout)' (default: %(default)s)")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("spectrum", help="print the adjacency spectrum")
    _add_metric_args(p)
    p.add_argument("--check", action="store_true",
                   help="cross-check against the dense eigensolver")
    p.add_argument("--format", choices=("markdown", "csv", "json"), default="markdown")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("verify", help="re-verify a bundled reference table (no budget "
                       "option: every row's alpha search fits the default node budget)")
    p.add_argument("table", type=int, choices=(2, 3, 4, 5, 6))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export-graph", help="write the distance graph as an edge list")
    _add_metric_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_graph)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EigenboundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
