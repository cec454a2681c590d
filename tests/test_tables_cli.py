"""The bench layer (row computation, fixtures) and the CLI surface."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eigenbounds import cli, graphs as gr, tables
from eigenbounds.errors import FixtureNotFound
from eigenbounds.spectra import Spectrum


def test_make_space_all_metrics():
    assert tables.make_space("city-block", m=4, n=2).ambient_size == 16
    assert tables.make_space("phase-rotation", q=4, n=2).ambient_size == 16
    assert tables.make_space("varshamov", n=3).ambient_size == 8
    assert tables.make_space("block", q=2, partition="1,2|3").ambient_size == 8
    assert tables.make_space("cyclic-burst", q=2, n=4, b=2).ambient_size == 16
    s = tables.make_space("projective", q=2, subspaces="1,0;0,1;1,1")
    assert s.ambient_size == 4


def test_partition_roundtrip():
    assert tables.parse_partition("1,2|3,4") == ((1, 2), (3, 4))
    assert tables.format_partition(((1, 2), (3,))) == "1,2|3"


def test_compute_row_spec_examples():
    row = tables.compute_row(tables.make_space("city-block", m=4, n=3), 5,
                             ["inertia", "plotkin", "hamming"])
    assert (row.cell("inertia"), row.cell("plotkin"), row.cell("hamming")) == \
        ("4", "4", "32/5")
    row = tables.compute_row(tables.make_space("phase-rotation", q=3, n=4), 2,
                             ["inertia", "ratio", "singleton"])
    assert (row.cell("inertia"), row.cell("ratio"), row.cell("singleton")) == \
        ("11", "6", "9")
    assert row.cell("alpha") == "6"
    row = tables.compute_row(tables.make_space("varshamov", n=2), 1,
                             ["inertia", "varshamov"])
    assert (row.cell("inertia"), row.cell("varshamov"), row.cell("alpha")) == \
        ("2", "2", "2")


def test_load_fixture_counts():
    assert len(tables.load_fixture(2)) == 19
    assert len(tables.load_fixture(3)) == 8
    assert len(tables.load_fixture(4)) == 5
    assert len(tables.load_fixture(5)) == 28
    assert len(tables.load_fixture(6)) == 9
    with pytest.raises(FixtureNotFound):
        tables.load_fixture(7)


# Each metric's facts, pinned independently of the registry that supplies
# them: its bounds, whether its spectrum route is exact, and the `params` of
# a JSON row, key order included.
GOLDEN = [
    ("city-block", {"m": 4, "n": 2}, ["inertia", "plotkin", "hamming"], False,
     {"m": 4, "n": 2}),
    ("projective", {"q": 3, "subspaces": "1,0,0;0,1,0;0,0,1;1,1,1"},
     ["inertia", "ratio", "singleton"], True,
     {"n": 3, "q": 3, "subspaces": "1,0,0;0,1,0;0,0,1;1,1,1"}),
    ("phase-rotation", {"q": 3, "n": 3}, ["inertia", "ratio", "singleton"], True,
     {"n": 3, "q": 3}),
    ("block", {"q": 2, "partition": "1,2|3|4"}, ["inertia", "ratio", "singleton"], True,
     {"n": 4, "partition": "1,2|3|4", "q": 2}),
    ("cyclic-burst", {"q": 2, "n": 5, "b": 2}, ["inertia", "ratio", "singleton"], True,
     {"n": 5, "b": 2, "q": 2}),
    ("varshamov", {"n": 4}, ["inertia", "varshamov"], False, {"n": 4}),
]


@pytest.mark.parametrize("metric, params, bounds, exact, row_params", GOLDEN,
                         ids=[g[0] for g in GOLDEN])
def test_metric_facts(metric, params, bounds, exact, row_params):
    space = tables.make_space(metric, **params)
    assert tables.available_bounds(space) == bounds
    assert tables.spectrum_for(space).exact is exact
    argv = ["bound", metric] + [a for key, value in params.items()
                                for a in (f"--{key}", str(value))]
    code, text = run_cli(argv + ["--k", "1", "--format", "json"])
    assert code == 0
    assert list(json.loads(text)["params"].items()) == list(row_params.items())


@pytest.mark.parametrize("metric, params, count", [
    ("city-block", {"m": 4, "n": 3}, 5),
    ("projective", {"q": 3, "subspaces": "1,0,0;0,1,0;0,0,1;1,1,1"}, 9),
    ("phase-rotation", {"q": 4, "n": 3}, 16),
    ("block", {"q": 2, "partition": "1,2|3,4|5"}, 10),
    ("cyclic-burst", {"q": 3, "n": 4, "b": 2}, 27),
    ("varshamov", {"n": 5}, 4),
], ids=tables.METRIC_NAMES)
def test_automorphism_generators_are_genuine(metric, params, count):
    """The oracle silently drops a permutation that is not an automorphism,
    so a broken coordinate map would only cost speed; check them here."""
    space = tables.make_space(metric, **params)
    g = gr.build_distance_graph(space)
    gens = tables.automorphism_generators(space)
    assert len(gens) == count
    assert all(gr._is_automorphism(g, perm) for perm in gens)


def run_cli(argv):
    out = io.StringIO()
    import contextlib
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_cli_bound_markdown():
    code, text = run_cli(["bound", "city-block", "--m", "4", "--n", "3",
                          "--k", "5", "--bounds", "inertia,plotkin,hamming"])
    assert code == 0
    assert "| 4 | 4 | 32/5 | 4 |" in text


def test_cli_bound_json_roundtrip():
    code, text = run_cli(["bound", "phase-rotation", "--q", "3", "--n", "2",
                          "--k", "1", "--format", "json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["bounds"]["inertia"] == "7"
    assert payload["bounds"]["ratio"] == "3"
    assert payload["bounds"]["alpha"] == "3"
    assert payload["d"] == 2


def test_cli_d_flag_equivalent():
    _, via_k = run_cli(["bound", "varshamov", "--n", "3", "--k", "2",
                        "--format", "json"])
    _, via_d = run_cli(["bound", "varshamov", "--n", "3", "--d", "3",
                        "--format", "json"])
    assert via_k == via_d


def test_cli_rejects_both_k_and_d():
    code, _ = run_cli(["bound", "varshamov", "--n", "3", "--k", "1", "--d", "2"])
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["bound", "phase-rotation", "--q", "3", "--n", "2", "--k", "1", "--bounds", "plotkin"],
     "phase-rotation has no bound 'plotkin'; choose from inertia,ratio,singleton"),
    (["bound", "varshamov", "--n", "3", "--k", "1", "--bounds", "singleton"],
     "varshamov has no bound 'singleton'; choose from inertia,varshamov"),
    (["bound", "varshamov", "--n", "3", "--k", "1", "--bounds", "inertia,bogus"],
     "varshamov has no bound 'bogus'"),
    (["bound", "city-block", "--n", "2", "--k", "1"], "city-block needs --m"),
    (["bound", "block", "--q", "2", "--k", "1"], "block needs --partition"),
    (["spectrum", "projective", "--q", "2"], "projective needs --subspaces"),
    (["bound", "block", "--q", "2", "--partition", "1,x", "--k", "1"],
     "--partition '1,x' is not of the form"),
    (["bound", "projective", "--q", "2", "--subspaces", "1,0;0,a", "--k", "1"],
     "--subspaces '1,0;0,a' is not of the form"),
    (["bound", "varshamov", "--n", "3", "--k", "1", "--max-nodes", "-1"],
     "--max-nodes must be >= 0"),
], ids=["plotkin", "singleton", "bogus", "no-m", "no-partition", "no-subspaces",
        "bad-partition", "bad-subspaces", "negative-max-nodes"])
def test_cli_usage_error_exits_2(argv, message, capsys):
    """A bound the metric lacks, a missing metric parameter, malformed
    parameter text or a negative node budget is reported, not raised as a
    traceback."""
    code, text = run_cli(argv)
    assert code == 2 and text == ""
    assert message in capsys.readouterr().err


def test_linear_code_hints():
    """For every field-metric row of tables 3-5 the linear-code hint for the
    row's smallest bound is independent in the power graph; on three rows it
    reaches that bound, so the oracle stops without searching."""
    reached = {}
    for table_id in (3, 4, 5):
        for row in tables.load_fixture(table_id):
            space = tables.make_space(tables.TABLE_METRIC[table_id], **row)
            k = int(row["k"])
            target = min(int(row[c]) for c in ("inertia", "ratio", "singleton")
                         if row[c] != "-")
            hint = tables.linear_code_hint(space, k, target)
            adjacency = gr.power_graph(gr.build_distance_graph(space), k).adjacency
            assert not adjacency[np.ix_(hint, hint)].any()
            assert len(hint) <= int(row["alpha"])
            if table_id == 5:
                reached[row["q"], row["n"], row["k"]] = len(hint) == target
    assert reached["5", "4", "2"] and reached["4", "4", "2"] and reached["5", "4", "3"]

    row = tables.compute_row(tables.make_space("phase-rotation", q=5, n=4), 2,
                             ["inertia", "ratio", "singleton"])
    assert (row.cell("alpha"), row.certified_by, row.oracle.nodes) == ("25", "ratio", 0)


def test_cli_spectrum_exact_and_check():
    code, text = run_cli(["spectrum", "phase-rotation", "--q", "3", "--n", "2",
                          "--check"])
    assert code == 0 and text.strip() == "{6:1, 0:6, -3:2}"
    code, text = run_cli(["spectrum", "city-block", "--m", "3", "--n", "1"])
    assert code == 0 and "1.4142135624" in text
    code, text = run_cli(["spectrum", "phase-rotation", "--q", "2", "--n", "3",
                          "--format", "json"])
    assert json.loads(text) == {"distinct": [4, 0, -4], "mults": [1, 6, 1],
                                "exact": True}


def test_cli_spectrum_check_mismatch_fails(monkeypatch):
    # corrupt the closed-form route: --check must exit nonzero
    monkeypatch.setattr(tables, "spectrum_for",
                        lambda space, graph=None: Spectrum((6, 0, -3), (1, 5, 3),
                                                           exact=True))
    code, _ = run_cli(["spectrum", "phase-rotation", "--q", "3", "--n", "2",
                       "--check"])
    assert code == 2


def test_cli_verify_table4():
    code, text = run_cli(["verify", "4"])
    assert code == 0
    assert text.count("ok") == 5 and "PASS table 4" in text


def test_cli_verify_takes_no_budget(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "4", "--budget", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget 5" in capsys.readouterr().err


def test_cli_max_nodes_timeout_is_deterministic():
    """The oracle's budget counts nodes, so an exhausted budget gives the
    same row on any machine."""
    argv = ["bound", "phase-rotation", "--q", "3", "--n", "5", "--k", "2",
            "--bounds", "singleton", "--max-nodes", "1000", "--format", "csv"]
    expected = ("metric,params,k,d,singleton,alpha\n"
                "phase_rotation,n=5 q=3,2,3,27,>=11 (timeout)\n")
    assert run_cli(argv) == (0, expected)
    assert run_cli(argv) == (0, expected)


def test_cli_export_graph(tmp_path):
    out_file = tmp_path / "graph.txt"
    code, _ = run_cli(["export-graph", "city-block", "--m", "3", "--n", "1",
                       "--out", str(out_file)])
    assert code == 0
    assert out_file.read_text() == "3 2\n0 1\n1 2\n"


def test_cli_determinism():
    argv = ["bound", "cyclic-burst", "--q", "2", "--n", "5", "--b", "2",
            "--k", "2", "--format", "csv"]
    assert run_cli(argv) == run_cli(argv)


def test_cli_json_stdout_holds_only_the_row():
    """HiGHS's MIP solver writes to file descriptor 1 on this instance; none
    of it may reach the JSON on stdout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "eigenbounds.cli", "bound", "city-block", "--m", "5",
         "--n", "2", "--k", "4", "--bounds", "inertia", "--format", "json"],
        capture_output=True, text=True, env=env, timeout=300, check=True)
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["bounds"]["inertia"] == "4"
