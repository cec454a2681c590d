"""The bench layer (row computation, fixtures) and the CLI surface."""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eigenbounds import cli, graphs as gr, lp_kernel, spectral_bounds as sb, tables
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
    ("phase-rotation", {"q": 4, "n": 3}, 17),
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


PHASE_ROTATION_SIZES = [(2, 4), (3, 3), (4, 2), (5, 2)]  # GF(4) is not a prime field


@pytest.mark.parametrize("q, n", PHASE_ROTATION_SIZES)
def test_phase_rotation_line_map_is_an_isometry(q, n):
    """x -> (-x_1, x_2 - x_1, ..., x_n - x_1), as the last coordinate map
    applies it to the digit array, keeps every weight."""
    space = tables.make_space("phase-rotation", q=q, n=n)
    radix, digits = space.digits()
    line_map = tables.kind_of(space).coordinate_maps(space)[-1]
    labels = space.elements()
    images = line_map(digits) @ radix
    assert sorted(images.tolist()) == list(range(len(labels)))
    assert all(space.weight(labels[y]) == space.weight(x) for x, y in zip(labels, images))


@pytest.mark.parametrize("q, n", PHASE_ROTATION_SIZES)
def test_phase_rotation_linear_generators_give_every_line_isometry(q, n):
    """The scalings and coordinate maps fix 0 and generate, by brute-force
    closure, a group of order (q-1)(n+1)!: every permutation of the n+1
    lines e_1..e_n, 1, times the q-1 scalings."""
    space = tables.make_space("phase-rotation", q=q, n=n)
    linear = tables.automorphism_generators(space)[len(space.unit_sphere()):]
    group = {tuple(range(space.ambient_size))}
    frontier = list(group)
    while frontier:
        element = frontier.pop()
        for gen in linear:
            image = tuple(gen[x] for x in element)
            if image not in group:
                group.add(image)
                frontier.append(image)
    assert len(group) == (q - 1) * math.factorial(n + 1)
    assert all(element[0] == 0 for element in group)


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
    (["bound", "phase-rotation", "--q", "6", "--n", "2", "--k", "1"],
     "6 is not a prime power"),
    (["bound", "phase-rotation", "--q", "4096", "--n", "2", "--k", "1"],
     "GF(4096): field order exceeds 1024"),
    (["bound", "phase-rotation", "--q", str(2**61 - 1), "--n", "1", "--k", "1"],
     f"GF({2**61 - 1}): field order exceeds 1024"),
    (["export-graph", "city-block", "--m", "3", "--n", "1", "--out", "/nonexistent/dir/g.txt"],
     "cannot write /nonexistent/dir/g.txt"),
], ids=["plotkin", "singleton", "bogus", "no-m", "no-partition", "no-subspaces",
        "bad-partition", "bad-subspaces", "negative-max-nodes", "not-prime-power",
        "field-order-too-large", "large-prime-order", "unwritable-out"])
def test_cli_usage_error_exits_2(argv, message, capsys):
    """A bound the metric lacks, a missing metric parameter, malformed
    parameter text, a field order that is not a prime power or exceeds
    1024, a negative node budget or an output path that cannot be written
    is reported, not raised as a traceback."""
    code, text = run_cli(argv)
    assert code == 2 and text == ""
    assert message in capsys.readouterr().err


def test_cli_reports_an_unpinnable_milp_point(monkeypatch, capsys):
    """A float inertia MILP whose point cannot be pinned exactly is an
    error, not a reported bound: p = 0 is not below 0 on any zero."""
    monkeypatch.setattr(sb, "_propose_pattern", lambda spectrum, oracle, max_nodes:
                        (0, (0,) * len(spectrum.distinct), np.zeros(oracle.n_vars)))
    code, text = run_cli(["bound", "city-block", "--m", "3", "--n", "2", "--k", "2",
                          "--bounds", "inertia"])
    assert code == 2 and text == ""
    assert capsys.readouterr().err.startswith("error: the inertia MILP's point")


def test_cli_spectrum_in_the_largest_prime_field():
    """GF(1021) lies under the field-order cap, and phase rotation on
    GF(1021)^2 (1,042,441 vertices) under the 2^20 guard."""
    code, text = run_cli(["spectrum", "phase-rotation", "--q", "1021", "--n", "2"])
    assert code == 0 and text == "{3060:1, 1018:3060, -3:1039380}\n"


def test_cli_spectrum_of_a_block_space_in_the_largest_prime_field():
    """Block GF(1021)^2 with partition 1|2: 1,042,441 characters and 2,040
    connecting vectors.  A V x |S| phase matrix would take 17 GB as int64;
    the character count holds two orbit representatives."""
    code, text = run_cli(["spectrum", "block", "--q", "1021", "--partition", "1|2"])
    assert code == 0 and text == "{2040:1, 1019:2040, -2:1040400}\n"


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


def _loop_lexicode(space, k, target):
    """Reference for `tables.linear_code_hint`: scan the vertices in index
    order for the first one whose difference from every codeword, built by
    `FieldVector` arithmetic, has `space.weight` > k, and add its multiples
    to the code.  A vertex passed over stays within distance k of the code,
    which only grows, so one scan serves every step."""
    q = space.field.q
    vertices = space.elements()
    code = [vertices[0]]
    for v in vertices:
        if q * len(code) > target:
            break
        if all(space.weight(v - c) > k for c in code):
            code = [c + v.scale(a) for c in code for a in range(q)]
    index = {v.coords: i for i, v in enumerate(vertices)}
    return sorted(index[c.coords] for c in code)


def test_linear_code_hint_equals_loop_reference():
    """On every row of tables 3-5, at the row's alpha, its smallest bound
    and the ambient size as targets, the lexicode equals the loop reference
    and holds at most `target` words."""
    for table_id in (3, 4, 5):
        for row in tables.load_fixture(table_id):
            space = tables.make_space(tables.TABLE_METRIC[table_id], **row)
            k = int(row["k"])
            bound = min(int(row[c]) for c in ("inertia", "ratio", "singleton")
                        if row[c] != "-")
            for target in (int(row["alpha"]), bound, space.ambient_size):
                code = tables.linear_code_hint(space, k, target)
                assert code == _loop_lexicode(space, k, target), (table_id, row, target)
                assert len(code) <= target


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


def test_cli_spectrum_formats(capsys):
    """`spectrum` renders markdown and JSON only: `--format csv` is a usage
    error rather than the markdown text under another name."""
    argv = ["spectrum", "phase-rotation", "--q", "3", "--n", "2"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--format", "csv"])
    assert exc.value.code == 2
    assert "argument --format: invalid choice: 'csv'" in capsys.readouterr().err
    assert run_cli(argv + ["--format", "markdown"]) == (0, "{6:1, 0:6, -3:2}\n")
    code, text = run_cli(argv + ["--format", "json"])
    assert code == 0
    assert json.loads(text) == {"distinct": [6, 0, -3], "mults": [1, 6, 2], "exact": True}


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


def test_table_oracle_node_count_is_pinned(monkeypatch):
    """A work counter that holds on any machine: the alpha oracle expands
    2,277 nodes over the 69 rows of tables 2-6."""
    oracle = gr.k_independence_number
    nodes = []

    def counted(*args, **kwargs):
        res = oracle(*args, **kwargs)
        nodes.append(res.nodes)
        return res
    monkeypatch.setattr(gr, "k_independence_number", counted)
    assert all(tables.verify_table(t) for t in range(2, 7))
    assert (len(nodes), sum(nodes)) == (69, 2277)


def test_table_oracle_builds_bit_rows_only_where_it_searches(monkeypatch):
    """A work counter that holds on any machine: over tables 3-5 the oracle
    runs 41 times, and a linear-code hint reaching the proven bound
    certifies 37 of them before the search set-up, so bit rows are built
    for the other 4."""
    counts = dict.fromkeys(("oracle", "bit_rows"), 0)

    def counting(key, fn):
        def call(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return call
    monkeypatch.setattr(gr, "max_independent_set", counting("oracle", gr.max_independent_set))
    monkeypatch.setattr(gr, "_row_bitmasks", counting("bit_rows", gr._row_bitmasks))
    assert all(tables.verify_table(t) for t in (3, 4, 5))
    assert counts == {"oracle": 41, "bit_rows": 4}


def test_oracle_bit_rows_read_a_c_contiguous_gather(monkeypatch):
    """Phase rotation (3,4), k=2 (table 5) searches, so the oracle packs
    its degree-ordered adjacency into bit rows; the gather it packs is in
    C order, which a column-strided one (a[p][:, p]) is not."""
    row_bitmasks = gr._row_bitmasks
    layouts = []

    def recorded(matrix):
        layouts.append(matrix.flags.c_contiguous)
        return row_bitmasks(matrix)
    monkeypatch.setattr(gr, "_row_bitmasks", recorded)
    row = tables.compute_row(tables.make_space("phase-rotation", q=3, n=4), 2,
                             ["inertia", "ratio", "singleton"])
    assert row.cell("alpha") == "6" and row.oracle.nodes > 0
    assert layouts == [True]


def test_hint_at_the_bound_certifies_before_search_set_up(monkeypatch):
    """Phase rotation (5,4), k=2, cyclic burst (2,8,3), k=1, and block q=2
    1,2|3,4|5,6|7,8, k=2 (256 vertices each): the linear-code hint reaches
    the proven bound, so the row needs no bit rows, no greedy pass and no
    symmetry generators."""
    def unused(*args, **kwargs):
        raise AssertionError("search set-up ran")
    for name in ("_row_bitmasks", "_greedy_independent"):
        monkeypatch.setattr(gr, name, unused)
    monkeypatch.setattr(tables, "automorphism_generators", unused)
    for metric, params, k, expected in [
            ("phase-rotation", {"q": 5, "n": 4}, 2, ("25", "ratio")),
            ("cyclic-burst", {"q": 2, "n": 8, "b": 3}, 1, ("32", "singleton")),
            ("block", {"q": 2, "partition": "1,2|3,4|5,6|7,8"}, 2, ("16", "ratio"))]:
        space = tables.make_space(metric, **params)
        row = tables.compute_row(space, k, tables.available_bounds(space))
        assert (row.cell("alpha"), row.certified_by, row.oracle.nodes) == (*expected, 0)
        assert row.oracle.exact and row.oracle.certified


def test_table_exact_lp_work_is_pinned(monkeypatch):
    """Work counters of the exact LPs on tables 3-5 (exact spectra): the
    best-first searches try 73 patterns, 21 of them pruned by a Farkas
    core and 52 decided by a feasibility LP, and the ratio bound solves
    41 minor-polynomial LPs."""
    counts = dict.fromkeys(("feasibility", "ratio", "patterns", "core_pruned"), 0)

    def counting(key, fn):
        def call(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return call

    search = lp_kernel.minimize_over_binaries

    def counted_search(weights, oracle, max_nodes):
        def counted_oracle(b):
            before = counts["feasibility"]
            counts["patterns"] += 1
            feasible = oracle(b)
            counts["core_pruned"] += counts["feasibility"] == before
            return feasible
        return search(weights, counted_oracle, max_nodes)

    monkeypatch.setattr(sb, "solve_feasibility", counting("feasibility", sb.solve_feasibility))
    monkeypatch.setattr(sb, "solve_lp", counting("ratio", sb.solve_lp))
    monkeypatch.setattr(lp_kernel, "minimize_over_binaries", counted_search)
    assert all(tables.verify_table(t) for t in range(3, 6))
    assert counts == {"feasibility": 52, "ratio": 41, "patterns": 73, "core_pruned": 21}


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


def test_cli_bound_on_a_prime_power_field_above_32():
    """GF(49) = GF(7^2): the field order is factored, not looked up."""
    code, text = run_cli(["bound", "phase-rotation", "--q", "49", "--n", "2", "--k", "1",
                          "--bounds", "singleton", "--format", "csv"])
    assert (code, text) == (0, "metric,params,k,d,singleton,alpha\n"
                                "phase_rotation,n=2 q=49,1,2,49,49\n")


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


@pytest.mark.parametrize("argv,inertia", [
    (["city-block", "--m", "5", "--n", "2", "--k", "4"], "4"),
    (["city-block", "--m", "5", "--n", "2", "--k", "2"], "10"),
    (["varshamov", "--n", "6", "--k", "3"], "3"),
], ids=["city-block", "city-block-k2", "varshamov"])
def test_cli_json_stdout_holds_only_the_row(argv, inertia):
    """Every instance solves its inertia program as one HiGHS MILP.  On city
    block (5,2), k = 2, HiGHS's MIP solver prints two
    `transformNewIntegerFeasibleSolution` lines through C stdio; none of it
    may reach the JSON on stdout.  The CLI runs in a minimal environment,
    so no inherited PYTHONUNBUFFERED makes C stdio unbuffered and hides
    text HiGHS leaves in its buffer.  scipy's warning about the HiGHS
    option it passes on verbatim must not reach stderr either."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {name: os.environ[name] for name in ("PATH", "HOME") if name in os.environ}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "eigenbounds.cli", "bound", *argv,
         "--bounds", "inertia", "--format", "json"],
        capture_output=True, text=True, env=env, timeout=300, check=True)
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["bounds"]["inertia"] == inertia
    assert "RuntimeWarning" not in proc.stderr
    assert "Unrecognized options" not in proc.stderr
