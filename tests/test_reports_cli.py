import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from zdsemigroups import counting, reports
from zdsemigroups.classify import (
    ClassCatalog,
    canonical_form,
    key_from_hex,
    key_to_hex,
    table_from_key,
)
from zdsemigroups.cli import main
from zdsemigroups.counting import PENDANT_CASES, pendant_case_breakdown
from zdsemigroups.errors import UsageError
from zdsemigroups.graphs import CompleteK, CompletePlusEnd, realizes
from zdsemigroups.reports import (
    ResultsCache,
    build_count_report,
    catalog_csv_text,
    render_count_report,
    render_verification,
    run_verification,
)
from zdsemigroups.search import iter_candidate_tables, oracle_classes, seed_partial_table
from zdsemigroups.tables import MulTable, check_associativity, permute_table, table_to_json


def test_count_report_kn_consistent():
    report = build_count_report("kn", 3, "all")
    assert report.method_counts == {"formula": 7, "generator": 7, "oracle": 7}
    assert report.internally_consistent
    assert report.discrepancies == []


def test_count_report_kn1_n3_adjudication():
    report = build_count_report("kn1", 3, "all")
    assert report.method_counts["generator"] == report.method_counts["oracle"]
    descriptions = [d.description for d in report.discrepancies]
    assert any("x*x = x" in d for d in descriptions)
    assert any("total" in d for d in descriptions)
    self_disc = next(d for d in report.discrepancies if "x*x = x" in d.description)
    assert self_disc.reference_value == 6
    assert self_disc.computed_value == report.strata["cases"]["self"]
    assert len(self_disc.witnesses) == self_disc.computed_value
    for witness in self_disc.witnesses:
        assert "entries" in witness and witness["m"] == 4


def test_count_report_rejects_bad_input():
    with pytest.raises(UsageError):
        build_count_report("kn1", 2)
    with pytest.raises(UsageError):
        build_count_report("kn", 3, "magic")
    with pytest.raises(UsageError):
        build_count_report("krn", 3)


def test_report_render_stable():
    report = build_count_report("kn", 3, "all")
    assert render_count_report(report) == render_count_report(
        build_count_report("kn", 3, "all")
    )


def test_report_json_roundtrip():
    obj = build_count_report("kn1", 4, "generator").to_json_obj()
    text = json.dumps(obj, sort_keys=True)
    assert json.loads(text)["method_counts"]["generator"] == 43


def test_cli_count_kn_exit0(capsys):
    code = main(["count", "--graph", "kn", "--n", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "formula   12" in out and "oracle    12" in out


def test_cli_count_kn1_n4_exit0(capsys):
    code = main(["count", "--graph", "kn1", "--n", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "internal consistency: ok" in out


def test_cli_count_writes_report(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(["count", "--graph", "kn", "--n", "3", "--out", str(out_path)])
    capsys.readouterr()
    assert code == 0
    obj = json.loads(out_path.read_text())
    assert obj["method_counts"] == {"formula": 7, "generator": 7, "oracle": 7}


def test_cli_count_oracle_budget_refusal(capsys):
    code = main(["count", "--graph", "kn1", "--n", "5", "--method", "oracle"])
    err = capsys.readouterr().err
    assert code == 2
    assert "desk-scale" in err


@pytest.mark.parametrize("warm", (False, True))
@pytest.mark.parametrize("command", ("count", "enumerate"))
def test_cli_oracle_budget_refusal_ignores_cache(tmp_path, capsys, command, warm):
    cache_dir = tmp_path / "cache"
    if warm:
        ResultsCache(cache_dir).put_catalog(
            "kn1", 5, pendant_case_breakdown(5).merged_catalog())
    argv = [command, "--graph", "kn1", "--n", "5", "--method", "oracle",
            "--cache-dir", str(cache_dir)]
    if command == "enumerate":
        argv += ["--out", str(tmp_path / "out.json")]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and "desk-scale" in line
    assert not (tmp_path / "out.json").exists()


def test_cli_count_kn_formula_at_large_n_exits_0(capsys):
    code = main(["count", "--graph", "kn", "--n", "600", "--method", "formula"])
    out = capsys.readouterr().out
    assert code == 0
    assert "formula   9119349471978984435494856" in out


def test_cli_count_oracle_refusal_at_large_n_names_the_limit(capsys):
    # the prune-free leaf count has over 4300 digits here
    code = main(["count", "--graph", "kn1", "--n", "800", "--method", "oracle"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and "desk-scale limit" in line


def test_cli_count_refuses_n_above_the_size_limit(capsys):
    code = main(["count", "--graph", "kn", "--n", "1000000000000", "--method", "formula"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: targets need n <= 4000\n"


def test_cli_count_kn1_runs_the_self_generator_once(capsys, monkeypatch):
    calls = []
    original = counting.generate_pendant_square_self

    def recording(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(counting, "generate_pendant_square_self", recording)
    assert main(["count", "--graph", "kn1", "--n", "5"]) == 0
    capsys.readouterr()
    assert calls == [5]


def test_cli_count_all_skips_oracle_over_budget(capsys):
    code = main(["count", "--graph", "kn1", "--n", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "skipped" in out


def test_cli_enumerate_json(tmp_path, capsys):
    out_path = tmp_path / "k3.json"
    code = main(["enumerate", "--graph", "kn", "--n", "3",
                 "--format", "json", "--out", str(out_path)])
    capsys.readouterr()
    assert code == 0
    reps = json.loads(out_path.read_text())
    assert len(reps) == 7
    assert [r["key"] for r in reps] == sorted(r["key"] for r in reps)


def test_cli_enumerate_kn1_case_attach(tmp_path, capsys):
    out_path = tmp_path / "attach.json"
    code = main(["enumerate", "--graph", "kn1", "--n", "3",
                 "--case", "attach", "--out", str(out_path)])
    capsys.readouterr()
    assert code == 0
    reps = json.loads(out_path.read_text())
    # computed family has n classes; the all-nilpotent table is among them
    assert len(reps) == 3


@pytest.mark.parametrize("case", PENDANT_CASES)
@pytest.mark.parametrize("n", (3, 4))
def test_cli_enumerate_case_filter(tmp_path, capsys, n, case):
    """Each method's --case output holds the classes whose own x*x is that case."""

    def enumerate_case(method):
        out_path = tmp_path / f"{method}.csv"
        code = main(["enumerate", "--graph", "kn1", "--n", str(n), "--method", method,
                     "--case", case, "--format", "csv", "--out", str(out_path)])
        assert code == 0
        return out_path.read_text()

    generator = enumerate_case("generator")
    oracle = enumerate_case("oracle")
    capsys.readouterr()
    assert generator == catalog_csv_text("kn1", n, pendant_case_breakdown(n).catalogs[case])

    def keys(text):
        return [line.split(",")[3] for line in text.splitlines()[1:]]

    assert keys(oracle) == keys(generator)


def test_cli_enumerate_kn_n1(tmp_path, capsys):
    out_path = tmp_path / "k1.json"
    code = main(["enumerate", "--graph", "kn", "--n", "1", "--out", str(out_path)])
    capsys.readouterr()
    assert code == 0
    reps = json.loads(out_path.read_text())
    assert len(reps) == 1
    assert reps[0]["table"]["entries"] == [[0, 0], [0, 0]]


def test_cli_enumerate_csv_and_dot(tmp_path, capsys):
    csv_path = tmp_path / "k3.csv"
    code = main(["enumerate", "--graph", "kn", "--n", "3",
                 "--format", "csv", "--out", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("target,n,class_id,key,x1_square_case")
    assert len(lines) == 8  # header + 7 classes

    dot_path = tmp_path / "p3.dot"
    code = main(["enumerate", "--graph", "kn1", "--n", "3",
                 "--format", "dot", "--out", str(dot_path)])
    capsys.readouterr()
    assert code == 0
    text = dot_path.read_text()
    assert text.count("graph zero_divisor_graph {") == 1  # one block, annotated
    assert "// class 0:" in text and "x1;" in text


def test_cli_enumerate_case_requires_kn1(tmp_path, capsys):
    out_path = tmp_path / "unused.json"
    for case in ("zero", "self"):
        code = main(["enumerate", "--graph", "kn", "--n", "3",
                     "--case", case, "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: --case applies to pendant targets only\n"
        assert not out_path.exists()


def test_cli_enumerate_io_error(tmp_path, capsys):
    code = main(["enumerate", "--graph", "kn", "--n", "3",
                 "--out", str(tmp_path / "missing" / "k3.json")])
    err = capsys.readouterr().err
    assert code == 3
    assert "i/o error" in err


def test_cli_export_dot_stdout(capsys):
    code = main(["export-dot", "--graph", "kn1", "--n", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "graph zero_divisor_graph {"
    assert "x1;" in out


def test_cli_verify_range(capsys):
    code = main(["verify", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS" in out and "summary:" in out


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(*argv):
    """Run Python in a fresh interpreter, so a traceback would reach stderr."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def run_zdsg(*argv):
    return run_python("-m", "zdsemigroups.cli", *argv)


@pytest.mark.parametrize("command, argv", [
    ("cmd_verify", ["verify", "3"]),
    ("cmd_count", ["count", "--graph", "kn", "--n", "3"]),
])
def test_cli_interrupt_exits_130_without_traceback(command, argv):
    result = run_python("-c", (
        "import sys\n"
        "from zdsemigroups import cli\n"
        "def interrupted(args):\n"
        "    raise KeyboardInterrupt\n"
        f"cli.{command} = interrupted\n"
        f"sys.exit(cli.main({argv!r}))\n"
    ))
    assert result.returncode == 130
    assert result.stdout == ""
    assert result.stderr == "interrupted\n"
    assert "Traceback" not in result.stderr


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # Every zdsg command pays the import; these two cost more than the
    # rest of the package.  Only modules the import adds are counted, so
    # a site hook that loads them first cannot fail the test.
    result = run_python("-c", (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import zdsemigroups.cli\n"
        "print(' '.join(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before))))\n"
    ))
    assert result.returncode == 0, result.stderr
    assert result.stdout == "\n"


@pytest.mark.parametrize("text", ["a..b", "3..", "..4", "3..x", "x", ""])
def test_cli_verify_malformed_range_exits_2(text):
    result = run_zdsg("verify", text)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: range must look like")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("text", ["99999999999999999999", "4001", "3..4001"])
def test_cli_verify_refuses_n_above_the_size_limit(capsys, text):
    code = main(["verify", text])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: targets need n <= 4000\n"


@pytest.mark.parametrize("text", ["5..3", "0..2", "0"])
def test_cli_verify_range_out_of_order_or_below_1_exits_2(capsys, text):
    code = main(["verify", text])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: range must satisfy 1 <= lo <= hi\n"


def test_count_refuses_a_complete_graph_of_size_0_with_its_own_message(capsys, tmp_path):
    # count, enumerate and export-dot all give CompleteK's one refusal
    for command in ("count", "enumerate", "export-dot"):
        out = tmp_path / command
        code = main([command, "--graph", "kn", "--n", "0", "--out", str(out)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: complete graph needs n >= 1\n"
        assert not out.exists()


def test_verify_boundary_findings():
    rows, code = run_verification(1, 2)
    assert code == 0
    findings = [r for r in rows if r.status == "FINDING"]
    assert any("n=1" in r.label and "oracle=1 formula=2" in r.detail for r in findings)
    assert any("n=2" in r.label and "oracle=4 formula=4" in r.detail for r in findings)


INVARIANCE_ROW = "canonical form invariance (200 sampled relabelings)"


def test_verify_invariance_row_keys_each_pool_table_once(monkeypatch):
    # one key for each of the 23 kn n=3 tables, and one for each of the 200 relabelings
    keyed = []
    key = reports.canonical_form
    monkeypatch.setattr(reports, "canonical_form", lambda table: keyed.append(table) or key(table))
    rows, code = run_verification(1, 1)
    row = next(r for r in rows if r.label == INVARIANCE_ROW)
    assert (row.status, row.detail, code) == ("PASS", "invariant", 0)
    assert len(keyed) == 23 + 200


def test_verify_invariance_row_fails_on_a_key_that_moves_with_the_labels(monkeypatch):
    monkeypatch.setattr(reports, "canonical_form", lambda table: table.code)
    rows, code = run_verification(1, 1)
    row = next(r for r in rows if r.label == INVARIANCE_ROW)
    assert (row.status, row.detail, code) == ("FAIL", "violated", 1)


def test_clique_ideal_row_names_a_class_whose_clique_square_is_the_pendant():
    # K_3 on 1..3 with the pendant 4 on 1; 2*2 = 4 takes the clique out
    # of the ideal (this table is not associative: the row reads the graph
    # and the products only)
    table = MulTable.from_cells(4, [((2, 2), 4), ((2, 4), 2), ((3, 4), 3), ((4, 4), 4)])
    assert realizes(table, CompletePlusEnd(3)) is not None
    catalog = ClassCatalog()
    catalog.insert(table)
    (entry,) = catalog.entries()
    assert reports._ideal_violations(catalog, CompletePlusEnd(3)) == [entry.representative]


def test_verify_render_deterministic():
    rows, code = run_verification(1, 1)
    again, _ = run_verification(1, 1)
    assert render_verification(rows, code) == render_verification(again, code)


def test_results_cache_round_trip(tmp_path):
    cache = ResultsCache(tmp_path)
    report = build_count_report("kn1", 3, "oracle", cache=cache)
    assert report.method_counts["oracle"] == 22
    cached = cache.get_catalog("kn1", 3)
    assert cached is not None and cached.class_count == 22
    # second run hits the cache and agrees
    report2 = build_count_report("kn1", 3, "oracle", cache=cache)
    assert report2.method_counts["oracle"] == 22


def _assert_unreadable_entry_is_a_miss(tmp_path, capsys, corrupt, reason=""):
    argv = ["count", "--graph", "kn1", "--n", "3", "--method", "oracle",
            "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    (entry,) = tmp_path.iterdir()
    entry.write_text(corrupt(entry.read_text()))

    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == cold
    assert captured.err.startswith("warning: ignoring unreadable cache entry")
    assert reason in captured.err
    # the entry was rewritten whole, and no temporary file is left behind
    assert list(tmp_path.iterdir()) == [entry]
    assert ResultsCache(tmp_path).get_catalog("kn1", 3).class_count == 22
    assert capsys.readouterr().err == ""


def test_truncated_cache_entry_is_a_miss(tmp_path, capsys):
    _assert_unreadable_entry_is_a_miss(tmp_path, capsys, lambda text: text[:100])


def test_deeply_nested_cache_entry_is_a_miss(tmp_path, capsys):
    # json.load raises RecursionError here, not ValueError
    _assert_unreadable_entry_is_a_miss(tmp_path, capsys,
                                       lambda text: "[" * 100000 + "]" * 100000)


def test_list_shaped_cache_entry_is_a_miss(tmp_path, capsys):
    # the entry format before the labelled total was recorded
    _assert_unreadable_entry_is_a_miss(tmp_path, capsys,
                                       lambda text: json.dumps(json.loads(text)["classes"]),
                                       "the entry is not a labeled/classes object")


def test_failed_cache_write_leaves_no_temporary_file(tmp_path, capsys):
    entry = ResultsCache(tmp_path)._path("kn1", 3)
    entry.mkdir()  # the rename onto the entry path fails
    code = main(["count", "--graph", "kn1", "--n", "3", "--method", "oracle",
                 "--cache-dir", str(tmp_path)])
    assert code == 3
    assert "i/o error" in capsys.readouterr().err
    assert list(tmp_path.glob("*.tmp")) == []


def test_enumerate_refuses_small_pendant_target(tmp_path, capsys):
    out = tmp_path / "out.json"
    code = main(["enumerate", "--graph", "kn1", "--n", "2", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: pendant targets need n >= 3\n"
    assert not out.exists()


@pytest.mark.parametrize("kind, n", (("kn", 16), ("kn1", 15)))
def test_enumerate_refuses_unkeyable_size_before_work(tmp_path, capsys, monkeypatch, kind, n):
    def no_work(*args, **kwargs):
        raise AssertionError("a generator ran before the size check")

    monkeypatch.setattr("zdsemigroups.reports.generate_clique_classes", no_work)
    monkeypatch.setattr("zdsemigroups.reports.pendant_case_breakdown", no_work)
    out = tmp_path / "out.json"
    code = main(["enumerate", "--graph", kind, "--n", str(n), "--method", "generator",
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: hex keys support at most 15 nonzero elements\n"
    assert not out.exists()


def _tamper(entry_path, edit):
    entry = json.loads(entry_path.read_text())
    edit(entry["classes"])
    entry_path.write_text(json.dumps(entry, sort_keys=True))


def _swap_two_key_digits(classes):
    key = classes[0]["key"]
    i = next(i for i in range(len(key) - 1) if key[i] != key[i + 1])
    classes[0]["key"] = key[:i] + key[i + 1] + key[i] + key[i + 2:]


def _change_one_cell(classes):
    # a clique square of the last element, kept symmetric by living on the diagonal
    grid = classes[0]["table"]["entries"]
    m = classes[0]["table"]["m"]
    grid[m - 1][m - 1] = (grid[m - 1][m - 1] + 1) % (m + 1)


def _repeat_first_class(classes):
    # the last class is lost, and the first is listed twice
    classes[-1] = classes[0]


def _drop_every_class(classes):
    classes.clear()


def _drop_last_class(classes):
    # every remaining class is valid; only the labelled total gives it away
    classes.pop()


def _add_one_to_a_multiplicity(classes):
    classes[0]["multiplicity"] += 1


def _store_class(item, key):
    item["key"] = key_to_hex(key)
    item["table"] = table_to_json(table_from_key(key))


def _relabel_first_class(classes):
    # a transposition of class 0, stored under its own flattened triangle
    key = key_from_hex(classes[0]["key"])
    table = table_from_key(key)
    m = table.m
    for u, v in itertools.combinations(range(1, m + 1), 2):
        perm = list(range(m + 1))
        perm[u], perm[v] = v, u
        entries = permute_table(table, perm).entries
        triangle = tuple(entries[a][b] for a, b in
                         itertools.combinations_with_replacement(range(1, m + 1), 2))
        if triangle != key:
            break
    _store_class(classes[0], triangle)


def _store_a_non_associative_candidate(classes):
    # canonical, and with the target graph, but not a semigroup
    candidates = iter_candidate_tables(seed_partial_table(CompletePlusEnd(3)))
    table = next(t for t in candidates if check_associativity(t) is not None)
    _store_class(classes[0], canonical_form(table))


def _store_a_class_of_k4(classes):
    # a canonical zero-divisor semigroup with m = 4 whose graph is K_4
    _store_class(classes[0], oracle_classes(CompleteK(4)).keys()[0])


def _assert_tampered_entry_is_a_miss(tmp_path, capsys, edit, reason):
    argv = ["count", "--graph", "kn1", "--n", "3", "--method", "oracle",
            "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    (entry,) = tmp_path.iterdir()
    intact = entry.read_text()
    _tamper(entry, edit)
    assert ResultsCache(tmp_path).get_catalog("kn1", 3) is None
    warning = capsys.readouterr().err
    assert warning.startswith("warning: ignoring unreadable cache entry")
    assert reason in warning

    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == cold
    assert captured.err.startswith("warning: ignoring unreadable cache entry")
    assert entry.read_text() == intact


@pytest.mark.parametrize("edit, reason", [
    pytest.param(edit, reason, id=edit.__name__) for edit, reason in (
        (_swap_two_key_digits, "stores a table other than its key's"),
        (_change_one_cell, "stores a table other than its key's"),
        (_repeat_first_class, "is listed twice"),
        (_drop_every_class, "the entry lists no class"),
        (_drop_last_class, "labelled tables, not"),
        (_add_one_to_a_multiplicity, "labelled tables, not"),
        # each of the last three passes every other check, so only one
        # check in ``reports._check_cached_class`` can catch it
        (_relabel_first_class, "does not reproduce its key"),
        (_store_a_non_associative_candidate, "is not a zero-divisor semigroup"),
        (_store_a_class_of_k4, "does not realize the target graph"),
    )
])
def test_tampered_cache_entry_is_a_miss(tmp_path, capsys, edit, reason):
    _assert_tampered_entry_is_a_miss(tmp_path, capsys, edit, reason)


@pytest.mark.parametrize("multiplicity", (0, -7, "3", 2.9, True),
                         ids=("zero", "negative", "string", "float", "bool"))
def test_cache_entry_with_bad_multiplicity_is_a_miss(tmp_path, capsys, multiplicity):
    def set_multiplicity(classes):
        classes[0]["multiplicity"] = multiplicity

    _assert_tampered_entry_is_a_miss(tmp_path, capsys, set_multiplicity,
                                     "multiplicity must be a positive integer")


@pytest.mark.parametrize("labeled", (True, 1.0), ids=("bool", "float"))
def test_cache_entry_with_a_labelled_total_that_is_not_an_int_is_a_miss(tmp_path, capsys, labeled):
    # kn n=1 has one class of one table, so both values equal the true total
    argv = ["count", "--graph", "kn", "--n", "1", "--method", "oracle",
            "--cache-dir", str(tmp_path)]
    code = main(argv)
    cold = capsys.readouterr().out
    (entry,) = tmp_path.iterdir()
    intact = entry.read_text()
    obj = json.loads(intact)
    assert obj["labeled"] == labeled
    obj["labeled"] = labeled
    entry.write_text(json.dumps(obj, sort_keys=True))
    assert ResultsCache(tmp_path).get_catalog("kn", 1) is None
    assert capsys.readouterr().err == (f"warning: ignoring unreadable cache entry {entry}: "
                                       f"the labelled total must be an integer, got {labeled!r}\n")

    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == cold
    assert captured.err.startswith("warning: ignoring unreadable cache entry")
    assert entry.read_text() == intact
