"""Tests of the benchmark itself, at smoke sizes (a few seconds in all).

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import PACKAGE, Tracer  # noqa: E402

SMOKE = {
    "labelled-search": workloads.labelled_search(n_pendant=4, n_clique=4),
    "generator-census": workloads.generator_census(n_pendant=4, n_clique=5),
    "cli-session": workloads.cli_session(hi=4, n=4),
}


def _package_bindings() -> dict:
    import zdsemigroups.classify
    import zdsemigroups.cli
    import zdsemigroups.reports

    out = {}
    for name, mod in sys.modules.items():
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            out.update({(name, attr): value for attr, value in vars(mod).items()})
    for cls in (zdsemigroups.classify.ClassCatalog, zdsemigroups.reports.ResultsCache):
        out.update({(cls.__qualname__, attr): value for attr, value in vars(cls).items()})
    return out


def test_tracer_patches_every_binding_and_restores_it():
    import zdsemigroups
    import zdsemigroups.search
    import zdsemigroups.tables

    before = _package_bindings()
    original = zdsemigroups.tables.is_zd_semigroup
    tracer = Tracer()
    tracer.install()
    try:
        wrapper = zdsemigroups.tables.is_zd_semigroup
        assert wrapper is not original
        assert zdsemigroups.search.is_zd_semigroup is wrapper
        assert zdsemigroups.is_zd_semigroup is wrapper
        assert zdsemigroups.enumerate_labeled(zdsemigroups.CompleteK(3)) == 23
    finally:
        tracer.restore()
    after = _package_bindings()
    changed = [key for key in before if after.get(key) is not before[key]]
    assert changed == []
    summary = tracer.summary()
    assert summary["under"]["search.enumerate>tables.zd_check"] == 23
    assert summary["counters"]["search.leaves_accepted"] == 23


def _run_pass(wl, traced, tmp_path):
    pass_dir = tmp_path / ("traced" if traced else "plain")
    pass_dir.mkdir()
    run_pass = run.run_api_pass if wl.kind == "api" else run.run_cli_pass
    with run.Spawner() as spawner:
        return run_pass(spawner, wl, list(wl.ops), traced, pass_dir)


@pytest.fixture(scope="module")
def smoke_passes(tmp_path_factory):
    out = {}
    for name, wl in SMOKE.items():
        tmp = tmp_path_factory.mktemp(name)
        out[name] = (_run_pass(wl, False, tmp), _run_pass(wl, True, tmp))
    return out


@pytest.mark.parametrize("name", SMOKE)
def test_traced_outputs_equal_untraced(smoke_passes, name):
    plain, traced = smoke_passes[name]
    for op in SMOKE[name].ops:
        assert plain["ops"][op] is not None and traced["ops"][op] is not None
        assert plain["ops"][op]["out"] == traced["ops"][op]["out"]
        assert not run.op_failed(SMOKE[name], op, plain["ops"][op], plain["ops"])


MAPPED = {
    "labelled-search": (
        "search.enumerate.calls", "search.enumerate.self_s", "search.prune_free_leaves",
        "search.leaves_reached", "search.leaves_accepted", "search.accept_ratio",
        "search.reach_ratio", "tables.zd_check.calls", "tables.zd_check.self_s",
        "tables.assoc.calls", "tables.assoc.s", "graphs.zd_graph.calls", "graphs.zd_graph.s",
        "graphs.recognize.calls", "graphs.recognize.s",
    ),
    "generator-census": (
        "classify.pinned.calls", "classify.pinned.s", "classify.canonical.calls",
        "classify.canonical.s", "classify.insert.calls", "classify.insert.self_s",
        "classify.new_class_ratio", "counting.gen_self.calls",
        *(f"counting.{g}.{f}" for g in run.GENERATORS for f in ("s", "self_s", "tables")),
    ),
    "cli-session": (
        "search.oracle.self_s", "counting.formula.s", "reports.count_report.self_s",
        "reports.verify.self_s", "reports.cache_get.s", "reports.cache_put.s",
        "reports.cache_hits", "reports.cache_misses", "reports.export.s",
        "cli.main.s", "cli.startup_s",
    ),
}


@pytest.mark.parametrize("name", SMOKE)
def test_layer_metrics_nonzero_where_mapped(smoke_passes, name):
    _, traced = smoke_passes[name]
    metrics = run.layer_metrics(traced["trace"], traced["startup"])
    assert [m for m in MAPPED[name] if not metrics[m] > 0] == []
    if name == "labelled-search":
        assert metrics["search.leaves_reached"] == metrics["search.leaves_accepted"]
        assert [m for m in metrics if m.startswith("classify.") and metrics[m] != 0] == []
    if name == "generator-census":
        assert [m for m in metrics if m.startswith("search.") and metrics[m] != 0] == []
    if name == "cli-session":
        # verify 3..4 caches four oracle catalogs: kn and kn1 at n = 3, 4
        assert metrics["reports.cache_misses"] == 4
        assert metrics["reports.cache_hits"] == 4


def test_failed_output_is_counted():
    wl = replace(SMOKE["labelled-search"], expected={"search-kn": {"count": 99}})
    entry = {"s": 0.1, "out": {"count": 98}}
    assert run.op_failed(wl, "search-kn", entry, {"search-kn": entry})
    assert run.op_failed(wl, "search-kn", None, {})
    wl = SMOKE["cli-session"]
    cold = {"s": 1.0, "out": {"code": 0, "stdout": "a\n"}}
    warm = {"s": 1.0, "out": {"code": 0, "stdout": "b\n"}}
    assert run.op_failed(wl, "verify-warm", warm, {"verify-cold": cold, "verify-warm": warm})


def test_benchmark_json_names_the_harness_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.load_workloads())


def test_bare_directory_exits_without_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "labelled-search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
