"""Benchmark harness for zdsemigroups.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Each pass of a workload starts fresh
interpreters (the package is taken from ``src``), so cold start is paid
on every pass and no memo survives between passes.  One client runs the
calls of a pass in sequence; the seed sets their order and picks the
returned classes that are re-checked after the passes.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced passes and reports the per-layer metrics from the
traced ones, plus the tracing overhead.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from tracer import merge_summaries
from workloads import Workload, load_workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
PYTHON = sys.executable

SETUP_PROBES_PER_PASS = 3
SAMPLES_PER_OP = 2

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_a_s", "s"),
    ("op_b_s", "s"),
)

GENERATORS = ("gen_zero", "gen_self", "gen_attach", "gen_other", "gen_clique")

PER_LAYER = (
    ("search.enumerate.calls", "count"),
    ("search.enumerate.self_s", "s"),
    ("search.prune_free_leaves", "count"),
    ("search.leaves_reached", "count"),
    ("search.leaves_accepted", "count"),
    ("search.accept_ratio", "ratio"),
    ("search.reach_ratio", "ratio"),
    ("search.oracle.self_s", "s"),
    ("tables.zd_check.calls", "count"),
    ("tables.zd_check.self_s", "s"),
    ("tables.assoc.calls", "count"),
    ("tables.assoc.s", "s"),
    ("graphs.zd_graph.calls", "count"),
    ("graphs.zd_graph.s", "s"),
    ("graphs.recognize.calls", "count"),
    ("graphs.recognize.s", "s"),
    ("classify.pinned.calls", "count"),
    ("classify.pinned.s", "s"),
    ("classify.canonical.calls", "count"),
    ("classify.canonical.s", "s"),
    ("classify.insert.calls", "count"),
    ("classify.insert.self_s", "s"),
    ("classify.new_class_ratio", "ratio"),
    *((f"counting.{g}.{field}", unit) for g in GENERATORS
      for field, unit in (("s", "s"), ("self_s", "s"), ("tables", "count"))),
    ("counting.gen_self.calls", "count"),
    ("counting.formula.s", "s"),
    ("reports.count_report.self_s", "s"),
    ("reports.verify.self_s", "s"),
    ("reports.cache_get.s", "s"),
    ("reports.cache_put.s", "s"),
    ("reports.cache_hits", "count"),
    ("reports.cache_misses", "count"),
    ("reports.export.s", "s"),
    ("cli.main.s", "s"),
    ("cli.startup_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class HarnessError(RuntimeError):
    """The benchmark cannot run here (for example, the package is missing)."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Spawner:
    """Client of spawner.py, which starts and reaps every timed process."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [PYTHON, "-S", str(HERE / "spawner.py")], cwd=ROOT, env=_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.peak_rss_mb = None

    def run(self, argv: list[str], stdout: Path) -> dict:
        """Run ``argv`` to completion, stdout to a file, stderr beside it."""
        request = {"argv": argv, "stdout": str(stdout), "stderr": f"{stdout}.err"}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise HarnessError("the process spawner exited")
        return json.loads(reply)

    def close(self) -> None:
        self._proc.stdin.close()
        last = self._proc.stdout.readline()
        self._proc.wait()
        if last:
            self.peak_rss_mb = json.loads(last)["self_hwm_kb"] / 1024

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _ready_time(text: str, launched: float):
    """Seconds from launch to the child's ``ready <monotonic time>`` line."""
    first = text.split("\n", 1)[0].split()
    if len(first) == 2 and first[0] == "ready":
        return float(first[1]) - launched
    return None


# ---------------------------------------------------------------------------
# passes


def probe_setup(spawner: Spawner, module: str, work: Path) -> float:
    """Seconds from launching a fresh interpreter until ``module`` is imported."""
    out = work / "probe.out"
    code = f"import time, {module}; print('ready', time.monotonic())"
    done = spawner.run([PYTHON, "-c", code], out)
    ready = _ready_time(out.read_text(), done["start"])
    if done["code"] != 0 or ready is None:
        raise HarnessError(f"cannot import {module} from {SRC}")
    return ready


def run_api_pass(spawner: Spawner, wl: Workload, order: list[str], traced: bool,
                 pass_dir: Path) -> dict:
    config = {"ops": [[op, wl.ops[op].call, wl.ops[op].n] for op in order], "trace": int(traced)}
    out = pass_dir / "pass.out"
    done = spawner.run([PYTHON, str(HERE / "api_pass.py"), json.dumps(config)], out)
    text = out.read_text()
    try:
        data = json.loads(text.strip().splitlines()[-1]) if done["code"] == 0 else None
    except (IndexError, ValueError):
        data = None
    return {
        "wall": done["end"] - done["start"],
        "cpu": done["cpu_s"],
        "rss_mb": done["maxrss_kb"] / 1024,
        "setup": _ready_time(text, done["start"]),
        "ops": {op: data["ops"][op] if data else None for op in order},
        "trace": data["trace"] if data else None,
        "startup": 0.0,
    }


def run_cli_pass(spawner: Spawner, wl: Workload, order: list[str], traced: bool,
                 pass_dir: Path) -> dict:
    paths = {"cache": str(pass_dir / "cache"), "csv": str(pass_dir / "classes.csv")}
    done = {}
    for op in order:
        argv = [arg.format(**paths) for arg in wl.ops[op]]
        if traced:
            args = [PYTHON, str(HERE / "cli_launcher.py"), str(pass_dir / f"{op}.trace"), *argv]
        else:
            args = [PYTHON, "-m", "zdsemigroups.cli", *argv]
        done[op] = spawner.run(args, pass_dir / f"{op}.out")

    ops, summaries, startup = {}, [], 0.0
    for op in order:
        code, latency = done[op]["code"], done[op]["end"] - done[op]["start"]
        stdout = (pass_dir / f"{op}.out").read_text()
        for name, path in paths.items():
            stdout = stdout.replace(path, "{" + name + "}")
        out = {"code": code, "stdout": stdout}
        if "{csv}" in wl.ops[op]:
            table = Path(paths["csv"]).read_text() if code == 0 else ""
            out["csv"] = table
            out["keys"] = [row["key"] for row in csv.DictReader(io.StringIO(table))]
            out["classes"] = len(out["keys"])
        if traced and code == 0:
            summary = json.loads((pass_dir / f"{op}.trace").read_text())
            summaries.append(summary)
            main_s = summary["spans"].get("cli.main", {}).get("s", 0.0)
            startup += latency - main_s - summary["write_s"]
        ops[op] = {"s": latency, "out": out}
    return {
        "wall": done[order[-1]]["end"] - done[order[0]]["start"],
        "cpu": sum(d["cpu_s"] for d in done.values()),
        "rss_mb": max(d["maxrss_kb"] for d in done.values()) / 1024,
        "setup": None,
        "ops": ops,
        "trace": merge_summaries(summaries) if traced else None,
        "startup": startup,
    }


def draw_order(wl: Workload, rng: random.Random) -> list[str]:
    """A random call order; a warm verify always follows the cold one."""
    order = list(wl.ops)
    rng.shuffle(order)
    if wl.kind == "cli":
        cold, warm = order.index("verify-cold"), order.index("verify-warm")
        if warm < cold:
            order[cold], order[warm] = order[warm], order[cold]
    return order


def add_digests(out: dict) -> None:
    """sha256 digests of the outputs the expected record pins."""
    for field, digest in (("stdout", "stdout_sha256"), ("csv", "csv_sha256")):
        if field in out:
            out[digest] = _sha256(out[field].encode())
    if "keys" in out:
        out["keys_sha256"] = _sha256(json.dumps(out["keys"]).encode())


def op_failed(wl: Workload, op: str, entry, pass_ops: dict) -> bool:
    """A call fails if it raised or exited non-zero, or if its output
    differs from the expected record (or, for the warm verify, from the
    cold verify of the same pass)."""
    if entry is None:
        return True
    out = entry["out"]
    if out.get("code", 0) != 0:
        return True
    add_digests(out)
    if op == "verify-warm" and out["stdout"] != pass_ops["verify-cold"]["out"]["stdout"]:
        return True
    expected = (wl.expected or {}).get(op, {})
    return any(out.get(key) != value for key, value in expected.items())


def pick_samples(wl: Workload, ops: dict, rng: random.Random) -> list[tuple[str, dict]]:
    picked = []
    for op, (kind, n) in wl.samples.items():
        if ops[op] is None:
            continue
        keys = ops[op]["out"]["keys"]
        m = n + 1 if kind == "kn1" else n
        for key in rng.sample(keys, min(SAMPLES_PER_OP, len(keys))):
            perm = [0, *rng.sample(range(1, m + 1), m)]
            picked.append((op, {"kind": kind, "n": n, "key": key, "perm": perm}))
    return picked


def recheck(samples: list[dict]) -> list[bool]:
    if not samples:
        return []
    proc = subprocess.run([PYTHON, str(HERE / "recheck.py")], cwd=ROOT, env=_env(),
                          input=json.dumps(samples), capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return [False] * len(samples)
    return json.loads(proc.stdout)


# ---------------------------------------------------------------------------
# metrics


def layer_metrics(summary: dict, startup_s: float) -> dict[str, float]:
    """Per-layer metrics of one pass from its (merged) tracer summary."""
    spans, counters, under = summary["spans"], summary["counters"], summary["under"]

    def span(name, field):
        return spans.get(name, {}).get(field, 0)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    reached = under.get("search.enumerate>tables.zd_check", 0)
    accepted = counters.get("search.leaves_accepted", 0)
    prune_free = counters.get("search.prune_free_leaves", 0)
    out = {
        "search.enumerate.calls": span("search.enumerate", "calls"),
        "search.enumerate.self_s": span("search.enumerate", "self_s"),
        "search.prune_free_leaves": prune_free,
        "search.leaves_reached": reached,
        "search.leaves_accepted": accepted,
        "search.accept_ratio": ratio(accepted, reached),
        "search.reach_ratio": ratio(reached, prune_free),
        "search.oracle.self_s": span("search.oracle", "self_s"),
        "tables.zd_check.calls": span("tables.zd_check", "calls"),
        "tables.zd_check.self_s": span("tables.zd_check", "self_s"),
        "tables.assoc.calls": span("tables.assoc", "calls"),
        "tables.assoc.s": span("tables.assoc", "s"),
        "graphs.zd_graph.calls": span("graphs.zd_graph", "calls"),
        "graphs.zd_graph.s": span("graphs.zd_graph", "s"),
        "graphs.recognize.calls": span("graphs.recognize", "calls"),
        "graphs.recognize.s": span("graphs.recognize", "s"),
        "classify.pinned.calls": span("classify.pinned", "calls"),
        "classify.pinned.s": span("classify.pinned", "s"),
        "classify.canonical.calls": span("classify.canonical", "calls"),
        "classify.canonical.s": span("classify.canonical", "s"),
        "classify.insert.calls": span("classify.insert", "calls"),
        "classify.insert.self_s": span("classify.insert", "self_s"),
        "classify.new_class_ratio": ratio(counters.get("classify.new_classes", 0),
                                          span("classify.insert", "calls")),
        "counting.gen_self.calls": span("counting.gen_self", "calls"),
        "counting.formula.s": span("counting.formula", "s"),
        "reports.count_report.self_s": span("reports.count_report", "self_s"),
        "reports.verify.self_s": span("reports.verify", "self_s"),
        "reports.cache_get.s": span("reports.cache_get", "s"),
        "reports.cache_put.s": span("reports.cache_put", "s"),
        "reports.cache_hits": counters.get("reports.cache_hits", 0),
        "reports.cache_misses": counters.get("reports.cache_misses", 0),
        "reports.export.s": span("reports.export", "s"),
        "cli.main.s": span("cli.main", "s"),
        "cli.startup_s": startup_s,
    }
    for g in GENERATORS:
        out[f"counting.{g}.s"] = span(f"counting.{g}", "s")
        out[f"counting.{g}.self_s"] = span(f"counting.{g}", "self_s")
        out[f"counting.{g}.tables"] = under.get(f"counting.{g}>classify.insert", 0)
    return out


def _median(values: list) -> float:
    """Median, or 0 when a failing program left no samples."""
    return statistics.median(values) if values else 0.0


def measure(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes of ``wl`` for about ``seconds`` and check every output."""
    rng = random.Random(seed)
    deadline = perf_counter() + seconds
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    run_pass = run_api_pass if wl.kind == "api" else run_cli_pass
    module = "zdsemigroups" if wl.kind == "api" else "zdsemigroups.cli"
    spawner = Spawner()
    try:
        setup, passes = [], []
        while True:
            if not trace:  # spread the probes over the run, as the passes are
                setup += [probe_setup(spawner, module, work) for _ in range(SETUP_PROBES_PER_PASS)]
            traced = trace and len(passes) % 2 == 0
            order = draw_order(wl, rng)
            pass_dir = work / f"pass-{len(passes)}"
            pass_dir.mkdir()
            result = run_pass(spawner, wl, order, traced, pass_dir)
            shutil.rmtree(pass_dir)
            result["traced"] = traced
            result["order"] = order
            passes.append(result)
            longest = max(p["wall"] for p in passes)
            if len(passes) >= (2 if trace else 1) and perf_counter() + longest > deadline:
                break
    finally:
        spawner.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    failed = set()
    samples = []
    for i, p in enumerate(passes):
        for op in p["order"]:
            if op_failed(wl, op, p["ops"][op], p["ops"]):
                failed.add((i, op))
        samples += [(i, op, s) for op, s in pick_samples(wl, p["ops"], rng)]
    for (i, op, _), ok in zip(samples, recheck([s for _, _, s in samples])):
        if not ok:
            failed.add((i, op))
    attempted = sum(len(p["order"]) for p in passes)
    correct = not failed

    plain = [p for p in passes if not p["traced"]]
    if not trace:
        setup += [p["setup"] for p in passes if p["setup"] is not None]
        metrics = {
            "setup_s": _median(setup),
            "wall_s": _median([p["wall"] for p in plain]),
            "cpu_s": _median([p["cpu"] for p in plain]),
            "peak_rss_mb": _median([p["rss_mb"] for p in plain]),
            "op_a_s": _median([p["ops"][wl.op_a]["s"] for p in plain if p["ops"][wl.op_a]]),
            "op_b_s": _median([p["ops"][wl.op_b]["s"] for p in plain if p["ops"][wl.op_b]]),
        }
        units = dict(END_TO_END)
    else:
        per_pass = [layer_metrics(p["trace"], p["startup"]) for p in passes
                    if p["traced"] and p["trace"] is not None]
        units = dict(PER_LAYER)
        metrics = {}
        for name, unit in PER_LAYER[:-1]:
            values = [m[name] for m in per_pass]
            if unit != "s" and len(set(values)) > 1:
                correct = False  # exact counts must repeat from pass to pass
            metrics[name] = _median(values)
        traced_wall = _median([p["wall"] for p in passes if p["traced"]])
        metrics["trace.overhead_ratio"] = traced_wall / _median([p["wall"] for p in plain]) - 1
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "passes": len(passes),
        "spawner_peak_rss_mb": spawner.peak_rss_mb,
    }


# ---------------------------------------------------------------------------
# facts and output


def _default_jobs():
    code = "from zdsemigroups.cli import build_parser; print(build_parser().parse_args(['verify', '1']).jobs)"
    proc = subprocess.run([PYTHON, "-c", code], cwd=ROOT, env=_env(), capture_output=True, text=True)
    return int(proc.stdout) if proc.returncode == 0 else None


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_facts(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "default_jobs": _default_jobs(),
        "seed": seed,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def print_result(name: str, result: dict) -> None:
    for metric, entry in result["metrics"].items():
        print(f"{name:<17} {metric:<29} {entry['value']:>14.6g} {entry['unit']}")
    ratio = result["failed"] / result["attempted"]
    print(f"{name:<17} {'failed_ratio':<29} {ratio:>14.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    if name == "cli-session" and "op_a_s" in result["metrics"]:
        for alias, metric in (("verify_cold_s", "op_a_s"), ("verify_warm_s", "op_b_s")):
            print(f"{name:<17} {alias:<29} {result['metrics'][metric]['value']:>14.6g} s")
    print(f"{name:<17} passes {result['passes']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "zdsemigroups" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'zdsemigroups'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    workloads = load_workloads()
    names = list(workloads) if args.workload == "all" else [args.workload]
    if any(name not in workloads for name in names):
        parser.error(f"--workload must be one of {', '.join(workloads)} or all")

    try:
        results = {name: measure(workloads[name], args.seed, args.seconds, bool(args.trace))
                   for name in names}
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    facts = machine_facts(args.seed)
    facts["passes"] = {name: r["passes"] for name, r in results.items()}
    # no pass's peak_rss_mb can read below the spawner's own peak
    facts["spawner_peak_rss_mb"] = max(r["spawner_peak_rss_mb"] or 0 for r in results.values())
    print("facts " + json.dumps(facts, sort_keys=True))
    for name, result in results.items():
        print_result(name, result)

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{metric}": entry for name, r in results.items()
                   for metric, entry in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
