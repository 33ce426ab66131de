"""Mutation gate: every listed guard has a tier-1 test that fails without it.

    python tests/mutation_gate.py            # every guard
    python tests/mutation_gate.py NAME ...   # the named guards only

Run from anywhere; it needs only the standard library and pytest.  Each
guard names one check in ``src/zdsemigroups`` and one ``ast`` edit that
disables it, found by the exact source text ``match`` inside one
function (nested functions included):

- ``drop``: the ``if`` statement whose condition is ``match`` becomes
  ``pass``, so its ``raise`` never runs;
- ``true``: the condition ``match`` becomes ``True``;
- ``flip``: the one-operator comparison ``match`` gets the negated
  operator (``==`` and ``!=``, ``<`` and ``>=``, ``in`` and ``not in``);
- ``less``: the expression ``match``, a bound, becomes ``(match) - 1``.

Only the matched text is replaced, so every other byte of the file stays
as it is.  A match that spans lines is padded with the newlines its
replacement lacks, inside parentheses unless the edit is ``drop``, so
every line number stays and the mutant still parses.  For each guard the
gate copies the tree to a fresh temporary directory, applies the edit
there and runs tier-1 with ``-x``.  A failing run means a test caught
the mutant; a passing run means it survived.  Tier-1 is passed as every
``tests/test_*.py`` file by name, with the guard's catcher first: the
test file named after its module (``tables.py`` -> ``test_tables.py``;
``reports.py`` and ``cli.py`` -> ``test_reports_cli.py``).  pytest keeps
the order of file arguments, so the test most likely to fail runs first;
every file still runs unless one fails, so no verdict depends on the
order.  Before the guards, the unmutated copy must pass, or no verdict
would mean anything.  The guards' runs then go side by side, one per CPU
(``os.cpu_count()``), each in its own copy; their verdicts print in
``GUARDS`` order.

Exit status: 0 when every guard is caught, 1 when any survives, 2 when
the unmutated tree fails or a guard's ``match`` does not name exactly
one node (the guard is stale and must be updated with the code).

This file is not collected by pytest (its name does not start with
``test_``), and the long-run tests stay off in the mutants' runs.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "zdsemigroups"
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]
# A mutant that makes tier-1 run this long is reported as caught by the timeout.
TIMEOUT_S = 900
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 ".benchmarks", ".perfbench_work", "*.egg-info")

FLIPPED = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE, ast.GtE: ast.Lt,
           ast.Gt: ast.LtE, ast.LtE: ast.Gt, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
           ast.In: ast.NotIn, ast.NotIn: ast.In}


class Guard(NamedTuple):
    name: str
    module: str  # file name under src/zdsemigroups
    function: str  # qualified name, e.g. "MulTable.__init__"
    edit: str  # "drop", "true", "flip" or "less"
    match: str  # exact source text of the condition or expression


GUARDS = (
    # MulTable's refusals, in the order the constructor makes them
    Guard("table-needs-two-rows", "tables.py", "MulTable.__init__", "drop", "size < 2"),
    Guard("table-size-cap", "tables.py", "MulTable.__init__", "drop", "m > MAX_ELEMENTS"),
    Guard("table-square", "tables.py", "MulTable.__init__", "drop",
          "not kinds <= _ROW_TYPES or set(map(len, entries)) != {size}"),
    Guard("table-int-entries", "tables.py", "MulTable.__init__", "drop",
          "not _INT_ONLY.issuperset(map(type, values)) or min(values) < 0 or max(values) > m"),
    Guard("table-entry-range", "tables.py", "MulTable.__init__", "drop",
          "code.translate(None, _BYTE_VALUES[:size])"),
    Guard("table-zero-row-and-column", "tables.py", "MulTable.__init__", "drop",
          "any(entries[0]) or any(code[::size])"),
    Guard("table-symmetry", "tables.py", "MulTable.__init__", "drop",
          'code != b"".join([code[v::size] for v in range(size)])'),
    # the checks every leaf and generated table passes
    Guard("associativity-every-element-passes", "tables.py", "check_associativity", "true",
          'b"".join(itemgetter(*row_u)(rows)) == code.translate(rename)'),
    Guard("associativity-witness-scan", "tables.py", "check_associativity", "flip",
          "lhs_row[w] != rhs_row[w]"),
    Guard("associativity-scans-1-to-m-1", "tables.py", "check_associativity", "less",
          "len(rows) - 1"),
    Guard("zero-divisors-every-element", "tables.py", "zero_divisors", "true", "0 in row[1:]"),
    Guard("zd-semigroup-every-element", "tables.py", "is_zd_semigroup", "true", "0 in row[1:]"),
    Guard("realizes-any-target", "graphs.py", "realizes", "true", "rec.target == target"),
    # the oracle's leaf checks, and pruning and forcing that cut valid branches or none
    Guard("leaf-zd-semigroup", "search.py", "enumerate_labeled", "true", "is_zd_semigroup(table)"),
    Guard("leaf-realizes", "search.py", "enumerate_labeled", "true",
          "realizes(table, target) is not None"),
    Guard("partial-prunes-agreeing-products", "search.py", "_partial_violation", "flip", "a != c"),
    Guard("partial-needs-the-new-cells-pairing", "search.py", "_partial_violation", "true",
          "a >= 0"),
    Guard("diagonal-prunes-agreeing-products", "search.py", "_diagonal_violation", "flip",
          "a != b"),
    Guard("forced-conflict-needs-two-values", "search.py", "_forced_value", "flip",
          "forced != value"),
    Guard("forced-by-a-determined-pairing-only", "search.py", "_forced_value", "true",
          "value >= 0"),
    Guard("forces-nothing", "search.py", "_forced_value", "flip", "value >= 0"),
    Guard("slot-check-prunes-nothing", "search.py", "enumerate_labeled", "true",
          "not violated()"),
    # the generators' checks and the orbit keyer's closure check
    Guard("validated-associativity", "counting.py", "_validated", "drop", "witness is not None"),
    Guard("validated-graph", "counting.py", "_validated", "drop",
          "realizes(table, target) is None"),
    Guard("orbit-keyer-closed", "classify.py", "OrbitKeyer.check_closed", "drop", "self._pending"),
    Guard("orbit-keyer-refuses-a-repeat", "classify.py", "OrbitKeyer.__call__", "drop",
          "code in self._firsts"),
    # the canonical search's pruning by automorphisms, each condition of its soundness
    Guard("orbit-prune-keeps-the-blocks", "classify.py", "_least_key", "true",
          "all(of[g[e]] == of[e] for e in range(1, m + 1))"),
    Guard("orbit-prune-onto-a-tried-element", "classify.py", "_least_key", "flip",
          "g[x] in tried"),
    # the canonical search reads only the diagonal when no other product is nonzero
    Guard("diagonal-scan-needs-a-zero-off-diagonal", "classify.py", "_least_key", "flip",
          "code.count(0) - code[:: m + 2].count(0) == m * (m + 1)"),
    # the pendant case statements, which the checks and the generators share
    Guard("self-case-zeros-square-to-0", "counting.py", "_self_choices", "flip", "i in zeros"),
    Guard("self-case-neighbor-square", "counting.py", "_neighbor_squares", "flip",
          "neighbor in squares"),
    Guard("other-case-jx-squares-to-0", "counting.py", "_other_choices", "flip", "i == jx"),
    Guard("other-case-jx-in-the-clique", "counting.py", "_other_holds", "true",
          "jx == neighbor or jx in others"),
    Guard("pointer-family-neighbor-squares-to-0", "counting.py", "_pointer_family_holds", "flip",
          "ent[neighbor][neighbor] == 0"),
    # every check a cache entry passes before it is a hit
    Guard("cache-entry-is-an-object", "reports.py", "ResultsCache.get_catalog", "drop",
          "not isinstance(obj, dict)"),
    Guard("cache-class-is-a-pair", "reports.py", "ResultsCache.get_catalog", "drop",
          "type(item) is not list or len(item) != 2"),
    Guard("cache-entry-lists-a-class", "reports.py", "ResultsCache.get_catalog", "drop",
          "not catalog.class_count"),
    Guard("cache-labelled-total-is-an-int", "reports.py", "ResultsCache.get_catalog", "drop",
          'type(obj["labeled"]) is not int'),
    Guard("cache-labelled-total-is-the-sum", "reports.py", "ResultsCache.get_catalog", "drop",
          'obj["labeled"] != catalog.labeled_count'),
    Guard("cache-class-listed-once", "reports.py", "ResultsCache.get_catalog", "drop",
          "key in listed"),
    Guard("cache-multiplicity-positive-int", "reports.py", "ResultsCache.get_catalog", "drop",
          "type(multiplicity) is not int or multiplicity < 1"),
    Guard("cached-class-reproduces-key", "reports.py", "_check_cached_class", "drop",
          "canonical_form(table) != entry.key"),
    Guard("cached-class-zd-semigroup", "reports.py", "_check_cached_class", "drop",
          "not is_zd_semigroup(table)"),
    Guard("cached-class-realizes", "reports.py", "_check_cached_class", "drop",
          "realizes(table, target) is None"),
    # input refusals, each with the message or exception type it promises
    Guard("permute-table-needs-a-permutation", "tables.py", "permute_table", "drop",
          "sorted(perm) != list(range(m + 1)) or perm[0] != 0 "
          "or not _INT_ONLY.issuperset(map(type, perm))"),
    Guard("table-from-key-needs-a-triangle", "classify.py", "table_from_key", "drop",
          "m * (m + 1) // 2 != length"),
    Guard("hex-key-values-at-most-15", "classify.py", "key_to_hex", "drop",
          "any(v > MAX_HEX_ELEMENTS for v in key)"),
    Guard("pendant-layout-needs-a-pendant", "counting.py", "_pendant_layout", "drop",
          "rec is None or rec.pendant is None"),
    Guard("clique-count-needs-size-1", "counting.py", "clique_class_count", "drop", "n < 1"),
    Guard("clique-generator-needs-size-1", "counting.py", "generate_clique_classes", "drop",
          "n < 1"),
    Guard("complete-graph-needs-size-1", "graphs.py", "CompleteK.__init__", "drop", "n < 1"),
    Guard("budget-gate-at-the-limit", "search.py", "fits_budget", "flip",
          "assignment_count(seed_partial_table(target)) <= DESK_SCALE_LIMIT"),
    Guard("budget-refusal-power-of-ten", "search.py", "_decimal", "less", "int(log10(count))"),
    Guard("table-cells-within-1-to-m", "tables.py", "MulTable.from_cells", "drop",
          "not (type(u) is type(v) is int and 0 < u <= m and 0 < v <= m)"),
    Guard("table-cell-ids-are-ints", "tables.py", "MulTable.from_cells", "true",
          "type(u) is type(v) is int"),
    Guard("verify-range-ordered-from-1", "reports.py", "run_verification", "drop",
          "lo < 1 or hi < lo"),
    Guard("enumerate-case-needs-a-pendant-target", "cli.py", "cmd_enumerate", "drop",
          'args.case and args.graph != "kn1"'),
)

# The test file of a module whose name it does not share.
CATCHERS = {"reports.py": "test_reports_cli.py", "cli.py": "test_reports_cli.py"}

class StaleGuard(Exception):
    """A guard's ``match`` does not name exactly one node of its function."""


def _function(tree: ast.Module, qualname: str) -> ast.AST:
    scope: ast.AST = tree
    for part in qualname.split("."):
        scope = next((node for node in scope.body
                      if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == part),
                     None)
        if scope is None:
            raise StaleGuard(f"no function {qualname}")
    return scope


def _target(guard: Guard, source: str) -> tuple[ast.AST, str]:
    """The node the guard edits and the source text that replaces it."""
    scope = _function(ast.parse(source), guard.function)
    if guard.edit == "drop":
        found = [node for node in ast.walk(scope) if isinstance(node, ast.If)
                 and ast.get_source_segment(source, node.test) == guard.match]
        if len(found) == 1 and (found[0].orelse or not any(
                isinstance(node, ast.Raise) for node in found[0].body)):
            raise StaleGuard(f"{guard.name}: the if statement must raise and have no else")
        replacement = "pass"
    elif guard.edit in ("true", "less"):
        found = [node for node in ast.walk(scope) if isinstance(node, ast.expr)
                 and ast.get_source_segment(source, node) == guard.match]
        replacement = "True" if guard.edit == "true" else f"({guard.match}) - 1"
    elif guard.edit == "flip":
        found = [node for node in ast.walk(scope) if isinstance(node, ast.Compare)
                 and len(node.ops) == 1 and ast.get_source_segment(source, node) == guard.match]
        if len(found) == 1:
            (op,) = found[0].ops
            flipped = ast.Compare(found[0].left, [FLIPPED[type(op)]()], found[0].comparators)
            replacement = f"({ast.unparse(flipped)})"
    else:
        raise StaleGuard(f"{guard.name}: unknown edit {guard.edit!r}")
    if len(found) != 1:
        raise StaleGuard(f"{guard.name}: {len(found)} matches for {guard.match!r} "
                         f"in {guard.function}")
    return found[0], replacement


def mutate(guard: Guard, source: str) -> str:
    """The source with the guard's one edit applied; every other byte kept."""
    node, replacement = _target(guard, source)
    data = source.encode()  # ast column offsets count UTF-8 bytes
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    begin = starts[node.lineno - 1] + node.col_offset
    end = starts[node.end_lineno - 1] + node.end_col_offset
    # Later lines keep their numbers; inside parentheses the padding also
    # parses where the match ends before an if header's colon.
    padding = "\n" * (node.end_lineno - node.lineno - replacement.count("\n"))
    replacement = replacement + padding if guard.edit == "drop" else f"({replacement}{padding})"
    mutant = (data[:begin] + replacement.encode() + data[end:]).decode()
    if ast.dump(ast.parse(mutant)) == ast.dump(ast.parse(source)):
        raise StaleGuard(f"{guard.name}: the edit changes nothing")
    return mutant


def catcher(guard: Guard) -> str:
    """The test file under ``tests/`` that a guard's trial runs first."""
    return CATCHERS.get(guard.module, f"test_{Path(guard.module).stem}.py")


def tier1_files(first: str | None = None) -> list[str]:
    """Every tier-1 test file, relative to the tree, ``first`` (a file name) first."""
    names = sorted(path.name for path in (ROOT / "tests").glob("test_*.py"))
    return [f"tests/{name}" for name in sorted(names, key=lambda name: name != first)]


def run_tier1(tree: Path, files: list[str]) -> tuple[bool, str]:
    """(passed, last line of pytest's output) for tier-1 in ``tree``, run
    as ``files`` in that order."""
    env = {k: v for k, v in os.environ.items() if k != "ZDSG_LONG_RUN"}
    env.update(PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        result = subprocess.run(TIER1 + files, cwd=tree, env=env, capture_output=True,
                                text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s"
    lines = result.stdout.strip().splitlines() or ["(no output)"]
    return result.returncode == 0, lines[-1]


def trial(guard: Guard | None, scratch: Path) -> tuple[bool, str, float]:
    """Tier-1 on a fresh copy of the tree, with the guard's edit and its
    catcher first if one is given: (passed, last line of pytest's output,
    seconds taken)."""
    t0 = perf_counter()
    tree = Path(tempfile.mkdtemp(dir=scratch))
    try:
        shutil.copytree(ROOT, tree, dirs_exist_ok=True, ignore=IGNORED)
        if guard is not None:
            path = tree / PACKAGE / guard.module
            path.write_text(mutate(guard, path.read_text()))
        files = tier1_files(None if guard is None else catcher(guard))
        return (*run_tier1(tree, files), perf_counter() - t0)
    finally:
        shutil.rmtree(tree, ignore_errors=True)


def main(names: list[str]) -> int:
    unknown = set(names) - {guard.name for guard in GUARDS}
    if unknown:
        print(f"unknown guards: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    guards = [guard for guard in GUARDS if not names or guard.name in names]
    try:  # every edit is checked before the first run
        for guard in guards:
            mutate(guard, (ROOT / PACKAGE / guard.module).read_text())
    except StaleGuard as exc:
        print(f"stale guard: {exc}", file=sys.stderr)
        return 2
    started = perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutation-gate-") as scratch:
        passed, summary, _ = trial(None, Path(scratch))
        print(f"{'control':<40} {'passes' if passed else 'FAILS'}: {summary}", flush=True)
        if not passed:
            return 2
        survivors = []
        with ThreadPoolExecutor(os.cpu_count()) as pool:
            # map yields in GUARDS order, each verdict as soon as it and those before it are in
            for guard, (passed, summary, seconds) in zip(
                    guards, pool.map(trial, guards, [Path(scratch)] * len(guards))):
                verdict = "SURVIVED" if passed else "caught"
                print(f"{guard.name:<40} {verdict} in {seconds:.1f} s: {summary}", flush=True)
                if passed:
                    survivors.append(guard.name)
    print(f"{len(guards) - len(survivors)} of {len(guards)} guards caught, "
          f"{len(survivors)} survived, in {perf_counter() - started:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
