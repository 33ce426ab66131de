"""Cross-method count reports, catalog exports, and the verification matrix.

A count report runs up to three pipelines (closed formulas, condition
generators, brute-force search) for one target and records their counts,
any pairwise mismatch, and every deviation from the previously tabulated
values.  Deviations carry witness tables and are findings, never
silently dropped: the computed result is authoritative.

Everything renders with stable ordering so repeated runs are
byte-identical.
"""

from __future__ import annotations

import json
import os
import random
import sys
from pathlib import Path
from typing import NamedTuple, Optional

from . import __version__
from .classify import (
    ClassCatalog,
    ClassEntry,
    canonical_form,
    key_to_hex,
    square_profile,
)
from .counting import (
    PENDANT_CASES,
    STRATUM_RULES,
    TABULATED_COUNTS,
    PendantBreakdown,
    clique_class_count,
    count_partitions_exact,
    generate_clique_classes,
    historical_pendant_total,
    iter_partitions_exact,
    pendant_case_breakdown,
    pendant_case_formula,
    pendant_conditions_hold,
    pendant_fixed_points,
    pendant_square_case,
    pendant_total_formula,
)
from .errors import UsageError
from .graphs import (
    CompleteK,
    CompletePlusEnd,
    TargetGraph,
    graph_to_dot,
    realizes,
    target_to_graph,
)
from .search import (
    DESK_SCALE_LIMIT,
    check_budget,
    enumerate_labeled,
    fits_budget,
    iter_candidate_tables,
    oracle_classes,
    seed_partial_table,
)
from .tables import check_associativity, is_zd_semigroup, permute_table, table_to_json

METHODS = ("formula", "generator", "oracle")
# Targets above this n are refused before any work: on a 2-core VM the
# kn formula takes about 2 s at n = 4000.  The refused oracle builds no
# seed grid there and exits in about 0.2 s at 17 MB peak RSS.
MAX_N = 4000


def target_for(kind: str, n: int) -> TargetGraph:
    if n > MAX_N:
        raise UsageError(f"targets need n <= {MAX_N}")
    if kind == "kn":
        return CompleteK(n)
    if kind == "kn1":
        return CompletePlusEnd(n)
    raise UsageError(f"unknown graph kind {kind!r}; expected 'kn' or 'kn1'")


def sized_target(kind: str, n: int) -> TargetGraph:
    """The target graph, refused with ``UsageError`` below the sizes the pipelines
    cover: ``CompleteK`` refuses n < 1, and pendant targets are refused below 3."""
    if kind == "kn1" and n < 3:
        raise UsageError("pendant targets need n >= 3")
    return target_for(kind, n)


def _check_cached_class(entry: ClassEntry, target: TargetGraph) -> None:
    """Raise ``ValueError`` unless the entry's key spells a canonical table of ``target``.

    The representative rebuilt from the key must reproduce that key under
    ``canonical_form``, be a zero-divisor semigroup and realize exactly
    the target graph.
    """
    table = entry.representative
    hex_key = key_to_hex(entry.key)
    if canonical_form(table) != entry.key:
        raise ValueError(f"class {hex_key} does not reproduce its key")
    if not is_zd_semigroup(table):
        raise ValueError(f"class {hex_key} is not a zero-divisor semigroup")
    if realizes(table, target) is None:
        raise ValueError(f"class {hex_key} does not realize the target graph")


class ResultsCache:
    """Flat-file cache of oracle catalogs keyed by (kind, n, version)."""

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, kind: str, n: int) -> Path:
        return self.directory / f"{kind}-n{n}-oracle-v{__version__}.json"

    def get_catalog(self, kind: str, n: int) -> Optional[ClassCatalog]:
        """The cached catalog, or None on a miss.

        An unreadable entry is a miss, JSON nested too deeply to decode
        included.  So is one that is not a ``labeled``/``classes`` object,
        lists no class or one class twice, has a multiplicity that is not a
        positive integer, holds a class whose table or key fails
        ``_check_cached_class``, or whose ``labeled`` total is not an
        ``int`` (``true`` and ``1.0`` included) or is not the sum of its
        multiplicities.
        """
        path = self._path(kind, n)
        if not path.exists():
            return None
        try:
            with open(path) as fh:
                obj = json.load(fh)
            if not isinstance(obj, dict):
                raise ValueError("the entry is not a labeled/classes object")
            catalog = ClassCatalog.from_json_obj(obj["classes"])
            if not catalog.class_count:
                raise ValueError("the entry lists no class")
            if type(obj["labeled"]) is not int:
                raise ValueError(f"the labelled total must be an integer, got {obj['labeled']!r}")
            if obj["labeled"] != catalog.labeled_count:
                raise ValueError(f"the classes hold {catalog.labeled_count} labelled tables, "
                                 f"not {obj['labeled']!r}")
            target = target_for(kind, n)
            for entry in catalog.entries():
                _check_cached_class(entry, target)
            return catalog
        except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
            print(f"warning: ignoring unreadable cache entry {path}: {exc}", file=sys.stderr)
            return None

    def put_catalog(self, kind: str, n: int, catalog: ClassCatalog) -> None:
        """Write through a temporary file, so readers never see a partial entry.

        The entry records the number of labelled tables beside the classes,
        so a class lost or a multiplicity changed is a miss.  The temporary
        file is removed if the write or the rename fails.
        """
        path = self._path(kind, n)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        entry = {"labeled": catalog.labeled_count, "classes": catalog.to_json_obj()}
        try:
            with open(tmp, "w") as fh:
                json.dump(entry, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise


def oracle_catalog(kind: str, n: int, *, allow_long_run: bool = False,
                   cache: Optional[ResultsCache] = None) -> ClassCatalog:
    """The oracle catalog, cached if possible; the budget is checked before the cache."""
    target = target_for(kind, n)
    check_budget(target, allow_long_run)
    if cache is not None:
        hit = cache.get_catalog(kind, n)
        if hit is not None:
            return hit
    catalog = oracle_classes(target, allow_long_run=allow_long_run)
    if cache is not None:
        cache.put_catalog(kind, n, catalog)
    return catalog


class Discrepancy(NamedTuple):
    description: str
    reference_value: Optional[int]
    computed_value: Optional[int]
    witnesses: list[dict]

    def to_json_obj(self) -> dict:
        return self._asdict()


class CountReport(NamedTuple):
    kind: str
    n: int
    method_counts: dict[str, Optional[int]]
    skipped: dict[str, str]
    strata: Optional[dict]
    discrepancies: list[Discrepancy]

    @property
    def mismatches(self) -> list[str]:
        present = [(m, c) for m, c in self.method_counts.items() if c is not None]
        out = []
        for i, (m1, c1) in enumerate(present):
            for m2, c2 in present[i + 1:]:
                if c1 != c2:
                    out.append(f"{m1}={c1} vs {m2}={c2}")
        return out

    @property
    def internally_consistent(self) -> bool:
        return not self.mismatches

    def to_json_obj(self) -> dict:
        return {
            "graph": self.kind,
            "n": self.n,
            "method_counts": self.method_counts,
            "skipped": self.skipped,
            "strata": self.strata,
            "internally_consistent": self.internally_consistent,
            "mismatches": self.mismatches,
            "discrepancies": [d.to_json_obj() for d in self.discrepancies],
        }


# ---------------------------------------------------------------------------
# claims: every computed count that is compared with a reference value

# Verify status on agreement and on disagreement.
INTERNAL = ("PASS", "FAIL")  # a proven identity: a mismatch means a pipeline is wrong
FINDING = ("PASS", "FINDING")  # a tabulated or unproven value
BOUNDARY = ("FINDING", "FINDING")  # outside the range where the identity is proven


class Evidence(NamedTuple):
    """What the pipelines computed for one target."""

    n: int
    counts: dict[str, Optional[int]]  # by method; absent or None when not run
    catalogs: dict[str, ClassCatalog]  # "generator" and "oracle" catalogs, when run
    breakdown: Optional[PendantBreakdown]  # pendant case catalogs


class Claim(NamedTuple):
    """A computed count checked against a reference value on one target.

    ``label`` and ``detail`` (a format string over ref and got) make the
    verify row.  A disagreement whose status is FINDING is also a
    count-report discrepancy, worded by ``description``.
    """

    id: str
    reference: Optional[int]
    computed: Optional[int]
    policy: tuple[str, str]
    label: str
    detail: str
    description: str = ""
    witnesses: Optional[ClassCatalog] = None

    @property
    def status(self) -> str:
        return self.policy[0] if self.reference == self.computed else self.policy[1]

    def row(self) -> VerifyRow:
        return VerifyRow(self.status, self.label,
                         self.detail.format(ref=self.reference, got=self.computed))

    def discrepancy(self) -> Optional[Discrepancy]:
        if self.reference == self.computed or self.status != "FINDING":
            return None
        witnesses = self.witnesses.entries() if self.witnesses else []
        return Discrepancy(self.description, self.reference, self.computed,
                           [table_to_json(e.representative) for e in witnesses])


def _clique_claims(ev: Evidence) -> list[Claim]:
    n = ev.n
    formula, generator, oracle = (ev.counts.get(method) for method in METHODS)
    # Below n = 3 the formula counts profiles whether or not they yield
    # zero divisors; report, do not fail.
    boundary = "" if n >= 3 else (
        " (agreement at the boundary)" if oracle == formula
        else " (boundary: the all-idempotent profile is not a table of zero divisors)")
    return [
        Claim("clique formula vs generator", formula, generator, INTERNAL,
              f"kn n={n} formula vs generator", "formula={ref} generator={got}"),
        Claim("clique oracle vs formula", formula, oracle, INTERNAL if n >= 3 else BOUNDARY,
              f"kn n={n} oracle vs formula", "oracle={got} formula={ref}" + boundary,
              f"boundary case n={n}: the closed formula assumes every profile "
              "yields a table of zero divisors, which fails below n=3",
              ev.catalogs.get("oracle")),
        Claim("clique tabulated", TABULATED_COUNTS["clique"].get(n), oracle or generator or formula,
              FINDING, f"kn n={n} tabulated value", "tabulated={ref} computed={got}",
              f"tabulated class count for the complete graph on {n} vertices",
              ev.catalogs.get("oracle") or ev.catalogs.get("generator")),
    ]


def _pendant_claims(ev: Evidence) -> list[Claim]:
    n, breakdown = ev.n, ev.breakdown
    cases, catalogs = breakdown.case_counts, breakdown.catalogs
    return [
        *(Claim(f"{case} case", pendant_case_formula(case, n), cases[case], INTERNAL,
                f"kn1 n={n} {case} case count{note}", "computed={got} expected={ref}")
          for case, note in (("zero", ""), ("attach", " (corrected family)"), ("other", ""))),
        Claim("attach tabulated", TABULATED_COUNTS["pendant_attach"], cases["attach"], FINDING,
              f"kn1 n={n} attach case vs tabulated claim", "tabulated={ref} computed={got}",
              f"tabulated x*x = 1 class count at n={n} (claimed a single class; "
              "squares equal to the neighbor are admissible)", catalogs["attach"]),
        Claim("self tabulated", TABULATED_COUNTS["pendant_self"].get(n), cases["self"], FINDING,
              f"kn1 n={n} tabulated x*x = x count", "tabulated={ref} computed={got}",
              f"tabulated x*x = x class count at n={n}", catalogs["self"]),
        Claim("total tabulated", TABULATED_COUNTS["pendant_total"].get(n), breakdown.total,
              FINDING, f"kn1 n={n} tabulated total", "tabulated={ref} computed={got}",
              f"tabulated total class count for the pendant target at n={n}"),
        Claim("historical total", historical_pendant_total(n, cases["self"]), breakdown.total,
              FINDING, "", "",  # shown in the count report only
              f"historical total rule (x*x = x count plus 4n-3) at n={n}"),
        *(Claim(f"stratum {rule.label}", rule.value(n),
                breakdown.by_fixed_points.get(rule.stratum(n)),
                INTERNAL if rule.proven(n) else FINDING, f"kn1 n={n} stratum r={rule.stratum(n)}",
                "stated={ref} computed={got} (" + rule.label + ")",
                f"stated fixed-point stratum value at n={n}, r={rule.stratum(n)} ({rule.label})")
          for rule in STRATUM_RULES),
    ]


# Each view names the claims it shows, in its own order.
_STRATA = tuple(f"stratum {rule.label}" for rule in STRATUM_RULES)
COUNT_VIEW = ("clique tabulated", "clique oracle vs formula", "self tabulated",
              "attach tabulated", "total tabulated", "historical total", *_STRATA)
VERIFY_VIEW = ("clique formula vs generator", "clique oracle vs formula", "clique tabulated",
               "zero case", "attach case", "attach tabulated", "other case", *_STRATA,
               "self tabulated", "total tabulated")


def evaluate_claims(kind: str, evidence: Evidence, view: tuple[str, ...]) -> list[Claim]:
    """The target's claims that have both values, in the view's order."""
    claims = {
        claim.id: claim
        for claim in (_clique_claims if kind == "kn" else _pendant_claims)(evidence)
        if claim.reference is not None and claim.computed is not None
    }
    return [claims[claim_id] for claim_id in view if claim_id in claims]


def run_pipelines(kind: str, n: int, methods: tuple[str, ...], *, allow_long_run: bool,
                  cache: Optional[ResultsCache]) -> Evidence:
    """Run the given methods on one target, in order.

    Every method that runs leaves its count, and the generator and the
    oracle also leave their catalogs under their own names.  On a pendant
    target the generator's catalog is its case breakdown merged, and the
    breakdown itself is kept for the claims; a caller that needs the
    claims without the generator builds the breakdown itself.  An oracle
    over the budget is skipped (count None), or refused with
    ``BudgetError`` when it is the only method asked for.
    """
    counts: dict[str, Optional[int]] = {}
    catalogs: dict[str, ClassCatalog] = {}
    breakdown = None
    for name in methods:
        if name == "formula":
            counts[name] = clique_class_count(n) if kind == "kn" else pendant_total_formula(n)
        elif name == "generator":
            if kind == "kn":
                catalogs[name] = generate_clique_classes(n)
            else:
                breakdown = pendant_case_breakdown(n)
                catalogs[name] = breakdown.merged_catalog()
            counts[name] = catalogs[name].class_count
        elif methods == ("oracle",) or allow_long_run or fits_budget(target_for(kind, n)):
            catalogs[name] = oracle_catalog(kind, n, allow_long_run=allow_long_run, cache=cache)
            counts[name] = catalogs[name].class_count
        else:
            counts[name] = None
    return Evidence(n, counts, catalogs, breakdown)


def build_count_report(kind: str, n: int, method: str = "all", *, allow_long_run: bool = False,
                       cache: Optional[ResultsCache] = None) -> CountReport:
    """Run the requested pipelines for one target and assemble the report."""
    if method not in (*METHODS, "all"):
        raise UsageError(f"unknown method {method!r}")
    sized_target(kind, n)
    evidence = run_pipelines(kind, n, METHODS if method == "all" else (method,),
                             allow_long_run=allow_long_run, cache=cache)
    # The pendant claims read the case breakdown.  Without the generator it
    # is built after the pipelines, so that a refused oracle fails fast.
    if kind == "kn1" and evidence.breakdown is None:
        evidence = evidence._replace(breakdown=pendant_case_breakdown(n))
    skipped = {}
    if "oracle" in evidence.counts and evidence.counts["oracle"] is None:
        skipped["oracle"] = (
            f"search space exceeds the desk-scale limit ({DESK_SCALE_LIMIT}); "
            "pass --allow-long-run to force it"
        )
    strata = None
    if kind == "kn1" and "generator" in evidence.counts:
        strata = {
            "cases": evidence.breakdown.case_counts,
            "fixed_points": evidence.breakdown.by_fixed_points,
        }
    claims = evaluate_claims(kind, evidence, COUNT_VIEW)
    discrepancies = [d for d in (claim.discrepancy() for claim in claims) if d is not None]
    return CountReport(kind, n, evidence.counts, skipped, strata, discrepancies)


def render_count_report(report: CountReport) -> str:
    lines = [f"count report  graph={report.kind} n={report.n}"]
    for name in METHODS:
        if name in report.method_counts:
            count = report.method_counts[name]
            shown = str(count) if count is not None else f"skipped ({report.skipped.get(name, '')})"
            lines.append(f"  {name:<9} {shown}")
    if report.strata:
        cases = report.strata["cases"]
        lines.append(
            "  cases: "
            + " | ".join(f"{case}={cases[case]}" for case in PENDANT_CASES)
        )
        fp = report.strata["fixed_points"]
        lines.append(
            "  fixed-point strata (x*x = x): "
            + ", ".join(f"r={r}: {fp[r]}" for r in sorted(fp))
        )
    if report.mismatches:
        lines.append("  internal consistency: MISMATCH " + "; ".join(report.mismatches))
    else:
        lines.append("  internal consistency: ok")
    if report.discrepancies:
        lines.append("  discrepancies vs tabulated values:")
        for d in report.discrepancies:
            lines.append(
                f"    - {d.description}: reference {d.reference_value}, "
                f"computed {d.computed_value} [{len(d.witnesses)} witness tables]"
            )
    else:
        lines.append("  discrepancies vs tabulated values: none")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# catalog exports


def catalog_json_text(catalog: ClassCatalog) -> str:
    return json.dumps(catalog.to_json_obj(), indent=2, sort_keys=True) + "\n"


def catalog_csv_text(kind: str, n: int, catalog: ClassCatalog) -> str:
    header = [
        "target", "n", "class_id", "key", "x1_square_case", "fixed_points",
        "nilpotent_count", "idempotent_count", "block_sizes", "multiplicity",
    ]
    rows = [header]
    for class_id, entry in enumerate(catalog.entries()):
        table = entry.representative
        case = ""
        fixed = ""
        nil = idem = blocks = ""
        if kind == "kn1":
            case = pendant_square_case(table)
            if case == "self":
                fixed = str(pendant_fixed_points(table))
        else:
            profile = square_profile(table)
            nil = str(profile.nilpotent_count)
            idem = str(profile.idempotent_count)
            blocks = "+".join(str(b) for b in profile.block_sizes)
        rows.append([
            kind, str(n), str(class_id), key_to_hex(entry.key), case, fixed,
            nil, idem, blocks, str(entry.multiplicity),
        ])
    return "\n".join(",".join(row) for row in rows) + "\n"


def catalog_dot_text(kind: str, n: int, catalog: ClassCatalog) -> str:
    target = target_for(kind, n)
    pendant = target.element_count if kind == "kn1" else None
    annotations = tuple(
        f"class {i}: key={key_to_hex(e.key)} multiplicity={e.multiplicity}"
        for i, e in enumerate(catalog.entries())
    )
    return graph_to_dot(target_to_graph(target), pendant=pendant, annotations=annotations)


def write_catalog(kind: str, n: int, catalog: ClassCatalog, path, fmt: str) -> None:
    if fmt == "json":
        text = catalog_json_text(catalog)
    elif fmt == "csv":
        text = catalog_csv_text(kind, n, catalog)
    elif fmt == "dot":
        text = catalog_dot_text(kind, n, catalog)
    else:
        raise UsageError(f"unknown format {fmt!r}; expected json, csv or dot")
    with open(path, "w") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# verification matrix


class VerifyRow(NamedTuple):
    status: str  # PASS | FAIL | FINDING | SKIP
    label: str
    detail: str


def _row(rows: list[VerifyRow], ok: bool, label: str, detail: str) -> None:
    rows.append(VerifyRow("PASS" if ok else "FAIL", label, detail))


def _verify_target(rows: list[VerifyRow], kind: str, n: int, allow_long_run: bool,
                   cache: Optional[ResultsCache]) -> None:
    # No claim reads the pendant formula.
    methods = METHODS if kind == "kn" else ("generator", "oracle")
    evidence = run_pipelines(kind, n, methods, allow_long_run=allow_long_run, cache=cache)
    rows.extend(claim.row() for claim in evaluate_claims(kind, evidence, VERIFY_VIEW))

    if kind == "kn1" and n == 3:
        mismatches = _equivalence_counterexamples(n)
        rows.append(VerifyRow("PASS" if not mismatches else "FINDING",
                              f"kn1 n={n} associativity/conditions equivalence",
                              f"{len(mismatches)} counterexamples over the full pattern space"))

    oracle = evidence.catalogs.get("oracle")
    if oracle is None:
        rows.append(VerifyRow("SKIP", f"{kind} n={n} oracle",
                              "search space over the desk-scale limit"))
    elif kind == "kn1":
        union = evidence.catalogs["generator"]
        _row(rows, set(oracle.keys()) == set(union.keys()),
             f"kn1 n={n} generator union vs oracle",
             f"generator={union.class_count} oracle={oracle.class_count} classes")
        violations = _ideal_violations(oracle, target_for(kind, n))
        _row(rows, not violations, f"kn1 n={n} clique ideal property",
             f"{len(violations)} violating classes")


def _equivalence_counterexamples(n: int):
    """Tables over the forced pattern where associativity and the case
    conditions disagree, in candidate order."""
    return [t for t in iter_candidate_tables(seed_partial_table(target_for("kn1", n)))
            if (check_associativity(t) is None) != pendant_conditions_hold(t)]


def _ideal_violations(catalog: ClassCatalog, target: TargetGraph):
    """Pendant classes of ``target`` where the clique plus zero is not
    closed under multiplication."""
    bad = []
    for entry in catalog.entries():
        table = entry.representative
        pendant = realizes(table, target).pendant
        if any(pendant in row for u, row in enumerate(table.entries) if u != pendant):
            bad.append(table)
    return bad


def run_verification(lo: int, hi: int, *, allow_long_run: bool = False,
                     cache: Optional[ResultsCache] = None) -> tuple[list[VerifyRow], int]:
    """Run every cross-check whose budget fits the range.

    Exit code 1 only on internal inconsistency (FAIL rows); deviations
    from tabulated values are FINDING rows and exit 0.
    """
    if lo < 1 or hi < lo:
        raise UsageError("range must satisfy 1 <= lo <= hi")
    if hi > MAX_N:
        raise UsageError(f"targets need n <= {MAX_N}")
    rows: list[VerifyRow] = []

    sample_ok = all(
        count_partitions_exact(j, i) == sum(1 for _ in iter_partitions_exact(j, i))
        for j in range(1, 13)
        for i in range(1, j + 1)
    )
    _row(rows, sample_ok, "partition recurrence vs enumeration (j <= 12)",
         "exact agreement" if sample_ok else "disagreement")

    rng = random.Random(0)
    pool: list = []
    enumerate_labeled(target_for("kn", 3), pool.append)
    keys = {t: canonical_form(t) for t in pool}
    stable = all(
        canonical_form(permute_table(t, [0] + rng.sample(range(1, 4), 3))) == keys[t]
        for t in (rng.choice(pool) for _ in range(200))
    )
    _row(rows, stable, "canonical form invariance (200 sampled relabelings)",
         "invariant" if stable else "violated")

    for n in range(lo, hi + 1):
        _verify_target(rows, "kn", n, allow_long_run, cache)
        if n >= 3:
            _verify_target(rows, "kn1", n, allow_long_run, cache)

    code = 1 if any(r.status == "FAIL" for r in rows) else 0
    return rows, code


def render_verification(rows: list[VerifyRow], code: int) -> str:
    lines = [f"[{r.status:<7}] {r.label}: {r.detail}" for r in rows]
    counts = {s: sum(1 for r in rows if r.status == s) for s in ("PASS", "FAIL", "FINDING", "SKIP")}
    lines.append(
        f"summary: {counts['PASS']} pass, {counts['FAIL']} fail, "
        f"{counts['FINDING']} findings, {counts['SKIP']} skipped; exit {code}"
    )
    return "\n".join(lines) + "\n"
