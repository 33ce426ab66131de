"""The four pendant-square cases and their fixed-point strata.

A pendant vertex x attached to clique element 1 can square to 0, to
itself, to its neighbor, or to another clique element; the value is an
isomorphism invariant, so the classes split cleanly into four catalogs.
The x*x = x case further stratifies by how many clique elements the
pendant fixes; its class count is a block count per stratum
(``self_stratum_counts``), printed next to the generator's count.

Run with:  python demos/pendant_cases.py
"""

from zdsemigroups import CompletePlusEnd, oracle_classes
from zdsemigroups.counting import pendant_case_breakdown, pendant_square_case, self_stratum_counts

for n in (3, 4, 5):
    breakdown = pendant_case_breakdown(n)
    cases = breakdown.case_counts
    print(f"clique size n={n}:")
    print(f"  x*x = 0      -> {cases['zero']:>3} classes (= n)")
    blocks = sum(self_stratum_counts(n).values())
    print(f"  x*x = x      -> {cases['self']:>3} classes (block count per stratum: {blocks})")
    print(f"  x*x = 1      -> {cases['attach']:>3} classes (= n; tabulated as 1, see findings)")
    print(f"  x*x = other  -> {cases['other']:>3} classes (= 3n-4)")
    strata = ", ".join(f"r={r}: {c}" for r, c in breakdown.by_fixed_points.items())
    print(f"  fixed-point strata of x*x = x: {strata}")
    print(f"  total: {breakdown.total}")
    print()

print("Brute-force cross-check at n=4 (full search of ~10^6 assignments):")
catalog = oracle_classes(CompletePlusEnd(4))
by_case = {}
for entry in catalog.entries():
    case = pendant_square_case(entry.representative)
    by_case[case] = by_case.get(case, 0) + 1
print(f"  search finds {catalog.class_count} classes: {by_case}")
merged = pendant_case_breakdown(4).merged_catalog()
print(f"  identical key sets vs generators: {set(merged.keys()) == set(catalog.keys())}")
