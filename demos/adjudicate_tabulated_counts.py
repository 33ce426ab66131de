"""Adjudicating the previously tabulated pendant counts.

The tabulated values for pendant targets (totals 15/40/76 at n=3/4/5,
x*x = x counts 6/-/59, and a single x*x = 1 class) disagree with what
the condition generators and the exhaustive search both compute.  This
script prints the full count reports so the deviations, and the witness
tables behind them, can be inspected: the two independent pipelines
agree with each other class-for-class, so the computed side wins.

Run with:  python demos/adjudicate_tabulated_counts.py
"""

from zdsemigroups.reports import build_count_report, render_count_report
from zdsemigroups.tables import table_from_json

for n in (3, 4, 5):
    report = build_count_report("kn1", n, "all")
    print(render_count_report(report))

print("Witness tables for the smallest deviation (x*x = 1 at n=3):")
report = build_count_report("kn1", 3, "all")
attach = next(d for d in report.discrepancies if "x*x = 1" in d.description)
for obj in attach.witnesses:
    table = table_from_json(obj)
    print()
    for row in table.entries:
        print("   ", " ".join(str(v) for v in row))
print()
print("The first is the originally tabulated all-nilpotent table; the")
print("others square clique elements to the pendant's neighbor, which the")
print("associative law permits (each triple product collapses to zero).")
