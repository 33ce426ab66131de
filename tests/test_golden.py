"""Byte-for-byte golden outputs of the count reports, the verify matrix and
the generator catalogs.

The files under ``tests/golden/`` freeze the rendered count reports, their
JSON form, the verify matrix with its exit code, and catalog exports of the
condition generators (keys, representatives, multiplicities and the CSV
columns).  Refactors of the reporting layer or the generators must
reproduce them exactly.  Regenerate them only when
an output change is intended, with:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

from zdsemigroups.counting import generate_clique_classes, pendant_case_breakdown
from zdsemigroups.reports import (
    build_count_report,
    catalog_csv_text,
    catalog_json_text,
    render_count_report,
    render_verification,
    run_verification,
)

GOLDEN = Path(__file__).parent / "golden"

# "formula" and "generator" alone exercise the witness-source fallbacks.
COUNT_CASES = (
    [("kn", n, "all") for n in range(1, 6)]
    + [("kn1", n, "all") for n in range(3, 6)]
    + [(kind, 3, method) for kind in ("kn", "kn1") for method in ("formula", "generator")]
)


def golden_outputs() -> dict[str, str]:
    out = {}
    for kind, n, method in COUNT_CASES:
        report = build_count_report(kind, n, method)
        stem = f"count-{kind}-n{n}-{method}"
        out[f"{stem}.txt"] = render_count_report(report)
        out[f"{stem}.json"] = json.dumps(report.to_json_obj(), sort_keys=True)
    rows, code = run_verification(1, 5)
    out["verify-1..5.txt"] = render_verification(rows, code)
    out["verify-1..5.exit"] = f"{code}\n"
    out["enumerate-kn1-n3-generator.json"] = catalog_json_text(
        pendant_case_breakdown(3).merged_catalog())
    out["enumerate-kn1-n5-generator.csv"] = catalog_csv_text(
        "kn1", 5, pendant_case_breakdown(5).merged_catalog())
    out["enumerate-kn1-n4-self-generator.csv"] = catalog_csv_text(
        "kn1", 4, pendant_case_breakdown(4).catalogs["self"])
    out["enumerate-kn-n6-generator.csv"] = catalog_csv_text("kn", 6, generate_clique_classes(6))
    return out


def test_golden_outputs():
    outputs = golden_outputs()
    assert sorted(outputs) == sorted(p.name for p in GOLDEN.iterdir())
    changed = [
        name for name, text in sorted(outputs.items())
        if (GOLDEN / name).read_bytes() != text.encode()
    ]
    assert changed == []


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, text in golden_outputs().items():
        (GOLDEN / name).write_bytes(text.encode())
