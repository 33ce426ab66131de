"""Byte-for-byte golden outputs of the count reports and the verify matrix.

The files under ``tests/golden/`` freeze the rendered count reports, their
JSON form and the verify matrix with its exit code.  Refactors of the
reporting layer must reproduce them exactly.  Regenerate them only when
an output change is intended, with:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

from zdsemigroups.reports import (
    build_count_report,
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
