"""Re-check sampled classes returned by a workload, outside any timed span.

    python3 perfbench/recheck.py < samples.json

Each sample is ``{"kind": "kn" | "kn1", "n": n, "key": hex, "perm": [...]}``.
A sample passes when its representative reproduces the key, the
relabeling by ``perm`` canonicalizes back to the key, and the relabeled
table is a zero-divisor semigroup realizing the target graph.  Prints a
JSON list of booleans, one per sample.
"""

import json
import sys

from zdsemigroups.classify import canonical_form, key_from_hex, table_from_key
from zdsemigroups.graphs import build_zd_graph, recognize_target
from zdsemigroups.reports import target_for
from zdsemigroups.tables import is_zd_semigroup, permute_table


def sample_ok(sample: dict) -> bool:
    key = key_from_hex(sample["key"])
    table = table_from_key(key)
    relabeled = permute_table(table, sample["perm"])
    rec = recognize_target(build_zd_graph(relabeled))
    return (
        canonical_form(table) == key
        and canonical_form(relabeled) == key
        and is_zd_semigroup(relabeled)
        and rec is not None
        and rec.target == target_for(sample["kind"], sample["n"])
    )


print(json.dumps([sample_ok(s) for s in json.load(sys.stdin)]))
