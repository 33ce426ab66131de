"""Workload definitions shared by the harness and its child processes.

This module does not import zdsemigroups.  The harness process stays
small, because a child started from it inherits its peak resident set
(see README.md, "peak_rss_mb").

A workload is either in-process calls ("api", one fresh interpreter per
pass) or a CLI session ("cli", one fresh interpreter per command).  Each
has two heavy operations, ``op_a`` and ``op_b``, whose latencies are
reported on their own; every other operation counts only in ``wall_s``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class ApiOp:
    call: str  # key of CALLS
    n: int


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "api" or "cli"
    ops: dict  # op id -> ApiOp (api) or argv list (cli)
    op_a: str
    op_b: str
    # op id -> (target kind, n) for ops whose returned classes are re-checked
    samples: dict
    expected: Optional[dict] = None


# ---------------------------------------------------------------------------
# in-process calls; ``zd`` is the imported zdsemigroups package


CALLS = {
    "search_kn1": lambda zd, n: zd.enumerate_labeled(zd.CompletePlusEnd(n), allow_long_run=True),
    "search_kn": lambda zd, n: zd.enumerate_labeled(zd.CompleteK(n)),
    "breakdown": lambda zd, n: zd.pendant_case_breakdown(n),
    "clique": lambda zd, n: zd.generate_clique_classes(n),
}


def _hex_keys(zd, catalog) -> list[str]:
    return [zd.classify.key_to_hex(k) for k in catalog.keys()]


def call_output(zd, op: ApiOp, result) -> dict:
    """JSON form of a call's result, built after the timed span."""
    if op.call in ("search_kn1", "search_kn"):
        return {"count": result}
    if op.call == "breakdown":
        return {
            "cases": result.case_counts,
            "keys": sorted(k for c in result.catalogs.values() for k in _hex_keys(zd, c)),
        }
    return {
        "classes": result.class_count,
        "formula": zd.clique_class_count(op.n),
        "keys": _hex_keys(zd, result),
    }


# ---------------------------------------------------------------------------
# workloads; sizes are parameters so the tests can run them small


def labelled_search(n_pendant: int = 6, n_clique: int = 6) -> Workload:
    return Workload(
        "labelled-search", "api",
        {"search-kn1": ApiOp("search_kn1", n_pendant), "search-kn": ApiOp("search_kn", n_clique)},
        "search-kn1", "search-kn", {},
    )


def generator_census(n_pendant: int = 6, n_clique: int = 8) -> Workload:
    return Workload(
        "generator-census", "api",
        {"breakdown": ApiOp("breakdown", n_pendant), "clique": ApiOp("clique", n_clique)},
        "breakdown", "clique",
        {"breakdown": ("kn1", n_pendant), "clique": ("kn", n_clique)},
    )


def cli_session(hi: int = 5, n: int = 5) -> Workload:
    verify = ["verify", f"3..{hi}", "--allow-long-run", "--cache-dir", "{cache}"]
    return Workload(
        "cli-session", "cli",
        {
            "verify-cold": verify,
            "verify-warm": verify,
            "count": ["count", "--graph", "kn1", "--n", str(n)],
            "enumerate": ["enumerate", "--graph", "kn1", "--n", str(n),
                          "--format", "csv", "--out", "{csv}"],
        },
        "verify-cold", "verify-warm",
        {"enumerate": ("kn1", n)},
    )


def load_workloads() -> dict[str, Workload]:
    """The benchmark's workloads at full size, with their expected outputs."""
    record = json.loads((HERE / "expected.json").read_text())
    out = {}
    for factory in (labelled_search, generator_census, cli_session):
        wl = factory()
        out[wl.name] = replace(wl, expected=record[wl.name])
    return out
