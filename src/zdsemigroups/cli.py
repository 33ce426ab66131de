"""Command-line surface: count, enumerate, verify, export-dot.

Exit codes: 0 ok, 1 internal method-vs-method mismatch, 2 usage error
(including budget refusals), 3 I/O error.  Deviations from tabulated
values are printed as findings and never affect the exit code on their
own.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .classify import MAX_HEX_ELEMENTS, ClassCatalog
from .counting import PENDANT_CASES, pendant_square_case
from .errors import UsageError
from .reports import (
    ResultsCache,
    build_count_report,
    catalog_dot_text,
    render_count_report,
    render_verification,
    run_pipelines,
    run_verification,
    sized_target,
    write_catalog,
)
from .search import fits_budget


def _add_common(parser: argparse.ArgumentParser, *, with_method: bool) -> None:
    parser.add_argument("--graph", required=True, choices=("kn", "kn1"),
                        help="target family: complete graph or complete graph plus pendant")
    parser.add_argument("--n", required=True, type=int, help="clique size")
    if with_method:
        parser.add_argument("--method", default="all",
                            choices=("formula", "generator", "oracle", "all"))
    _add_run_flags(parser)


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--allow-long-run", action="store_true",
                        help="permit searches beyond the desk-scale budget")
    parser.add_argument("--cache-dir", default=None,
                        help="directory for cached search results")


def _cache(args) -> Optional[ResultsCache]:
    return ResultsCache(args.cache_dir) if args.cache_dir else None


def cmd_count(args) -> int:
    report = build_count_report(
        args.graph, args.n, args.method,
        allow_long_run=args.allow_long_run, cache=_cache(args),
    )
    sys.stdout.write(render_count_report(report))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.to_json_obj(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if report.internally_consistent else 1


def _select_catalog(args, cache) -> ClassCatalog:
    kind, n, method = args.graph, args.n, args.method
    if method == "auto":
        fits = args.allow_long_run or fits_budget(sized_target(kind, n))
        method = "oracle" if fits else "generator"
    evidence = run_pipelines(kind, n, (method,), allow_long_run=args.allow_long_run, cache=cache)
    catalog = evidence.catalogs[method]
    if not args.case:
        return catalog
    filtered = ClassCatalog()
    for entry in catalog.entries():
        if pendant_square_case(entry.representative) == args.case:
            filtered.add_entry(entry)
    return filtered


def cmd_enumerate(args) -> int:
    if args.case and args.graph != "kn1":
        raise UsageError("--case applies to pendant targets only")
    if sized_target(args.graph, args.n).element_count > MAX_HEX_ELEMENTS:
        raise UsageError(f"hex keys support at most {MAX_HEX_ELEMENTS} nonzero elements")
    catalog = _select_catalog(args, _cache(args))
    write_catalog(args.graph, args.n, catalog, args.out, args.format)
    sys.stdout.write(
        f"wrote {catalog.class_count} class representatives to {args.out} ({args.format})\n"
    )
    return 0


def cmd_verify(args) -> int:
    lo_text, dots, hi_text = args.range.partition("..")
    try:
        lo = int(lo_text)
        hi = int(hi_text) if dots else lo
    except ValueError:
        raise UsageError(f"range must look like 3 or 3..5, got {args.range!r}") from None
    rows, code = run_verification(
        lo, hi, allow_long_run=args.allow_long_run, cache=_cache(args)
    )
    sys.stdout.write(render_verification(rows, code))
    return code


def cmd_export_dot(args) -> int:
    text = catalog_dot_text(args.graph, args.n, ClassCatalog())  # the bare target graph
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zdsg",
        description="Count and classify commutative zero-divisor semigroups on "
                    "complete graphs and complete graphs with one pendant vertex.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="run counting pipelines and cross-check them")
    _add_common(p_count, with_method=True)
    p_count.add_argument("--out", default=None, help="write the report as JSON")
    p_count.set_defaults(func=cmd_count)

    p_enum = sub.add_parser("enumerate", help="write class representatives to a file")
    _add_common(p_enum, with_method=False)
    p_enum.add_argument("--method", default="auto",
                        choices=("auto", "generator", "oracle"))
    p_enum.add_argument("--case", default=None,
                        choices=PENDANT_CASES,
                        help="restrict pendant output to one pendant-square case")
    p_enum.add_argument("--format", default="json", choices=("json", "csv", "dot"))
    p_enum.add_argument("--out", required=True)
    p_enum.set_defaults(func=cmd_enumerate)

    p_verify = sub.add_parser("verify", help="run the cross-check matrix over a range of n")
    p_verify.add_argument("range", help="clique sizes, e.g. 3..4 or 3")
    _add_run_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_dot = sub.add_parser("export-dot", help="write the target graph in DOT form")
    p_dot.add_argument("--graph", required=True, choices=("kn", "kn1"))
    p_dot.add_argument("--n", required=True, type=int)
    p_dot.add_argument("--out", default=None)
    p_dot.set_defaults(func=cmd_export_dot)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:  # cache writes are atomic, so nothing is left half written
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
