"""Command line front end: ``python -m repro.devtools.lint [paths]``.

Exit codes: 0 clean, 1 violations found, 2 usage/parse errors — the
same contract as ruff, so the CI job is a drop-in sibling.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.devtools.lint.engine import (
    all_rules,
    json_report,
    lint_paths,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.lint",
        description=(
            "AST-based invariant checks: determinism (RPL0xx), shared-"
            "memory lifecycle (RPL1xx), one kernel path (RPL2xx), ordered "
            "iteration (RPL3xx).  See src/repro/devtools/README.md."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format on stdout (default: text)",
    )
    parser.add_argument(
        "--json-out",
        metavar="PATH",
        help="additionally write the JSON report to PATH (for CI "
        "artifact upload / nightly violation trend counting)",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="CODE",
        help="only run rules whose code starts with CODE (repeatable)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        metavar="CODE",
        help="skip rules whose code starts with CODE (repeatable)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.name}: {rule.summary}")
        return 0
    try:
        violations, files = lint_paths(
            args.paths, select=args.select, ignore=args.ignore
        )
    except FileNotFoundError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2
    except SyntaxError as exc:
        print(f"repro-lint: syntax error: {exc}", file=sys.stderr)
        return 2
    report = json_report(violations, files)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(report)
    if args.format == "json":
        sys.stdout.write(report)
    else:
        for violation in violations:
            print(violation.format())
        noun = "file" if files == 1 else "files"
        if violations:
            print(f"repro-lint: {len(violations)} violation(s) in {files} {noun}")
        else:
            print(f"repro-lint: {files} {noun} clean")
    return 1 if violations else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    try:
        sys.exit(main())
    except BrokenPipeError:
        sys.exit(0)
