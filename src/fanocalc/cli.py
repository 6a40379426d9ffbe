"""Batch verification driver.

Subcommands:

    fanocalc list                      catalog of scenarios
    fanocalc run <scenario> [...]      run one scenario
    fanocalc report-all [...]          run every scenario, in catalog order

Exit codes: 0 all pass, 1 verification failure, 2 usage error (bad
arguments, an unknown scenario, --samples below 1, an --input descriptor
that cannot be read or checks nothing, or a golden file that cannot be read
or lacks a claim a scenario needs), 3 internal error (any other exception:
its traceback goes to stderr, which ends with one line
"internal error: <Type>: <message>").  The flag --strict demotes "partial"
(soft-step failures only) to a failure.  For a saved report, redirect
`fanocalc report-all --format json` to a file.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from .errors import DomainError
from .scenarios import Context, Report, catalog, load_golden, run_scenario

USAGE_ERROR = 2
VERIFICATION_ERROR = 1
INTERNAL_ERROR = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanocalc",
        description="exact verification scenarios for the degree-10 threefold toolkit",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="print the scenario catalog")

    def common(p: argparse.ArgumentParser):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=20)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--strict", action="store_true", help="treat partial as fail")
        p.add_argument("--golden", default=None, help="path to a golden claim file")

    runp = sub.add_parser("run", help="run one scenario")
    runp.add_argument("scenario")
    runp.add_argument("--input", default=None, help="JSON descriptor file for input-driven scenarios")
    common(runp)

    allp = sub.add_parser("report-all", help="run every scenario")
    common(allp)
    return parser


def _read_descriptor(path: str | None) -> dict | None:
    """The JSON object in an --input file; unreadable input is a DomainError."""
    if not path:
        return None
    try:
        with open(path, "rb") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as exc:
        raise DomainError(f"cannot read input descriptor {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise DomainError(f"input descriptor {path} is not a JSON object")
    return data


def _print_report(report: Report, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report.to_json(), indent=2, default=str))
        return
    print(f"== {report.scenario} (seed {report.seed}, samples {report.samples}): {report.status}")
    for step in report.steps:
        mark = "ok " if step.passed else ("~~ " if step.soft else "FAIL")
        note = f"  [{step.note}]" if step.note else ""
        print(f"  {mark} {step.claim}: computed {step.computed!r}, pinned {step.expected!r}{note}")


def _status_code(reports: list[Report], strict: bool) -> int:
    bad = any(r.status == "fail" for r in reports)
    partial = any(r.status == "partial" for r in reports)
    if bad or (strict and partial):
        return VERIFICATION_ERROR
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return USAGE_ERROR
    if args.command == "list":
        for name, desc in catalog():
            print(f"{name:24s} {desc}")
        return 0

    if args.command == "run":
        names = [args.scenario]
    else:
        names = [name for name, _ in catalog()]
    try:
        ctx = Context(
            seed=args.seed,
            samples=args.samples,
            golden=load_golden(args.golden),
            input_data=_read_descriptor(getattr(args, "input", None)),
        )
        reports = [run_scenario(name, ctx) for name in names]
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    for report in reports:
        _print_report(report, args.format)
    if args.command == "report-all" and args.format == "text":
        summary = {r.scenario: r.status for r in reports}
        print("== summary:", json.dumps(summary))
    return _status_code(reports, args.strict)


if __name__ == "__main__":
    raise SystemExit(main())
