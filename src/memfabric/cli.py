"""Command-line entry point.

Three commands:

* ``run``     — simulate a scenario, writing a JSON Lines trace and a
                JSON report next to the input (or to explicit paths).
                The trace is written a batch of records at a time.
                Exit 0 on quiescence, 3 on hitting the tick limit.
* ``verify``  — recompute learning and replay from a trace with the
                brute-force oracle and compare, up to the scenario's
                tick limit or ``--max-ticks``. The trace is decoded a
                block of lines at a time, so only its records are held.
                Exit 0 on agreement, 4 on the first divergence
                (reported on stderr).
* ``check``   — parse and validate only; echo the canonical form.

Both files are read through :func:`~memfabric.trace.read_blocks`. Exit 1
is a usage, parse or validation problem (the message names the line),
exit 2 an I/O problem. In a scenario or a trace, the line named is the
first faulty one in file order, whether its fault is a byte that is not
UTF-8 or anything else of that line alone. Diagnostics go to stderr;
stdout stays silent except for ``check``'s canonical echo.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from itertools import combinations
from pathlib import Path

from memfabric.engine import run_scenario
from memfabric.oracle import verify_run
from memfabric.scenario import (
    ScenarioError,
    canonical_scenario,
    check_max_tick,
    parse_int,
    parse_scenario,
    write_report,
)
from memfabric.trace import MalformedTraceError, parse_trace, read_blocks, write_trace

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2
EXIT_TICK_LIMIT = 3
EXIT_DIVERGENCE = 4


def _max_ticks(text: str) -> int:
    """The ``--max-ticks`` value, by the rule of the ``maxticks`` directive."""
    try:
        value = parse_int(text, "value")
        check_max_tick(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memfabric",
        description="Deterministic simulator of a sequence-learning memory fabric.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a scenario and write trace + report")
    run.add_argument("scenario", help="scenario file")
    run.add_argument("--trace", help="trace output path (default: <scenario>.trace.jsonl)")
    run.add_argument("--report", help="report output path (default: <scenario>.report.json)")
    run.add_argument(
        "--max-ticks", type=_max_ticks, help="override the scenario's maxticks directive"
    )
    run.set_defaults(func=_cmd_run)

    verify = sub.add_parser("verify", help="cross-check a trace with the oracle")
    verify.add_argument("scenario", help="scenario file")
    verify.add_argument("trace", help="trace file produced by run")
    verify.add_argument(
        "--max-ticks", type=_max_ticks, help="the tick limit the run had, if not maxticks"
    )
    verify.set_defaults(func=_cmd_verify)

    check = sub.add_parser("check", help="parse and validate; echo the canonical form")
    check.add_argument("scenario", help="scenario file")
    check.set_defaults(func=_cmd_check)

    return parser


def _load_scenario(path: str):
    scenario = parse_scenario(read_blocks(path))
    for warning in scenario.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return scenario


def _same_file(a: Path, b: Path) -> bool:
    """Whether two paths name one file, existing or still to be written."""
    if a.exists() and b.exists():
        return a.samefile(b)
    return os.path.realpath(a) == os.path.realpath(b)


def _cmd_run(args: argparse.Namespace) -> int:
    trace_path = Path(args.trace) if args.trace else Path(args.scenario + ".trace.jsonl")
    report_path = Path(args.report) if args.report else Path(args.scenario + ".report.json")
    paths = {"scenario": Path(args.scenario), "trace": trace_path, "report": report_path}
    for (name_a, a), (name_b, b) in combinations(paths.items(), 2):
        if _same_file(a, b):
            print(f"error: the {name_a} and the {name_b} are the same file: {b}", file=sys.stderr)
            return EXIT_INVALID
    scenario = _load_scenario(args.scenario)
    result = run_scenario(scenario, max_tick=args.max_ticks)
    write_trace(result.records, trace_path)
    write_report(result.report, report_path)
    if not result.outcome.quiescent:
        print(
            f"tick limit reached at t={result.outcome.final_tick}; "
            f"{len(result.simulation.queue)} event(s) still pending",
            file=sys.stderr,
        )
        return EXIT_TICK_LIMIT
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario)
    records = parse_trace(read_blocks(args.trace))
    problems = verify_run(scenario, records, max_tick=args.max_ticks)
    if problems:
        print(f"divergence: {problems[0]}", file=sys.stderr)
        return EXIT_DIVERGENCE
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario)
    sys.stdout.write(canonical_scenario(scenario))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error, which is
        # invalid input here; its message is already on stderr.
        return EXIT_INVALID if exc.code else EXIT_OK
    # A command allocates one acyclic record per trace line, so the cyclic
    # collector's passes over them find nothing; pause it while it runs.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MalformedTraceError as exc:
        print(f"error: malformed trace: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
