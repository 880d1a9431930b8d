"""Command-line entry point.

Three commands:

* ``run``     — simulate a scenario; write a JSON Lines trace, a batch of
                records at a time, and a JSON report, next to the input
                unless given paths. Exit 0 on quiescence, 3 at the tick limit.
* ``verify``  — recompute learning and replay from a trace with the
                brute-force oracle, up to the scenario's tick limit or
                ``--max-ticks``, decoding the trace a block of lines at a time.
                Exit 0 on agreement, 4 on the first divergence (on stderr).
* ``check``   — parse and validate only; echo the canonical form.

Each command takes the positionals and options the table ``_COMMANDS``
gives it: an option is ``--name VALUE`` or ``--name=VALUE``, spelled in
full, once, anywhere after the command; ``-h`` or ``--help`` prints the usage.
Both files are read through :func:`~memfabric.trace.read_blocks`. Exit 1
is a usage, parse or validation problem (the message names the line),
exit 2 an I/O problem or running out of memory. In a scenario or a trace,
the line named is the first faulty one in file order, whether its fault
is a byte that is not UTF-8 or anything else of that line alone.
Diagnostics go to stderr; stdout stays silent except for ``check``'s
canonical echo and the usage.
"""

from __future__ import annotations

import gc
import os
import sys
from itertools import combinations

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


def _load_scenario(path: str):
    scenario = parse_scenario(read_blocks(path))
    for warning in scenario.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return scenario


def _same_file(a: str, b: str) -> bool:
    """Whether two paths name one file, existing or still to be written."""
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def _cmd_run(scenario: str, trace=None, report=None, max_ticks=None) -> int:
    trace = scenario + ".trace.jsonl" if trace is None else trace
    report = scenario + ".report.json" if report is None else report
    paths = {"scenario": scenario, "trace": trace, "report": report}
    for (name_a, a), (name_b, b) in combinations(paths.items(), 2):
        if _same_file(a, b):
            print(f"error: the {name_a} and the {name_b} are the same file: {b}", file=sys.stderr)
            return EXIT_INVALID
    result = run_scenario(_load_scenario(scenario), max_tick=max_ticks)
    write_trace(result.records, trace)
    write_report(result.report, report)
    if not result.outcome.quiescent:
        final, pending = result.outcome.final_tick, len(result.simulation.queue)
        print(f"tick limit reached at t={final}; {pending} event(s) still pending", file=sys.stderr)
        return EXIT_TICK_LIMIT
    return EXIT_OK


def _cmd_verify(scenario: str, trace: str, max_ticks: int | None = None) -> int:
    loaded, records = _load_scenario(scenario), parse_trace(read_blocks(trace))
    problems = verify_run(loaded, records, max_tick=max_ticks)
    if problems:
        print(f"divergence: {problems[0]}", file=sys.stderr)
        return EXIT_DIVERGENCE
    return EXIT_OK


def _cmd_check(scenario: str) -> int:
    sys.stdout.write(canonical_scenario(_load_scenario(scenario)))
    return EXIT_OK


# name: (handler, positionals, options, help), read by _parse_args, not by argparse,
# whose first call imports shutil and locale. Each value but --max-ticks's is a path
# and reaches the handler by its name in snake case.
_COMMANDS = {
    "run": (_cmd_run, "scenario", "--trace --report --max-ticks", "simulate; write trace + report"),
    "verify": (_cmd_verify, "scenario trace", "--max-ticks", "cross-check a trace with the oracle"),
    "check": (_cmd_check, "scenario", "", "parse and validate; echo the canonical form"),
}
_USAGE = "usage: " + "\n       ".join(
    f"memfabric {name} {names.upper()}"
    + "".join(f" [{o} {o[2:].upper()}]" for o in opts.split())
    + f"\n           {text}"
    for name, (_, names, opts, text) in _COMMANDS.items()
)


class _UsageError(Exception):
    """A command line that ``_COMMANDS`` does not accept."""


def _parse_args(argv: list[str]):
    """The handler of ``argv``'s command and its arguments by name; None for help."""
    if {"-h", "--help"} & set(argv[: argv.index("--")] if "--" in argv else argv):
        return None
    if not argv:
        raise _UsageError("the following arguments are required: command")
    if argv[0] not in _COMMANDS:
        choices = ", ".join(_COMMANDS)
        raise _UsageError(f"argument command: invalid choice: {argv[0]!r} (choose from {choices})")
    handler, names, options, _ = _COMMANDS[argv[0]]
    names, positionals, given, rest = names.split(), [], {}, iter(argv[1:])
    for arg in rest:
        if arg == "--":
            positionals += rest
        elif not arg.startswith("--"):
            positionals.append(arg)
        else:
            option, has_value, value = arg.partition("=")
            if option not in options.split():
                raise _UsageError(f"unrecognized arguments: {arg}")
            if option in given:
                raise _UsageError(f"argument {option}: given more than once")
            # The value is the next argument; an option there, or none, is no value.
            if not has_value and (value := next(rest, "--")).startswith("--"):
                raise _UsageError(f"argument {option}: expected one argument")
            given[option] = value
    if len(positionals) > len(names):
        raise _UsageError(f"unrecognized arguments: {' '.join(positionals[len(names) :])}")
    if missing := ", ".join(names[len(positionals) :]):
        raise _UsageError(f"the following arguments are required: {missing}")
    kwargs = {}
    for name, value in (dict(zip(names, positionals)) | given).items():
        try:
            if name == "--max-ticks":  # by the rule of the maxticks directive
                check_max_tick(value := parse_int(value, "value"))
            elif not value:
                raise ValueError("the path is empty")
        except ValueError as exc:
            raise _UsageError(f"argument {name}: {exc}") from None
        kwargs[name.lstrip("-").replace("-", "_")] = value
    return handler, kwargs


def main(argv: list[str] | None = None) -> int:
    try:
        parsed = _parse_args(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        print(f"{_USAGE}\nerror: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if parsed is None:
        print(_USAGE)
        return EXIT_OK
    handler, kwargs = parsed
    # A command allocates one acyclic record per trace line, so the cyclic
    # collector's passes over them find nothing; pause it while it runs.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return handler(**kwargs)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MalformedTraceError as exc:
        print(f"error: malformed trace: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError:
        pass  # report it once this handler is left, which frees the run's frames
    finally:
        if gc_was_enabled:
            gc.enable()
    print("error: out of memory", file=sys.stderr)
    return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
