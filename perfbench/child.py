"""One benchmark iteration, run in a fresh process by ``run.py``.

The iteration calls ``memfabric.cli.main(["run", ...])`` and then
``memfabric.cli.main(["verify", ...])`` in this process, as a user's two
commands would, and writes what it measured to a JSON file.

* ``plain`` times the two commands untraced, reads the peak RSS of the
  process, and then times ``parse_scenario`` + ``build_simulation`` on
  their own (after the RSS reading, so these extra builds do not count
  towards it). ``calibrate()`` runs before, between and after these
  three measurements.
* ``traced`` records a span around each public call of the package's
  modules, from outside the package: module functions are replaced by
  wrappers, the handlers of the ``sim.fabric`` and ``sim.driver``
  instances are wrapped, and dispatch runs in a loop of this file's own
  over ``Simulation.step()``. Spans are kept in memory and written to
  a file at the end; the per-layer figures are computed from them.
  ``calibrate()`` runs before ``run`` and after ``verify``. Afterwards
  one more ``build_simulation``, outside the spans, runs under
  ``tracemalloc`` for the build's peak allocation.

Usage: python3 perfbench/child.py {plain,traced} SCENARIO WORKDIR OUT
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Repeat parse + build until this much time is spent or this many
# samples are taken, whichever comes first (at least one sample); the
# fastest repeat is the child's setup time.
SETUP_BUDGET_S = 0.1
SETUP_MAX_SAMPLES = 10

CALIBRATION_SIZE = 20_000

EVENT_KINDS = {
    "CpuEnable": "cpu_enable",
    "AutoEnable": "auto_enable",
    "WordDone": "done",
    "OverrideSet": "override_set",
}


def import_memfabric():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import memfabric.cli

    if Path(memfabric.cli.__file__).resolve().parent != SRC / "memfabric":
        raise SystemExit(f"memfabric imported from {memfabric.cli.__file__}, not {SRC}")
    return memfabric


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes now: fastest of two runs.

    The loop does the kind of work the program does (tuples, dicts,
    lists, str and json), so other tenants of the host slow it and the
    program alike; ``run.py`` scales the times measured next to it.
    """
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        table = {}
        for i in range(CALIBRATION_SIZE):
            table[(i % 997, i)] = [i, str(i)]
        json.dumps([list(key) for key in table])
        best = min(best, time.perf_counter() - start)
    return best


def cli_args(scenario: Path, workdir: Path):
    trace = workdir / "out.trace.jsonl"
    report = workdir / "out.report.json"
    return (
        ["run", str(scenario), "--trace", str(trace), "--report", str(report)],
        ["verify", str(scenario), str(trace)],
    )


def plain(mf, scenario: Path, workdir: Path) -> dict:
    cli = mf.cli
    captured = {}
    run_scenario, verify_run = cli.run_scenario, cli.verify_run

    # Keep a reference to the result and the problem list; nothing is timed.
    def keep_run(*args, **kwargs):
        captured["run"] = run_scenario(*args, **kwargs)
        return captured["run"]

    def keep_problems(*args, **kwargs):
        captured["problems"] = verify_run(*args, **kwargs)
        return captured["problems"]

    cli.run_scenario, cli.verify_run = keep_run, keep_problems
    run_argv, verify_argv = cli_args(scenario, workdir)

    calibration = [calibrate()]
    start = time.perf_counter()
    rc_run = cli.main(run_argv)
    run_s = time.perf_counter() - start
    run = captured.pop("run", None)
    events = run.simulation.dispatched_total if run is not None else 0
    del run
    gc.collect()

    calibration.append(calibrate())
    start = time.perf_counter()
    rc_verify = cli.main(verify_argv)
    verify_s = time.perf_counter() - start
    problems = captured.pop("problems", None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    gc.collect()

    calibration.append(calibrate())

    text = scenario.read_text(encoding="utf-8")
    setup = []
    while not setup or (sum(setup) < SETUP_BUDGET_S and len(setup) < SETUP_MAX_SAMPLES):
        start = time.perf_counter()
        sim = mf.engine.build_simulation(mf.scenario.parse_scenario(text))
        setup.append(time.perf_counter() - start)
        del sim
        gc.collect()
    calibration.append(calibrate())

    return {
        "rc_run": rc_run,
        "rc_verify": rc_verify,
        "problems": None if problems is None else len(problems),
        "events": events,
        "run_s": run_s,
        "verify_s": verify_s,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": min(setup),
        "calibration_s": calibration,
    }


class Spans:
    """Spans kept in memory: (id, parent id, name, start, end), id = index + 1."""

    def __init__(self):
        self.rows: list = []
        self._stack = [0]

    def open(self) -> int:
        self.rows.append(None)
        sid = len(self.rows)
        self._stack.append(sid)
        return sid

    def close(self, sid: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.rows[sid - 1] = (sid, self._stack[-1], name, start, end)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            sid = self.open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid, name, start)

        return traced

    def totals(self):
        """Per name: summed duration, summed self time, count, and durations."""
        child = Counter()
        for _, parent, _, start, end in self.rows:
            child[parent] += end - start
        total, self_time, count, durations = Counter(), Counter(), Counter(), {}
        for sid, _, name, start, end in self.rows:
            total[name] += end - start
            self_time[name] += end - start - child[sid]
            count[name] += 1
            durations.setdefault(name, []).append(end - start)
        return total, self_time, count, durations


def traced(mf, scenario: Path, workdir: Path, spans_path: Path, run_id: str) -> dict:
    cli, engine = mf.cli, mf.engine
    spans = Spans()
    state = {}

    def run_scenario(scn, *, max_tick=None, loop_suppression=True):
        # Same steps as memfabric.engine.run_scenario, with the dispatch
        # loop owned here so that each step can be timed and classified.
        sid, start = spans.open(), time.perf_counter()
        sim = engine.build_simulation(scn, loop_suppression=loop_suppression)
        spans.close(sid, "engine.build_simulation", start)
        for name in ("on_enable", "on_done", "set_override"):
            setattr(sim.fabric, name, spans.wrap(f"fabric.{name}", getattr(sim.fabric, name)))
        sim.driver.on_done = spans.wrap("driver.on_done", sim.driver.on_done)

        limit = max_tick if max_tick is not None else scn.max_tick
        hwm = len(sim.queue)
        dispatch, dispatch_start = spans.open(), time.perf_counter()
        while True:
            next_tick = sim.queue.peek_tick()
            if next_tick is None or next_tick > limit:
                outcome = engine.RunOutcome(
                    engine.QUIESCENT if next_tick is None else engine.TICK_LIMIT, sim.clock
                )
                break
            sid, start = spans.open(), time.perf_counter()
            event = sim.step()
            kind = type(event.payload).__name__
            spans.close(sid, "engine.step." + EVENT_KINDS.get(kind, kind), start)
            hwm = max(hwm, len(sim.queue))
        spans.close(dispatch, "engine.dispatch", dispatch_start)

        report = spans.wrap("scenario.build_report", mf.scenario.build_report)(
            sim.records, outcome=outcome.outcome, final_tick=outcome.final_tick
        )
        state.update(
            hwm=hwm,
            scheduled=sim.queue.scheduled_total,
            filter_count=sim.fabric.filter_count,
            kinds=Counter(rec.ev for rec in sim.records),
        )
        return engine.RunResult(
            scenario=scn, outcome=outcome, records=sim.records, report=report, simulation=sim
        )

    problems = []

    def keep_problems(fn):
        def call(*args, **kwargs):
            problems.append(fn(*args, **kwargs))
            return problems[-1]

        return call

    cli.parse_scenario = spans.wrap("scenario.parse_scenario", cli.parse_scenario)
    cli.run_scenario = spans.wrap("engine.run_scenario", run_scenario)
    cli.write_trace = spans.wrap("trace.write_trace", cli.write_trace)
    mf.trace.format_trace = spans.wrap("trace.format_trace", mf.trace.format_trace)
    cli.write_report = spans.wrap("scenario.write_report", cli.write_report)
    mf.scenario.format_report = spans.wrap("scenario.format_report", mf.scenario.format_report)
    cli.parse_trace = spans.wrap("trace.parse_trace", cli.parse_trace)
    cli.verify_run = spans.wrap("oracle.verify_run", keep_problems(cli.verify_run))
    mf.oracle.detection_ticks = spans.wrap("oracle.detection_ticks", mf.oracle.detection_ticks)

    run_argv, verify_argv = cli_args(scenario, workdir)
    calibration = [calibrate()]
    rc_run = spans.wrap("cli.run", cli.main)(run_argv)
    rc_verify = spans.wrap("cli.verify", cli.main)(verify_argv)
    calibration.append(calibrate())

    # tracemalloc slows allocation, so it watches a separate build of
    # its own rather than the timed one.
    scn = mf.scenario.parse_scenario(scenario.read_text(encoding="utf-8"))
    tracemalloc.start()
    engine.build_simulation(scn)
    build_peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()

    with spans_path.open("w", encoding="utf-8") as out:
        for sid, parent, name, start, end in spans.rows:
            out.write(
                json.dumps({"run": run_id, "id": sid, "parent": parent, "name": name,
                            "start": start, "end": end}) + "\n"
            )

    total, self_time, count, durations = spans.totals()
    steps = [d for name in durations if name.startswith("engine.step.") for d in durations[name]]
    us = statistics.quantiles([d * 1e6 for d in steps], n=100) if len(steps) > 1 else [0.0] * 99
    kinds = state["kinds"]
    records = sum(kinds.values())
    write_s = total["trace.write_trace"]
    layers = {
        "scenario.parse_s": total["scenario.parse_scenario"],
        "scenario.report_s": total["scenario.build_report"] + total["scenario.format_report"],
        "engine.build_s": total["engine.build_simulation"],
        "engine.dispatch_s": total["engine.dispatch"],
        "engine.us_per_event.p50": us[49],
        "engine.us_per_event.p99": us[98],
        "engine.queue_hwm": state["hwm"],
        "engine.scheduled": state["scheduled"],
        "fabric.build_peak_mb": build_peak_mb,
        "fabric.on_done_s": total["fabric.on_done"],
        "fabric.on_enable_s": total["fabric.on_enable"],
        "fabric.set_override_s": total["fabric.set_override"],
        "fabric.filter_count": state["filter_count"],
        "fabric.learned_pairs": kinds["learned"],
        "fabric.filter_fires": kinds["filter_fire"],
        "fabric.shift_ratio": ratio(kinds["latch_shift"], kinds["filter_fire"]),
        "fabric.enable_attempts": kinds["enable"] + kinds["ignored_enable"],
        "fabric.accept_ratio": ratio(kinds["enable"], kinds["enable"] + kinds["ignored_enable"]),
        "fabric.replay_attempts": (
            kinds["auto_enable_scheduled"] + kinds["loop_suppressed"] + kinds["override_blocked"]
        ),
        "fabric.replay_ratio": ratio(
            kinds["auto_enable_scheduled"],
            kinds["auto_enable_scheduled"] + kinds["loop_suppressed"] + kinds["override_blocked"],
        ),
        "driver.on_done_s": total["driver.on_done"],
        "driver.on_done_calls": count["driver.on_done"],
        "trace.format_s": total["trace.format_trace"],
        "trace.write_s": self_time["trace.write_trace"],
        "trace.records_per_s": ratio(records, write_s),
        "trace.parse_s": total["trace.parse_trace"],
        "trace.records": records,
        "trace.bytes": (workdir / "out.trace.jsonl").stat().st_size,
        "oracle.verify_s": total["oracle.verify_run"],
        "oracle.detection_ticks_s": total["oracle.detection_ticks"],
        "oracle.problems": len(problems[-1]),
        "cli.run_self_s": self_time["cli.run"],
        "cli.verify_self_s": self_time["cli.verify"],
    }
    for kind in EVENT_KINDS.values():
        layers[f"engine.dispatch_s.{kind}"] = total[f"engine.step.{kind}"]
        layers[f"engine.events.{kind}"] = count[f"engine.step.{kind}"]
    return {
        "rc_run": rc_run,
        "rc_verify": rc_verify,
        "problems": len(problems[-1]),
        "events": len(steps),
        "traced_run_s": total["cli.run"],
        "layers": layers,
        "calibration_s": calibration,
    }


def ratio(num: float, base: float) -> float:
    return num / base if base else 0.0


def main(argv: list[str]) -> int:
    mode, scenario, workdir, out = argv[0], Path(argv[1]), Path(argv[2]), Path(argv[3])
    mf = import_memfabric()
    if mode == "plain":
        result = plain(mf, scenario, workdir)
    else:
        result = traced(mf, scenario, workdir, workdir / "spans.jsonl", run_id=argv[4])
    out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
