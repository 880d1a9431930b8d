"""The benchmark workloads' outputs, pinned in tier-1.

Each workload of ``perfbench/workloads.py`` is generated at its default
seed and run in process; its trace and report bytes and its simulated
statistics must equal those that ``perfbench/expected.json`` records,
whether ``run_to_quiescence`` or a loop over ``step()`` dispatches it.
Both files are only read here. The workloads reach fabric sizes and
override traffic that the shipped scenarios do not.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import json
import types
from pathlib import Path

import pytest

import memfabric.trace
from memfabric import (
    build_simulation,
    format_report,
    format_trace,
    parse_scenario,
    parse_trace,
    run_scenario,
    verify_run,
    write_trace,
)
from conftest import step_until

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
EXPECTED = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@functools.cache
def _run(name: str):
    """The workload's scenario at its default seed, and the run of it."""
    scenario = parse_scenario(workloads.generate(name, workloads.WORKLOADS[name][1]))
    return scenario, run_scenario(scenario)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_outputs_equal_the_recorded_ones(name):
    expected = EXPECTED[name]
    assert expected["seed"] == workloads.WORKLOADS[name][1]
    result = _run(name)[1]
    assert result.outcome.quiescent
    assert {
        "trace_sha256": _sha256(format_trace(result.records)),
        "report_sha256": _sha256(format_report(result.report)),
        "sim.final_tick": result.report.final_tick,
        "sim.events": result.simulation.dispatched_total,
        "sim.records": len(result.records),
        "sim.learned_pairs": len(result.report.learned),
    } == {key: value for key, value in expected.items() if key != "seed"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_stepped_runs_equal_the_recorded_ones(name):
    # The per-layer benchmark dispatches each workload with a loop of its own
    # over Simulation.step(), not with run_to_quiescence; that form must give
    # the recorded trace and event count too.
    scenario = _run(name)[0]
    sim = build_simulation(scenario)
    outcome, steps = step_until(sim, scenario.max_tick)
    assert outcome.quiescent
    assert (_sha256(format_trace(sim.records)), steps, sim.dispatched_total) == (
        EXPECTED[name]["trace_sha256"],
        EXPECTED[name]["sim.events"],
        EXPECTED[name]["sim.events"],
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_traces_decode_on_the_scan_alone(name, tmp_path, monkeypatch):
    # Every line run writes is canonical, so no bench trace reaches the
    # line-by-line general path.
    scenario, result = _run(name)
    path = tmp_path / "out.trace.jsonl"
    write_trace(result.records, path)

    def general_path(line):
        raise AssertionError(f"decode_line called on {line!r}")

    monkeypatch.setattr(memfabric.trace, "decode_line", general_path)
    records = parse_trace(path.read_text(encoding="utf-8"))
    assert records == result.records
    assert verify_run(scenario, records) == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_traces_are_written_by_the_f_strings_alone(name, monkeypatch):
    # Every record run writes has a field set of its kind, so no bench trace
    # reaches format_trace's json.dumps branch for any other field set.
    def dumps(obj, **kwargs):
        raise AssertionError(f"json.dumps called on {obj!r}")

    monkeypatch.setattr(memfabric.trace, "json", types.SimpleNamespace(dumps=dumps))
    assert _sha256(format_trace(_run(name)[1].records)) == EXPECTED[name]["trace_sha256"]
