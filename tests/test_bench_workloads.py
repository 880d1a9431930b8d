"""The benchmark workloads' outputs, pinned in tier-1.

Each workload of ``perfbench/workloads.py`` is generated at its default
seed and run in process; its trace and report bytes and its simulated
statistics must equal those that ``perfbench/expected.json`` records,
whether ``run_to_quiescence`` or a loop over ``step()`` dispatches it.
Both files are only read here. The workloads reach fabric sizes and
override traffic that the shipped scenarios do not. ``dense_crosstalk``'s
trace, at 2.2 MB, also bounds what writing and reading a trace may hold.
The benchmark's child process (``perfbench/child.py``) runs here too, on
a shipped scenario, in both of its modes.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import json
import random
import subprocess
import tracemalloc
import types
from unittest import mock
from pathlib import Path

import pytest

import memfabric.cli
import memfabric.fabric
import memfabric.scenario
import memfabric.trace
from memfabric import (
    FabricConfig,
    build_simulation,
    format_report,
    format_trace,
    parse_scenario,
    parse_trace,
    run_scenario,
    verify_run,
    write_trace,
)
from memfabric.trace import EV_FILTER_FIRE, EV_LATCH_SHIFT, EV_LEARNED, EV_OVERRIDE_SET
from conftest import python_command, step_until
from literal_fabric import LiteralFabric, filter_records

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
EXPECTED = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))
BENCHMARK = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


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


def test_parse_and_build_check_each_word_no_more_often(monkeypatch):
    # Each part's words are checked once, when the Scenario is built; building
    # the simulation checks none again. The bounds are those counts: the words
    # of the plans (160) and probes (1,000) and two per override (1,000), as
    # check_word's count includes the two calls of each check_pair. The word
    # rule is counted where its body runs, the function check_word, which the
    # parts, check_pair and FabricConfig.check_word all call.
    name = "replay_override"
    text = workloads.generate(name, workloads.WORKLOADS[name][1])
    calls = {"check_word": 0, "check_pair": 0}
    check_word, check_pair = memfabric.fabric.check_word, FabricConfig.check_pair

    def counted_word(word, word_count):
        calls["check_word"] += 1
        return check_word(word, word_count)

    def counted_pair(self, i, j):
        calls["check_pair"] += 1
        return check_pair(self, i, j)

    for module in (memfabric.fabric, memfabric.scenario):  # each module's name for it
        monkeypatch.setattr(module, "check_word", counted_word)
    monkeypatch.setattr(FabricConfig, "check_pair", counted_pair)
    build_simulation(parse_scenario(text))
    assert calls["check_word"] <= 3160 and calls["check_pair"] <= 1000, calls


def test_the_parse_converts_each_at_line_word_id_once(monkeypatch):
    # Every tick and every other integer token is converted where it stands,
    # the plans' 160 word ids too, but a word-id token of an at line only the
    # first time the parse meets it: the 3,000 word ids of the probes and
    # overrides name 160 distinct words. Converting each word id where it
    # stands made 5,246 calls.
    name = "replay_override"
    text = workloads.generate(name, workloads.WORKLOADS[name][1])
    convert, calls = memfabric.scenario.parse_int, []

    def counted(token, what):
        calls.append(what)
        return convert(token, what)

    monkeypatch.setattr(memfabric.scenario, "parse_int", counted)
    parse_scenario(text)
    assert len(calls) <= 2406 and calls.count("word id") <= 320, len(calls)


@pytest.mark.parametrize("mode", ["plain", "traced"])
def test_the_benchmark_child_measures_a_scenario_of_every_event_kind(mode, tmp_path):
    # perfbench/child.py reaches into the package (build_simulation, step, the
    # handlers and the module globals it wraps); a seam that moves fails here,
    # as CI's benchmark gate would. The scenario dispatches all four event kinds.
    out = tmp_path / f"{mode}.json"
    scenario = PERFBENCH.parent / "scenarios" / "override.scn"
    argv = [str(PERFBENCH / "child.py"), mode, str(scenario), str(tmp_path), str(out), "0"]
    proc = subprocess.run(
        [*python_command(), "-S", *argv],
        capture_output=True,
        text=True,
        encoding="utf-8",
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text(encoding="utf-8"))
    assert (result["rc_run"], result["rc_verify"], result["problems"]) == (0, 0, 0)
    if mode == "traced":
        layers = result["layers"]
        events = [value for name, value in layers.items() if name.startswith("engine.events.")]
        assert len(events) == 4 and 0 not in events, layers
        units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        idle = [name for name in layers if units[name] in ("s", "us") and not layers[name] > 0]
        assert idle == []


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
def test_workload_filters_fire_as_the_literal_circuit(name):
    # Up to 89,700 filter objects, each with its own window and latches
    # (sparse_learn), against the fabric's one window per source word.
    scenario, result = _run(name)
    records = result.records
    assert LiteralFabric(scenario.config).filter_records(records) == filter_records(records)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_traces_decode_on_the_scan_alone(name, tmp_path, monkeypatch):
    # Every line run writes is canonical, so no bench trace, read whole or as
    # verify reads it, in blocks, leaves the field sets' branches for the
    # line-by-line general path.
    scenario, result = _run(name)
    path = tmp_path / "out.trace.jsonl"
    write_trace(result.records, path)

    def general_path(line):
        raise AssertionError(f"decode_line called on {line!r}")

    monkeypatch.setattr(memfabric.trace, "decode_line", general_path)
    assert parse_trace(format_trace(result.records)) == result.records
    records = parse_trace(memfabric.trace.read_blocks(path))
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


def traced_peak(function, *args) -> tuple[int, int]:
    """The bytes that ``function(*args)`` left allocated, and its peak, by tracemalloc."""
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_write_trace_holds_one_batch_of_text_at_a_time(tmp_path):
    records = _run("dense_crosstalk")[1].records
    # A batch holds at most 4,096 records: its lines, their text and the
    # text's UTF-8 bytes take about four times the text, a fraction of the
    # trace's own text.
    bound = 5 * len(format_trace(records[:4096]))
    assert bound < len(format_trace(records)) / 2
    peak = traced_peak(write_trace, records, tmp_path / "out.trace.jsonl")[1]
    assert peak < bound


def test_verify_holds_the_records_and_a_few_blocks_of_text(tmp_path, monkeypatch):
    result = _run("dense_crosstalk")[1]
    scenario_path, trace_path = tmp_path / "dense.scn", tmp_path / "out.trace.jsonl"
    scenario_path.write_text(
        workloads.generate("dense_crosstalk", workloads.WORKLOADS["dense_crosstalk"][1]),
        encoding="utf-8",
    )
    write_trace(result.records, trace_path)
    kept = []
    monkeypatch.setattr(
        memfabric.cli, "verify_run", lambda scn, records, **kwargs: kept.append(records) or []
    )
    argv = ["verify", str(scenario_path), str(trace_path)]
    footprint, peak = traced_peak(memfabric.cli.main, argv)
    assert kept == [result.records]
    # Beyond the records it keeps, the decode holds about three 64 KiB blocks
    # at a time (the bytes read, the same with the rest of their last line,
    # and its text) and its value cache, which goes when it ends; the
    # trace's text alone is more than twice the bound.
    bound = 12 * 65536
    assert bound < trace_path.stat().st_size / 2
    assert peak - footprint < bound


def test_verify_run_holds_each_detection_once():
    # verify_run keeps the ticks of each pair's detections once, in
    # detection_ticks' lists, and reads them in place: its peak here is about
    # 0.8 MiB. A second copy of every detection, keyed by (pair, tick), took
    # it to 1.8 MiB.
    scenario, result = _run("dense_crosstalk")
    assert traced_peak(verify_run, scenario, result.records)[1] < 1.25 * 2**20


def test_a_run_builds_each_pair_tuple_once():
    # Each touched pair's (src, dst) tuple is built once, in its filter state,
    # and every record and replay along the pair carries that one object: 2,128
    # pairs here, where building one per record made 18,441 objects. An
    # override_set record carries the pair its scenario line names.
    records = _run("dense_crosstalk")[1].records
    pairs = [r.pair for r in records if r.pair is not None and r.ev != EV_OVERRIDE_SET]
    assert len(pairs) > 30_000
    assert len({id(pair) for pair in pairs}) == len(set(pairs))


def test_verify_names_each_late_single_record_mutant_of_a_dense_run():
    # The oracle at the scale of dense_crosstalk (37,025 records, 870 learned
    # pairs), where many detections of a pair come before the mutated record:
    # seeded mutants from the trace's last third, each of one record, none a
    # tick edit (the tick-order check would name that first).
    scenario, result = _run("dense_crosstalk")
    records = result.records
    late = range(2 * len(records) // 3, len(records))
    rng = random.Random(32)

    def pick(kind):
        return rng.sample([i for i in late if records[i].ev == kind], 3)

    cases = []  # (mutant, index of the record it names, the record the run owes there)
    for i in pick(EV_LATCH_SHIFT):
        shift = records[i]
        cases.append((records[:i] + records[i + 1 :], i, shift))  # deleted
        cases.append((records[: i + 1] + records[i:], i + 1, records[i + 1]))  # duplicated
        for delta in (-1, 1):
            staged = shift._replace(stage=shift.stage + delta)
            cases.append((records[:i] + [staged] + records[i + 1 :], i, shift))
    for kind in (EV_FILTER_FIRE, EV_LEARNED):
        cases += [(records[:i] + records[i + 1 :], i, records[i]) for i in pick(kind)]
    for mutant, i, owed in cases:
        have = mutant[i].to_json_line()
        assert verify_run(scenario, mutant) == [
            f"record {i + 1}: the trace has {have}, but the run owes {owed.to_json_line()}"
        ]


def test_a_parse_and_build_checks_the_default_duration_not_each_word():
    # sparse_learn's 300 words all run for `dur *`: the value is checked at its
    # line and once where the durations are built, not once for each word.
    text = workloads.generate("sparse_learn", workloads.WORKLOADS["sparse_learn"][1])
    check = mock.patch.object(FabricConfig, "check_duration", wraps=FabricConfig.check_duration)
    with check as calls:
        build_simulation(parse_scenario(text))
    assert calls.call_count <= 2
