"""CLI commands, exit codes, and the run/verify self-consistency pipeline."""

from __future__ import annotations

import gc
import json
import os
import subprocess
import weakref
from pathlib import Path
from contextlib import closing
from unittest import mock

import pytest

import memfabric.cli
import memfabric.oracle
import memfabric.trace
from conftest import OVERRIDE_CYCLE, python_command
from memfabric import (
    ParseError,
    TraceRecord,
    parse_scenario,
    run_scenario,
    verify_run,
    write_trace,
)
from memfabric.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
WORKED_EXAMPLE = SCENARIOS / "worked_example.scn"


@pytest.fixture
def scenario_file(tmp_path, worked_example_text):
    path = tmp_path / "worked.scn"
    path.write_text(worked_example_text, encoding="utf-8")
    return path


def test_run_writes_trace_and_report_and_exits_zero(scenario_file, capsys):
    code = main(["run", str(scenario_file)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    trace_path = scenario_file.parent / (scenario_file.name + ".trace.jsonl")
    report_path = scenario_file.parent / (scenario_file.name + ".report.json")
    assert trace_path.exists() and report_path.exists()
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert [entry["pair"] for entry in report["learned"]] == [[1, 3], [3, 2]]
    assert report["outcome"] == "quiescent"


def test_run_honors_explicit_output_paths(scenario_file, tmp_path):
    trace = tmp_path / "out" / "t.jsonl"
    report = tmp_path / "out" / "r.json"
    trace.parent.mkdir()
    assert main(["run", str(scenario_file), "--trace", str(trace), "--report", str(report)]) == 0
    assert trace.exists() and report.exists()


def test_run_on_invalid_scenario_exits_one_naming_the_line(tmp_path, capsys):
    path = tmp_path / "bad.scn"
    path.write_text(
        "fabric words=3 delay1=5 delay2=1 threshold=10\n"
        "dur * 4\n"
        "rehearse 1 3 1 2 reps=1 gap=2 rest=0 start=0\n"
        "maxticks 100\n",
        encoding="utf-8",
    )
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert "line 3" in err and "repeats" in err


@pytest.mark.parametrize(
    "outputs",
    [
        ["--trace", "{scenario}"],
        ["--report", "{scenario}"],
        ["--trace", "{dir}/out", "--report", "{dir}/out"],
        ["--report", "{scenario}.trace.jsonl"],
        ["--trace", "{dir}/link.scn"],
    ],
    ids=[
        "trace-is-scenario",
        "report-is-scenario",
        "trace-is-report",
        "report-is-default-trace",
        "trace-links-to-scenario",
    ],
)
def test_run_refuses_outputs_that_name_its_input_or_each_other(scenario_file, capsys, outputs):
    (scenario_file.parent / "link.scn").symlink_to(scenario_file)
    before = scenario_file.read_bytes()
    names = sorted(scenario_file.parent.iterdir())
    argv = [arg.format(scenario=scenario_file, dir=scenario_file.parent) for arg in outputs]
    assert main(["run", str(scenario_file), *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "same file" in captured.err
    assert scenario_file.read_bytes() == before
    assert sorted(scenario_file.parent.iterdir()) == names


def test_run_on_missing_file_exits_two(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.scn")]) == 2
    assert "error" in capsys.readouterr().err


def test_max_ticks_flag_overrides_the_directive(scenario_file, capsys):
    assert main(["run", str(scenario_file), "--max-ticks", "50"]) == 3
    assert "tick limit" in capsys.readouterr().err


def test_verify_owes_the_run_up_to_its_tick_limit(scenario_file, capsys):
    # A run cut at 50 verifies at the limit it had, not at the scenario's own.
    trace_path = scenario_file.parent / (scenario_file.name + ".trace.jsonl")
    assert main(["run", str(scenario_file), "--max-ticks", "50"]) == 3
    capsys.readouterr()
    assert main(["verify", str(scenario_file), str(trace_path)]) == 4
    assert "the trace has no more records, but the run owes" in capsys.readouterr().err
    assert main(["verify", str(scenario_file), str(trace_path), "--max-ticks", "50"]) == 0
    # Below the trace's last tick, its last records are owed by nothing.
    last = json.loads(trace_path.read_text(encoding="utf-8").splitlines()[-1])["t"]
    assert main(["verify", str(scenario_file), str(trace_path), "--max-ticks", str(last - 1)]) == 4
    assert "but nothing owes it" in capsys.readouterr().err


def test_verify_flags_a_trace_without_its_final_tick(scenario_file, capsys):
    assert main(["run", str(scenario_file)]) == 0
    trace_path = scenario_file.parent / (scenario_file.name + ".trace.jsonl")
    lines = trace_path.read_text(encoding="utf-8").splitlines(keepends=True)
    last = json.loads(lines[-1])["t"]
    kept = [line for line in lines if json.loads(line)["t"] != last]
    assert 0 < len(kept) < len(lines)
    trace_path.write_text("".join(kept), encoding="utf-8")
    assert main(["verify", str(scenario_file), str(trace_path)]) == 4
    assert "the trace has no more records, but the run owes" in capsys.readouterr().err


def test_run_then_verify_is_self_consistent(scenario_file, capsys):
    assert main(["run", str(scenario_file)]) == 0
    trace_path = scenario_file.parent / (scenario_file.name + ".trace.jsonl")
    assert main(["verify", str(scenario_file), str(trace_path)]) == 0
    assert capsys.readouterr().out == ""


def test_override_directives_listed_out_of_tick_order_run_and_verify(scenario_file, capsys):
    # The engine applies them by tick (open at 400, closed at 450), so the
    # probe at 500 replays; verify must apply them the same way.
    with scenario_file.open("a", encoding="utf-8") as out:
        out.write("at 450 override 1 3 closed\nat 400 override 1 3 open\n")
    assert main(["run", str(scenario_file)]) == 0
    trace_path = scenario_file.parent / (scenario_file.name + ".trace.jsonl")
    replay = '{"t":504,"ev":"auto_enable_scheduled","word":3,"pair":[1,3],"episode":0}'
    assert replay in trace_path.read_text(encoding="utf-8").splitlines()
    assert main(["verify", str(scenario_file), str(trace_path)]) == 0
    assert capsys.readouterr().err == ""


def test_verify_flags_a_tampered_trace(scenario_file, capsys):
    main(["run", str(scenario_file)])
    trace_path = scenario_file.parent / (scenario_file.name + ".trace.jsonl")
    lines = trace_path.read_text(encoding="utf-8").splitlines()
    kept = [line for line in lines if '"ev":"learned"' not in line or '"pair":[1,3]' not in line]
    assert len(kept) == len(lines) - 1
    trace_path.write_text("\n".join(kept) + "\n", encoding="utf-8")
    assert main(["verify", str(scenario_file), str(trace_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("divergence: record 96: ")
    assert 'but the run owes {"t":330,"ev":"learned","pair":[1,3]}' in err


def test_verify_flags_a_shifted_auto_enable(scenario_file, capsys):
    main(["run", str(scenario_file)])
    trace_path = scenario_file.parent / (scenario_file.name + ".trace.jsonl")
    lines = trace_path.read_text(encoding="utf-8").splitlines()
    out = []
    for line in lines:
        obj = json.loads(line)
        if obj["ev"] == "enable" and obj.get("src") == "auto" and obj["t"] == 518:
            obj["t"] = 519
        out.append(obj)
    out.sort(key=lambda o: o["t"])
    trace_path.write_text("\n".join(json.dumps(o) for o in out) + "\n", encoding="utf-8")
    assert main(["verify", str(scenario_file), str(trace_path)]) == 4
    owed = '{"t":518,"ev":"enable","word":2,"pair":[3,2],"src":"auto","episode":0}'
    assert capsys.readouterr().err.endswith(f", but the run owes {owed}\n")


DONE_OF_2 = '{"t":16,"ev":"done","word":2,"episode":1}'
DONE_OF_1 = '{"t":4,"ev":"done","word":1,"episode":1}'


@pytest.mark.parametrize(
    "line,replacement,reason",
    [
        (DONE_OF_2, [], f"the run owes {DONE_OF_2}"),
        (
            DONE_OF_1,
            [DONE_OF_1, DONE_OF_1],
            'the run owes {"t":6,"ev":"enable","word":3,"src":"cpu","episode":1}',
        ),
        (
            '{"t":36,"ev":"enable","word":1,"src":"cpu","episode":2}',
            ['{"t":37,"ev":"enable","word":1,"src":"cpu","episode":2}'],
            'the run owes {"t":36,"ev":"enable","word":1,"src":"cpu","episode":2}',
        ),
        (DONE_OF_2, ['{"t":17,"ev":"done","word":2,"episode":1}'], f"the run owes {DONE_OF_2}"),
    ],
    ids=["deleted-done", "duplicated-done", "shifted-enable", "shifted-done"],
)
def test_verify_pairs_each_enable_with_its_done(tmp_path, capsys, line, replacement, reason):
    # Each mutant keeps tick order; the first record out of step names the head owed there.
    trace = tmp_path / "worked.trace.jsonl"
    report = tmp_path / "worked.report.json"
    assert main(["run", str(WORKED_EXAMPLE), "--trace", str(trace), "--report", str(report)]) == 0
    lines = trace.read_text(encoding="utf-8").splitlines()
    index = lines.index(line)
    assert index < len(lines) - 1
    lines[index : index + 1] = replacement
    trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["verify", str(WORKED_EXAMPLE), str(trace)]) == 4
    assert f"but {reason}\n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,line,replacement",
    [
        (
            (SCENARIOS / "cycle.scn").read_text(encoding="utf-8"),
            '{"t":413,"ev":"loop_suppressed","word":1,"pair":[2,1],"episode":0}',
            '{"t":413,"ev":"auto_enable_scheduled","word":1,"pair":[2,1],"episode":0}',
        ),
        (
            OVERRIDE_CYCLE,
            '{"t":141,"ev":"override_blocked","word":1,"pair":[2,1],"episode":0}',
            '{"t":141,"ev":"loop_suppressed","word":1,"pair":[2,1],"episode":0}',
        ),
        (
            # parse_trace accepts any stage >= 0; no run writes an override_set with stage 2.
            (SCENARIOS / "override.scn").read_text(encoding="utf-8"),
            '{"t":400,"ev":"override_set","pair":[1,3],"stage":1}',
            '{"t":400,"ev":"override_set","pair":[1,3],"stage":2}',
        ),
    ],
    ids=["cycle-suppressed-as-scheduled", "override-blocked-as-suppressed", "override-stage-2"],
)
def test_verify_requires_the_replay_outcome_the_definition_owes(
    tmp_path, capsys, text, line, replacement
):
    # The traced outcome is one the rules allowed, but not the one owed.
    scenario = tmp_path / "cycle.scn"
    scenario.write_text(text, encoding="utf-8")
    trace = tmp_path / "cycle.trace.jsonl"
    assert main(["run", str(scenario), "--trace", str(trace)]) == 0
    lines = trace.read_text(encoding="utf-8").splitlines()
    lines[lines.index(line)] = replacement
    trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["verify", str(scenario), str(trace)]) == 4
    assert f"the trace has {replacement}, but the run owes {line}\n" in capsys.readouterr().err


WORKED_TEXT = WORKED_EXAMPLE.read_text(encoding="utf-8")
# Word 1 runs from t=0 to t=4, so the probe's enable at t=2 is ignored.
BUSY_PROBE = WORKED_TEXT + "at 2 probe 1\n"


@pytest.mark.parametrize(
    "ran,against,dropped",
    [
        ((SCENARIOS / "negative_control.scn").read_text(encoding="utf-8"), "cycle.scn", None),
        (WORKED_TEXT.replace("gap=2", "gap=3"), "worked_example.scn", None),
        (WORKED_TEXT.replace("start=0", "start=7"), "worked_example.scn", None),
        (BUSY_PROBE, BUSY_PROBE, '{"t":2,"ev":"ignored_enable","word":1,"src":"cpu","episode":1}'),
    ],
    ids=["negative-control-as-cycle", "gap-3", "start-7", "deleted-ignored-cpu-enable"],
)
def test_verify_owes_the_cpu_arrivals_of_its_scenario(tmp_path, capsys, ran, against, dropped):
    # The scenario's plans and probes owe each CPU arrival: a run of another
    # scenario, or a trace without one ignored CPU enable, diverges.
    scenario = tmp_path / "ran.scn"
    scenario.write_text(ran, encoding="utf-8")
    trace = tmp_path / "ran.trace.jsonl"
    assert main(["run", str(scenario), "--trace", str(trace)]) == 0
    if dropped:
        lines = trace.read_text(encoding="utf-8").splitlines()
        lines.remove(dropped)
        trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if against.endswith(".scn"):
        against = (SCENARIOS / against).read_text(encoding="utf-8")
    verified = tmp_path / "against.scn"
    verified.write_text(against, encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", str(verified), str(trace)]) == 4
    assert capsys.readouterr().err.startswith("divergence: record ")


GOOD_ENABLE = '{"t":0,"ev":"enable","word":1,"src":"cpu","episode":0}'


@pytest.mark.parametrize(
    "lines,bad_line,detail",
    [
        (['{"t":0,"ev":"mystery"}'], 1, "unknown event kind"),
        (
            [
                '{"t":0,"ev":"enable","word":"x","src":"cpu","episode":true}',
                '{"t":4,"ev":"done","word":"x","episode":true}',
            ],
            1,
            "bad word",
        ),
        ([GOOD_ENABLE, '{"t":4,"ev":"done","word":1,"episode":[1]}'], 2, "bad episode"),
        (['{"t":0,"ev":"enable","word":1,"src":"cpu","episode":true}'], 1, "bad episode"),
        (['{"t":0,"ev":"enable","word":1,"src":"cpu","episode":-1}'], 1, "bad episode"),
        (['{"t":0,"ev":"enable","word":0,"src":"cpu","episode":0}'], 1, "bad word"),
        (['{"t":0,"ev":"enable","word":null,"src":"cpu","episode":0}'], 1, "bad word"),
        (['{"t":0,"ev":"enable","word":1.0,"src":"cpu","episode":0}'], 1, "bad word"),
        (['{"t":0,"ev":"enable","word":1,"src":null,"episode":0}'], 1, "bad src"),
        ([GOOD_ENABLE, '{"t":3,"ev":"latch_shift","pair":[1,3],"stage":"1"}'], 2, "bad stage"),
        ([GOOD_ENABLE, '{"t":3,"ev":"latch_shift","pair":[1,3],"stage":-1}'], 2, "bad stage"),
        ([GOOD_ENABLE, '{"t":3,"ev":"override_set","pair":[1,3],"stage":false}'], 2, "bad stage"),
        ([GOOD_ENABLE, '{"t":3,"ev":"filter_fire","pair":[0,3]}'], 2, "bad pair"),
        ([GOOD_ENABLE, "\udcfe"], 2, "not UTF-8 text"),
        (["[" * 100_000], 1, "not valid JSON"),
        (['{"t":0,"ev":["enable"],"word":1,"src":"cpu","episode":0}'], 1, "unknown event kind"),
        (['{"t":' + "1" * 5000 + ',"ev":"done","word":1,"episode":0}'], 1, "not valid JSON"),
        ([GOOD_ENABLE + "\x1c", '{"t":0,"ev":"mystery"}'], 2, "unknown event kind"),
        ([GOOD_ENABLE + "\u2028", '{"t":0,"ev":"mystery"}'], 2, "unknown event kind"),
        ([GOOD_ENABLE, "[1, 2]"], 2, "trace line is not an object"),
        (["5"], 1, "trace line is not an object"),
        (
            [GOOD_ENABLE, '{"t":5,"ev":"done","word":1,"episode":0}', "", GOOD_ENABLE],
            4,
            "out-of-order tick 0 after 5",
        ),
        (
            [
                '{"t": 5, "ev": "done", "word": 1, "episode": 0}',
                '{"ev":"done","t":4,"word":2,"episode":1}',
            ],
            2,
            "out-of-order tick 4 after 5",
        ),
    ],
    ids=[
        "unknown-kind",
        "string-word-bool-episode",
        "list-episode",
        "bool-episode",
        "negative-episode",
        "word-zero",
        "null-word",
        "float-word",
        "null-src",
        "string-stage",
        "negative-stage",
        "bool-stage",
        "pair-word-zero",
        "not-utf8",
        "deep-nesting",
        "list-kind",
        "integer-past-the-digit-limit",
        "line-ends-in-file-separator",
        "line-ends-in-line-separator",
        "non-object-array",
        "non-object-number",
        "out-of-order-after-a-blank-line",
        "out-of-order-general-path",
    ],
)
def test_verify_rejects_garbage_trace_as_invalid(
    scenario_file, tmp_path, capsys, lines, bad_line, detail
):
    bad = tmp_path / "bad.jsonl"
    # surrogateescape turns "\udcfe" into the lone byte 0xfe
    bad.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    assert main(["verify", str(scenario_file), str(bad)]) == 1
    captured = capsys.readouterr()
    assert f"malformed trace: line {bad_line}: {detail}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "record",
    [
        TraceRecord(0, "done", word=True, episode=0),
        TraceRecord(0, "enable", word=1, src='c"pu', episode=0),
        TraceRecord(0, 'done"', word=1, episode=0),
    ],
    ids=["bool-word", "quote-in-src", "quote-in-kind"],
)
def test_a_written_record_of_other_values_fails_verify_at_its_line(
    scenario_file, tmp_path, capsys, record
):
    # format_trace writes a field set its kind allows by an f-string, which
    # gives json.dumps's bytes for ints, int pairs and schema strings only;
    # a bool, or a string that needs escaping, is written as it is.
    path = tmp_path / "odd.jsonl"
    write_trace([TraceRecord(0, "enable", word=1, src="cpu", episode=0), record], path)
    assert main(["verify", str(scenario_file), str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: malformed trace: line 2: not valid JSON: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("tick", [4, 9])
def test_verify_rejects_a_repeated_key(scenario_file, capsys, tick):
    # With the same tick repeated, the run's own trace would verify if the
    # last value silently won; with another, it would be another record.
    main(["run", str(scenario_file)])
    trace_path = scenario_file.parent / (scenario_file.name + ".trace.jsonl")
    lines = trace_path.read_text(encoding="utf-8").splitlines()
    assert lines[1] == '{"t":4,"ev":"done","word":1,"episode":1}'
    lines[1] = lines[1][:-1] + f',"t":{tick}}}'
    trace_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["verify", str(scenario_file), str(trace_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: malformed trace: line 2: field 't' repeated\n"
    assert captured.out == ""


def test_a_non_utf8_scenario_error_holds_its_line(tmp_path):
    path = tmp_path / "latin1.scn"
    path.write_bytes(b"fabric words=2 delay1=5 delay2=1 threshold=1\n# caf\xe9\nmaxticks 10\n")
    with closing(memfabric.trace.read_blocks(path)) as blocks, pytest.raises(ParseError) as info:
        memfabric.cli.parse_scenario(blocks)
    assert info.value.line == 2
    assert str(info.value) == (
        "line 2: not UTF-8 text: 'utf-8' codec can't decode byte 0xe9 in position 50: "
        "invalid continuation byte"
    )


@pytest.mark.parametrize("command", ["run", "check", "verify"])
def test_non_utf8_scenario_exits_one_naming_the_line(tmp_path, capsys, command):
    path = tmp_path / "latin1.scn"
    path.write_bytes(b"fabric words=2 delay1=5 delay2=1 threshold=1\n# caf\xe9\nmaxticks 10\n")
    argv = [command, str(path)] + ([str(tmp_path / "absent.jsonl")] if command == "verify" else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: line 2: not UTF-8 text")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["run", "check", "verify"])
def test_a_faulty_line_before_a_non_utf8_one_is_named_first(tmp_path, capsys, command):
    # A byte that is not UTF-8 is a fault of its own line, reported in file order.
    path = tmp_path / "two-faults.scn"
    path.write_bytes(
        b"bogus\nfabric words=2 delay1=5 delay2=1 threshold=1\n# caf\xe9\nmaxticks 10\n"
    )
    argv = [command, str(path)] + ([str(tmp_path / "absent.jsonl")] if command == "verify" else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: line 1: unknown directive 'bogus'\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("char", ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
@pytest.mark.parametrize(
    "bad,message",
    [(b"bogus", "unknown directive 'bogus'"), (b"# caf\xe9", "not UTF-8 text")],
    ids=["unknown-directive", "not-utf8"],
)
def test_scenario_errors_count_only_newlines_as_line_ends(tmp_path, capsys, char, bad, message):
    # str.splitlines also breaks at ``char``, and would name line 4.
    path = tmp_path / "page.scn"
    first = f"fabric words=2 delay1=5 delay2=1 threshold=1 # page{char}\ndur * 2\n"
    path.write_bytes(first.encode() + bad + b"\nmaxticks 10\n")
    assert main(["check", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: line 3: {message}")
    assert captured.out == ""


def test_check_echoes_the_canonical_form(scenario_file, capsys):
    assert main(["check", str(scenario_file)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("fabric words=3 delay1=5 delay2=1 threshold=10 mode=done_enable\n")
    assert "rehearse 1 3 2 reps=10 gap=2 rest=20 start=0" in out
    assert out.endswith("maxticks 2000\n")


def test_check_rejects_unknown_directive(tmp_path, capsys):
    path = tmp_path / "bad.scn"
    path.write_text("sprocket 12\n", encoding="utf-8")
    assert main(["check", str(path)]) == 1
    assert "line 1" in capsys.readouterr().err


def test_check_rejects_spike_wider_than_the_window(tmp_path, capsys):
    path = tmp_path / "bad.scn"
    path.write_text(
        "fabric words=2 delay1=3 delay2=4 threshold=1\ndur * 2\nmaxticks 10\n", encoding="utf-8"
    )
    assert main(["check", str(path)]) == 1
    assert "must not exceed delay1" in capsys.readouterr().err


def test_check_rejects_a_bad_default_duration_no_word_takes(tmp_path, capsys):
    path = tmp_path / "bad.scn"
    path.write_text(
        "fabric words=2 delay1=5 delay2=1 threshold=2\ndur * 0\ndur 1 4\ndur 2 4\nmaxticks 10\n",
        encoding="utf-8",
    )
    assert main(["check", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: line 2: duration of word * must be >= 1, got 0")
    assert captured.out == ""


def _max_ticks_cases(command: str) -> list:
    argv = ["verify", "SCN", "T"] if command == "verify" else ["run", "SCN"]
    prefix = "verify-" if command == "verify" else ""
    return [
        pytest.param([*argv, "--max-ticks", value], f"argument --max-ticks: {message}", id=name)
        for name, value, message in [
            (f"{prefix}max-ticks-zero", "0", "maxticks must be >= 1, got 0"),
            (f"{prefix}max-ticks-negative", "-5", "maxticks must be >= 1, got -5"),
            (f"{prefix}max-ticks-word", "abc", "value is not an integer: 'abc'"),
            (f"{prefix}max-ticks-underscore", "1_0", "value is not an integer: '1_0'"),
            (f"{prefix}max-ticks-leading-space", " 5", "value is not an integer: ' 5'"),
            (f"{prefix}max-ticks-trailing-newline", "5\n", "value is not an integer: '5\\n'"),
            (f"{prefix}max-ticks-leading-tab", "\t5", "value is not an integer: '\\t5'"),
        ]
    ]


@pytest.mark.parametrize(
    "argv,message",
    [
        *_max_ticks_cases("run"),
        *_max_ticks_cases("verify"),
        pytest.param(
            ["run", "SCN", "--max-ticks=0"],
            "argument --max-ticks: maxticks must be >= 1, got 0",
            id="max-ticks-zero-joined",
        ),
        pytest.param(
            ["verify", "SCN"], "the following arguments are required: trace", id="verify-no-trace"
        ),
        pytest.param(
            ["verify"],
            "the following arguments are required: scenario, trace",
            id="verify-no-arguments",
        ),
        pytest.param([], "the following arguments are required: command", id="no-command"),
        pytest.param(
            ["bogus"],
            "argument command: invalid choice: 'bogus' (choose from run, verify, check)",
            id="bogus",
        ),
        pytest.param(
            ["run", "SCN", "--max", "5"], "unrecognized arguments: --max", id="abbreviated-option"
        ),
        pytest.param(
            ["check", "SCN", "--trace", "T"], "unrecognized arguments: --trace", id="foreign-option"
        ),
        pytest.param(
            ["run", "SCN", "--trace"], "argument --trace: expected one argument", id="no-value"
        ),
        pytest.param(
            ["run", "SCN", "--trace", "--report", "R"],
            "argument --trace: expected one argument",
            id="option-for-value",
        ),
        pytest.param(
            ["run", "SCN", "--trace", "a", "--trace=b"],
            "argument --trace: given more than once",
            id="repeated-option",
        ),
        pytest.param(["run", "SCN", "extra"], "unrecognized arguments: extra", id="run-extra"),
        pytest.param(["check", "SCN", "a", "b"], "unrecognized arguments: a b", id="check-extra"),
        pytest.param(["run", ""], "argument scenario: the path is empty", id="run-empty-scenario"),
        pytest.param(
            ["run", "SCN", "--trace", "", "--report", ""],
            "argument --trace: the path is empty",
            id="run-empty-trace",
        ),
        pytest.param(
            ["run", "SCN", "--report="], "argument --report: the path is empty", id="empty-report"
        ),
        pytest.param(
            ["verify", "", "T"], "argument scenario: the path is empty", id="verify-empty-scenario"
        ),
        pytest.param(
            ["verify", "SCN", ""], "argument trace: the path is empty", id="verify-empty-trace"
        ),
        pytest.param(["check", ""], "argument scenario: the path is empty", id="check-empty"),
    ],
)
def test_usage_error_exits_one(scenario_file, capsys, argv, message):
    argv = [str(scenario_file) if arg == "SCN" else arg for arg in argv]
    names = sorted(scenario_file.parent.iterdir())
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1] == f"error: {message}"
    assert captured.err.startswith("usage: memfabric run SCENARIO")
    assert captured.out == ""
    assert sorted(scenario_file.parent.iterdir()) == names


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["-h", "bogus"],
        ["run", "-h"],
        ["verify", "SCN", "--help"],
        ["run", "SCN", "--max-ticks", "0", "-h"],
        ["check", "SCN", "extra", "--help"],
    ],
)
def test_help_exits_zero(scenario_file, capsys, argv):
    argv = [str(scenario_file) if arg == "SCN" else arg for arg in argv]
    names = sorted(scenario_file.parent.iterdir())
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == (
        "usage: memfabric run SCENARIO [--trace TRACE] [--report REPORT] [--max-ticks MAX-TICKS]\n"
        "           simulate; write trace + report\n"
        "       memfabric verify SCENARIO TRACE [--max-ticks MAX-TICKS]\n"
        "           cross-check a trace with the oracle\n"
        "       memfabric check SCENARIO\n"
        "           parse and validate; echo the canonical form\n"
    )
    assert captured.err == ""
    assert sorted(scenario_file.parent.iterdir()) == names


def test_run_takes_joined_option_values_and_options_before_the_scenario(scenario_file, tmp_path):
    spellings = [
        ["{scn}", "--trace", "{out}.trace", "--report", "{out}.report"],
        ["{scn}", "--trace={out}.trace", "--report={out}.report"],
        ["--report", "{out}.report", "--trace={out}.trace", "{scn}"],
        ["--trace", "{out}.trace", "{scn}", "--max-ticks", "2000", "--report", "{out}.report"],
        ["--trace", "{out}.trace", "--report", "{out}.report", "--", "{scn}"],
    ]
    outputs = set()
    for index, spelling in enumerate(spellings):
        out = tmp_path / str(index)
        argv = [arg.format(scn=scenario_file, out=out) for arg in spelling]
        assert main(["run", *argv]) == 0
        outputs.add((Path(f"{out}.trace").read_bytes(), Path(f"{out}.report").read_bytes()))
    assert len(outputs) == 1


# Modules the package needs none of: a command that imports one pays for it on
# every run. argparse's first call imports shutil and locale (through gettext);
# dataclasses imports inspect, which imports ast.
UNUSED_MODULES = [
    "argparse", "ast", "dataclasses", "gettext", "inspect", "locale", "pathlib", "shutil",
    "typing",
]
CLI_CHILD = """
import sys
before = set(sys.modules)
from memfabric.cli import main
scenario, trace, report = sys.argv[1:4]
codes = [
    main(["run", scenario, "--trace", trace, "--report", report]),
    main(["verify", scenario, trace]),
    main(["check", scenario]),
    main(["run", scenario, "--max", "5"]),
]
loaded = set(sys.argv[4:]) & (set(sys.modules) - before)
print(codes, sorted(loaded), file=sys.stderr)
"""


def test_no_command_imports_what_it_does_not_run(scenario_file):
    trace, report = scenario_file.with_suffix(".jsonl"), scenario_file.with_suffix(".json")
    proc = subprocess.run(
        [*python_command(), "-S", "-c", CLI_CHILD, str(scenario_file), str(trace), str(report)]
        + UNUSED_MODULES,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        encoding="utf-8",
    )
    assert proc.stderr.splitlines()[-1] == "[0, 0, 0, 1] []"


@pytest.mark.parametrize(
    "tail, fault",
    [
        (b"", "not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        (
            b"\xff",
            "not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 1048576: "
            "invalid start byte",
        ),
    ],
)
def test_verify_locates_the_fault_of_a_long_line_read_in_small_blocks(
    scenario_file, tmp_path, capsys, tail, fault
):
    # A first line of 1 MiB with no newline, read 16 bytes at a time: the reader
    # joins its 65,536 reads once; copying the line on each read took seconds.
    trace = tmp_path / "long.trace.jsonl"
    trace.write_bytes(b"x" * 2**20 + tail)
    with mock.patch.object(memfabric.trace, "_READ_BLOCK", 16):
        assert main(["verify", str(scenario_file), str(trace)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: malformed trace: line 1: {fault}\n")


def test_check_warns_on_stderr_for_gap_beyond_delay1(tmp_path, capsys):
    path = tmp_path / "warn.scn"
    path.write_text(
        "fabric words=2 delay1=5 delay2=1 threshold=3\n"
        "dur * 4\n"
        "rehearse 1 2 reps=5 gap=6 rest=6 start=0\n"
        "maxticks 1000\n",
        encoding="utf-8",
    )
    assert main(["check", str(path)]) == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err
    assert "warning" not in captured.out


def test_console_entry_point_runs_as_a_module(scenario_file, tmp_path):
    proc = subprocess.run(
        [*python_command(), "-m", "memfabric.cli", "run", str(scenario_file)],
        capture_output=True,
        text=True,
        encoding="utf-8",
    )
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert (scenario_file.parent / (scenario_file.name + ".trace.jsonl")).exists()


def _commands_under_hash_seed(seed: int, workdir: Path) -> list:
    """Exit code, stdout and stderr of run, verify, and verify against the next
    scenario, and the trace and report bytes, for every shipped scenario."""
    workdir.mkdir()
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    scenarios = sorted(SCENARIOS.glob("*.scn"))
    seen = []
    for scenario, other in zip(scenarios, scenarios[1:] + scenarios[:1]):
        trace, report = f"{scenario.stem}.trace.jsonl", f"{scenario.stem}.report.json"
        for argv in (
            ["run", str(scenario), "--trace", trace, "--report", report],
            ["verify", str(scenario), trace],
            ["verify", str(other), trace],
        ):
            proc = subprocess.run(
                [*python_command(), "-m", "memfabric.cli", *argv],
                cwd=workdir,
                env=env,
                capture_output=True,
            )
            seen.append((argv, proc.returncode, proc.stdout, proc.stderr))
        seen.append(((workdir / trace).read_bytes(), (workdir / report).read_bytes()))
    return seen


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # String hashes change with PYTHONHASHSEED; no set or dict keyed by
    # strings may reach the order of anything a command writes.
    seen = _commands_under_hash_seed(0, tmp_path / "0")
    assert [entry[1] for entry in seen[:2]] == [0, 0]
    assert seen == _commands_under_hash_seed(1, tmp_path / "1")


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
@pytest.mark.parametrize("code", [0, 1, 4])
def test_main_pauses_gc_and_restores_the_state_it_found(
    scenario_file, monkeypatch, capsys, enabled, code
):
    trace_path = scenario_file.parent / (scenario_file.name + ".trace.jsonl")
    argv = ["run", str(scenario_file)]
    if code == 1:
        scenario_file.write_text("maxticks 10\n", encoding="utf-8")
    elif code == 4:
        main(argv)
        lines = trace_path.read_text(encoding="utf-8").splitlines()
        kept = "".join(f"{line}\n" for line in lines if '"learned"' not in line)
        trace_path.write_text(kept, encoding="utf-8")
        argv = ["verify", str(scenario_file), str(trace_path)]
    # The command reads its scenario first, with the collector paused.
    during = []
    parse = memfabric.cli.parse_scenario
    monkeypatch.setattr(
        memfabric.cli, "parse_scenario", lambda text: during.append(gc.isenabled()) or parse(text)
    )
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(argv) == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert during == [False]


@pytest.mark.parametrize("name", sorted(path.name for path in SCENARIOS.glob("*.scn")))
def test_a_dropped_run_is_freed_without_the_cyclic_collector(name):
    # Nothing in a run refers back to its simulation, also when a tick limit
    # leaves plans suspended mid-rehearsal, and verify_run's model of the run,
    # left suspended by a trace cut short or lengthened mid-run, holds no cycle
    # either: reference counting frees both, also while main pauses the
    # collector.
    scenario = parse_scenario((SCENARIOS / name).read_text(encoding="utf-8"))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        result = run_scenario(scenario)
        records = result.records
        simulation = weakref.ref(result.simulation)
        del result
        assert simulation() is None
        cut = run_scenario(scenario, max_tick=30)
        assert not cut.outcome.quiescent and cut.simulation.driver.unfinished_plans() > 0
        simulation = weakref.ref(cut.simulation)
        del cut
        assert simulation() is None
        half = len(records) // 2
        assert verify_run(scenario, records) == []
        assert "no more records" in verify_run(scenario, records[:half])[0]
        lengthened = records[:half] + records[half - 1 :]
        assert f"record {half + 1}: " in verify_run(scenario, lengthened)[0]
        assert gc.collect() == 0
    finally:
        (gc.enable if was_enabled else gc.disable)()


# -- the module globals the per-layer benchmark wraps ----------------------


def spy(monkeypatch, module, name: str, calls: list) -> None:
    """Route calls of ``module.name`` through a wrapper that logs them."""
    function = getattr(module, name)

    def logged(*args, **kwargs):
        calls.append(name)
        return function(*args, **kwargs)

    monkeypatch.setattr(module, name, logged)


def test_verify_calls_the_module_globals_the_benchmark_times(scenario_file, monkeypatch):
    # perfbench/child.py times the trace decode and the oracle by wrapping
    # these globals; a verify that bypassed one would read zero time there.
    assert main(["run", str(scenario_file)]) == 0
    calls = []
    spy(monkeypatch, memfabric.cli, "parse_trace", calls)
    spy(monkeypatch, memfabric.cli, "verify_run", calls)
    spy(monkeypatch, memfabric.oracle, "detection_ticks", calls)
    trace = scenario_file.parent / (scenario_file.name + ".trace.jsonl")
    assert main(["verify", str(scenario_file), str(trace)]) == 0
    assert calls == ["parse_trace", "verify_run", "detection_ticks"]


def test_run_formats_the_trace_through_format_trace_once_per_batch(scenario_file, monkeypatch):
    batches = []
    format_trace = memfabric.trace.format_trace

    def format_batch(records):
        batches.append(len(records))
        return format_trace(records)

    monkeypatch.setattr(memfabric.trace, "format_trace", format_batch)
    monkeypatch.setattr(memfabric.trace, "_WRITE_BATCH", 10)
    assert main(["run", str(scenario_file)]) == 0
    count = len(run_scenario(parse_scenario(scenario_file.read_text(encoding="utf-8"))).records)
    assert count > 2 * 10
    assert batches == [10] * (count // 10) + ([count % 10] if count % 10 else [])


def capped_child(mib: int) -> str:
    """A child's source that caps its own address space at ``mib`` MiB before
    it imports the package, then runs ``main`` on its arguments."""
    return f"""
import resource, sys
cap = {mib} << 20
resource.setrlimit(resource.RLIMIT_AS, (cap, resource.getrlimit(resource.RLIMIT_AS)[1]))
from memfabric.cli import main
sys.exit(main(sys.argv[1:]))
"""


# Each command runs in a child that caps its own address space; no other
# process is capped.
CAPPED_CHILD = capped_child(512)


def test_a_fabric_of_a_billion_words_costs_only_its_named_words(tmp_path):
    # A fabric's size costs nothing until its words are named: check, run and
    # verify of a 2-word plan in a K = 10**9 fabric each fit in 512 MiB, and
    # none steps through the words (10**9 steps would pass the timeout).
    text = (
        "fabric words=1000000000 delay1=5 delay2=1 threshold=2 mode=done_enable\n"
        "dur * 4\n"
        "dur 999999999 7\n"
        "rehearse 1 2 reps=2 gap=1 rest=10 start=0\n"
        "at 100 probe 1\n"
        "maxticks 1000\n"
    )
    scenario, trace = tmp_path / "huge.scn", tmp_path / "huge.trace.jsonl"
    scenario.write_text(text, encoding="utf-8")
    commands = [
        ["check", str(scenario)],
        ["run", str(scenario), "--trace", str(trace)],
        ["verify", str(scenario), str(trace)],
    ]
    for argv in commands:
        proc = subprocess.run(
            [*python_command(), "-c", CAPPED_CHILD, *argv],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True,
            text=True,
            encoding="utf-8",
            timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, ""), argv
        if argv[0] == "check":
            assert proc.stdout == text
    assert trace.read_text(encoding="utf-8").count("\n") == 20


def test_a_command_that_runs_out_of_memory_exits_2_with_one_line(tmp_path):
    # A legal run whose plan outgrows memory, and a trace of one 90 MB line
    # (a sparse file: no disk is written), each in a child capped at 128 MiB.
    # Exit 2 tells them apart from a parse error's 1, and the handler is left
    # before the line is printed, so the run's frames are freed first.
    scenario = tmp_path / "long.scn"
    scenario.write_text(
        "fabric words=2 delay1=5 delay2=1 threshold=1\n"
        "dur * 1\n"
        "rehearse 1 2 reps=100000000 gap=0 rest=0 start=0\n"
        "maxticks 1000000000000\n",
        encoding="utf-8",
    )
    trace = tmp_path / "one_line.trace.jsonl"
    with open(trace, "wb") as f:
        f.truncate(90_000_000)
    outputs = ["--trace", str(tmp_path / "long.trace.jsonl"), "--report", str(tmp_path / "r.json")]
    for argv in (["run", str(scenario), *outputs], ["verify", str(WORKED_EXAMPLE), str(trace)]):
        proc = subprocess.run(
            [*python_command(), "-c", capped_child(128), *argv],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True,
            text=True,
            encoding="utf-8",
            timeout=60,
        )
        assert proc.returncode == 2, argv
        assert (proc.stdout, proc.stderr) == ("", "error: out of memory\n"), argv
