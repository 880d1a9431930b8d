"""Scenario DSL parsing, canonical printing, trace and report output."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import pickle
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import memfabric.trace
from memfabric import (
    QUIESCENT,
    TICK_LIMIT,
    EpisodeSummary,
    OverrideDirective,
    ParseError,
    Probe,
    RehearsalPlan,
    Report,
    Scenario,
    ScenarioError,
    SelfPairError,
    TraceRecord,
    UnknownWordError,
    ValidationError,
    build_report,
    canonical_scenario,
    format_report,
    format_trace,
    parse_scenario,
    parse_trace,
    run_scenario,
    verify_run,
)
from memfabric.cli import main
from memfabric.fabric import FabricConfig
from memfabric.trace import EV_LEARNED, read_blocks, split_lines
from conftest import ODD_CHARS, assert_every_path_checks, run_text, with_odd_chars


def test_worked_example_parses(worked_example_text):
    scenario = parse_scenario(worked_example_text)
    cfg = scenario.config
    assert (cfg.word_count, cfg.delay1, cfg.delay2, cfg.threshold) == (3, 5, 1, 10)
    assert cfg.filter_mode == "done_enable"
    assert cfg.durations == {1: 4, 2: 4, 3: 4}
    assert scenario.plans == (
        RehearsalPlan(sequence=(1, 3, 2), reps=10, gap=2, rest=20, start=0),
    )
    assert scenario.probes == (Probe(tick=500, word=1),)
    assert scenario.max_tick == 2000
    assert scenario.warnings == ()


def test_comments_and_blank_lines_are_skipped():
    text = (
        "# a fabric\n"
        "fabric words=2 delay1=5 delay2=1 threshold=1\n"
        "\n"
        "dur * 4  # all words\n"
        "maxticks 100\n"
    )
    scenario = parse_scenario(text)
    assert scenario.config.word_count == 2


@pytest.mark.parametrize(
    "line,lineno,error,fragment",
    [
        ("frobnicate 1 2", 3, ParseError, "unknown directive"),
        ("fabric words=2 delay1=5 delay2=1 threshold=1 bogus=7", 1, ParseError, "unknown argument"),
        ("fabric words=2 delay1=5 delay2=1", 1, ParseError, "missing argument"),
        ("at 5 poke 1", 3, ParseError, "unknown action"),
        ("dur two 4", 3, ParseError, "not an integer"),
        ("at 5 override 1 2 ajar", 3, ParseError, "open or closed"),
        ("rehearse 1 2 reps=1_0 gap=0 rest=0 start=0", 3, ParseError, "not an integer"),
        ("fabric words=\u0663 delay1=5 delay2=1 threshold=1", 1, ParseError, "not an integer"),
        ("fabric words=2 delay1=5 delay2=1 threshold=1 mode", 1, ParseError, "expected key=value"),
        ("rehearse 1 2 reps=1 gap=0 rest=0 start=0 reps=2", 3, ParseError, "duplicate argument"),
        ("rehearse 1 2 reps= gap=0 rest=0 start=0", 3, ParseError, "empty value"),
        ("dur 1", 3, ParseError, "dur takes exactly two arguments"),
        ("dur * 5", 3, ParseError, "duplicate default duration"),
        ("dur 1 5\ndur 1 6", 4, ParseError, "duplicate duration for word 1"),
        ("at 5", 3, ParseError, "at directive needs a tick and an action"),
        ("at 5 probe 1 2", 3, ParseError, "probe takes exactly one word id"),
        ("at 5 override 1 2", 3, ParseError, "override takes two word ids"),
        ("maxticks 50", 4, ParseError, "duplicate maxticks directive"),
        ("maxticks 50 60", 3, ParseError, "maxticks takes exactly one value"),
        pytest.param(
            "at " + "9" * 5000 + " probe 1", 3, ParseError, "tick is not an integer", id="overlong-tick"
        ),
        # An at line's word-id token is converted once per parse; one that fails is never kept.
        ("at 5 probe x\nat 6 probe x", 3, ParseError, "word id is not an integer"),
        ("at 5 override 1 x open\nat 6 override 1 x open", 3, ParseError, "word id is not an integer"),
        pytest.param(
            "at 5 probe " + "9" * 5000, 3, ParseError, "word id is not an integer", id="overlong-word-id"
        ),
        ("at -1 probe 1", 3, ValidationError, "probe tick must be >= 0"),
        ("at -1 override 1 2 open", 3, ValidationError, "override tick must be >= 0"),
    ],
)
def test_syntax_errors_name_the_line(line, lineno, error, fragment):
    text = f"fabric words=2 delay1=5 delay2=1 threshold=1\ndur * 4\n{line}\nmaxticks 100\n"
    if line.startswith("fabric"):
        text = f"{line}\ndur * 4\nmaxticks 100\n"
    with pytest.raises(error) as info:
        parse_scenario(text)
    assert fragment in str(info.value)
    assert str(info.value).startswith(f"line {lineno}: ")


def test_duplicate_fabric_directive_is_an_error():
    text = (
        "fabric words=2 delay1=5 delay2=1 threshold=1\n"
        "fabric words=3 delay1=5 delay2=1 threshold=1\n"
        "dur * 4\nmaxticks 100\n"
    )
    with pytest.raises(ParseError, match="line 2"):
        parse_scenario(text)


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("dur * 4\nmaxticks 10\n", None, "missing fabric"),
        ("fabric words=2 delay1=5 delay2=1 threshold=1\ndur * 4\n", None, "missing maxticks"),
        (
            "fabric words=1 delay1=5 delay2=1 threshold=1\ndur * 4\nmaxticks 10\n",
            1,
            "at least 2 words",
        ),
        (
            "fabric words=2 delay1=5 delay2=6 threshold=1\ndur * 4\nmaxticks 10\n",
            1,
            "must not exceed delay1",
        ),
        ("fabric words=2 delay1=5 delay2=1 threshold=1\nmaxticks 10\n", 1, "no duration"),
        (
            "fabric words=2 delay1=5 delay2=1 threshold=1\ndur 1 4\nmaxticks 10\n",
            1,
            "no duration for word 2",
        ),
        (
            "fabric words=3 delay1=5 delay2=1 threshold=1\ndur * 4\nmaxticks 10\ndur 2 -1\n",
            4,
            "duration of word 2 must be >= 1, got -1",
        ),
        (
            "fabric words=2 delay1=5 delay2=1 threshold=1\ndur * 0\nmaxticks 10\n",
            2,
            "duration of word * must be >= 1, got 0",
        ),
        (
            "fabric words=2 delay1=5 delay2=1 threshold=1\ndur * 4\n"
            "rehearse 1 3 1 2 reps=1 gap=0 rest=0 start=0\nmaxticks 10\n",
            3,
            "word 1 repeats",
        ),
        (
            "fabric words=2 delay1=5 delay2=1 threshold=1\ndur * 4\n"
            "rehearse 1 5 reps=1 gap=0 rest=0 start=0\nmaxticks 10\n",
            3,
            "outside 1..2",
        ),
        (
            "fabric words=2 delay1=5 delay2=1 threshold=1\ndur * 4\n"
            "at 5 probe 9\nmaxticks 10\n",
            3,
            "outside 1..2",
        ),
        (
            "fabric words=3 delay1=5 delay2=1 threshold=1\ndur * 4\n"
            "rehearse 0 1 reps=1 gap=0 rest=0 start=0\nmaxticks 10\n",
            3,
            "line 3: word 0 outside 1..3",
        ),
        (
            "fabric words=2 delay1=5 delay2=1 threshold=1\ndur * 4\n"
            "at 5 override 1 1 open\nmaxticks 10\n",
            3,
            "self pair",
        ),
        (
            "fabric words=2 delay1=5 delay2=1 threshold=1\ndur * 4\nmaxticks 0\n",
            3,
            "line 3: maxticks must be >= 1, got 0",
        ),
        # ``dur *`` is checked even when every word has a duration of its own.
        (
            "fabric words=2 delay1=5 delay2=1 threshold=2\ndur * 0\ndur 1 4\ndur 2 4\n"
            "maxticks 10\n",
            2,
            "line 2: duration of word * must be >= 1, got 0",
        ),
        # Of the plans, probes and overrides, the first faulty one in file order
        # is named, whatever its kind.
        (
            "fabric words=3 delay1=5 delay2=1 threshold=1\ndur * 4\nat 5 probe 9\nmaxticks 10\n"
            "rehearse 1 7 reps=1 gap=0 rest=0 start=0\n",
            3,
            "line 3: word 9 outside 1..3",
        ),
        (
            "fabric words=3 delay1=5 delay2=1 threshold=1\ndur * 4\nat 5 override 2 2 open\n"
            "at 6 probe 9\nmaxticks 10\n",
            3,
            "line 3: pair (2, 2) is a self pair",
        ),
        # A line's own faults are reported first, in file order, and before
        # the rules that need the whole file (here word 1's missing duration).
        (
            "fabric words=2 delay1=5 delay2=1 threshold=1\ndur * 4\n"
            "rehearse 1 2 1 reps=1 gap=0 rest=0 start=0\nmaxticks 10\nfrobnicate\n",
            3,
            "line 3: word 1 repeats",
        ),
        (
            "fabric words=2 delay1=5 delay2=1 threshold=1\ndur 2 4\nmaxticks 10\n"
            "rehearse 1 reps=1 gap=0 rest=0 start=0\n",
            4,
            "line 4: a plan needs at least 2 words",
        ),
        # A duration is a fault of its own line, before the word range of the
        # line and before any later line.
        (
            "fabric words=2 delay1=5 delay2=1 threshold=1\ndur 2 0\ndur * 4\nmaxticks 10\nbogus\n",
            2,
            "line 2: duration of word 2 must be >= 1, got 0",
        ),
        (
            "fabric words=2 delay1=5 delay2=1 threshold=1\ndur * 4\ndur 9 0\nmaxticks 10\n",
            3,
            "line 3: duration of word 9 must be >= 1, got 0",
        ),
        # A dur line's word outside the fabric is named at its own line, after
        # the config's faults; the least word with no duration is named at the
        # fabric line. Neither costs a step per word of the fabric.
        (
            "fabric words=3 delay1=5 delay2=1 threshold=1\ndur * 4\ndur 9 4\nmaxticks 10\n",
            3,
            "line 3: word 9 outside 1..3",
        ),
        (
            "fabric words=1000000000 delay1=5 delay2=1 threshold=1\ndur * 4\ndur 2 5\n"
            "dur 1000000001 4\nmaxticks 10\n",
            4,
            "line 4: word 1000000001 outside 1..1000000000",
        ),
        (
            "fabric words=1000000000 delay1=5 delay2=1 threshold=1\ndur 2 4\ndur 1 4\n"
            "dur 1000000009 4\ndur 0 4\nmaxticks 10\n",
            1,
            "line 1: no duration for word 3",
        ),
    ],
)
def test_semantic_errors_are_rejected(text, line, fragment):
    with pytest.raises(ValidationError) as info:
        parse_scenario(text)
    message = str(info.value)
    assert info.value.line == line
    if line is None:
        assert not message.startswith("line ")
    else:
        assert message.startswith(f"line {line}: ")
    assert fragment in message


SHIPPED_SCENARIOS = [
    path.read_text(encoding="utf-8")
    for path in sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.scn"))
]
EDIT_TOKENS = [
    "-1", "0", "*", "=", "x=1", "reps=0", "start=", "\u0663", "1_0",
    "fabric", "dur", "rehearse", "at", "maxticks", "probe", "override", "open", "closed",
]


@st.composite
def edited_scenarios(draw, texts=st.sampled_from(SHIPPED_SCENARIOS), least_edits=1):
    """One of ``texts`` (a shipped scenario by default), comments dropped,
    after ``least_edits`` (by default one) to two token replacements,
    insertions or deletions, or line copies."""
    text = draw(texts)
    lines = [line.split("#", 1)[0].split() for line in text.splitlines()]
    for _ in range(draw(st.integers(min_value=least_edits, max_value=2))):
        kind = draw(st.sampled_from(["replace", "insert", "delete", "copy"]))
        tokens = lines[draw(st.integers(min_value=0, max_value=len(lines) - 1))]
        if kind == "copy":
            lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), list(tokens))
        elif kind == "insert":
            at = draw(st.integers(min_value=0, max_value=len(tokens)))
            tokens.insert(at, draw(st.sampled_from(EDIT_TOKENS)))
        elif tokens:
            at = draw(st.integers(min_value=0, max_value=len(tokens) - 1))
            if kind == "replace":
                tokens[at] = draw(st.sampled_from(EDIT_TOKENS))
            else:
                del tokens[at]
    return "\n".join(" ".join(tokens) for tokens in lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(edited_scenarios())
def test_edited_scenarios_parse_or_fail_with_a_located_message(tmp_path_factory, text):
    """Malformed input ends in a located error and exit 1, never a traceback."""
    try:
        scenario = parse_scenario(text)
    except ScenarioError as exc:
        scenario = None
        message = str(exc)
        if exc.line is None:
            assert message in ("missing fabric directive", "missing maxticks directive")
        else:
            assert 1 <= exc.line <= len(split_lines(text))
            assert message.startswith(f"line {exc.line}: ")
    else:
        assert parse_scenario(canonical_scenario(scenario)) == scenario
    path = tmp_path_factory.getbasetemp() / "edited.scn"
    path.write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["check", str(path)]) == (1 if scenario is None else 0)


SHIPPED = [parse_scenario(text) for text in SHIPPED_SCENARIOS]


# Values that are not ints but pass for one: a bool or a float equals an int
# or lies between two, and "1" prints as one.
NOT_INTS = [True, False, 1.0, 0.5, "1"]


@st.composite
def one_value_edits(draw):
    """What is edited, and a function that builds the edited shipped scenario by
    ``_replace``: one integer field of a plan, probe, override or config (a
    plan word, a duration or a duration's word among them) or the tick limit,
    set to a small int or to one of ``NOT_INTS``; an override's switch; or a
    smaller fabric (with its durations cut to its words, or not)."""
    part_kinds = ["plans", "probes", "overrides"]
    kind = draw(st.sampled_from(["config", "word_count", "max_tick", *part_kinds]))
    having = [i for i, s in enumerate(SHIPPED) if kind not in part_kinds or getattr(s, kind)]
    index = draw(st.sampled_from(having))
    scenario = SHIPPED[index]
    config = scenario.config

    def ints(least: int, most: int):
        return st.integers(min_value=least, max_value=most) | st.sampled_from(NOT_INTS)

    words = ints(-1, config.word_count + 2)
    ticks = ints(-1, scenario.max_tick + 2)
    if kind == "max_tick":
        max_tick = draw(ticks)
        return f"shipped[{index}] max_tick={max_tick!r}", lambda: scenario._replace(
            max_tick=max_tick
        )
    if kind == "word_count":
        count = draw(st.integers(min_value=1, max_value=config.word_count - 1))
        durations = config.durations
        if draw(st.booleans()):
            durations = {w: d for w, d in durations.items() if w <= count}
        what = f"config word_count={count} durations={dict(durations)}"
        return f"shipped[{index}] {what}", lambda: scenario._replace(
            config=config._replace(word_count=count, durations=durations)
        )
    if kind == "config":
        field = draw(st.sampled_from(["delay1", "delay2", "threshold", "duration", "word"]))
        if field in ("duration", "word"):
            word = draw(st.integers(min_value=1, max_value=config.word_count))
            durations = dict(config.durations)
            if field == "duration":
                durations[word] = draw(ints(0, 9))
            else:  # the word's duration under another key
                durations[draw(words)] = durations.pop(word)
            values = {"durations": durations}
        else:
            values = {field: draw(ints(0, config.delay1 + 1))}
        return f"shipped[{index}] config {values}", lambda: scenario._replace(
            config=config._replace(**values)
        )
    parts = getattr(scenario, kind)
    at = draw(st.integers(min_value=0, max_value=len(parts) - 1))
    part = parts[at]
    if kind == "plans":
        field = draw(st.sampled_from(["sequence", "reps", "gap", "rest", "start"]))
        if field == "sequence":
            pos = draw(st.integers(min_value=0, max_value=len(part.sequence) - 1))
            values = {"sequence": part.sequence[:pos] + (draw(words),) + part.sequence[pos + 1 :]}
        else:
            values = {field: draw(ints(-1, 3) if field == "reps" else ticks)}
    elif kind == "probes":
        values = {"tick": draw(ticks)} if draw(st.booleans()) else {"word": draw(words)}
    else:
        field = draw(st.sampled_from(["tick", "i", "j", "is_open"]))
        if field == "is_open":
            values = {"is_open": draw(st.sampled_from([0, 1, 2, True, False]))}
        else:
            values = {field: draw(ticks if field == "tick" else words)}
    return f"shipped[{index}] {kind}[{at}] {values}", lambda: scenario._replace(
        **{kind: parts[:at] + (part._replace(**values),) + parts[at + 1 :]}
    )


@settings(max_examples=150, deadline=None)
@given(one_value_edits())
def test_a_scenario_that_builds_runs_verifies_and_round_trips(edit):
    """Every construction path checks the whole scenario: an edit that builds
    runs, verifies against its own trace, writes a trace that decodes to the
    records it was written from, and prints text that parses back."""
    _, build = edit
    try:
        scenario = build()
    except ValueError:
        return
    records = run_scenario(scenario).records
    assert verify_run(scenario, records) == []
    assert parse_trace(format_trace(records)) == records
    assert parse_scenario(canonical_scenario(scenario)) == scenario


def test_gap_beyond_delay1_warns_but_parses():
    text = (
        "fabric words=2 delay1=5 delay2=1 threshold=3\n"
        "dur * 4\n"
        "rehearse 1 2 reps=5 gap=6 rest=6 start=0\n"
        "maxticks 1000\n"
    )
    scenario = parse_scenario(text)
    assert len(scenario.warnings) == 1
    assert "gap=6 exceeds delay1=5" in scenario.warnings[0]


def test_per_word_duration_overrides_the_default():
    text = (
        "fabric words=3 delay1=5 delay2=1 threshold=1\n"
        "dur * 4\n"
        "dur 2 9\n"
        "maxticks 10\n"
    )
    scenario = parse_scenario(text)
    assert scenario.config.durations == {1: 4, 2: 9, 3: 4}


def test_parsed_scenario_survives_pickle_and_deepcopy():
    text = (
        "fabric words=3 delay1=5 delay2=1 threshold=2 mode=done_done\n"
        "dur * 4\n"
        "dur 2 9\n"
        "rehearse 1 2 reps=2 gap=1 rest=10 start=0\n"
        "at 40 probe 1\n"
        "at 30 override 1 2 open\n"
        "maxticks 100\n"
    )
    scenario = parse_scenario(text)
    for copied in (pickle.loads(pickle.dumps(scenario)), copy.deepcopy(scenario)):
        assert copied == scenario
        assert copied.config.durations == {1: 4, 2: 9, 3: 4}
        with pytest.raises(TypeError):
            copied.config.durations[1] = 5
        assert run_scenario(copied).records == run_scenario(scenario).records
    durations = scenario.config._asdict()["durations"]
    assert durations == {1: 4, 2: 9, 3: 4}
    with pytest.raises(TypeError):
        copy.copy(durations)[1] = 5


def test_every_way_to_build_an_override_checks_it():
    directive = OverrideDirective(tick=0, i=1, j=2, is_open=True)
    for tick in (-1, True, 1.0):
        assert_every_path_checks(directive, "tick", tick, ValueError)
    for switch in (2, 1, 0, None):  # run and verify_run would read 2 differently
        assert_every_path_checks(directive, "is_open", switch, ValueError)


@pytest.mark.parametrize(
    "field, bad, error",
    [
        ("plans", (RehearsalPlan((1, 4), reps=1, gap=0, rest=0, start=0),), UnknownWordError),
        ("probes", (Probe(tick=5, word=0),), UnknownWordError),
        # a word with no hash, built in the test so that no other case depends on it
        (
            "plans",
            lambda: (RehearsalPlan(([1], 3), reps=1, gap=0, rest=0, start=0),),
            UnknownWordError,
        ),
        ("overrides", (OverrideDirective(tick=5, i=4, j=1, is_open=True),), UnknownWordError),
        ("overrides", (OverrideDirective(tick=5, i=2, j=2, is_open=True),), SelfPairError),
        ("config", FabricConfig(2, 5, 1, 3, {1: 4, 2: 4}), UnknownWordError),
        # a part of another slot's kind, or a config that is no FabricConfig
        ("plans", (Probe(tick=0, word=1),), TypeError),
        ("plans", ((1, 3),), TypeError),
        ("probes", (OverrideDirective(tick=5, i=2, j=3, is_open=True),), TypeError),
        ("overrides", (Probe(tick=5, word=1),), TypeError),
        ("config", {"word_count": 3}, TypeError),
    ]
    + [  # a word equal to a word of the fabric, but no int
        (field, (part,), UnknownWordError)
        for bad in (True, 1.0)
        for field, part in [
            ("plans", RehearsalPlan((bad, 3), reps=1, gap=0, rest=0, start=0)),
            ("probes", Probe(tick=5, word=bad)),
            ("overrides", OverrideDirective(tick=5, i=bad, j=2, is_open=True)),
            ("overrides", OverrideDirective(tick=5, i=2, j=bad, is_open=True)),
        ]
    ],
)
def test_every_way_to_build_a_scenario_checks_the_words_of_its_parts(field, bad, error):
    bad = bad() if callable(bad) else bad
    text = (
        "fabric words=3 delay1=5 delay2=1 threshold=3\n"
        "dur * 4\n"
        "rehearse 1 3 reps=5 gap=2 rest=6 start=0\n"
        "at 5 override 2 3 open\n"
        "at 50 probe 1\n"
        "maxticks 1000\n"
    )
    assert_every_path_checks(parse_scenario(text), field, bad, error)


def test_a_scenario_names_the_slot_or_config_of_another_kind():
    config = FabricConfig(3, 5, 1, 3, {1: 4, 2: 4, 3: 4})
    override = OverrideDirective(tick=5, i=2, j=3, is_open=True)
    with pytest.raises(TypeError, match=r"^probes holds only Probes, got OverrideDirective\(tick=5,"):
        Scenario(config, (), (Probe(tick=0, word=1), override), (), 100)
    with pytest.raises(TypeError, match=r"^config is not a FabricConfig: \{'word_count': 3\}$"):
        Scenario({"word_count": 3}, (), (), (), 100)


def test_every_way_to_build_a_scenario_checks_its_tick_limit():
    text = (
        "fabric words=2 delay1=5 delay2=1 threshold=3\n"
        "dur * 4\n"
        "rehearse 1 2 reps=5 gap=6 rest=6 start=0\n"
        "maxticks 1000\n"
    )
    scenario = parse_scenario(text)
    for bad in (0, True, 2.0):
        assert_every_path_checks(scenario, "max_tick", bad, ValueError)
    for copied in (scenario._replace(), pickle.loads(pickle.dumps(scenario))):
        assert copied.warnings == scenario.warnings != ()
    # equality leaves the warnings out, as it does the text's comments
    unwarned = scenario._replace(warnings=())
    assert unwarned == scenario and not unwarned != scenario
    assert scenario != scenario._replace(max_tick=999)


def test_a_scenario_keeps_its_parts_as_tuples(worked_example_text):
    scenario = parse_scenario(worked_example_text)
    config, plans, probes, overrides, max_tick, _ = scenario
    listed = Scenario(config, list(plans), list(probes), list(overrides), max_tick, ["w"])
    assert listed == scenario == parse_scenario(canonical_scenario(listed))
    assert tuple(map(type, listed[1:4])) == (tuple, tuple, tuple)
    assert listed.warnings == ("w",)
    assert Scenario(config, iter(plans), iter(probes), iter(overrides), max_tick) == scenario


def test_canonical_round_trip_on_worked_example(worked_example_text):
    first = parse_scenario(worked_example_text)
    echoed = canonical_scenario(first)
    second = parse_scenario(echoed)
    assert first == second
    assert canonical_scenario(second) == echoed


@st.composite
def scenarios(draw):
    word_count = draw(st.integers(min_value=2, max_value=6))
    delay1 = draw(st.integers(min_value=1, max_value=9))
    config = FabricConfig(
        word_count=word_count,
        delay1=delay1,
        delay2=draw(st.integers(min_value=1, max_value=delay1)),
        threshold=draw(st.integers(min_value=1, max_value=6)),
        durations={
            w: draw(st.integers(min_value=1, max_value=7)) for w in range(1, word_count + 1)
        },
        filter_mode=draw(st.sampled_from(["done_enable", "done_done"])),
    )
    words = list(range(1, word_count + 1))
    plans = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        length = draw(st.integers(min_value=2, max_value=word_count))
        sequence = tuple(draw(st.permutations(words))[:length])
        plans.append(
            RehearsalPlan(
                sequence=sequence,
                reps=draw(st.integers(min_value=1, max_value=8)),
                gap=draw(st.integers(min_value=0, max_value=12)),
                rest=draw(st.integers(min_value=0, max_value=12)),
                start=draw(st.integers(min_value=0, max_value=50)),
            )
        )
    probes = tuple(
        Probe(tick=draw(st.integers(min_value=0, max_value=400)), word=draw(st.sampled_from(words)))
        for _ in range(draw(st.integers(min_value=0, max_value=3)))
    )
    overrides = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        i = draw(st.sampled_from(words))
        j = draw(st.sampled_from([w for w in words if w != i]))
        overrides.append(
            OverrideDirective(
                tick=draw(st.integers(min_value=0, max_value=400)),
                i=i,
                j=j,
                is_open=draw(st.booleans()),
            )
        )
    return Scenario(
        config=config,
        plans=tuple(plans),
        probes=probes,
        overrides=tuple(overrides),
        max_tick=draw(st.integers(min_value=1, max_value=5000)),
    )


@given(scenarios())
def test_canonical_round_trip_for_generated_scenarios(scenario):
    echoed = canonical_scenario(scenario)
    reparsed = parse_scenario(echoed)
    assert reparsed == scenario
    assert canonical_scenario(reparsed) == echoed


def reference_canonical_scenario(scenario: Scenario) -> str:
    """canonical_scenario as an O(K) recount: every word's duration is counted,
    the most common is printed as ``dur *`` (on a tie, the first in word order),
    then each word whose duration differs, in word order."""
    cfg = scenario.config
    lines = [
        f"fabric words={cfg.word_count} delay1={cfg.delay1} delay2={cfg.delay2} "
        f"threshold={cfg.threshold} mode={cfg.filter_mode}"
    ]
    counts = Counter(cfg.durations[w] for w in range(1, cfg.word_count + 1))
    default = counts.most_common(1)[0][0]
    lines.append(f"dur * {default}")
    for word in range(1, cfg.word_count + 1):
        if cfg.durations[word] != default:
            lines.append(f"dur {word} {cfg.durations[word]}")
    for plan in scenario.plans:
        seq = " ".join(str(w) for w in plan.sequence)
        lines.append(
            f"rehearse {seq} reps={plan.reps} gap={plan.gap} rest={plan.rest} start={plan.start}"
        )
    for d in scenario.overrides:
        state = "open" if d.is_open else "closed"
        lines.append(f"at {d.tick} override {d.i} {d.j} {state}")
    for probe in scenario.probes:
        lines.append(f"at {probe.tick} probe {probe.word}")
    lines.append(f"maxticks {scenario.max_tick}")
    return "\n".join(lines) + "\n"


@st.composite
def duration_lines(draw):
    """A fabric size, its ``dur *`` value (None: no such line) and its ``dur N``
    lines in file order. Durations of 1 to 3 make ties common, and the ``dur *``
    value is often not the most common one."""
    word_count = draw(st.integers(min_value=2, max_value=7))
    default = draw(st.none() | st.integers(min_value=1, max_value=3))
    words = draw(st.permutations(range(1, word_count + 1)))
    if default is not None:
        words = words[: draw(st.integers(min_value=0, max_value=word_count))]
    return word_count, default, [(w, draw(st.integers(min_value=1, max_value=3))) for w in words]


@example((3, 4, [(1, 5), (2, 6)]))  # dur * 4 loses to 5 on a tie; word 3 keeps its 4
@example((4, 2, [(4, 1), (3, 1)]))  # dur * 2 ties with 1; word 1 runs for 2, so 2 wins
@given(duration_lines())
def test_canonical_durations_agree_with_a_recount_of_every_word(case):
    word_count, default, named = case
    text = f"fabric words={word_count} delay1=5 delay2=1 threshold=1\n"
    text += "".join(f"dur {word} {dur}\n" for word, dur in named)
    if default is not None:
        text += f"dur * {default}\n"
    scenario = parse_scenario(text + "maxticks 10\n")
    echoed = canonical_scenario(scenario)
    assert echoed == reference_canonical_scenario(scenario)
    durations = {word: dict(named).get(word, default) for word in range(1, word_count + 1)}
    assert scenario.config.durations == durations
    whole = scenario._replace(config=scenario.config._replace(durations=durations))
    assert whole == scenario and canonical_scenario(whole) == echoed
    assert parse_scenario(echoed) == scenario


def test_a_losing_default_prints_as_the_words_it_covers():
    text = "fabric words=3 delay1=5 delay2=1 threshold=1\ndur * 4\ndur 1 5\ndur 2 6\nmaxticks 10\n"
    echoed = canonical_scenario(parse_scenario(text))
    assert echoed.splitlines()[1:4] == ["dur * 5", "dur 2 6", "dur 3 4"]


def reference_read_scenario(data: bytes) -> Scenario:
    """parse_scenario of the file's text. A byte that is not UTF-8 is a fault
    of its own line: its error is the one that an unknown directive in place
    of that line gets, with the not-UTF-8 message if that error names the line.
    No line after that one is ever read, so the reference drops them."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lines = split_lines(data[: exc.start].decode("utf-8"))  # the last starts the faulty line
        try:
            parse_scenario("\n".join(lines[:-1] + ["bogus"]))
        except ScenarioError as first:
            if first.line != len(lines):
                raise
        raise ParseError(f"not UTF-8 text: {exc}", len(lines)) from None
    return parse_scenario(text)


# scenarios() text after up to two edits, with bytes that are not UTF-8,
# multi-byte characters or a lone carriage return (a line end) put in
@given(
    data=with_odd_chars(
        edited_scenarios(scenarios().map(canonical_scenario), least_edits=0), [*ODD_CHARS, "\r"]
    ),
    block=st.integers(min_value=1, max_value=64),
)
def test_a_scenario_read_in_blocks_parses_or_fails_as_the_whole_file(
    tmp_path_factory, data, block
):
    path = tmp_path_factory.getbasetemp() / "blocks.scn"
    path.write_bytes(data)
    try:
        expected = reference_read_scenario(data)
    except ScenarioError as exc:
        with mock.patch.object(memfabric.trace, "_READ_BLOCK", block):
            with contextlib.closing(read_blocks(path)) as blocks:
                with pytest.raises(ScenarioError) as info:
                    parse_scenario(blocks)
        error = info.value
        assert (type(error), str(error), error.line) == (type(exc), str(exc), exc.line)
    else:
        with mock.patch.object(memfabric.trace, "_READ_BLOCK", block):
            scenario = parse_scenario(read_blocks(path))
        assert (scenario, scenario.warnings) == (expected, expected.warnings)


def test_trace_lines_use_the_fixed_key_order(worked_example_text):
    result = run_text(worked_example_text)
    text = format_trace(result.records)
    first = text.splitlines()[0]
    assert first == '{"t":0,"ev":"enable","word":1,"src":"cpu","episode":1}'
    for line in text.splitlines():
        keys = list(json.loads(line).keys())
        order = [k for k in ("t", "ev", "word", "pair", "src", "episode", "stage") if k in keys]
        assert keys == order


def test_trace_round_trips_through_the_parser(worked_example_text):
    result = run_text(worked_example_text)
    text = format_trace(result.records)
    assert parse_trace(text) == result.records


def test_empty_run_has_an_empty_trace_body():
    assert format_trace([]) == ""
    assert parse_trace("") == []


def test_probe_on_empty_fabric_traces_exactly_two_records():
    text = (
        "fabric words=2 delay1=5 delay2=1 threshold=5\n"
        "dur * 3\n"
        "at 7 probe 1\n"
        "maxticks 100\n"
    )
    result = run_text(text)
    assert [r.ev for r in result.records] == ["enable", "done"]


def test_report_lists_learned_pairs_sorted_with_ticks(worked_example_text):
    result = run_text(worked_example_text)
    report = result.report
    assert [pair for pair, _ in report.learned] == [(1, 3), (3, 2)]
    learned_ticks = {r.pair: r.t for r in result.records if r.ev == EV_LEARNED}
    assert dict(report.learned) == learned_ticks
    assert dict(report.detections) == {(1, 3): 11, (3, 2): 11}
    assert report.outcome == "quiescent"


def test_report_for_unlearned_run_still_counts(worked_example_text):
    result = run_text(worked_example_text.replace("reps=10", "reps=9"))
    assert result.report.learned == ()
    assert dict(result.report.detections) == {(1, 3): 9, (3, 2): 9}


def test_probe_episode_reports_zero_cpu_enables_after_trigger(worked_example_text):
    result = run_text(worked_example_text)
    probe_episode = next(e for e in result.report.episodes if e.start == 500)
    assert probe_episode.trigger_word == 1
    assert probe_episode.cpu_enables_after_trigger == 0
    assert probe_episode.fired_words == (1, 2, 3)
    rehearsal = result.report.episodes[0]
    assert rehearsal.cpu_enables_after_trigger == 2


def test_report_episodes_sorted_by_start_tick(worked_example_text):
    # the probe is scheduled first (episode 0) but starts last
    result = run_text(worked_example_text)
    starts = [e.start for e in result.report.episodes]
    assert starts == sorted(starts)
    assert result.report.episodes[-1].episode == 0


def test_report_json_shape(worked_example_text):
    result = run_text(worked_example_text)
    obj = json.loads(format_report(result.report))
    assert list(obj.keys()) == ["outcome", "final_tick", "learned", "detections", "episodes"]
    assert obj["learned"][0] == {"pair": [1, 3], "tick": result.report.learned[0][1]}
    assert obj["episodes"][-1]["cpu_enables_after_trigger"] == 0


def test_identical_runs_yield_identical_report_bytes(worked_example_text):
    a = run_text(worked_example_text)
    b = run_text(worked_example_text)
    assert format_report(a.report) == format_report(b.report)


# -- the one-pass report and the fixed-layout writer against the code they replaced


def reference_build_report(records, *, outcome: str, final_tick: int) -> Report:
    """The report as the multi-pass build_report summarized it."""
    learned = sorted(
        ((rec.pair, rec.t) for rec in records if rec.ev == "learned"),
        key=lambda item: item[0],
    )
    counts = Counter(rec.pair for rec in records if rec.ev == "latch_shift")
    detections = tuple(sorted(counts.items()))

    by_episode: dict[int, list[TraceRecord]] = {}
    for rec in records:
        if rec.episode is not None:
            by_episode.setdefault(rec.episode, []).append(rec)
    episodes = []
    for episode_id, recs in by_episode.items():
        cpu = [r for r in recs if r.src == "cpu" and r.ev in ("enable", "ignored_enable")]
        if not cpu:
            continue
        fired = sorted({r.word for r in recs if r.ev == "enable"})
        episodes.append(
            EpisodeSummary(
                episode=episode_id,
                trigger_word=cpu[0].word,
                start=cpu[0].t,
                end=max(r.t for r in recs),
                fired_words=tuple(fired),
                cpu_enables_after_trigger=len(cpu) - 1,
            )
        )
    episodes.sort(key=lambda e: (e.start, e.episode))
    return Report(
        outcome=outcome,
        final_tick=final_tick,
        learned=tuple(learned),
        detections=detections,
        episodes=tuple(episodes),
    )


def reference_format_report(report: Report) -> str:
    """The report as the json.dumps-based writer laid it out."""
    obj = {
        "outcome": report.outcome,
        "final_tick": report.final_tick,
        "learned": [{"pair": list(pair), "tick": tick} for pair, tick in report.learned],
        "detections": [{"pair": list(pair), "count": n} for pair, n in report.detections],
        "episodes": [
            {
                "episode": e.episode,
                "trigger_word": e.trigger_word,
                "start": e.start,
                "end": e.end,
                "fired_words": list(e.fired_words),
                "cpu_enables_after_trigger": e.cpu_enables_after_trigger,
            }
            for e in report.episodes
        ],
    }
    return json.dumps(obj, indent=2) + "\n"


# Integers run past 2**63 so that no fixed-width assumption hides.
_ints = st.integers(min_value=-(2**70), max_value=2**70)
_pair_counts = st.lists(st.tuples(st.tuples(_ints, _ints), _ints), max_size=4).map(tuple)
_summaries = st.builds(
    EpisodeSummary,
    episode=_ints,
    trigger_word=_ints,
    start=_ints,
    end=_ints,
    fired_words=st.lists(_ints, max_size=4).map(tuple),
    cpu_enables_after_trigger=_ints,
)
reports = st.builds(
    Report,
    outcome=st.sampled_from([QUIESCENT, TICK_LIMIT]) | st.text(),
    final_tick=_ints,
    learned=_pair_counts,
    detections=_pair_counts,
    episodes=st.lists(_summaries, max_size=4).map(tuple),
)


@given(reports)
def test_report_layout_equals_the_json_dumps_reference(report):
    assert format_report(report) == reference_format_report(report)


# Records of few words, pairs and episodes, in any tick order, with any
# source: episodes without a CPU enable, or opening with an autonomous
# record, come up often.
report_records = st.lists(
    st.builds(
        TraceRecord,
        t=st.integers(min_value=0, max_value=30),
        ev=st.sampled_from(
            "enable ignored_enable done filter_fire latch_shift learned auto_enable_scheduled "
            "loop_suppressed override_blocked override_set".split()
        ),
        word=st.integers(min_value=1, max_value=4),
        pair=st.tuples(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3)),
        src=st.sampled_from([None, "cpu", "auto"]),
        episode=st.none() | st.integers(min_value=0, max_value=3),
        stage=st.none() | st.integers(min_value=0, max_value=3),
    ),
    max_size=40,
)


@given(report_records, st.sampled_from([QUIESCENT, TICK_LIMIT]), st.integers(min_value=0))
def test_one_pass_report_equals_the_multi_pass_reference(records, outcome, final_tick):
    report = build_report(records, outcome=outcome, final_tick=final_tick)
    assert report == reference_build_report(records, outcome=outcome, final_tick=final_tick)


def test_report_skips_episodes_without_a_cpu_enable_and_starts_at_the_first():
    records = [
        TraceRecord(3, "enable", 2, (1, 2), "auto", 0),
        TraceRecord(5, "enable", 1, None, "cpu", 0),
        TraceRecord(6, "ignored_enable", 2, None, "cpu", 0),
        TraceRecord(9, "done", 1, None, None, 0),
        TraceRecord(4, "auto_enable_scheduled", 3, (2, 3), None, 1),
        TraceRecord(8, "enable", 3, (2, 3), "auto", 1),
    ]
    report = build_report(records, outcome=QUIESCENT, final_tick=9)
    assert report == reference_build_report(records, outcome=QUIESCENT, final_tick=9)
    assert report.episodes == (EpisodeSummary(0, 1, 5, 9, (1, 2), 1),)


@settings(max_examples=50, deadline=None)
@given(scenarios())
def test_run_reports_equal_the_references(scenario):
    result = run_scenario(scenario)
    outcome = result.outcome
    report = reference_build_report(
        result.records, outcome=outcome.outcome, final_tick=outcome.final_tick
    )
    assert result.report == report
    assert format_report(result.report) == reference_format_report(report)
