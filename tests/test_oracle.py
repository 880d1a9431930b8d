"""Brute-force oracle: detection recount, learned prediction, timelines."""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import memfabric.oracle
from memfabric import (
    FabricConfig,
    MalformedTraceError,
    TimelineEntry,
    count_detections,
    detection_ticks,
    episode_subtrace,
    parse_scenario,
    predict_learned,
    predict_timeline,
    run_scenario,
    shift_entries,
    verify_run,
)
from memfabric.trace import (
    EV_AUTO_ENABLE_SCHEDULED,
    EV_DONE,
    EV_ENABLE,
    EV_FILTER_FIRE,
    EV_IGNORED_ENABLE,
    EV_LATCH_SHIFT,
    EV_LEARNED,
    EV_LOOP_SUPPRESSED,
    EV_OVERRIDE_BLOCKED,
    SRC_AUTO,
    SRC_CPU,
    TraceRecord,
)
from conftest import OVERRIDE_CYCLE, REFRACTORY_FIRE, run_text
from reference_verify import override_state_at, reference_verify_run

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _cfg(**kw):
    defaults = dict(word_count=3, delay1=5, delay2=1, threshold=10, duration=4)
    defaults.update(kw)
    return FabricConfig.uniform(
        defaults["word_count"],
        delay1=defaults["delay1"],
        delay2=defaults["delay2"],
        threshold=defaults["threshold"],
        duration=defaults["duration"],
        filter_mode=defaults.get("filter_mode", "done_enable"),
    )


def _enable(t, word, episode=0, src=SRC_CPU, pair=None):
    return TraceRecord(t=t, ev=EV_ENABLE, word=word, src=src, episode=episode, pair=pair)


def _done(t, word, episode=0):
    return TraceRecord(t=t, ev=EV_DONE, word=word, episode=episode)


# -- count_detections ----------------------------------------------------


def test_recount_of_rehearsed_sequence(worked_example_text):
    result = run_text(worked_example_text)
    counts = count_detections(result.records, result.scenario.config)
    # 10 rehearsals plus one more per pair from the probe's own replay
    assert counts == {(1, 3): 11, (3, 2): 11}


def test_empty_trace_counts_nothing():
    assert count_detections([], _cfg()) == {}


def test_two_detections_one_tick_apart_count_once_with_delay2_two():
    records = [
        _done(0, 1),
        _enable(3, 2),
        _enable(4, 2),
    ]
    counts = count_detections(records, _cfg(word_count=2, delay2=2))
    assert counts == {(1, 2): 1}


def test_refractory_does_not_restart_on_a_swallowed_detection():
    # detections at 3, 4, 5 with delay2=2: 3 counts, 4 is swallowed,
    # 5 counts because the spacing is measured from the last counted one
    records = [_done(0, 1), _enable(3, 2), _enable(4, 2), _enable(5, 2)]
    counts = count_detections(records, _cfg(word_count=2, delay2=2))
    assert counts == {(1, 2): 2}


def test_trigger_on_the_closed_window_edge_counts():
    records = [_done(10, 1), _enable(15, 2)]
    assert count_detections(records, _cfg(word_count=2)) == {(1, 2): 1}
    records = [_done(10, 1), _enable(16, 2)]
    assert count_detections(records, _cfg(word_count=2)) == {}


def test_windows_retrigger_on_a_newer_done():
    records = [_done(0, 1), _done(4, 1), _enable(8, 2)]
    assert count_detections(records, _cfg(word_count=2, delay1=5)) == {(1, 2): 1}


def test_ignored_enables_are_not_triggers():
    records = [
        _done(0, 1),
        TraceRecord(t=2, ev="ignored_enable", word=2, src=SRC_CPU, episode=0),
    ]
    assert count_detections(records, _cfg(word_count=2)) == {}


def test_done_done_mode_same_tick_resolves_by_record_order():
    # done(1) then done(2) at the same tick: window of 1 is already
    # holding when done(2) lands, but not the other way around
    records = [_done(5, 1), _done(5, 2)]
    counts = count_detections(records, _cfg(word_count=2, filter_mode="done_done"))
    assert counts == {(1, 2): 1}


def test_fabric_internal_records_do_not_affect_the_recount(worked_example_text):
    result = run_text(worked_example_text)
    config = result.scenario.config
    stripped = [
        rec
        for rec in result.records
        if rec.ev in ("enable", "done", "ignored_enable")
    ]
    assert count_detections(stripped, config) == count_detections(result.records, config)


def reference_detection_ticks(records, config):
    """The recount as first written: every trigger scans every window ever opened."""
    trigger_kind = EV_ENABLE if config.filter_mode == "done_enable" else EV_DONE
    window_until = {}
    last_counted = {}
    ticks = {}
    for rec in records:
        if rec.ev == trigger_kind:
            for src, until in window_until.items():
                if src == rec.word or rec.t > until:
                    continue
                pair = (src, rec.word)
                prev = last_counted.get(pair)
                if prev is not None and rec.t - prev < config.delay2:
                    continue
                last_counted[pair] = rec.t
                ticks.setdefault(pair, []).append(rec.t)
        if rec.ev == EV_DONE:
            window_until[rec.word] = rec.t + config.delay1
    return ticks


@st.composite
def enable_done_traces(draw):
    """A config and a tick-ordered trace of enables, ignored enables and dones.

    Gaps of 0, delay1 and delay1 + 1 put triggers on a window's opening
    tick, on its closing tick and just past it.
    """
    delay1 = draw(st.integers(min_value=1, max_value=6))
    config = _cfg(
        word_count=4,
        delay1=delay1,
        delay2=draw(st.integers(min_value=1, max_value=delay1)),
        filter_mode=draw(st.sampled_from(["done_enable", "done_done"])),
    )
    gaps = st.sampled_from([0, 1, delay1, delay1 + 1]) | st.integers(0, 3 * delay1)
    kinds = st.sampled_from([EV_ENABLE, EV_IGNORED_ENABLE, EV_DONE])
    steps = st.tuples(gaps, kinds, st.integers(1, 4))
    records, t = [], 0
    for gap, ev, word in draw(st.lists(steps, max_size=40)):
        t += gap
        records.append(_done(t, word) if ev == EV_DONE else _enable(t, word)._replace(ev=ev))
    return config, records


@given(enable_done_traces())
def test_recount_equals_the_reference_that_keeps_every_window(trace):
    config, records = trace
    assert detection_ticks(records, config) == reference_detection_ticks(records, config)


def test_out_of_order_trace_is_malformed():
    records = [_done(5, 1), _enable(3, 2)]
    with pytest.raises(MalformedTraceError):
        count_detections(records, _cfg(word_count=2))


# -- predict_learned -----------------------------------------------------


def test_threshold_is_inclusive_and_strict():
    assert predict_learned({(1, 3): 10, (3, 2): 10}, 10) == {(1, 3), (3, 2)}
    assert predict_learned({(1, 2): 9}, 10) == set()
    assert predict_learned({(1, 2): 10, (2, 1): 10}, 10) == {(1, 2), (2, 1)}


# -- predict_timeline ----------------------------------------------------


def test_chain_timeline_matches_hand_arithmetic():
    timeline = predict_timeline({(1, 3), (3, 2)}, set(), 1, _cfg())
    assert timeline == [
        TimelineEntry(0, "enable", 1),
        TimelineEntry(4, "done", 1),
        TimelineEntry(9, "enable", 3, (1, 3)),
        TimelineEntry(13, "done", 3),
        TimelineEntry(18, "enable", 2, (3, 2)),
        TimelineEntry(22, "done", 2),
    ]


def test_unlearned_start_runs_alone():
    timeline = predict_timeline(set(), set(), 2, _cfg())
    assert timeline == [TimelineEntry(0, "enable", 2), TimelineEntry(4, "done", 2)]


@pytest.mark.parametrize("start", [True, 1.0])
def test_a_start_that_is_not_an_int_is_no_word(start):
    # The timeline would name the word as given: "word": true, or 1.0.
    with pytest.raises(ValueError, match=rf"^word {start!r} outside 1..3$"):
        predict_timeline({(1, 3)}, set(), start, _cfg())


def test_fan_out_orders_same_tick_enables_by_word():
    timeline = predict_timeline({(1, 2), (1, 3)}, set(), 1, _cfg())
    same_tick = [e for e in timeline if e.tick == 9]
    assert same_tick == [
        TimelineEntry(9, "enable", 2, (1, 2)),
        TimelineEntry(9, "enable", 3, (1, 3)),
    ]


def test_cycle_produces_a_suppression_marker():
    timeline = predict_timeline({(1, 2), (2, 1)}, set(), 1, _cfg(word_count=2))
    assert TimelineEntry(13, "loop_suppressed", 1, (2, 1)) in timeline
    assert [e for e in timeline if e.kind == "enable"] == [
        TimelineEntry(0, "enable", 1),
        TimelineEntry(9, "enable", 2, (1, 2)),
    ]


def test_override_produces_a_blocked_marker():
    timeline = predict_timeline({(1, 2)}, {(1, 2)}, 1, _cfg(word_count=2))
    assert timeline == [
        TimelineEntry(0, "enable", 1),
        TimelineEntry(4, "done", 1),
        TimelineEntry(4, "override_blocked", 2, (1, 2)),
    ]


def test_probe_subtrace_equals_predicted_timeline(worked_example_text):
    result = run_text(worked_example_text)
    predicted = shift_entries(
        predict_timeline({(1, 3), (3, 2)}, set(), 1, result.scenario.config), 500
    )
    assert episode_subtrace(result.records, 0) == predicted


# -- verify_run ----------------------------------------------------------


def test_verify_accepts_a_genuine_run(worked_example_text):
    result = run_text(worked_example_text)
    assert verify_run(result.scenario, result.records) == []


def test_verify_catches_a_deleted_learned_record(worked_example_text):
    result = run_text(worked_example_text)
    learned = next(rec for rec in result.records if rec.ev == EV_LEARNED and rec.pair == (1, 3))
    tampered = [rec for rec in result.records if rec != learned]
    problems = verify_run(result.scenario, tampered)
    assert len(problems) == 1
    assert problems[0].endswith(f", but the run owes {learned.to_json_line()}")


def test_verify_catches_an_auto_enable_tick_off_by_one(worked_example_text):
    result = run_text(worked_example_text)
    tampered = []
    for rec in result.records:
        if rec.ev == EV_ENABLE and rec.src == SRC_AUTO and rec.t == 509:
            moved = rec
            rec = rec._replace(t=510)
        tampered.append(rec)
    tampered.sort(key=lambda rec: rec.t)  # stable: restores tick order only
    problems = verify_run(result.scenario, tampered)
    assert len(problems) == 1
    assert problems[0].endswith(f", but the run owes {moved.to_json_line()}")


def test_verify_catches_a_forged_extra_learned_record(worked_example_text):
    result = run_text(worked_example_text)
    forged = list(result.records)
    forged.append(TraceRecord(t=forged[-1].t, ev=EV_LEARNED, pair=(2, 1)))
    problems = verify_run(result.scenario, forged)
    assert problems == [
        f"record {len(forged)}: the trace has {forged[-1].to_json_line()}, but nothing owes it"
    ]


def test_verify_accepts_a_tick_limited_run(worked_example_text):
    result = run_text(worked_example_text, max_tick=50)
    assert result.outcome.outcome == "tick_limit"
    assert verify_run(result.scenario, result.records, max_tick=50) == []
    # Up to the scenario's own horizon the run owes more: word 2's done at 52.
    assert verify_run(result.scenario, result.records) == [
        f"record {len(result.records) + 1}: the trace has no more records, but the run owes "
        '{"t":52,"ev":"done","word":2,"episode":2}'
    ]
    # A record past the horizon is owed by nothing.
    longer = run_text(worked_example_text, max_tick=52).records
    assert longer[: len(result.records)] == result.records
    assert verify_run(result.scenario, longer, max_tick=50) == [
        f"record {len(result.records) + 1}: the trace has "
        f"{longer[len(result.records)].to_json_line()}, but nothing owes it"
    ]
    with pytest.raises(ValueError, match="^maxticks must be >= 1, got 0$"):
        verify_run(result.scenario, result.records, max_tick=0)
    with pytest.raises(ValueError, match="^maxticks is not an integer: 2.0$"):
        verify_run(result.scenario, result.records, max_tick=2.0)


def test_verify_accepts_runs_with_overrides_and_suppression():
    text = (
        "fabric words=2 delay1=5 delay2=1 threshold=2\n"
        "dur * 3\n"
        "rehearse 1 2 reps=2 gap=1 rest=10 start=0\n"
        "rehearse 2 1 reps=2 gap=1 rest=10 start=60\n"
        "at 120 override 1 2 open\n"
        "at 130 probe 1\n"
        "at 200 override 1 2 closed\n"
        "at 210 probe 1\n"
        "maxticks 2000\n"
    )
    result = run_text(text)
    records = result.records
    assert any(r.ev == "override_blocked" for r in records)
    assert any(r.ev == "loop_suppressed" for r in records)
    assert verify_run(result.scenario, records) == []


def test_verify_catches_a_deleted_replay(worked_example_text):
    # Drop the probe episode's whole replay after its trigger's done: the
    # records left are consistent, but that done owed one for pair (1, 3).
    result = run_text(worked_example_text)
    records = result.records
    trigger_done = next(
        index
        for index, rec in enumerate(records)
        if rec.ev == EV_DONE and rec.episode == 0
    )
    assert records[trigger_done].t == 504 and records[-1].t == 522
    replay = records[trigger_done + 1]
    assert (replay.t, replay.ev, replay.pair) == (504, EV_AUTO_ENABLE_SCHEDULED, (1, 3))
    problems = verify_run(result.scenario, records[: trigger_done + 1])
    assert problems == [
        f"record {trigger_done + 2}: the trace has no more records, "
        f"but the run owes {replay.to_json_line()}"
    ]


def test_verify_flags_an_enable_of_a_word_the_fabric_lacks(worked_example_text):
    result = run_text(worked_example_text)
    last = result.records[-1].t
    forged = [*result.records, TraceRecord(t=last, ev=EV_ENABLE, word=4, src="cpu", episode=11)]
    problems = verify_run(result.scenario, forged)
    assert problems == [
        f"record {len(forged)}: the trace has {forged[-1].to_json_line()}, but nothing owes it"
    ]


def test_verify_flags_a_second_filter_fire_of_a_pair_in_one_tick(worked_example_text):
    # A pair fires at most once per tick: the copy stands where its latch shift is owed.
    result = run_text(worked_example_text)
    records = result.records
    index = next(i for i, rec in enumerate(records) if rec.ev == EV_FILTER_FIRE)
    fire = records[index]
    forged = records[: index + 1] + [fire] + records[index + 1 :]
    problems = verify_run(result.scenario, forged)
    assert problems == [
        f"record {index + 2}: the trace has {fire.to_json_line()}, "
        f"but the run owes {records[index + 1].to_json_line()}"
    ]


@pytest.mark.parametrize(
    "t,pair,reason",
    [
        # Nothing owes a second arrival here: the enable's done at t=4 is owed.
        (0, (2, 1), 'the run owes {"t":4,"ev":"done","word":1,"episode":1}'),
        # Nothing owes an autonomous arrival here: the enable's filter fire is owed.
        (509, None, 'the run owes {"t":509,"ev":"filter_fire","pair":[1,3]}'),
    ],
    ids=["cpu-with-pair", "auto-without-pair"],
)
def test_verify_flags_an_enable_whose_pair_does_not_match_its_source(
    worked_example_text, t, pair, reason
):
    # An ignored copy of the enable at t, with the other pair field.
    result = run_text(worked_example_text)
    records = result.records
    index = next(i for i, rec in enumerate(records) if rec.ev == EV_ENABLE and rec.t == t)
    copy = records[index]._replace(ev=EV_IGNORED_ENABLE, pair=pair)
    forged = records[: index + 1] + [copy] + records[index + 1 :]
    assert verify_run(result.scenario, forged) == [
        f"record {index + 2}: the trace has {copy.to_json_line()}, but {reason}"
    ]


def test_done_before_the_learning_trigger_on_its_tick_owes_no_replay():
    # At t=4 the probe's done of word 1 dispatches before the plan's enable
    # of word 2 that learns (1, 2): the pair is learned on the done's tick,
    # but after it, so the done correctly schedules no replay.
    text = (
        "fabric words=2 delay1=5 delay2=1 threshold=1\n"
        "dur 1 2\n"
        "dur 2 4\n"
        "rehearse 1 2 reps=1 gap=2 rest=0 start=0\n"
        "at 2 probe 1\n"
        "maxticks 100\n"
    )
    result = run_text(text)
    records = result.records
    at_four = [(rec.ev, rec.word, rec.pair) for rec in records if rec.t == 4]
    assert at_four.index((EV_DONE, 1, None)) < at_four.index((EV_LEARNED, None, (1, 2)))
    assert not any(rec.ev == EV_AUTO_ENABLE_SCHEDULED for rec in records)
    assert verify_run(result.scenario, records) == []


# Pairs (1, 2), (1, 3) and (2, 3) are learned by t=29; with no override, the
# probes' dones owe replay outcomes at t=103, 111, 123 and 131.
REPLAYING_CHAIN = (
    "fabric words=3 delay1=5 delay2=1 threshold=2\n"
    "dur * 3\n"
    "rehearse 1 2 3 reps=2 gap=1 rest=10 start=0\n"
    "at 100 probe 1\n"
    "at 110 probe 2\n"
    "at 120 probe 1\n"
    "maxticks 1000\n"
)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=100, max_value=133),
            st.sampled_from([(1, 2), (1, 3), (2, 3)]),
            st.booleans(),
        ),
        max_size=12,
    )
)
@example(
    [
        (123, (1, 2), False),
        (103, (1, 2), True),
        (111, (2, 3), True),
        (103, (1, 2), False),
        (103, (1, 3), True),
        (111, (2, 3), False),
        (111, (2, 3), True),
    ]
)
def test_replay_outcomes_follow_the_directives_in_tick_order(directives):
    # Directives are listed in any order, several on one tick; the run and
    # verify_run must both apply them as override_state_at defines.
    text = REPLAYING_CHAIN + "".join(
        f"at {t} override {i} {j} {'open' if is_open else 'closed'}\n"
        for t, (i, j), is_open in directives
    )
    result = run_text(text)
    scenario, records = result.scenario, result.records
    assert any(rec.ev == EV_LEARNED for rec in records)
    outcomes = [rec for rec in records if rec.ev in REPLAY_OUTCOMES]
    assert outcomes
    for rec in outcomes:
        blocked = rec.pair in override_state_at(scenario, rec.t)
        assert (rec.ev == EV_OVERRIDE_BLOCKED) == blocked, rec
    assert verify_run(scenario, records) == []


# -- mutation analysis -----------------------------------------------------

REPLAY_OUTCOMES = (EV_AUTO_ENABLE_SCHEDULED, EV_LOOP_SUPPRESSED, EV_OVERRIDE_BLOCKED)
ENABLE_SWAP = {EV_ENABLE: EV_IGNORED_ENABLE, EV_IGNORED_ENABLE: EV_ENABLE}
FIELD_FLOORS = {"word": 1, "episode": 0, "stage": 0}


def _mutants(records, word_count):
    """Every single-record mutant of a trace, with the record's index and the mutation."""
    for index, rec in enumerate(records):
        before, after = records[:index], records[index + 1 :]
        yield index, "deleted", before + after
        yield index, "duplicated", before + [rec, rec] + after
        for delta in (-1, 1):
            if rec.t + delta >= 0:
                moved = before + [rec._replace(t=rec.t + delta)] + after
                yield index, f"shifted by {delta}", sorted(moved, key=lambda r: r.t)  # stable
        changed = []
        if rec.ev in REPLAY_OUTCOMES:
            changed += [rec._replace(ev=ev) for ev in REPLAY_OUTCOMES if ev != rec.ev]
        if rec.ev in ENABLE_SWAP:
            changed.append(rec._replace(ev=ENABLE_SWAP[rec.ev]))
        for field, least in FIELD_FLOORS.items():
            value = getattr(rec, field)
            if value is not None:
                changed += [
                    rec._replace(**{field: value + delta})
                    for delta in (-1, 1)
                    if value + delta >= least
                ]
        if rec.pair is not None:
            for member in (0, 1):
                for word in range(1, word_count + 1):
                    if word != rec.pair[member]:
                        pair = list(rec.pair)
                        pair[member] = word
                        changed.append(rec._replace(pair=tuple(pair)))
        for mutant in changed:
            yield index, f"changed to {mutant}", before + [mutant] + after


def _swaps(records):
    """Every swap of two adjacent records that share a tick and differ."""
    for index, (first, second) in enumerate(zip(records, records[1:])):
        if first.t == second.t and first != second:
            yield records[:index] + [second, first] + records[index + 2 :]


def _episode_deletions(records):
    """For each episode, the trace without every record that carries its id."""
    for episode in sorted({rec.episode for rec in records if rec.episode is not None}):
        yield [rec for rec in records if rec.episode != episode]


def _episode_insertions(records, config):
    """For each word, the trace with a CPU enable of it appended one tick after
    the last record and its done one duration later, in a new episode numbered
    one past the highest."""
    tick = records[-1].t + 1
    episode = 1 + max(rec.episode for rec in records if rec.episode is not None)
    for word in config.durations:
        yield records + [
            _enable(tick, word, episode),
            _done(tick + config.durations[word], word, episode),
        ]


def _first_departure(genuine, mutant) -> list[str]:
    """The divergence owed for a trace that departs from a genuine run: the
    first record at which the two differ."""
    i = next(
        (i for i, (have, owed) in enumerate(zip(mutant, genuine)) if have != owed),
        min(len(mutant), len(genuine)),
    )
    have = mutant[i].to_json_line() if i < len(mutant) else "no more records"
    owes = f"the run owes {genuine[i].to_json_line()}" if i < len(genuine) else "nothing owes it"
    return [f"record {i + 1}: the trace has {have}, but {owes}"]


def test_every_single_record_mutant_is_rejected():
    texts = {
        path.name: path.read_text(encoding="utf-8") for path in sorted(SCENARIOS.glob("*.scn"))
    }
    texts["override cycle"] = OVERRIDE_CYCLE
    texts["refractory fire"] = REFRACTORY_FIRE
    misplaced = []  # mutants not rejected at their first departure from the run
    tried = unshifted = 0
    for name, text in texts.items():
        result = run_text(text)
        records = result.records
        assert verify_run(result.scenario, records) == [], name
        shifts = {(rec.t, rec.pair) for rec in records if rec.ev == EV_LATCH_SHIFT}
        unshifted += sum(
            rec.ev == EV_FILTER_FIRE and (rec.t, rec.pair) not in shifts for rec in records
        )
        for index, mutation, mutant in _mutants(records, result.scenario.config.word_count):
            tried += 1
            if verify_run(result.scenario, mutant) != _first_departure(records, mutant):
                misplaced.append((name, index, mutation))
    assert tried > 4000
    assert unshifted > 0  # a fire inside the refractory is among the mutated records
    assert misplaced == []


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.scn")), ids=lambda path: path.stem)
def test_the_first_departure_is_named_at_every_slice_edge(monkeypatch, path):
    # verify_run compares the trace with the owed run a slice at a time and walks
    # only the slice that differs. A departure at record 1, at a slice's last
    # record or at the next slice's first, and a trace one record short or long
    # at a slice edge, are each named at the first record that departs from the
    # run; the run itself verifies, as by the reference. Records may come as a
    # list or as a tuple.
    result = run_text(path.read_text(encoding="utf-8"))
    scenario, records = result.scenario, result.records
    for size in (4, len(records) - 1, len(records)):
        monkeypatch.setattr(memfabric.oracle, "_SLICE", size)
        edges = {0, size - 1, size}  # record 1, a slice's last record, the next one's first
        mutants = [records[:-1], records + records[-1:]]
        mutants += [m for i, _, m in _mutants(records, scenario.config.word_count) if i in edges]
        for records_of in (list, tuple):
            genuine = records_of(records)
            assert verify_run(scenario, genuine) == [] == reference_verify_run(scenario, genuine)
            for mutant in mutants:
                expected = _first_departure(records, mutant)
                assert verify_run(scenario, records_of(mutant)) == expected, (size, mutant)


# -- survivor ratchet: mutant classes verify_run does not catch ------------

# Per shipped scenario: (surviving swaps, swaps tried).
SWAP_SURVIVORS = {
    "concurrent": (0, 28),
    "cycle": (0, 21),
    "negative_control": (0, 0),
    "override": (0, 49),
    "worked_example": (0, 48),
}
# Shipped scenarios whose trace passes with a filter_fire of pair (1, 2)
# inserted right after its first record, at that record's tick.
INVENTED_FIRE_SURVIVORS = set()
# (trace of, verified against) for shipped scenarios whose trace passes as another's.
CROSS_SCENARIO_SURVIVORS = set()
# Per shipped scenario: (surviving deletions, episodes). Deleting the last
# episode cuts the trace short at a tick boundary; the horizon rejects it.
EPISODE_DELETION_SURVIVORS = {
    "concurrent": (0, 8),
    "cycle": (0, 7),
    "negative_control": (0, 50),
    "override": (0, 12),
    "worked_example": (0, 11),
}
# Per shipped scenario: (surviving insertions, words).
EPISODE_INSERTION_SURVIVORS = {
    "concurrent": (0, 4),
    "cycle": (0, 2),
    "negative_control": (0, 2),
    "override": (0, 3),
    "worked_example": (0, 3),
}
# Per shipped scenario: (traces of one-value variants that verify against
# the unchanged scenario, variants). negative_control with reps=49 writes the
# first 196 of the 200 records, which the horizon rejects.
ONE_VALUE_SURVIVORS = {
    "concurrent": (0, 19),
    "cycle": (0, 17),
    "negative_control": (0, 7),
    "override": (0, 11),
    "worked_example": (0, 9),
}


def _passes(verify, scenario, records) -> bool:
    try:
        return verify(scenario, records) == []
    except MalformedTraceError:
        return False


def _survivors(scenario, mutants) -> tuple[int, int]:
    """(mutants that verify, mutants tried)."""
    mutants = list(mutants)
    return sum(_passes(verify_run, scenario, mutant) for mutant in mutants), len(mutants)


def _one_value_variants(scenario):
    """The scenario with one plan's gap, rest, start or reps, or one probe's
    tick, moved by one; a value the plan or probe rejects is skipped."""
    for group, names in (("plans", ("gap", "rest", "start", "reps")), ("probes", ("tick",))):
        items = getattr(scenario, group)
        for index, item in enumerate(items):
            for name in names:
                for delta in (-1, 1):
                    try:
                        moved = item._replace(**{name: getattr(item, name) + delta})
                    except ValueError:
                        continue
                    changed = (*items[:index], moved, *items[index + 1 :])
                    yield scenario._replace(**{group: changed})


def test_surviving_mutants_of_the_shipped_scenarios_are_counted():
    # A ratchet: these counts must equal the committed ones, so a change
    # that makes verify catch more commits the lower figures.
    runs = {
        path.stem: run_text(path.read_text(encoding="utf-8"))
        for path in sorted(SCENARIOS.glob("*.scn"))
    }
    swaps, deletions, insertions, one_value, invented = {}, {}, {}, {}, set()
    for name, result in runs.items():
        scenario, records = result.scenario, result.records
        swaps[name] = _survivors(scenario, _swaps(records))
        deletions[name] = _survivors(scenario, _episode_deletions(records))
        insertions[name] = _survivors(scenario, _episode_insertions(records, scenario.config))
        variants = _one_value_variants(scenario)
        one_value[name] = _survivors(scenario, (run_scenario(v).records for v in variants))
        fire = TraceRecord(t=records[0].t, ev=EV_FILTER_FIRE, pair=(1, 2))
        if _passes(verify_run, scenario, records[:1] + [fire] + records[1:]):
            invented.add(name)
    assert swaps == SWAP_SURVIVORS
    assert invented == INVENTED_FIRE_SURVIVORS
    assert deletions == EPISODE_DELETION_SURVIVORS
    assert insertions == EPISODE_INSERTION_SURVIVORS
    assert one_value == ONE_VALUE_SURVIVORS
    cross = {
        (name, other)
        for name, result in runs.items()
        for other, against in runs.items()
        if other != name and _passes(verify_run, against.scenario, result.records)
    }
    assert cross == CROSS_SCENARIO_SURVIVORS


# -- never weaker than the multiset verifier it replaced -------------------


def small_scenario_text(rng: random.Random) -> str:
    """A small scenario in either filter mode: overlapping rehearsals that
    learn, probes that replay, override switches, and a tick limit that may
    cut the run."""
    word_count = rng.randint(2, 4)
    delay1 = rng.randint(1, 6)
    threshold = rng.randint(1, 3)
    lines = [
        f"fabric words={word_count} delay1={delay1} delay2={rng.randint(1, delay1)} "
        f"threshold={threshold} mode={rng.choice(['done_enable', 'done_done'])}",
        *(f"dur {word} {rng.randint(1, 4)}" for word in range(1, word_count + 1)),
    ]
    rehearsed = []  # the pairs the plans rehearse, which the overrides switch
    for _ in range(rng.randint(1, 2)):
        start = rng.randint(0, 20)
        sequence = rng.sample(range(1, word_count + 1), rng.randint(2, word_count))
        rehearsed += zip(sequence, sequence[1:])
        lines.append(
            f"rehearse {' '.join(map(str, sequence))} reps={threshold + rng.randint(0, 1)} "
            f"gap={rng.randint(0, delay1)} rest={rng.randint(0, 8)} start={start}"
        )
    for _ in range(rng.randint(0, 4)):
        (i, j), is_open, tick = rng.choice(rehearsed), rng.random() < 0.5, rng.randint(0, 120)
        lines.append(f"at {tick} override {i} {j} {'open' if is_open else 'closed'}")
    for _ in range(rng.randint(0, 4)):
        lines.append(f"at {rng.randint(0, 120)} probe {rng.randint(1, word_count)}")
    # A limit of 40 cuts about one run in three; 1000 lets the rest go quiescent.
    lines.append(f"maxticks {rng.choice([40, 1000, 1000])}")
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False).map(small_scenario_text))
@example(OVERRIDE_CYCLE)
@example(REFRACTORY_FIRE)
def test_verify_rejects_every_trace_the_reference_rejects(text):
    # Single-record mutants, same-tick swaps, and whole-episode deletions and
    # insertions: each departs from the run, and verify_run rejects it at the
    # first record where it does, so it rejects whatever the multiset verifier
    # rejects.
    result = run_text(text)
    scenario, records = result.scenario, result.records
    assert verify_run(scenario, records) == [] == reference_verify_run(scenario, records)
    mutants = [mutant for _, _, mutant in _mutants(records, scenario.config.word_count)]
    mutants += [*_swaps(records), *_episode_deletions(records)]
    mutants += _episode_insertions(records, scenario.config)
    for mutant in mutants:
        assert verify_run(scenario, mutant) == _first_departure(records, mutant), (text, mutant)


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False).map(small_scenario_text))
def test_a_run_cut_at_any_tick_verifies_up_to_that_horizon(text):
    # Cut between two record ticks a < b, at a or at b - 1, a run is a prefix
    # of the full run and verifies at its own horizon; at horizon b the
    # records of tick b are owed.
    scenario = parse_scenario(text)
    full = run_scenario(scenario, max_tick=10**9).records
    ticks = sorted({rec.t for rec in full})
    for a, b in zip(ticks, ticks[1:]):
        for horizon in {a, b - 1} - {0}:  # a horizon is at least 1
            cut = run_scenario(scenario, max_tick=horizon).records
            assert cut == full[: len(cut)], (text, horizon)
            assert verify_run(scenario, cut, max_tick=horizon) == [], (text, horizon)
            owed = full[len(cut)].to_json_line()
            assert verify_run(scenario, cut, max_tick=b) == [
                f"record {len(cut) + 1}: the trace has no more records, but the run owes {owed}"
            ], (text, horizon)
    assert run_scenario(scenario, max_tick=ticks[-1]).records == full, text
    assert verify_run(scenario, full, max_tick=ticks[-1]) == [], text


@settings(max_examples=30, deadline=None)
@given(
    st.randoms(use_true_random=False).map(small_scenario_text),
    st.randoms(use_true_random=False).map(small_scenario_text),
)
def test_every_trace_verify_accepts_is_a_prefix_of_the_full_run(text, other):
    # Complete up to the horizon: whatever verify_run accepts, mutant, variant's
    # run or another draw's run, is a prefix of the run the scenario owes.
    result = run_text(text)
    scenario, records = result.scenario, result.records
    full = run_scenario(scenario, max_tick=10**9).records
    traces = [records, run_text(other).records]
    traces += [mutant for _, _, mutant in _mutants(records, scenario.config.word_count)]
    traces += [*_swaps(records), *_episode_deletions(records)]
    traces += _episode_insertions(records, scenario.config)
    traces += [run_scenario(variant).records for variant in _one_value_variants(scenario)]
    assert verify_run(scenario, records) == []
    for trace in traces:
        if _passes(verify_run, scenario, trace):
            assert trace == full[: len(trace)], (text, trace)


# (surviving mutants, mutants tried) per class, over GENERATED_SCENARIOS
# scenarios that small_scenario_text draws from random.Random(0).
GENERATED_SCENARIOS = 20
GENERATED_SURVIVORS = {
    "single record": (0, 9725),
    "same-tick swap": (0, 615),
    "episode deletion": (0, 101),
    "episode insertion": (0, 61),
}


def test_surviving_mutants_of_generated_scenarios_are_counted():
    # A ratchet like the one over the shipped scenarios, on the kind of
    # scenario the comparison with the reference draws.
    rng = random.Random(0)
    survivors = dict.fromkeys(GENERATED_SURVIVORS, (0, 0))
    for _ in range(GENERATED_SCENARIOS):
        result = run_text(small_scenario_text(rng))
        scenario, records = result.scenario, result.records
        assert verify_run(scenario, records) == []
        classes = {
            "single record": (m for _, _, m in _mutants(records, scenario.config.word_count)),
            "same-tick swap": _swaps(records),
            "episode deletion": _episode_deletions(records),
            "episode insertion": _episode_insertions(records, scenario.config),
        }
        for name, mutants in classes.items():
            passed, tried = _survivors(scenario, mutants)
            survivors[name] = (survivors[name][0] + passed, survivors[name][1] + tried)
    assert survivors == GENERATED_SURVIVORS


# -- cross-check at the scale the sparse fabric core targets --------------


LARGE_K_SEED = 20261017
LARGE_K_SCENARIOS = 20


def _large_k_scenario_text(rng: random.Random, word_count: int, mode: str) -> str:
    """Overlapping rehearsals of a few hot words spread over a large fabric."""
    delay1 = rng.randint(2, 8)
    delay2 = rng.randint(1, delay1)
    threshold = rng.randint(1, 5)
    lines = [
        f"fabric words={word_count} delay1={delay1} delay2={delay2} "
        f"threshold={threshold} mode={mode}",
        "dur * 1",
    ]
    for word in rng.sample(range(1, word_count + 1), 10):
        lines.append(f"dur {word} {rng.randint(1, 6)}")
    hot = rng.sample(range(1, word_count + 1), 12)
    for _ in range(rng.randint(2, 6)):
        seq = " ".join(map(str, rng.sample(hot, rng.randint(2, 6))))
        lines.append(
            f"rehearse {seq} reps={rng.randint(1, threshold + 2)} gap={rng.randint(0, delay1)} "
            f"rest={rng.randint(0, 2 * delay1)} start={rng.randint(0, 40)}"
        )
    tick = 800
    for _ in range(rng.randint(2, 8)):
        if rng.random() < 0.5:
            i, j = rng.sample(hot, 2)
            lines.append(f"at {tick - 1} override {i} {j} {rng.choice(['open', 'closed'])}")
        lines.append(f"at {tick} probe {rng.choice(hot)}")
        tick += rng.randint(1, 80)
    lines.append(f"maxticks {tick + 5000}")
    return "\n".join(lines) + "\n"


def test_fabric_agrees_with_oracle_at_large_k():
    rng = random.Random(LARGE_K_SEED)
    kinds: set[str] = set()
    for index in range(LARGE_K_SCENARIOS):
        word_count = rng.choice([60, 150, 300])
        mode = ("done_enable", "done_done")[index % 2]
        text = _large_k_scenario_text(rng, word_count, mode)
        result = run_text(text)
        assert result.outcome.quiescent, text
        config = result.scenario.config
        assert verify_run(result.scenario, result.records) == [], text
        assert result.simulation.fabric.learned_set() == predict_learned(
            count_detections(result.records, config), config.threshold
        ), text
        kinds.update(rec.ev for rec in result.records)
    # the sweep must reach replay, suppression and override blocking
    assert {EV_AUTO_ENABLE_SCHEDULED, EV_LOOP_SUPPRESSED, EV_OVERRIDE_BLOCKED} <= kinds
