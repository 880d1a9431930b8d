"""Rehearsal plan scheduling, probes, and driver/replay races."""

from __future__ import annotations

import pytest

from memfabric import (
    InvalidPlanError,
    Probe,
    RehearsalPlan,
    Scenario,
    UnknownWordError,
    count_detections,
)
from memfabric.fabric import FabricConfig
from memfabric.trace import (
    EV_DONE,
    EV_ENABLE,
    EV_IGNORED_ENABLE,
    SRC_AUTO,
    SRC_CPU,
)
from conftest import assert_every_path_checks, run_text, simulation


def test_plan_enables_follow_done_plus_gap():
    # sequence 1-3-2, one repetition, gap 2, durations 4:
    # dones land at 4, 10, 16, so cpu enables land at 0, 6, 12
    text = (
        "fabric words=3 delay1=5 delay2=1 threshold=10\n"
        "dur * 4\n"
        "rehearse 1 3 2 reps=1 gap=2 rest=20 start=0\n"
        "maxticks 100\n"
    )
    result = run_text(text)
    enables = [(r.t, r.word) for r in result.records if r.ev == EV_ENABLE]
    dones = [(r.t, r.word) for r in result.records if r.ev == EV_DONE]
    assert enables == [(0, 1), (6, 3), (12, 2)]
    assert dones == [(4, 1), (10, 3), (16, 2)]


def test_plan_with_repeated_word_is_rejected():
    with pytest.raises(InvalidPlanError):
        RehearsalPlan(sequence=(1, 3, 1, 2), reps=1, gap=2, rest=0, start=0)


def test_a_plan_names_its_first_repeated_word_in_one_pass():
    class Word(int):
        """An int that counts the equality tests made on it."""

        tests = 0
        __hash__ = int.__hash__

        def __eq__(self, other):
            Word.tests += 1
            return int.__eq__(self, other)

    words = [Word(word) for word in range(1, 1001)]
    RehearsalPlan(words, reps=1, gap=0, rest=0, start=0)
    assert Word.tests <= len(words)  # a test against every earlier word makes 499,500
    Word.tests = 0
    with pytest.raises(InvalidPlanError, match="^word 7 repeats in the sequence"):
        RehearsalPlan([*words, Word(7), Word(3)], reps=1, gap=0, rest=0, start=0)
    assert Word.tests <= len(words) + 2
    for sequence, first in [((1, 2, 3, 2, 1), 2), ((True, 1), 1), ((2, 1.0, 3, 1), 1)]:
        with pytest.raises(InvalidPlanError, match=f"^word {first} repeats in the sequence"):
            RehearsalPlan(sequence, reps=1, gap=0, rest=0, start=0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(sequence=(1,), reps=1, gap=0, rest=0, start=0),
        dict(sequence=(1, 2), reps=0, gap=0, rest=0, start=0),
        dict(sequence=(1, 2), reps=1, gap=-1, rest=0, start=0),
        dict(sequence=(1, 2), reps=1, gap=0, rest=-1, start=0),
        dict(sequence=(1, 2), reps=1, gap=0, rest=0, start=-2),
    ],
)
def test_structurally_bad_plans_are_rejected(kwargs):
    with pytest.raises(InvalidPlanError):
        RehearsalPlan(**kwargs)


@pytest.mark.parametrize(
    "field, bad",
    [("sequence", (1, 2, 1)), ("reps", 0), ("gap", -1), ("rest", -1), ("start", -1)]
    + [(field, bad) for bad in (True, 1.0) for field in ("reps", "gap", "rest", "start")],
)
def test_every_way_to_build_a_plan_checks_it(field, bad):
    plan = RehearsalPlan(sequence=[1, 2], reps=1, gap=0, rest=0, start=0)
    assert plan.sequence == (1, 2)  # a tuple, however it was given
    assert_every_path_checks(plan, field, bad, InvalidPlanError)


def test_every_way_to_build_a_probe_checks_it():
    for bad in (-1, True, 1.0):
        assert_every_path_checks(Probe(tick=0, word=1), "tick", bad, ValueError)


def test_plan_word_outside_fabric_is_rejected():
    config = FabricConfig.uniform(2, delay1=5, delay2=1, threshold=1, duration=4)
    for sequence, message in [((1, 5), "^word 5 outside 1..2$"), ((0, 1), "^word 0 outside 1..2$")]:
        plan = RehearsalPlan(sequence=sequence, reps=1, gap=0, rest=0, start=0)
        with pytest.raises(UnknownWordError, match=message):
            Scenario(config, [plan], (), (), 100)


def test_probe_word_outside_fabric_is_rejected():
    config = FabricConfig.uniform(2, delay1=5, delay2=1, threshold=1, duration=4)
    with pytest.raises(UnknownWordError, match="^word 3 outside 1..2$"):
        Scenario(config, (), [Probe(tick=0, word=3)], (), 100)


def test_next_repetition_starts_rest_after_last_done():
    text = (
        "fabric words=2 delay1=5 delay2=1 threshold=10\n"
        "dur * 4\n"
        "rehearse 1 2 reps=2 gap=2 rest=20 start=0\n"
        "maxticks 200\n"
    )
    result = run_text(text)
    enables = [(r.t, r.word) for r in result.records if r.ev == EV_ENABLE]
    # rep 1: enables 0, 6 with dones 4, 10; rep 2 starts at 10 + 20
    assert enables == [(0, 1), (6, 2), (30, 1), (36, 2)]


def test_each_repetition_is_a_fresh_episode():
    text = (
        "fabric words=2 delay1=5 delay2=1 threshold=10\n"
        "dur * 4\n"
        "rehearse 1 2 reps=3 gap=2 rest=20 start=0\n"
        "maxticks 500\n"
    )
    result = run_text(text)
    episodes = [r.episode for r in result.records if r.ev == EV_ENABLE]
    assert episodes == [0, 0, 1, 1, 2, 2]
    assert result.report.episodes[0].cpu_enables_after_trigger == 1


def test_probe_on_untrained_fabric_runs_one_word_only():
    text = (
        "fabric words=3 delay1=5 delay2=1 threshold=10\n"
        "dur * 4\n"
        "at 0 probe 2\n"
        "maxticks 100\n"
    )
    result = run_text(text)
    assert [(r.ev, r.t, r.word) for r in result.records] == [
        (EV_ENABLE, 0, 2),
        (EV_DONE, 4, 2),
    ]


def test_probe_on_chain_tail_runs_nothing_further(worked_example_text):
    text = worked_example_text.replace("at 500 probe 1", "at 500 probe 2")
    result = run_text(text)
    probe_records = [r for r in result.records if r.t >= 500]
    assert [(r.ev, r.word) for r in probe_records] == [(EV_ENABLE, 2), (EV_DONE, 2)]


def test_plan_produces_exactly_reps_detections_per_adjacent_pair():
    # threshold far above reps so replay never interferes
    text = (
        "fabric words=3 delay1=5 delay2=1 threshold=50\n"
        "dur * 4\n"
        "rehearse 1 3 2 reps=7 gap=2 rest=20 start=0\n"
        "maxticks 2000\n"
    )
    result = run_text(text)
    counts = count_detections(result.records, result.scenario.config)
    assert counts == {(1, 3): 7, (3, 2): 7}


def test_gap_beyond_delay1_detects_nothing():
    text = (
        "fabric words=2 delay1=5 delay2=1 threshold=3\n"
        "dur * 4\n"
        "rehearse 1 2 reps=50 gap=6 rest=6 start=0\n"
        "maxticks 20000\n"
    )
    result = run_text(text)
    assert count_detections(result.records, result.scenario.config) == {}
    assert result.simulation.fabric.learned_set() == set()


def test_driver_advances_on_done_of_autonomously_enabled_word():
    # Train (1, 2) first; in the last plan the replay wins the race for
    # word 2, the plan's own cpu enable is ignored as busy, and the plan
    # still advances to word 3 on word 2's done.
    text = (
        "fabric words=3 delay1=6 delay2=1 threshold=2\n"
        "dur * 4\n"
        "rehearse 1 2 reps=2 gap=5 rest=30 start=0\n"
        "rehearse 1 2 3 reps=1 gap=6 rest=0 start=100\n"
        "maxticks 1000\n"
    )
    result = run_text(text)
    late = [r for r in result.records if r.t >= 100]
    auto_enable_2 = [r for r in late if r.ev == EV_ENABLE and r.word == 2 and r.src == SRC_AUTO]
    ignored_cpu_2 = [
        r for r in late if r.ev == EV_IGNORED_ENABLE and r.word == 2 and r.src == SRC_CPU
    ]
    enable_3 = [r for r in late if r.ev == EV_ENABLE and r.word == 3]
    assert len(auto_enable_2) == 1
    assert len(ignored_cpu_2) == 1
    assert len(enable_3) == 1
    # the plan advanced from the autonomous done: enable(3) = done(2) + gap
    done_2 = next(r for r in late if r.ev == EV_DONE and r.word == 2)
    assert enable_3[0].t == done_2.t + 6
    assert result.simulation.driver.unfinished_plans() == 0


def test_driver_never_schedules_two_simultaneous_cpu_enables_per_plan():
    text = (
        "fabric words=4 delay1=5 delay2=1 threshold=3\n"
        "dur * 2\n"
        "rehearse 1 2 3 4 reps=3 gap=0 rest=0 start=0\n"
        "maxticks 1000\n"
    )
    result = run_text(text)
    cpu = [r for r in result.records if r.src == SRC_CPU and r.ev in (EV_ENABLE, EV_IGNORED_ENABLE)]
    ticks = [r.t for r in cpu]
    assert len(ticks) == len(set(ticks))


def test_a_plan_leaves_the_driver_when_its_last_repetition_ends():
    # Durations 4, gap 1, rest 10. The short plan ends with word 2's done at
    # 9; the long one's first repetition ends at 9 too, its second at 28.
    sim = simulation(
        FabricConfig.uniform(3, delay1=5, delay2=1, threshold=10, duration=4),
        plans=[
            RehearsalPlan(sequence=(1, 2), reps=1, gap=1, rest=10, start=0),
            RehearsalPlan(sequence=(3, 1), reps=2, gap=1, rest=10, start=0),
        ],
    )
    assert sim.driver.unfinished_plans() == 2
    sim.run_to_quiescence(6)  # inside both plans' first repetition
    assert sim.driver.unfinished_plans() == 2
    sim.run_to_quiescence(20)  # the short plan is done; the long one is in its second repetition
    assert sim.driver.unfinished_plans() == 1
    assert sim.run_to_quiescence(1000).quiescent
    assert sim.driver.unfinished_plans() == 0
    cpu = [(r.t, r.word) for r in sim.records if r.ev == EV_ENABLE and r.src == SRC_CPU]
    assert cpu == [(0, 1), (0, 3), (5, 2), (5, 1), (19, 3), (24, 1)]


def _cpu_enables(text: str) -> list[tuple[int, int]]:
    result = run_text(text)
    assert result.simulation.driver.unfinished_plans() == 0
    return [(r.t, r.word) for r in result.records if r.ev == EV_ENABLE and r.src == SRC_CPU]


def test_plans_awaiting_one_word_advance_in_add_order():
    # Both plans await word 1's done at 4 (the second's own enable was
    # ignored as busy); each enables its next word at 4, in add order.
    assert _cpu_enables(
        "fabric words=3 delay1=5 delay2=1 threshold=10\n"
        "dur * 4\n"
        "rehearse 1 2 reps=1 gap=0 rest=0 start=0\n"
        "rehearse 1 3 reps=1 gap=0 rest=0 start=0\n"
        "maxticks 100\n"
    ) == [(0, 1), (4, 2), (4, 3)]


def test_a_plan_that_starts_awaiting_a_word_later_still_advances_in_add_order():
    # The second plan awaits word 3 from tick 2 (after word 2's done), the
    # first from tick 4, where its enable of 3 is ignored as busy. Word 3's
    # done at 6 advances both, the first-added plan first.
    assert _cpu_enables(
        "fabric words=5 delay1=5 delay2=1 threshold=10\n"
        "dur * 4\n"
        "dur 2 2\n"
        "rehearse 1 3 4 reps=1 gap=0 rest=0 start=0\n"
        "rehearse 2 3 5 reps=1 gap=0 rest=0 start=0\n"
        "maxticks 100\n"
    ) == [(0, 1), (0, 2), (2, 3), (6, 4), (6, 5)]


def test_a_done_before_a_plans_own_enable_does_not_advance_it():
    # Word 1's done at 4 (the first plan's) precedes the second plan's own
    # enable of word 1 at 5, so that plan advances only on the done at 9.
    assert _cpu_enables(
        "fabric words=3 delay1=5 delay2=1 threshold=10\n"
        "dur * 4\n"
        "rehearse 1 2 reps=1 gap=0 rest=0 start=0\n"
        "rehearse 1 3 reps=1 gap=0 rest=0 start=5\n"
        "maxticks 100\n"
    ) == [(0, 1), (4, 2), (5, 1), (9, 3)]
