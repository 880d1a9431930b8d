"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines. Criterion 7 sweeps 1000 seeded random scenarios
through the brute-force oracle; criterion 8 replays every scenario the
suite touches (the named ones and the regenerated random ones) to pin
byte determinism and latch monotonicity.
"""

from __future__ import annotations

import random
from contextlib import contextmanager

from memfabric import (
    count_detections,
    detection_ticks,
    episode_subtrace,
    format_trace,
    parse_scenario,
    predict_learned,
    predict_timeline,
    run_scenario,
    shift_entries,
    verify_run,
)
from memfabric.oracle import entry_sort_key
from memfabric.trace import (
    EV_DONE,
    EV_ENABLE,
    EV_FILTER_FIRE,
    EV_LATCH_SHIFT,
    EV_LEARNED,
    EV_OVERRIDE_BLOCKED,
)
from reference_verify import override_state_at

RANDOM_SEED = 20260808
RANDOM_SCENARIOS = 1000


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {title}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {title}: PASS")


def run_text(text: str, **kwargs):
    return run_scenario(parse_scenario(text), **kwargs)


WORKED_EXAMPLE = (
    "fabric words=3 delay1=5 delay2=1 threshold=10\n"
    "dur * 4\n"
    "rehearse 1 3 2 reps=10 gap=2 rest=20 start=0\n"
    "at 500 probe 1\n"
    "maxticks 2000\n"
)

OVERRIDE_SCENARIO = (
    "fabric words=3 delay1=5 delay2=1 threshold=10\n"
    "dur * 4\n"
    "rehearse 1 3 2 reps=10 gap=2 rest=20 start=0\n"
    "at 400 override 1 3 open\n"
    "at 500 probe 1\n"
    "at 600 override 1 3 closed\n"
    "at 700 probe 1\n"
    "maxticks 2000\n"
)

CONCURRENCY_BASE = (
    "fabric words=4 delay1=5 delay2=1 threshold=3\n"
    "dur * 4\n"
    "rehearse 1 2 reps=3 gap=2 rest=20 start=0\n"
    "rehearse 3 4 reps=3 gap=2 rest=20 start=200\n"
)
CONCURRENCY_BOTH = CONCURRENCY_BASE + "at 400 probe 1\nat 400 probe 3\nmaxticks 2000\n"
CONCURRENCY_SOLO_1 = CONCURRENCY_BASE + "at 400 probe 1\nmaxticks 2000\n"
CONCURRENCY_SOLO_3 = CONCURRENCY_BASE + "at 400 probe 3\nmaxticks 2000\n"

CYCLE_SCENARIO = (
    "fabric words=2 delay1=5 delay2=1 threshold=3\n"
    "dur * 4\n"
    "rehearse 1 2 reps=3 gap=2 rest=20 start=0\n"
    "rehearse 2 1 reps=3 gap=2 rest=20 start=200\n"
    "at 400 probe 1\n"
    "maxticks 2000\n"
)

NEGATIVE_CONTROL = (
    "fabric words=2 delay1=5 delay2=1 threshold=3\n"
    "dur * 4\n"
    "rehearse 1 2 reps=50 gap=6 rest=6 start=0\n"
    "maxticks 20000\n"
)

REFRACTORY_SCENARIO = (
    "fabric words=2 delay1=10 delay2=3 threshold=5 mode=done_done\n"
    "dur * 1\n"
    "at 0 probe 1\n"
    "at 2 probe 2\n"
    "at 4 probe 2\n"
    "maxticks 100\n"
)

NAMED_SCENARIOS = [
    WORKED_EXAMPLE,
    WORKED_EXAMPLE.replace("reps=10", "reps=9"),
    OVERRIDE_SCENARIO,
    CONCURRENCY_BOTH,
    CONCURRENCY_SOLO_1,
    CONCURRENCY_SOLO_3,
    CYCLE_SCENARIO,
    NEGATIVE_CONTROL,
    REFRACTORY_SCENARIO,
]


def _probe_episode(result, probe_index: int):
    """Probes are scheduled first, so probe k owns episode id k."""
    return episode_subtrace(result.records, probe_index)


def test_criterion_01_worked_example_reproduction():
    with criterion(1, "worked example learns 1-3-2 and replays it CPU-free"):
        result = run_text(WORKED_EXAMPLE)
        assert result.outcome.quiescent
        assert result.simulation.fabric.learned_set() == {(1, 3), (3, 2)}

        probe = _probe_episode(result, 0)
        enables = [(e.tick, e.word) for e in probe if e.kind == EV_ENABLE]
        dones = {e.word: e.tick for e in probe if e.kind == EV_DONE}
        assert enables == [(500, 1), (509, 3), (518, 2)]
        # every autonomous enable lands exactly delay1 after the prior done
        assert enables[1][0] == dones[1] + 5
        assert enables[2][0] == dones[3] + 5

        summary = next(e for e in result.report.episodes if e.start == 500)
        assert summary.cpu_enables_after_trigger == 0
        assert summary.fired_words == (1, 2, 3)


def test_criterion_02_threshold_sharpness():
    with criterion(2, "nine rehearsals learn nothing, ten learn the chain"):
        nine = run_text(WORKED_EXAMPLE.replace("reps=10", "reps=9"))
        assert nine.simulation.fabric.learned_set() == set()
        probe = _probe_episode(nine, 0)
        assert [(e.kind, e.word) for e in probe] == [(EV_ENABLE, 1), (EV_DONE, 1)]

        ten = run_text(WORKED_EXAMPLE)
        assert ten.simulation.fabric.learned_set() == {(1, 3), (3, 2)}
        words = [e.word for e in _probe_episode(ten, 0) if e.kind == EV_ENABLE]
        assert words == [1, 3, 2]


def test_criterion_03_structural_scaling():
    with criterion(3, "a fabric over K words holds exactly K(K-1) filters"):
        for word_count in (2, 3, 5, 10):
            words = range(1, word_count + 1)
            # Every word finishes at tick 4 and holds its window to tick 9;
            # the second probes land inside all of them, so every filter fires.
            probes = "".join(f"at {tick} probe {word}\n" for tick in (0, 5) for word in words)
            result = run_text(
                f"fabric words={word_count} delay1=5 delay2=1 threshold=3\n"
                f"dur * 4\n{probes}maxticks 100\n"
            )
            ordered_pairs = {(i, j) for i in words for j in words if i != j}
            assert {r.pair for r in result.records if r.ev == EV_FILTER_FIRE} == ordered_pairs
            assert result.simulation.fabric.filter_count == word_count * (word_count - 1)


def test_criterion_04_override_blocks_and_restores_replay():
    with criterion(4, "override opens the learned path and re-closes cleanly"):
        result = run_text(OVERRIDE_SCENARIO)
        assert result.outcome.quiescent
        assert result.simulation.fabric.learned_set() == {(1, 3), (3, 2)}

        blocked = _probe_episode(result, 0)
        assert [(e.tick, e.kind, e.word) for e in blocked] == [
            (500, EV_ENABLE, 1),
            (504, EV_DONE, 1),
            (504, EV_OVERRIDE_BLOCKED, 3),
        ]
        restored = _probe_episode(result, 1)
        enables = [(e.tick, e.word) for e in restored if e.kind == EV_ENABLE]
        assert enables == [(700, 1), (709, 3), (718, 2)]


def test_criterion_05_independent_sequences_run_concurrently():
    with criterion(5, "two disjoint learned chains interleave without skew"):
        both = run_text(CONCURRENCY_BOTH)
        solo_1 = run_text(CONCURRENCY_SOLO_1)
        solo_3 = run_text(CONCURRENCY_SOLO_3)
        assert both.simulation.fabric.learned_set() == {(1, 2), (3, 4)}
        config = both.scenario.config

        chain_1 = _probe_episode(both, 0)
        chain_3 = _probe_episode(both, 1)
        # both chains completed
        assert [e.word for e in chain_1 if e.kind == EV_ENABLE] == [1, 2]
        assert [e.word for e in chain_3 if e.kind == EV_ENABLE] == [3, 4]
        # concurrent timings equal the solo-run timings, record for record
        assert chain_1 == _probe_episode(solo_1, 0)
        assert chain_3 == _probe_episode(solo_3, 0)
        # the interleaved trace is exactly the merge of the two oracle timelines
        merged = sorted(
            shift_entries(predict_timeline({(1, 2), (3, 4)}, set(), 1, config), 400)
            + shift_entries(predict_timeline({(1, 2), (3, 4)}, set(), 3, config), 400),
            key=entry_sort_key,
        )
        assert sorted(chain_1 + chain_3, key=entry_sort_key) == merged


def test_criterion_06_learned_cycle_is_suppressed_not_looped():
    with criterion(6, "a learned 1-2-1 cycle stops after one lap"):
        result = run_text(CYCLE_SCENARIO)
        assert result.outcome.quiescent
        assert {(1, 2), (2, 1)} <= result.simulation.fabric.learned_set()
        probe = _probe_episode(result, 0)
        assert [(e.kind, e.word) for e in probe] == [
            (EV_ENABLE, 1),
            (EV_DONE, 1),
            (EV_ENABLE, 2),
            (EV_DONE, 2),
            ("loop_suppressed", 1),
        ]
        suppressed = [e for e in probe if e.kind == "loop_suppressed"]
        assert suppressed[0].pair == (2, 1)


# -- criterion 7: randomized oracle equivalence --------------------------


def _random_scenario_text(rng: random.Random) -> str:
    word_count = rng.randint(2, 6)
    delay1 = rng.randint(2, 8)
    delay2 = rng.randint(1, delay1)
    threshold = rng.randint(1, 5)
    mode = rng.choice(["done_enable", "done_done"])
    durations = {w: rng.randint(1, 6) for w in range(1, word_count + 1)}
    max_duration = max(durations.values())

    lines = [
        f"fabric words={word_count} delay1={delay1} delay2={delay2} "
        f"threshold={threshold} mode={mode}",
        "dur * 1",
    ]
    for word, duration in durations.items():
        if duration != 1:
            lines.append(f"dur {word} {duration}")

    episode_bound = sum(durations[w] + delay1 for w in durations)
    plan_end = 0
    total_plan_work = 0
    for _ in range(rng.randint(0, 3)):
        length = rng.randint(2, word_count)
        sequence = rng.sample(range(1, word_count + 1), length)
        reps = rng.randint(1, threshold + 2)
        # bias toward gaps inside the window so learning actually happens
        gap = rng.randint(0, delay1) if rng.random() < 0.75 else delay1 + rng.randint(1, 3)
        rest = rng.randint(0, 2 * delay1)
        start = rng.randint(0, 40)
        seq = " ".join(str(w) for w in sequence)
        lines.append(f"rehearse {seq} reps={reps} gap={gap} rest={rest} start={start}")
        work = reps * (rest + length * (gap + max_duration) + episode_bound)
        plan_end = max(plan_end, start + work)
        total_plan_work += work

    spacing = episode_bound + delay1 + 2
    tick = plan_end + spacing
    probe_lines = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.4:
            i = rng.randint(1, word_count)
            j = rng.choice([w for w in range(1, word_count + 1) if w != i])
            state = rng.choice(["open", "closed"])
            # the preceding episode is quiet by tick - 2, so tick - 1 is the
            # one slot guaranteed to fall between episodes
            probe_lines.append(f"at {tick - 1} override {i} {j} {state}")
        word = rng.randint(1, word_count)
        probe_lines.append(f"at {tick} probe {word}")
        tick += spacing
    lines.extend(probe_lines)
    # a plan stalled on a vanished done can be revived by probe traffic and
    # still owes its remaining work after the last probe
    lines.append(f"maxticks {tick + spacing + total_plan_work}")
    return "\n".join(lines) + "\n"


def _check_random_scenario(text: str) -> tuple[int, int, bool]:
    """Run one scenario against the oracle; return (probes checked, skipped, learned any)."""
    scenario = parse_scenario(text)
    result = run_scenario(scenario)
    assert result.outcome.quiescent, text

    counts = count_detections(result.records, scenario.config)
    assert result.simulation.fabric.learned_set() == predict_learned(
        counts, scenario.config.threshold
    ), text
    assert dict(result.report.detections) == counts, text
    ticks = detection_ticks(result.records, scenario.config)
    assert dict(result.report.learned) == {
        pair: ticks[pair][scenario.config.threshold - 1]
        for pair in result.simulation.fabric.learned_set()
    }, text
    assert verify_run(scenario, result.records) == [], text

    learned_events = [(rec.t, rec.pair) for rec in result.records if rec.ev == EV_LEARNED]
    max_duration = max(scenario.config.durations.values())
    checked = 0
    skipped = 0
    for index, probe in enumerate(scenario.probes):
        sub = episode_subtrace(result.records, index)
        end = max(e.tick for e in sub)
        # The stable-learned-set prediction only applies to undisturbed
        # episodes. A plan stalled on a word that later traffic ran again
        # can wake up around a probe (its enables show up as foreign
        # records, possibly holding a word busy from just before the
        # probe), and replay inside the episode can finish a learning or
        # cross an override flip; skip those probes rather than predict.
        foreign = [
            rec
            for rec in result.records
            if probe.tick - max_duration <= rec.t <= end
            and rec.episode is not None
            and rec.episode != index
        ]
        if (
            foreign
            or any(probe.tick <= t <= end for t, _ in learned_events)
            or any(probe.tick <= d.tick <= end for d in scenario.overrides)
        ):
            skipped += 1
            continue
        trigger = next(e for e in sub if e.kind == EV_ENABLE)
        assert trigger.tick == probe.tick and trigger.word == probe.word, text
        learned_at = {pair for t, pair in learned_events if t <= probe.tick}
        overrides_at = override_state_at(scenario, probe.tick)
        predicted = shift_entries(
            predict_timeline(learned_at, overrides_at, probe.word, scenario.config),
            probe.tick,
        )
        assert sub == predicted, text
        checked += 1
    return checked, skipped, bool(learned_events)


def test_criterion_07_randomized_oracle_equivalence():
    with criterion(7, f"{RANDOM_SCENARIOS} seeded scenarios agree with the oracle"):
        rng = random.Random(RANDOM_SEED)
        checked = skipped = with_learning = 0
        for _ in range(RANDOM_SCENARIOS):
            text = _random_scenario_text(rng)
            probes_checked, probes_skipped, learned_any = _check_random_scenario(text)
            checked += probes_checked
            skipped += probes_skipped
            with_learning += learned_any
        # the sweep must really exercise replay prediction, not skip past it
        assert checked >= 1000, (checked, skipped)
        assert with_learning >= 200, with_learning


# -- criterion 8: monotonicity and determinism ----------------------------


def _assert_monotone_and_deterministic(text: str) -> None:
    first = run_scenario(parse_scenario(text))
    second = run_scenario(parse_scenario(text))
    assert format_trace(first.records) == format_trace(second.records), text

    stages: dict[tuple[int, int], int] = {}
    learned_seen: set[tuple[int, int]] = set()
    threshold = first.scenario.config.threshold
    for rec in first.records:
        if rec.ev == EV_LATCH_SHIFT:
            previous = stages.get(rec.pair, 0)
            assert previous <= rec.stage <= threshold, text
            stages[rec.pair] = rec.stage
        elif rec.ev == EV_LEARNED:
            assert rec.pair not in learned_seen, text
            assert stages.get(rec.pair) == threshold, text
            learned_seen.add(rec.pair)


def test_criterion_08_monotone_learning_and_byte_determinism():
    with criterion(8, "latches never regress; reruns are byte-identical"):
        for text in NAMED_SCENARIOS:
            _assert_monotone_and_deterministic(text)
        rng = random.Random(RANDOM_SEED)
        for _ in range(RANDOM_SCENARIOS):
            _assert_monotone_and_deterministic(_random_scenario_text(rng))


def test_criterion_09_gap_beyond_window_is_a_negative_control():
    with criterion(9, "fifty rehearsals outside the window learn nothing"):
        result = run_text(NEGATIVE_CONTROL)
        assert result.outcome.quiescent
        assert result.simulation.fabric.learned_set() == set()
        assert count_detections(result.records, result.scenario.config) == {}


def test_criterion_10_spike_width_refractory():
    with criterion(10, "coincidences inside delay2 collapse to one detection"):
        result = run_text(REFRACTORY_SCENARIO)
        config = result.scenario.config
        fires = [r for r in result.records if r.ev == EV_FILTER_FIRE and r.pair == (1, 2)]
        shifts = [r for r in result.records if r.ev == EV_LATCH_SHIFT and r.pair == (1, 2)]
        assert len(fires) == 2  # both coincidences reach the detector
        assert len(shifts) == 1  # but the spike is still high for the second
        assert dict(result.report.detections) == {(1, 2): 1}
        assert count_detections(result.records, config) == {(1, 2): 1}
