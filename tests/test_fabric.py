"""Fabric structure, filter windows, latch registers, replay, overrides."""

from __future__ import annotations

import copy
import pickle
import re
from bisect import insort

import pytest
from hypothesis import example, given, strategies as st

from memfabric import (
    Fabric,
    FabricConfig,
    InvalidConfigError,
    OverrideDirective,
    Probe,
    Scenario,
    SelfPairError,
    TraceRecord,
    UnknownWordError,
    episode_subtrace,
    predict_timeline,
    shift_entries,
)
from memfabric.fabric import FILTER_MODES, Durations
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
)
from conftest import OVERRIDE_CYCLE, assert_every_path_checks, records_of, run_text, simulation


def _config(word_count=2, delay1=5, delay2=1, threshold=10, duration=4, **kw):
    durations = Durations(word_count, duration, {})
    return FabricConfig(word_count, delay1, delay2, threshold, durations, **kw)


# -- construction ------------------------------------------------------


@pytest.mark.parametrize("word_count,filters", [(2, 2), (3, 6), (10, 90)])
def test_fabric_has_one_filter_per_ordered_pair(word_count, filters):
    fabric = Fabric(_config(word_count=word_count))
    assert fabric.filter_count == filters


def test_fresh_fabric_is_fully_cleared():
    fabric = Fabric(_config(word_count=3))
    assert fabric.learned_set() == set()


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(word_count=1),
        dict(delay1=0),
        dict(delay2=0),
        dict(delay1=3, delay2=4),
        dict(threshold=0),
        dict(duration=0),
    ],
)
def test_bad_configs_are_rejected(kwargs):
    with pytest.raises(InvalidConfigError):
        _config(**kwargs)


def test_missing_duration_is_rejected():
    with pytest.raises(InvalidConfigError):
        FabricConfig(word_count=2, delay1=5, delay2=1, threshold=1, durations={1: 4})


@pytest.mark.parametrize(
    "field, bad",
    [
        ("word_count", 1), ("delay1", 0), ("delay2", 6), ("threshold", 0), ("durations", {1: 4}),
        ("durations", {1: 4, 2: 0}), ("filter_mode", "x"),
    ]
    + [  # an integer field that is not an int
        (field, bad)
        for bad in (True, 1.0)
        for field in ("word_count", "delay1", "delay2", "threshold")
    ]
    + [("durations", {1: bad, 2: 4}) for bad in (True, 1.0)],
)
def test_every_way_to_build_a_config_checks_it(field, bad):
    config = FabricConfig(word_count=2, delay1=5, delay2=1, threshold=1, durations={1: 4, 2: 4})
    assert_every_path_checks(config, field, bad, InvalidConfigError)


@pytest.mark.parametrize(
    "durations, field, bad",
    [
        ({1: 4, 2: 4}, "durations", {1: 4, 2: 4, 99: 7}),
        ({1: 4, 2: 4}, "durations", {0: 4, 1: 4, 2: 4}),
        ({1: 4, 2: 4, 3: 4}, "word_count", 2),  # a fabric smaller than its durations
        ({1: 4, 2: 4}, "durations", {1: 4, 2: 4, 1.5: 4}),  # 1 <= 1.5 <= 2, but no int
        ({1: 4, 2: 4}, "durations", {True: 4, 2: 4}),  # keys equal to the words
        ({1: 4, 2: 4}, "durations", {1.0: 4, 2: 4}),
        ({1: 4, 2: 9, 3: 4}, "word_count", 2),  # the cut word is not the exception
    ],
)
def test_every_way_to_build_a_config_keeps_the_durations_to_its_words(durations, field, bad):
    config = FabricConfig(len(durations), delay1=5, delay2=1, threshold=1, durations=durations)
    assert_every_path_checks(config, field, bad, UnknownWordError)


@pytest.mark.parametrize(
    "named, stray",
    [({7: 9}, 7), ({3: 9, 7: 9}, 7), ({0: 9}, 0), ({1.0: 9}, 1.0), ({"a": 1, 1: 2}, "a")],
)
def test_durations_keep_to_the_words_they_name(named, stray):
    message = f"^word {re.escape(repr(stray))} outside 1..3$"
    # built here, past the constructor, so that the copies below must check it
    unchecked = object.__new__(Durations)
    unchecked._parts = (3, 4, named)
    config = _config(word_count=3)
    holding = tuple.__new__(FabricConfig, (*config[:4], unchecked, config.filter_mode))
    builds = [
        lambda: Durations(3, 4, named),
        lambda: FabricConfig(3, 5, 1, 1, Durations(3, 4, named)),
        lambda: FabricConfig(3, 5, 1, 1, named),
        lambda: pickle.loads(pickle.dumps(unchecked)),
        lambda: copy.copy(unchecked),
        lambda: copy.deepcopy(unchecked),
        lambda: pickle.loads(pickle.dumps(holding)),
        lambda: copy.deepcopy(holding),
    ]
    for build in builds:
        with pytest.raises(UnknownWordError, match=message):
            build()
    assert_every_path_checks(config, "durations", dict(named), UnknownWordError)


@pytest.mark.parametrize("word_count", [-1, 2.5, True, 0, 1])
def test_durations_take_only_a_size_a_config_takes(word_count):
    message = f"^need at least 2 words, got {re.escape(repr(word_count))}$"
    unchecked = object.__new__(Durations)
    unchecked._parts = (word_count, 4, {})
    builds = [  # the size comes first: before a stray word, and before no default cuts it
        lambda: Durations(word_count, 4, {}),
        lambda: Durations(word_count, 4, {7: 9}),
        lambda: Durations(word_count, None, {1: 4, 2: 4}),
        lambda: FabricConfig(word_count, 5, 1, 1, {1: 4, 2: 4}),
        lambda: pickle.loads(pickle.dumps(unchecked)),
        lambda: copy.deepcopy(unchecked),
    ]
    for build in builds:
        with pytest.raises(InvalidConfigError, match=message):
            build()


@pytest.mark.parametrize(
    "named, error, message",
    [  # the type, the words in the given order, the durations in word order, then the length
        ({1: 0, 5: 4}, UnknownWordError, "word 5 outside 1..2"),
        ({9: 4, 1: 0, 7: 4}, UnknownWordError, "word 9 outside 1..2"),
        ({2: 0, 1: True}, InvalidConfigError, "duration of word 1 is not an integer: True"),
        ({2: 0}, InvalidConfigError, "duration of word 2 must be >= 1, got 0"),
        ({2: 4}, InvalidConfigError, "no duration for word 1"),
    ],
)
def test_durations_with_several_faults_name_the_first_rule_they_break(named, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        FabricConfig(2, 5, 1, 1, named)


def test_a_config_takes_its_durations_as_pairs_too():
    # As dict() takes them: the words are checked all the same.
    assert FabricConfig(2, 5, 1, 1, [(1, 4), (2, 4)]) == _config(threshold=1)
    assert Durations(3, 4, [(3, 9)]) == {1: 4, 2: 4, 3: 9}
    with pytest.raises(UnknownWordError, match="^word 7 outside 1..3$"):
        Durations(3, 4, [(3, 9), (7, 9)])


@pytest.mark.parametrize("word_count", [3, 10**9])
def test_a_config_keeps_its_durations_to_its_own_fabric_size(word_count):
    # Durations hold their own size: _replace cannot cut the fabric under them,
    # nor widen it past them, at any size.
    config = _config(word_count=word_count)
    cut, widened = config.word_count - 1, config.word_count + 1
    with pytest.raises(UnknownWordError, match=f"word {word_count} outside 1..{cut}$"):
        config._replace(word_count=cut)
    with pytest.raises(InvalidConfigError, match=f"no duration for word {widened}$"):
        config._replace(word_count=widened)
    assert_every_path_checks(config, "word_count", cut, UnknownWordError)
    assert_every_path_checks(config, "word_count", widened, InvalidConfigError)


@pytest.mark.parametrize("word_count", [3, 10**9])
def test_durations_reject_what_is_not_a_word_as_a_dict_would(word_count):
    durations = _config(word_count=word_count).durations
    for key in (0, word_count + 1, 1.0, "1"):
        with pytest.raises(KeyError):
            durations[key]
    assert durations.get(word_count + 1) is None
    assert 0 not in durations
    assert durations[1] == durations[word_count] == 4
    assert repr(durations) == f"Durations({word_count}, 4, {{}})"


def test_config_keeps_a_read_only_copy_of_the_durations():
    given = [{1: 4, 2: 4}, {1: 4, 2: 9, 3: 4}, Durations(3, 4, {2: 9}), Durations(10**9, 4, {7: 9})]
    for durations in given:
        _assert_read_only(durations)


def _assert_read_only(durations):
    given = dict(durations) if isinstance(durations, dict) else durations
    cfg = FabricConfig(len(durations), delay1=5, delay2=1, threshold=1, durations=durations)
    if isinstance(durations, dict):
        durations[1] = -3  # checked at construction, so the caller's edit must not reach it
        durations[len(durations) + 1] = 4
    assert cfg.durations == given and cfg.durations[1] == 4
    with pytest.raises(TypeError):  # the durations have no hash, so neither has the config
        hash(cfg)
    view = cfg.durations
    edits = [
        lambda d: d.__setitem__(1, -3),
        lambda d: d.__delitem__(1),
        lambda d: d.exceptions.__setitem__(1, -3),
        lambda d: setattr(d, "default", -3),
        lambda d: setattr(d, "exceptions", {1: -3}),
        lambda d: setattr(d, "extra", 1),
    ]
    edits += [  # each mutator a dict offers, called on the mapping
        lambda d, name=name: getattr(d, name)({1: -3})
        for name in ("clear", "pop", "popitem", "setdefault", "update", "__ior__")
    ]
    for edit in edits:
        with pytest.raises((TypeError, AttributeError)):
            edit(view)
    assert cfg.durations == given and cfg.durations is view
    copies = [pickle.loads(pickle.dumps(cfg)), copy.copy(cfg), copy.deepcopy(cfg), cfg._replace()]
    copies.append(cfg._replace(durations=cfg.durations))
    for same in copies:
        assert same == cfg and same.durations == given
        assert type(same.durations) is Durations
    sim = simulation(cfg, probes=[Probe(tick=0, word=1)])
    assert sim.run_to_quiescence(100).final_tick == 4


def test_unknown_filter_mode_is_rejected():
    with pytest.raises(InvalidConfigError):
        _config(filter_mode="both_edges")


# -- enables, busy rule, durations -------------------------------------


def test_enable_schedules_done_after_duration():
    sim = simulation(_config(), probes=[Probe(tick=10, word=2)])
    sim.run_to_quiescence(100)
    assert [(r.t, r.word) for r in sim.records if r.ev == EV_DONE] == [(14, 2)]


def test_busy_word_ignores_enable():
    sim = simulation(
        _config(),
        probes=[Probe(tick=8, word=2), Probe(tick=10, word=2)],  # busy until 12
    )
    sim.run_to_quiescence(100)
    ignored = [r for r in sim.records if r.ev == EV_IGNORED_ENABLE]
    assert [(r.t, r.word) for r in ignored] == [(10, 2)]
    assert len([r for r in sim.records if r.ev == EV_DONE]) == 1


def test_unknown_word_enable_raises():
    with pytest.raises(UnknownWordError, match="^word 7 outside 1..2$"):
        Scenario(_config(), (), [Probe(tick=0, word=7)], (), 100)


def test_reenable_at_exact_completion_tick_keeps_both_dones():
    # The second enable lands on the word's completion tick before the
    # pending done dispatches; each activation still gets its own done.
    sim = simulation(_config(), probes=[Probe(tick=0, word=1), Probe(tick=4, word=1)])
    sim.run_to_quiescence(100)
    enables = [(r.t, r.episode) for r in sim.records if r.ev == EV_ENABLE]
    dones = [(r.t, r.episode) for r in sim.records if r.ev == EV_DONE]
    assert enables == [(0, 0), (4, 1)]
    assert dones == [(4, 0), (8, 1)]


# -- coincidence windows ------------------------------------------------


def _window_probe_run(trigger_tick: int):
    sim = simulation(
        _config(threshold=3),
        probes=[
            Probe(tick=6, word=1),  # done at 10, window [10, 15]
            Probe(tick=trigger_tick, word=2),
        ],
    )
    sim.run_to_quiescence(100)
    return sim


def test_enable_on_window_closing_edge_still_detects():
    sim = _window_probe_run(15)
    shifts = [r for r in sim.records if r.ev == EV_LATCH_SHIFT]
    assert [(r.t, r.pair, r.stage) for r in shifts] == [(15, (1, 2), 1)]


def test_enable_one_tick_past_the_window_does_not_detect():
    sim = _window_probe_run(16)
    assert records_of_sim(sim, EV_LATCH_SHIFT) == []
    assert records_of_sim(sim, EV_FILTER_FIRE) == []


def records_of_sim(sim, ev):
    return [r for r in sim.records if r.ev == ev]


def test_new_done_retriggers_the_window():
    sim = simulation(
        _config(threshold=3),
        probes=[
            Probe(tick=0, word=1),  # done 4, window [4, 9]
            Probe(tick=5, word=1),  # done 9, window [9, 14]
            Probe(tick=12, word=2),  # outside the first window only
        ],
    )
    sim.run_to_quiescence(100)
    shifts = records_of_sim(sim, EV_LATCH_SHIFT)
    assert [(r.t, r.pair) for r in shifts] == [(12, (1, 2))]


def test_open_windows_fire_in_ascending_source_order():
    sim = simulation(
        _config(word_count=3, threshold=3),
        probes=[
            Probe(tick=0, word=2),  # done 4, window [4, 9]
            Probe(tick=1, word=1),  # done 5, window [5, 10]
            Probe(tick=6, word=3),  # inside both windows
        ],
    )
    sim.run_to_quiescence(100)
    assert [r.pair for r in records_of_sim(sim, EV_FILTER_FIRE)] == [(1, 3), (2, 3)]


def test_ignored_enable_does_not_feed_filters():
    sim = simulation(
        _config(threshold=3),
        probes=[
            Probe(tick=0, word=1),  # done 4, window [4, 9]
            Probe(tick=3, word=2),  # busy until 7
            Probe(tick=5, word=2),  # ignored: busy, inside window
        ],
    )
    sim.run_to_quiescence(100)
    assert [r.t for r in records_of_sim(sim, EV_IGNORED_ENABLE)] == [5]
    # only the accepted enable at t=3 could detect, and it precedes the done
    assert records_of_sim(sim, EV_FILTER_FIRE) == []


# -- latch registers ----------------------------------------------------


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=30))
def test_register_latches_one_prefix_stage_per_shift_and_learns_once(depth, reps):
    # Every repetition of the rehearsal is one well-spaced detection of
    # (1, 2); its stages saturate at the register depth, and the shift
    # that sets the last stage is the only one that learns.
    text = (
        f"fabric words=2 delay1=5 delay2=1 threshold={depth}\n"
        "dur * 2\n"
        f"rehearse 1 2 reps={reps} gap=1 rest=20 start=0\n"
        "maxticks 2000\n"
    )
    result = run_text(text)
    shifts = records_of(result, EV_LATCH_SHIFT)
    assert [(r.pair, r.stage) for r in shifts] == [
        ((1, 2), min(k, depth)) for k in range(1, reps + 1)
    ]
    learned = [(r.pair, r.t) for r in records_of(result, EV_LEARNED)]
    assert learned == ([((1, 2), shifts[depth - 1].t)] if reps >= depth else [])


def test_third_well_spaced_detection_emits_learned_once():
    text = (
        "fabric words=2 delay1=5 delay2=1 threshold=3\n"
        "dur * 2\n"
        "rehearse 1 2 reps=5 gap=1 rest=20 start=0\n"
        "maxticks 2000\n"
    )
    result = run_text(text)
    shifts = [r for r in result.records if r.ev == EV_LATCH_SHIFT and r.pair == (1, 2)]
    assert [r.stage for r in shifts] == [1, 2, 3, 3, 3]
    learned = [r for r in result.records if r.ev == EV_LEARNED]
    assert [(r.pair, r.t) for r in learned] == [((1, 2), shifts[2].t)]


def test_detections_inside_the_refractory_fire_but_do_not_shift():
    text = (
        "fabric words=2 delay1=10 delay2=3 threshold=5 mode=done_done\n"
        "dur * 1\n"
        "at 0 probe 1\n"
        "at 2 probe 2\n"
        "at 4 probe 2\n"
        "maxticks 100\n"
    )
    result = run_text(text)
    fires = [r.t for r in result.records if r.ev == EV_FILTER_FIRE and r.pair == (1, 2)]
    shifts = [r.t for r in result.records if r.ev == EV_LATCH_SHIFT and r.pair == (1, 2)]
    assert fires == [3, 5]  # dones of word 2 inside word 1's window
    assert shifts == [3]  # the second coincidence is 2 < delay2 ticks after the first
    assert dict(result.report.detections) == {(1, 2): 1}


# -- replay, suppression, overrides -------------------------------------


def _primed_simulation(
    learned_pairs, *, probes, overrides=(), durations=None, delay1=10, word_count=4
):
    config = FabricConfig(
        word_count=word_count,
        delay1=delay1,
        delay2=1,
        threshold=5,
        durations=durations or {w: 1 for w in range(1, word_count + 1)},
    )
    sim = simulation(config, probes=probes, overrides=overrides)
    for pair in learned_pairs:
        # white box: state normally reached via rehearsal
        insort(sim.fabric._successors.setdefault(pair[0], []), pair)
    return sim


def test_done_of_learned_pair_schedules_auto_enable_delay1_later():
    sim = _primed_simulation({(1, 3), (3, 2)}, word_count=3, delay1=5,
                             durations={1: 4, 2: 4, 3: 4}, probes=[Probe(tick=0, word=1)])
    sim.run_to_quiescence(200)
    scheduled = [(r.t, r.word, r.pair) for r in sim.records if r.ev == EV_AUTO_ENABLE_SCHEDULED]
    assert scheduled == [(4, 3, (1, 3)), (13, 2, (3, 2))]
    enables = [(r.t, r.word, r.src) for r in sim.records if r.ev == EV_ENABLE]
    assert enables == [(0, 1, "cpu"), (9, 3, "auto"), (18, 2, "auto")]


def test_fan_out_schedules_successors_in_ascending_word_order():
    sim = _primed_simulation({(1, 3), (1, 2)}, word_count=3, probes=[Probe(tick=0, word=1)])
    sim.run_to_quiescence(200)
    scheduled = [(r.word, r.pair) for r in sim.records if r.ev == EV_AUTO_ENABLE_SCHEDULED]
    assert scheduled == [(2, (1, 2)), (3, (1, 3))]
    enables = [(r.t, r.word) for r in sim.records if r.ev == EV_ENABLE]
    assert enables == [(0, 1), (11, 2), (11, 3)]


def test_successors_learned_out_of_word_order_replay_in_word_order():
    text = (
        "fabric words=3 delay1=5 delay2=1 threshold=1\n"
        "dur * 2\n"
        "rehearse 1 3 reps=1 gap=1 rest=20 start=0\n"
        "rehearse 1 2 reps=1 gap=1 rest=20 start=100\n"
        "at 300 probe 1\n"
        "maxticks 1000\n"
    )
    result = run_text(text)
    learned = {r.pair: r.t for r in records_of(result, EV_LEARNED)}
    assert learned[(1, 3)] < learned[(1, 2)]
    scheduled = [
        (r.word, r.pair) for r in records_of(result, EV_AUTO_ENABLE_SCHEDULED) if r.t >= 300
    ]
    assert scheduled == [(2, (1, 2)), (3, (1, 3))]


def test_fan_in_second_arrival_at_idle_word_is_ignored_by_episode_guard():
    # Word 2 is fed by both 3 and 4; the two auto enables land at
    # different ticks and word 2 is idle again when the second arrives,
    # so only the per-episode fired set can block the repeat.
    sim = _primed_simulation(
        {(1, 3), (1, 4), (3, 2), (4, 2)},
        durations={1: 1, 2: 1, 3: 2, 4: 6},
        probes=[Probe(tick=0, word=1)],
    )
    sim.run_to_quiescence(200)
    enables_of_2 = [r for r in sim.records if r.ev == EV_ENABLE and r.word == 2]
    ignored = [r for r in sim.records if r.ev == EV_IGNORED_ENABLE]
    assert [(r.t, r.pair) for r in enables_of_2] == [(23, (3, 2))]
    assert [(r.t, r.word, r.pair) for r in ignored] == [(27, 2, (4, 2))]
    # the oracle's replay expansion predicts the same episode, collision included
    predicted = shift_entries(
        predict_timeline({(1, 3), (1, 4), (3, 2), (4, 2)}, set(), 1, sim.config), 0
    )
    assert episode_subtrace(sim.records, 0) == predicted


def test_cycle_is_suppressed_within_an_episode():
    sim = _primed_simulation({(1, 2), (2, 1)}, word_count=2, probes=[Probe(tick=0, word=1)])
    outcome = sim.run_to_quiescence(500)
    assert outcome.quiescent
    suppressed = [(r.t, r.pair) for r in sim.records if r.ev == EV_LOOP_SUPPRESSED]
    assert suppressed == [(12, (2, 1))]
    assert [(r.t, r.word) for r in sim.records if r.ev == EV_ENABLE] == [(0, 1), (11, 2)]


def test_open_override_blocks_replay_without_unlearning():
    sim = _primed_simulation(
        {(1, 2)},
        word_count=2,
        probes=[Probe(tick=5, word=1)],
        overrides=[OverrideDirective(0, 1, 2, True)],
    )
    sim.run_to_quiescence(500)
    blocked = [(r.t, r.pair) for r in sim.records if r.ev == EV_OVERRIDE_BLOCKED]
    assert blocked == [(6, (1, 2))]
    assert all(r.src != "auto" for r in sim.records if r.ev == EV_ENABLE)
    assert sim.fabric.learned_set() == {(1, 2)}


def test_closing_the_override_restores_replay():
    sim = _primed_simulation(
        {(1, 2)},
        word_count=2,
        probes=[Probe(tick=20, word=1)],
        overrides=[OverrideDirective(0, 1, 2, True), OverrideDirective(10, 1, 2, False)],
    )
    sim.run_to_quiescence(500)
    auto = [(r.t, r.word) for r in sim.records if r.ev == EV_ENABLE and r.src == "auto"]
    assert auto == [(31, 2)]


def test_override_on_unlearned_pair_is_legal_and_inert():
    sim = simulation(
        _config(), probes=[Probe(tick=5, word=1)], overrides=[OverrideDirective(0, 1, 2, True)]
    )
    sim.run_to_quiescence(100)
    assert sim.fabric.override_is_open((1, 2))
    kinds = {r.ev for r in sim.records}
    assert EV_OVERRIDE_BLOCKED not in kinds and EV_LOOP_SUPPRESSED not in kinds


def test_override_self_pair_is_rejected():
    with pytest.raises(SelfPairError, match=r"^pair \(1, 1\) is a self pair$"):
        Scenario(_config(), (), (), [OverrideDirective(0, 1, 1, True)], 100)
    with pytest.raises(UnknownWordError, match="^word 9 outside 1..2$"):
        Scenario(_config(), (), (), [OverrideDirective(0, 1, 9, True)], 100)


def test_filters_observe_replay_uniformly():
    # An autonomous enable lands exactly delay1 after the done, on the
    # window's closing edge, so replay keeps re-detecting learned pairs.
    sim = _primed_simulation({(1, 2)}, word_count=2, probes=[Probe(tick=0, word=1)])
    sim.run_to_quiescence(200)
    shifts = [(r.t, r.pair) for r in sim.records if r.ev == EV_LATCH_SHIFT]
    assert shifts == [(11, (1, 2))]


def test_done_done_same_tick_dones_resolve_by_dispatch_order():
    # both words finish at t=2; word 1's done dispatches first (scheduled
    # earlier), so its window is already holding when word 2's done lands
    text = (
        "fabric words=2 delay1=4 delay2=1 threshold=1 mode=done_done\n"
        "dur 1 2\n"
        "dur 2 1\n"
        "at 0 probe 1\n"
        "at 1 probe 2\n"
        "maxticks 50\n"
    )
    result = run_text(text)
    assert dict(result.report.detections) == {(1, 2): 1}
    assert result.simulation.fabric.learned_set() == {(1, 2)}


def test_done_done_mode_detects_consecutive_dones():
    text = (
        "fabric words=2 delay1=6 delay2=1 threshold=1 mode=done_done\n"
        "dur * 2\n"
        "at 0 probe 1\n"
        "at 3 probe 2\n"
        "maxticks 100\n"
    )
    result = run_text(text)
    # done(1)@2 holds [2, 8]; done(2)@5 falls inside
    assert result.simulation.fabric.learned_set() == {(1, 2)}
    assert [(r.t, r.pair) for r in result.records if r.ev == EV_LEARNED] == [(5, (1, 2))]


def test_learned_set_after_worked_example(worked_example_text):
    result = run_text(worked_example_text)
    assert result.simulation.fabric.learned_set() == {(1, 3), (3, 2)}


def test_nine_rehearsals_of_ten_threshold_learn_nothing(worked_example_text):
    text = worked_example_text.replace("reps=10", "reps=9")
    result = run_text(text)
    assert result.simulation.fabric.learned_set() == set()


def test_termination_bound_for_loop_free_learned_graph():
    sim = _primed_simulation(
        {(1, 2), (2, 3), (3, 4)},
        durations={1: 2, 2: 3, 3: 4, 4: 5},
        probes=[Probe(tick=0, word=1)],
    )
    outcome = sim.run_to_quiescence(10_000)
    assert outcome.quiescent
    chain_bound = sum(sim.config.durations[w] + sim.config.delay1 for w in (1, 2, 3, 4))
    assert outcome.final_tick <= chain_bound


@st.composite
def scenario_texts(draw):
    """A small scenario in either filter mode: rehearsals that learn, then
    probes, each behind an override switch of some pair."""
    word_count = draw(st.integers(min_value=2, max_value=4))
    threshold = draw(st.integers(min_value=1, max_value=3))
    words = st.integers(min_value=1, max_value=word_count)
    lines = [
        f"fabric words={word_count} delay1=5 delay2={draw(st.integers(1, 5))} "
        f"threshold={threshold} mode={draw(st.sampled_from(FILTER_MODES))}",
        f"dur * {draw(st.integers(min_value=1, max_value=4))}",
    ]
    for start in draw(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=2)):
        sequence = draw(st.permutations(range(1, word_count + 1)))
        length = draw(st.integers(min_value=2, max_value=word_count))
        lines.append(
            f"rehearse {' '.join(map(str, sequence[:length]))} reps={threshold + 1} "
            f"gap={draw(st.integers(0, 6))} rest=10 start={start}"
        )
    probes = st.tuples(words, words, st.booleans(), words)
    for n, (i, j, is_open, word) in enumerate(draw(st.lists(probes, max_size=3))):
        if i != j:
            lines.append(f"at {299 + 100 * n} override {i} {j} {'open' if is_open else 'closed'}")
        lines.append(f"at {300 + 100 * n} probe {word}")
    return "\n".join(lines) + "\nmaxticks 2000\n"


@given(scenario_texts())
@example(OVERRIDE_CYCLE)
def test_every_record_the_fabric_emits_is_a_whole_trace_record(text):
    # The fabric builds records with tuple.__new__, which checks no length:
    # a short tuple would only fail later, in format_trace's unpacking.
    for rec in run_text(text).records:
        assert type(rec) is TraceRecord and len(rec) == 7
