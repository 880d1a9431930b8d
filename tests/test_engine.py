"""Event queue ordering, dispatch, quiescence, and determinism."""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from memfabric import (
    Fabric,
    FabricConfig,
    Probe,
    QUIESCENT,
    RunOutcome,
    Simulation,
    TICK_LIMIT,
    build_simulation,
    format_trace,
    parse_scenario,
    run_scenario,
)
from memfabric.engine import CpuEnable, EventQueue, OverrideSet
from memfabric.fabric import Durations
from conftest import OVERRIDE_CYCLE, run_text, simulation, step_until
from test_scenario import scenarios


def test_same_tick_events_dispatch_in_insertion_order():
    q = EventQueue()
    q.schedule(5, "first")
    q.schedule(5, "second")
    a = q.pop()
    b = q.pop()
    assert (a.tick, a.seq, a.payload) == (5, 0, "first")
    assert (b.tick, b.seq, b.payload) == (5, 1, "second")


def test_earlier_tick_dispatches_first_regardless_of_insertion():
    q = EventQueue()
    q.schedule(7, "late")
    q.schedule(3, "early")
    assert q.pop().payload == "early"
    assert q.pop().payload == "late"


# A queue operation: ("schedule", tick or offset), ("pop", None) or ("peek", None).
_queue_ops = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.integers(0, 30)),
        st.tuples(st.sampled_from(["pop", "peek"]), st.none()),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(_queue_ops)
def test_the_queue_agrees_with_a_list_sorted_by_tick_and_seq(ops):
    # Before the first pop or peek a schedule may take any tick (it joins the
    # setup run); after it, a tick at or after the last pop (it joins the heap).
    queue, model = EventQueue(), []  # model: pending (tick, seq, payload), sorted
    begun, last_popped, scheduled = False, 0, 0
    for op, value in ops:
        if op == "schedule":
            tick = last_popped + value if begun else value
            queue.schedule(tick, f"e{scheduled}")
            model = sorted([*model, (tick, scheduled, f"e{scheduled}")])  # seqs are unique
            scheduled += 1
        elif op == "pop":
            begun = True
            event = queue.pop()
            assert event == (model.pop(0) if model else None)
            last_popped = event.tick if event else last_popped
        else:
            begun = True
            assert queue.peek_tick() == (model[0][0] if model else None)
        assert len(queue) == len(model)
        assert queue.scheduled_total == scheduled
    drained = []
    while (event := queue.pop()) is not None:
        drained.append(event)
    assert drained == model
    assert len(queue) == 0 and queue.peek_tick() is None


def test_a_run_cut_with_only_setup_events_pending_resumes_like_an_unlimited_run():
    # The limit falls after the first probe's done, so only the later probes,
    # still in the setup run, are pending when the run resumes.
    def build():
        config = FabricConfig(3, 2, 1, 1, Durations(3, 4, {}))
        return simulation(config, probes=[Probe(tick=tick, word=1) for tick in (200, 10, 100)])

    cut = build()
    assert cut.run_to_quiescence(50) == RunOutcome(TICK_LIMIT, 14)
    assert (len(cut.queue), cut.dispatched_total) == (2, 2)
    assert cut.run_to_quiescence(10**6) == RunOutcome(QUIESCENT, 204)
    whole = build()
    assert whole.run_to_quiescence(10**6) == RunOutcome(QUIESCENT, 204)
    assert cut.records == whole.records
    arrivals = [(r.t, r.word) for r in whole.records if r.ev == "enable"]
    assert arrivals == [(10, 1), (100, 1), (200, 1)]


def test_setup_fires_overrides_then_probes_then_the_plans_first_enables():
    # All at tick 0, the kinds interleaved in the file: each kind keeps its
    # file order, and episodes are numbered probes first.
    scenario = parse_scenario(
        "fabric words=6 delay1=2 delay2=1 threshold=1\ndur * 3\n"
        "rehearse 3 4 reps=1 gap=0 rest=0 start=0\n"
        "at 0 probe 1\n"
        "at 0 override 1 2 open\n"
        "rehearse 5 6 reps=1 gap=0 rest=0 start=0\n"
        "at 0 probe 2\n"
        "at 0 override 2 1 closed\n"
        "maxticks 100\n"
    )
    sim = build_simulation(scenario)
    fired = [sim.step() for _ in range(6)]
    assert [(e.tick, e.seq) for e in fired] == [(0, seq) for seq in range(6)]
    assert [e.payload for e in fired] == [
        OverrideSet((1, 2), True),
        OverrideSet((2, 1), False),
        CpuEnable(1, 0),
        CpuEnable(2, 1),
        CpuEnable(3, 2),
        CpuEnable(5, 3),
    ]
    assert [type(e.payload) for e in fired] == [OverrideSet] * 2 + [CpuEnable] * 4
    assert sim.queue.peek_tick() > 0


def test_step_pops_least_and_advances_clock():
    sim = Simulation(FabricConfig(2, 2, 1, 1, Durations(2, 1, {})))
    fired = []

    class Mark(NamedTuple):
        # A payload that only notes when it fires, so no fabric handler runs.
        name: str

        def fire(self, sim, tick):
            fired.append((self.name, tick, sim.clock))

    sim.queue.schedule(5, Mark("a"))
    sim.queue.schedule(5, Mark("b"))
    sim.queue.schedule(7, Mark("c"))
    event = sim.step()
    assert (event.tick, event.seq) == (5, 0)
    assert sim.clock == 5
    sim.step()
    event = sim.step()
    assert event.tick == 7 and sim.clock == 7
    assert fired == [("a", 5, 5), ("b", 5, 5), ("c", 7, 7)]


def _log_handler_calls(sim):
    """Wrap the handlers of the sim.fabric and sim.driver instances; return their call log."""
    calls = []

    def logged(name, handler):
        def call(*args, **kwargs):
            calls.append(name + (f".{kwargs['source']}" if "source" in kwargs else ""))
            return handler(*args, **kwargs)

        return call

    for name in ("on_enable", "on_done", "set_override"):
        setattr(sim.fabric, name, logged(f"fabric.{name}", getattr(sim.fabric, name)))
    sim.driver.on_done = logged("driver.on_done", sim.driver.on_done)
    return calls


def test_stepped_events_name_their_kind_and_call_the_instance_handlers():
    # A caller that owns the dispatch loop, as the per-layer benchmark does,
    # classifies each stepped event by its payload's class name and wraps the
    # handlers of the sim.fabric and sim.driver instances. run_to_quiescence's
    # own loop must call the replaced handlers just as often.
    scenario = parse_scenario(OVERRIDE_CYCLE)
    sim = build_simulation(scenario)
    calls = _log_handler_calls(sim)
    kinds = Counter()
    while sim.queue.peek_tick() is not None:
        kinds[type(sim.step().payload).__name__] += 1
    assert set(kinds) == {"CpuEnable", "AutoEnable", "WordDone", "OverrideSet"}
    assert Counter(calls) == {
        "fabric.on_enable.cpu": kinds["CpuEnable"],
        "fabric.on_enable.auto": kinds["AutoEnable"],
        "fabric.on_done": kinds["WordDone"],
        "driver.on_done": kinds["WordDone"],
        "fabric.set_override": kinds["OverrideSet"],
    }
    # the fabric sees each done before the driver does
    assert all(
        calls[i - 1] == "fabric.on_done" for i, c in enumerate(calls) if c == "driver.on_done"
    )
    assert sim.records == run_text(OVERRIDE_CYCLE).records

    looped = build_simulation(scenario)
    looped_calls = _log_handler_calls(looped)
    assert looped.run_to_quiescence(scenario.max_tick).quiescent
    assert looped_calls == calls
    assert looped.records == sim.records


@settings(max_examples=60, deadline=None)
@given(scenarios(), st.data())
def test_the_stepped_loop_and_run_to_quiescence_agree(scenario, data):
    # The per-layer benchmark dispatches with its own loop over step(); every
    # other caller uses run_to_quiescence's loop. Some draws cut the run at a
    # tick limit that falls before it ends.
    max_tick = data.draw(st.one_of(st.just(scenario.max_tick), st.integers(1, 120)))
    stepped = build_simulation(scenario)
    outcome, steps = step_until(stepped, max_tick)
    looped = build_simulation(scenario)
    assert looped.run_to_quiescence(max_tick) == outcome
    assert looped.records == stepped.records
    assert looped.clock == stepped.clock == outcome.final_tick
    assert looped.dispatched_total == stepped.dispatched_total == steps
    assert len(looped.queue) == len(stepped.queue)
    assert (len(looped.queue) == 0) == outcome.quiescent


def test_step_on_empty_queue_returns_none_and_keeps_clock():
    sim = Simulation(FabricConfig(2, 2, 1, 1, Durations(2, 1, {})))
    sim.clock = 9
    assert sim.step() is None
    assert sim.clock == 9


def test_run_with_no_events_is_quiescent_at_zero():
    sim = Simulation(FabricConfig(2, 2, 1, 1, Durations(2, 1, {})))
    outcome = sim.run_to_quiescence(100)
    assert outcome.outcome == QUIESCENT and outcome.final_tick == 0


def test_single_enabled_word_quiesces_at_its_done():
    # enable at 0, duration 4, nothing learned: done at 4 empties the queue
    config = FabricConfig(2, 2, 1, 9, Durations(2, 4, {}))
    sim = simulation(config, probes=[Probe(tick=0, word=1)])
    outcome = sim.run_to_quiescence(100)
    assert outcome.outcome == QUIESCENT and outcome.final_tick == 4


def test_max_tick_must_be_positive():
    sim = Simulation(FabricConfig(2, 2, 1, 1, Durations(2, 1, {})))
    with pytest.raises(ValueError, match="^maxticks must be >= 1, got 0$"):
        sim.run_to_quiescence(0)


@pytest.mark.parametrize("bad", [0.5, True, "1"])
def test_a_tick_limit_that_is_not_an_int_is_a_value_error(bad):
    sim = Simulation(FabricConfig(2, 2, 1, 1, Durations(2, 1, {})))
    with pytest.raises(ValueError, match=rf"^maxticks is not an integer: {bad!r}$"):
        sim.run_to_quiescence(bad)
    assert sim.queue.scheduled_total == 0 and sim.clock == 0


def test_the_no_repeat_rule_has_no_switch():
    # build_simulation keeps its keyword for the benchmark harness, which
    # passes True; every other entry point has none.
    scenario = parse_scenario(OVERRIDE_CYCLE)
    with pytest.raises(ValueError, match="^loop_suppression must be True, got False$"):
        build_simulation(scenario, loop_suppression=False)
    sim = build_simulation(scenario, loop_suppression=True)
    sim.run_to_quiescence(scenario.max_tick)
    assert sim.records == run_text(OVERRIDE_CYCLE).records
    with pytest.raises(TypeError):
        run_text(OVERRIDE_CYCLE, loop_suppression=True)
    with pytest.raises(TypeError):
        Simulation(scenario.config, loop_suppression=True)
    with pytest.raises(TypeError):
        Fabric(scenario.config, loop_suppression=True)


def test_conservation_every_event_dispatched_or_pending():
    # dispatched_total is derived from the queue; it must equal the number of
    # events that step() actually dispatched, in a drained and in a cut run.
    scenario = parse_scenario(
        "fabric words=3 delay1=5 delay2=1 threshold=3\n"
        "dur * 4\n"
        "rehearse 1 3 2 reps=4 gap=2 rest=20 start=0\n"
        "at 300 probe 1\n"
        "maxticks 5000\n"
    )
    for max_tick, expected in ((scenario.max_tick, QUIESCENT), (20, TICK_LIMIT)):
        sim = build_simulation(scenario)
        outcome, steps = step_until(sim, max_tick)
        assert outcome.outcome == expected
        assert steps > 0 and sim.dispatched_total == steps
        assert sim.queue.scheduled_total == steps + len(sim.queue)
        assert (len(sim.queue) > 0) == (expected == TICK_LIMIT)
        assert run_scenario(scenario, max_tick=max_tick).simulation.dispatched_total == steps


def test_trace_is_byte_identical_across_runs(worked_example_text):
    first = run_text(worked_example_text)
    second = run_text(worked_example_text)
    assert format_trace(first.records) == format_trace(second.records)


def test_every_dispatched_event_has_exactly_one_primary_record(worked_example_text):
    text = worked_example_text + "at 300 override 1 3 open\nat 310 override 1 3 closed\n"
    result = run_text(text)
    primary = [
        rec
        for rec in result.records
        if rec.ev in ("enable", "ignored_enable", "done", "override_set")
    ]
    assert len(primary) == result.simulation.dispatched_total


def test_clock_and_record_ticks_never_decrease(worked_example_text):
    result = run_text(worked_example_text)
    ticks = [rec.t for rec in result.records]
    assert ticks == sorted(ticks)


@given(st.lists(st.integers(min_value=0, max_value=50), max_size=40))
def test_dispatch_order_is_ascending_tick_then_seq(ticks):
    q = EventQueue()
    for index, tick in enumerate(ticks):
        q.schedule(tick, index)
    popped = []
    while True:
        event = q.pop()
        if event is None:
            break
        popped.append((event.tick, event.seq))
    assert popped == sorted(popped)
    assert len(popped) == len(ticks)
    # seq values are unique insertion numbers
    assert len({seq for _, seq in popped}) == len(popped)
