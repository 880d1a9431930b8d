"""Deterministic discrete-event core and the composed simulation.

Events are totally ordered by ``(tick, seq)`` where ``seq`` is the
insertion sequence number, so same-tick events dispatch in the order
they were scheduled. The events scheduled before the first dispatch (a
run's setup: override switches, probe arrivals, the plans' first
enables) wait in one run, sorted once when dispatch begins, that feeds
the heap one event at a time. The heap thus holds the least pending
setup event plus the events in flight (dones, replays, plan steps), and
a push or pop there never sifts past a probe hundreds of ticks ahead.
Each event's payload (one of the fabric's signals) carries its own
dispatch: ``payload.fire(sim, tick)`` looks up the handler of
``sim.fabric`` or ``sim.driver`` that it stands for at each event and
calls it. :meth:`Simulation.run_to_quiescence` pops and fires in a loop
of its own, with no ``step()`` call per event; :meth:`Simulation.step`
is the one-event form, for a caller that owns the loop. Time is integer
ticks and the clock only moves forward. Only the public entry points of
:class:`Simulation` check a tick (an int, not behind the clock, or a
ValueError); the fabric and the driver queue events at the current tick
plus an offset their config or plan keeps >= 0. Episodes come only from
:meth:`Simulation.new_episode`, one per probe and per plan repetition.
A run ends either quiescent (the queue drained) or at the tick limit
(the next event lies beyond ``max_tick``). The fabric's no-repeat rule,
which has no switch, gives every episode at most one enable per word,
so every run drains; the limit only cuts one whose events reach past it.

A :class:`Simulation` is a self-contained value (engine + fabric +
scripted CPU driver + trace) that nothing inside refers back to, so
reference counting frees a run. Independent simulations share no state
and may run on separate threads.
"""

from __future__ import annotations

from collections import namedtuple
from heapq import heappop, heappush, heapreplace

from memfabric.driver import Driver, Probe, RehearsalPlan
from memfabric.fabric import CpuEnable, Episode, Fabric, FabricConfig, OverrideSet, check_int
from memfabric.scenario import Scenario, build_report, check_max_tick
from memfabric.trace import TraceRecord


# payload: one of the fabric's signals, CpuEnable, AutoEnable, WordDone or OverrideSet
Event = namedtuple("Event", "tick seq payload")


class EventQueue:
    """Pending events, dispatched in ascending (tick, seq) order.

    Until the first ``peek_tick`` or ``pop`` (or a run's loop), ``schedule``
    appends to the setup run; that first call sorts the run and puts its
    least event on the heap. From then on ``schedule`` pushes onto the
    heap, and taking a setup event off it puts the next one on.
    ``len`` counts both.
    """

    def __init__(self):
        self._heap: list[Event] = []
        self._setup: list[Event] = []  # the setup run; once sorted, latest first
        self._setup_end: int | None = None  # seqs below it are setup; None before the sort
        self.scheduled_total = 0  # also the next event's seq

    def __len__(self) -> int:
        return len(self._heap) + len(self._setup)

    def schedule(self, tick: int, payload: object) -> None:
        # tuple.__new__ skips the named tuple's Python-level __new__.
        event = tuple.__new__(Event, (tick, self.scheduled_total, payload))
        if self._setup_end is None:
            self._setup.append(event)
        else:
            heappush(self._heap, event)
        self.scheduled_total += 1

    def _begin(self) -> tuple[list[Event], list[Event], int]:
        """Sort the setup run once; return the heap, the run and its seq bound."""
        if self._setup_end is None:
            self._setup_end = self.scheduled_total
            self._setup.sort(reverse=True)  # seqs are unique, so payloads never compare
            if self._setup:
                heappush(self._heap, self._setup.pop())
        return self._heap, self._setup, self._setup_end

    def peek_tick(self) -> int | None:
        heap = self._begin()[0]
        return heap[0].tick if heap else None

    def pop(self) -> Event | None:
        heap, setup, setup_end = self._begin()
        if not heap:
            return None
        if heap[0].seq < setup_end and setup:  # a setup event leaves: the next one enters
            return heapreplace(heap, setup.pop())
        return heappop(heap)


QUIESCENT = "quiescent"
TICK_LIMIT = "tick_limit"


class RunOutcome(namedtuple("RunOutcome", "outcome final_tick")):
    __slots__ = ()

    @property
    def quiescent(self) -> bool:
        return self.outcome == QUIESCENT


class Simulation:
    """One complete run: fabric, driver, queue, clock, and trace."""

    def __init__(self, config: FabricConfig):
        self.config = config
        self.clock = 0
        self.queue = EventQueue()
        self.fabric = Fabric(config)
        self.driver = Driver()
        self.records: list[TraceRecord] = []
        # The fabric's handlers call emit once per trace record.
        self.emit = self.records.append
        self._next_episode = 0

    # -- setup and scheduling -------------------------------------------
    #
    # Ticks, words and pairs are checked here, where they enter a run, and
    # never again while events dispatch: the fabric's handlers trust them.

    def new_episode(self) -> Episode:
        episode = Episode(self._next_episode)
        self._next_episode += 1
        return episode

    def _check_tick(self, tick: int) -> None:
        """Reject a tick that is not an int, or one behind the clock: no event can go there."""
        if type(tick) is int and tick < self.clock:
            raise ValueError(f"tick {tick} is behind the clock ({self.clock})")
        check_int(tick, 0, "tick")  # the clock is never below 0, so only the type can fail

    def schedule_override(self, tick: int, pair: tuple[int, int], is_open: bool) -> None:
        """Schedule an override switch of ``pair``, two distinct words of the fabric."""
        self._check_tick(tick)
        self.config.check_pair(*pair)
        self.queue.schedule(tick, tuple.__new__(OverrideSet, (pair, is_open)))

    def add_plan(self, plan: RehearsalPlan) -> None:
        """Hand a plan to the driver once its start and every word are checked."""
        self._check_tick(plan.start)
        plan.check_words(self.config)
        self.driver.add_plan(self, plan)

    def add_probe(self, probe: Probe) -> None:
        """Schedule a probe's CPU enable in a new episode once its tick and word are checked."""
        self._check_tick(probe.tick)
        probe.check_words(self.config)
        self.queue.schedule(probe.tick, tuple.__new__(CpuEnable, (probe.word, self.new_episode())))

    # -- dispatch --------------------------------------------------------

    @property
    def dispatched_total(self) -> int:
        """Events dispatched so far: every scheduled event that is no longer pending."""
        return self.queue.scheduled_total - len(self.queue)

    def step(self) -> Event | None:
        """Dispatch the least pending event, advancing the clock to it."""
        event = self.queue.pop()
        if event is None:
            return None
        self.clock = event.tick
        event.payload.fire(self, event.tick)
        return event

    def run_to_quiescence(self, max_tick: int) -> RunOutcome:
        """Dispatch until the queue drains or an event would pass max_tick."""
        check_max_tick(max_tick)
        heap, setup, setup_end = self.queue._begin()
        # pop()'s rule, inlined: the heap holds the least pending setup event.
        while heap and heap[0][0] <= max_tick:
            if heap[0][1] < setup_end and setup:
                self.clock, _, payload = heapreplace(heap, setup.pop())
            else:
                self.clock, _, payload = heappop(heap)
            payload.fire(self, self.clock)
        return RunOutcome(TICK_LIMIT if heap else QUIESCENT, self.clock)


RunResult = namedtuple("RunResult", "scenario outcome records report simulation")


def build_simulation(scenario: Scenario, *, loop_suppression: bool = True) -> Simulation:
    # The no-repeat rule has no switch. The keyword stays only because the
    # benchmark harness passes True: ROADMAP item 1 moves the harness off it,
    # and item 7 deletes it.
    if loop_suppression is not True:
        raise ValueError(f"loop_suppression must be True, got {loop_suppression!r}")
    sim = Simulation(scenario.config)
    for d in scenario.overrides:
        sim.schedule_override(d.tick, (d.i, d.j), d.is_open)
    for probe in scenario.probes:
        sim.add_probe(probe)
    for plan in scenario.plans:
        sim.add_plan(plan)
    return sim


def run_scenario(scenario: Scenario, *, max_tick: int | None = None) -> RunResult:
    """Build, run, and summarize one scenario."""
    sim = build_simulation(scenario)
    outcome = sim.run_to_quiescence(max_tick if max_tick is not None else scenario.max_tick)
    report = build_report(sim.records, outcome=outcome.outcome, final_tick=outcome.final_tick)
    return RunResult(
        scenario=scenario, outcome=outcome, records=sim.records, report=report, simulation=sim
    )
