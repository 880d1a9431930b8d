"""Deterministic discrete-event core and the composed simulation.

Events are totally ordered by ``(tick, seq)`` where ``seq`` is the
insertion sequence number, so same-tick events dispatch in the order
they were scheduled. The events scheduled before the first dispatch (a
run's setup: override switches, probe arrivals, the plans' first
enables) wait in one run, sorted once when dispatch begins, that feeds
the heap one entry at a time. The heap thus holds the least pending
setup entry plus the events in flight (dones, replays, plan steps), and
a push or pop there never sifts past a probe hundreds of ticks ahead.
Both hold plain ``(tick, seq, payload)`` tuples; only ``pop()`` makes an
``Event``. Each event's payload (one of the fabric's signals) carries
its own dispatch: ``payload.fire(sim, tick)`` looks up the handler of
``sim.fabric`` or ``sim.driver`` that it stands for at each event and
calls it. :meth:`Simulation.run_to_quiescence` pops and fires in a loop
of its own, with no ``step()`` call per event; :meth:`Simulation.step`
is the one-event form, for a caller that owns the loop. Time is integer
ticks and the clock only moves forward. A run is built only by
:func:`build_simulation`, from a :class:`~memfabric.scenario.Scenario`
that has checked every part, so the tick limit is the one check here: a
part's tick is an int >= 0, never behind the clock (0 during the build),
and the fabric and the driver queue events at the current tick plus an
offset their config or plan keeps >= 0. Episodes are ints and come only
from :meth:`Simulation.new_episode`, one per probe and per plan
repetition. A run ends either quiescent (the queue drained) or at the
tick limit (the next event lies beyond ``max_tick``). The fabric's
no-repeat rule, which has no switch, gives every episode at most one
enable per word, so every run drains; the limit only cuts one whose
events reach past it.

A :class:`Simulation` is a self-contained value (engine + fabric +
scripted CPU driver + trace) that nothing inside refers back to, so
reference counting frees a run. Independent simulations share no state
and may run on separate threads. The CPU model, :class:`Driver`, lives here
beside :func:`build_simulation`; its plans are :mod:`memfabric.scenario` parts.
"""

from __future__ import annotations

from bisect import insort
from collections import namedtuple
from collections.abc import Generator
from heapq import heappop, heappush, heapreplace
from itertools import count

from memfabric.fabric import CpuEnable, Fabric, FabricConfig, OverrideSet
from memfabric.scenario import RehearsalPlan, Scenario, build_report, check_max_tick
from memfabric.trace import TraceRecord


# payload: one of the fabric's signals, CpuEnable, AutoEnable, WordDone or OverrideSet
Event = namedtuple("Event", "tick seq payload")


class EventQueue:
    """Pending events, dispatched in ascending (tick, seq) order.

    Until the first ``peek_tick`` or ``pop`` (or a run's loop), ``schedule``
    appends a ``(tick, seq, payload)`` tuple to the setup run; that first
    call sorts the run and puts its least entry on the heap. Later entries
    go on the heap, as does the next setup entry when one leaves it.
    ``len`` counts both; only ``pop`` wraps an entry, in an Event.
    """

    def __init__(self):
        self._heap: list[tuple] = []
        self._setup: list[tuple] = []  # the setup run; once sorted, latest first
        self._setup_end: int | None = None  # seqs below it are setup; None before the sort
        self.scheduled_total = 0  # also the next event's seq

    def __len__(self) -> int:
        return len(self._heap) + len(self._setup)

    def schedule(self, tick: int, payload: object) -> None:
        if self._setup_end is None:
            self._setup.append((tick, self.scheduled_total, payload))
        else:
            heappush(self._heap, (tick, self.scheduled_total, payload))
        self.scheduled_total += 1

    def _begin(self) -> tuple[list[tuple], list[tuple], int]:
        """Sort the setup run once; return the heap, the run and its seq bound."""
        if self._setup_end is None:
            self._setup_end = self.scheduled_total
            self._setup.sort(reverse=True)  # seqs are unique, so payloads never compare
            if self._setup:
                heappush(self._heap, self._setup.pop())
        return self._heap, self._setup, self._setup_end

    def peek_tick(self) -> int | None:
        heap = self._begin()[0]
        return heap[0][0] if heap else None

    def pop(self) -> Event | None:
        heap, setup, setup_end = self._begin()
        if not heap:
            return None
        if heap[0][1] < setup_end and setup:  # a setup entry leaves: the next one enters
            return tuple.__new__(Event, heapreplace(heap, setup.pop()))
        return tuple.__new__(Event, heappop(heap))  # skips the named tuple's Python __new__


QUIESCENT = "quiescent"
TICK_LIMIT = "tick_limit"


class RunOutcome(namedtuple("RunOutcome", "outcome final_tick")):
    __slots__ = ()

    @property
    def quiescent(self) -> bool:
        return self.outcome == QUIESCENT


def _rehearsal(plan: RehearsalPlan, new_episode) -> Generator[tuple | None, int, None]:
    # It holds the episode counter, never sim: a plan left suspended by a
    # tick limit then makes no reference cycle.
    sequence, gap, rest, tick = plan.sequence, plan.gap, plan.rest, plan.start
    for _ in range(plan.reps):
        episode = new_episode()
        for word in sequence:
            done = yield tick, word, episode
            tick = done + gap
        tick = done + rest
    yield None


class Driver:
    """The scripted CPU (working-memory) model. Each plan runs as one generator
    of its steps, :func:`_rehearsal`: per repetition it draws an episode, per
    word it yields the CPU enable ``(tick, word, episode)`` and is sent the
    tick of the done it awaits (the next enable lies ``gap`` ticks after it,
    or ``rest`` after a repetition's last word), and at the end it yields
    ``None``. A probe needs no driver: ``build_simulation`` queues its one
    enable in an episode of its own.

    Advancement keys on the word id, not on the episode: a plan whose own
    enable was ignored as busy (the word was started autonomously first)
    still advances on that word's done. A plan only starts waiting once
    its own enable's tick is reached; earlier dones of the awaited word
    (another plan's traffic, say) do not advance it.

    The driver holds no simulation: ``add_plan`` and ``on_done`` take the
    one they act on and put each step straight on its queue. It keeps each
    unfinished plan's generator under the word whose done it awaits, in
    add order, so a done reads only the plans awaiting its word.
    """

    def __init__(self):
        # Awaited word -> (add order, own enable's tick, steps) of each
        # unfinished plan that awaits its done, in add order.
        self._awaiting: dict[int, list[tuple]] = {}
        self._added = 0

    def add_plan(self, sim, plan: RehearsalPlan) -> None:
        # The scenario checked the plan; later steps lie gap or rest (>= 0) after a done.
        steps = _rehearsal(plan, sim.new_episode)
        tick, word, episode = next(steps)
        self._awaiting.setdefault(word, []).append((self._added, tick, steps))  # last in add order
        self._added += 1
        sim.queue.schedule(tick, tuple.__new__(CpuEnable, (word, episode)))

    def unfinished_plans(self) -> int:
        return sum(map(len, self._awaiting.values()))

    def on_done(self, sim, word: int, tick: int) -> None:
        entries = self._awaiting.pop(word, None)
        if entries is None:
            return
        # An advancing plan next awaits another word (a plan's words are
        # distinct), so only the plans kept waiting come back under this one.
        for entry in entries:
            order, enable_tick, steps = entry
            if tick < enable_tick:  # its own enable is still ahead
                self._awaiting.setdefault(word, []).append(entry)
            elif (step := steps.send(tick)) is not None:  # else finished: it awaits no word
                next_tick, next_word, episode = step
                insort(self._awaiting.setdefault(next_word, []), (order, next_tick, steps))
                sim.queue.schedule(next_tick, tuple.__new__(CpuEnable, (next_word, episode)))


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
        self.new_episode = count().__next__  # the next episode: 0, 1, 2, ...

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
        # pop()'s rule, inlined, with no Event: the heap holds the least pending setup entry.
        while heap and heap[0][0] <= max_tick:
            if heap[0][1] < setup_end and setup:
                self.clock, _, payload = heapreplace(heap, setup.pop())
            else:
                self.clock, _, payload = heappop(heap)
            payload.fire(self, self.clock)
        return RunOutcome(TICK_LIMIT if heap else QUIESCENT, self.clock)


RunResult = namedtuple("RunResult", "scenario outcome records report simulation")


def build_simulation(scenario: Scenario, *, loop_suppression: bool = True) -> Simulation:
    """Queue the scenario's overrides, probes and plans, each kind in its own order.

    A same-tick override thus acts before any probe or plan step, and
    episodes are numbered probes first. Nothing is checked again: the
    scenario checked every part against its config.
    """
    # The no-repeat rule has no switch. The keyword stays only because the
    # benchmark harness passes True: ROADMAP item 1 moves the harness off it,
    # and item 8 deletes it.
    if loop_suppression is not True:
        raise ValueError(f"loop_suppression must be True, got {loop_suppression!r}")
    sim = Simulation(scenario.config)
    schedule = sim.queue.schedule
    for d in scenario.overrides:
        schedule(d.tick, tuple.__new__(OverrideSet, ((d.i, d.j), d.is_open)))
    for probe in scenario.probes:
        schedule(probe.tick, tuple.__new__(CpuEnable, (probe.word, sim.new_episode())))
    for plan in scenario.plans:
        sim.driver.add_plan(sim, plan)
    return sim


def run_scenario(scenario: Scenario, *, max_tick: int | None = None) -> RunResult:
    """Build, run, and summarize one scenario."""
    sim = build_simulation(scenario)
    outcome = sim.run_to_quiescence(max_tick if max_tick is not None else scenario.max_tick)
    report = build_report(sim.records, outcome=outcome.outcome, final_tick=outcome.final_tick)
    return RunResult(
        scenario=scenario, outcome=outcome, records=sim.records, report=report, simulation=sim
    )
