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
``Event``. Each event's payload, a signal (:class:`CpuEnable`,
:class:`AutoEnable`, :class:`WordDone` or :class:`OverrideSet`), carries
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
and may run on separate threads. The run's parts, the signals, the
:class:`Fabric` that handles them and the CPU model, :class:`Driver`,
live here beside :func:`build_simulation`, so this module alone knows
the simulation's layout and the dispatch protocol.
"""

from __future__ import annotations

from bisect import insort
from collections import defaultdict, namedtuple
from collections.abc import Generator
from heapq import heappop, heappush, heapreplace
from itertools import count

from memfabric.fabric import DONE_ENABLE, FabricConfig
from memfabric.scenario import RehearsalPlan, Scenario, build_report, check_max_tick
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
    EV_OVERRIDE_SET,
    SRC_AUTO,
    SRC_CPU,
    TraceRecord,
)

# _new(cls, fields) builds a trace record, a payload or an Event from all its fields,
# unchecked: it skips the named tuple's Python __new__
_new = tuple.__new__


# payload: one of the signals below, CpuEnable, AutoEnable, WordDone or OverrideSet
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
            return _new(Event, heapreplace(heap, setup.pop()))
        return _new(Event, heappop(heap))


QUIESCENT = "quiescent"
TICK_LIMIT = "tick_limit"


class RunOutcome(namedtuple("RunOutcome", "outcome final_tick")):
    __slots__ = ()

    @property
    def quiescent(self) -> bool:
        return self.outcome == QUIESCENT


class CpuEnable(namedtuple("CpuEnable", "word episode")):
    __slots__ = ()

    def fire(self, sim, tick: int) -> None:
        sim.fabric.on_enable(sim, self.word, tick, source=SRC_CPU, pair=None, episode=self.episode)


class AutoEnable(namedtuple("AutoEnable", "word pair episode")):
    __slots__ = ()

    def fire(self, sim, tick: int) -> None:
        sim.fabric.on_enable(
            sim, self.word, tick, source=SRC_AUTO, pair=self.pair, episode=self.episode
        )


class WordDone(namedtuple("WordDone", "word episode")):
    __slots__ = ()

    def fire(self, sim, tick: int) -> None:
        # Fabric reacts before the CPU observes the done.
        sim.fabric.on_done(sim, self.word, tick, self.episode)
        sim.driver.on_done(sim, self.word, tick)


class OverrideSet(namedtuple("OverrideSet", "pair is_open")):
    __slots__ = ()

    def fire(self, sim, tick: int) -> None:
        sim.fabric.set_override(sim, self.pair[0], self.pair[1], self.is_open, tick)


class Fabric:
    """Word block, K(K-1) timing filters, and the learned switch matrix.

    A fabric holds a block of memory words (ids ``1..word_count``), one
    timing filter per ordered word pair, and a switch matrix of learned
    connections. Words are started by an enable signal and emit a done
    signal after their fixed duration. Every done of word ``i`` holds a
    coincidence window of ``delay1`` ticks open on all filters ``(i, *)``;
    when the paired trigger signal of word ``j`` (an enable, or a done,
    depending on the filter mode) lands inside the window, the filter
    fires and advances an n-stage shift register of set-once latches.
    A register that fills closes the switch for its pair: from then on,
    every done of ``i`` autonomously schedules an enable of ``j`` exactly
    ``delay1`` ticks later, with no CPU involvement.

    Learning is never erased. A per-pair override acts as a series switch
    that masks a learned connection without clearing it. Within a single
    episode (the activation chain rooted at one CPU enable) each word may
    fire at most once; repeat attempts are suppressed, so learned cycles
    cannot loop on their own. The rule is part of the model and has no
    switch.

    The filters are held as one window-until tick per source word and,
    per destination word, a ``[shift_count, last_shift_tick, pair]`` per
    source whose filter has fired, and this is exact. The filters
    ``(i, *)`` are only ever opened together, by a done of ``i``, so they
    always hold the same window. A register of set-once latches whose
    shifts fill stage after stage always holds a prefix of set stages, so
    its latched stage count, ``min(shift_count, threshold)``, is its whole
    state; a pair whose filter never fired is an empty register. A touched
    pair's ``(src, dst)`` tuple is built once: its records and replays
    share it. Each word keeps its learned successors, those pair tuples in
    ascending order: the closed switches. A done or an enable therefore
    costs its open windows and learned out-degree, not a scan of all K
    words, and a fresh fabric allocates nothing per word or per pair. An
    episode is an int; the no-repeat rule reads one set of the
    ``(episode, word)`` of every accepted enable.

    All mutation happens through the single-threaded dispatch loop of
    the owning simulation, which is passed in so the fabric can emit
    trace records and put its own dones and replays on its queue,
    unchecked: a duration or ``delay1`` (both >= 1) after the current
    tick is never behind the clock. A trigger fires its filters inline,
    the handlers read the frozen config's fields from attributes bound
    once, at construction, and each payload and trace record (all seven
    fields, in order) is built whole through ``tuple.__new__``, which
    skips the named tuple's Python ``__new__``.
    """

    def __init__(self, config: FabricConfig):
        self.config = config
        self._durations = dict(config.durations.exceptions)  # a dict's get is quicker than a view's
        self._duration = config.durations.default
        self._delay1, self._delay2, self._threshold = config.delay1, config.delay2, config.threshold
        self._done_enable = config.filter_mode == DONE_ENABLE
        self._busy_until: dict[int, int] = {}  # word -> end of its last run; a past end is idle
        # Source word -> closing tick of its hold window. A closed window
        # stays closed (the clock never moves back), so stale entries are
        # dropped whenever a trigger scans the windows.
        self._window_until: dict[int, int] = {}
        # dst -> {src: [shift count, last shift tick (-delay2: none yet), (src, dst)]}
        self._filters: defaultdict[int, dict[int, list]] = defaultdict(dict)
        self._successors: dict[int, list[tuple[int, int]]] = {}  # src -> its learned pairs
        self._override_open: set[tuple[int, int]] = set()
        self._fired: set[tuple[int, int]] = set()  # (episode, word) of each accepted enable

    @property
    def filter_count(self) -> int:
        return self.config.word_count * (self.config.word_count - 1)

    def learned_set(self) -> set[tuple[int, int]]:
        return {pair for pairs in self._successors.values() for pair in pairs}

    def override_is_open(self, pair: tuple[int, int]) -> bool:
        return pair in self._override_open

    def on_enable(self, sim, word: int, tick: int, *, source: str, pair, episode: int) -> None:
        """Apply an enable signal to a word.

        A busy word ignores the enable, as does a word that already
        fired within the episode (the no-repeat rule; replay races can
        reach an idle word a second time, which the scheduling-time
        check alone cannot catch). An accepted enable runs the word
        for its duration and, in done_enable mode, feeds the filters
        watching for this word as a sequence successor.

        ``word`` is not checked here: CPU enables were checked when the
        scenario was built, and autonomous enables follow learned pairs
        of words the fabric already accepted.
        """
        fired = (episode, word)
        if self._busy_until.get(word, 0) > tick or fired in self._fired:
            fields = (tick, EV_IGNORED_ENABLE, word, pair, source, episode, None)
            sim.emit(_new(TraceRecord, fields))
            return
        done_tick = self._busy_until[word] = tick + self._durations.get(word, self._duration)
        sim.queue.schedule(done_tick, _new(WordDone, (word, episode)))
        self._fired.add(fired)
        sim.emit(_new(TraceRecord, (tick, EV_ENABLE, word, pair, source, episode, None)))
        if self._done_enable:
            self._detect_into(sim, word, tick)

    def on_done(self, sim, word: int, tick: int, episode: int) -> None:
        """Handle a word's done signal.

        Opens (retriggers) the coincidence window this word holds as the
        sequence predecessor, feeds done-done filters, and walks the
        learned successors: overridden pairs are blocked, already-fired
        successors suppressed, and every remaining one gets an
        autonomous enable scheduled delay1 ticks out, carrying the same
        episode.
        """
        emit, new, record = sim.emit, _new, TraceRecord
        emit(new(record, (tick, EV_DONE, word, None, None, episode, None)))
        self._window_until[word] = replay_tick = tick + self._delay1
        if not self._done_enable:
            self._detect_into(sim, word, tick)
        schedule, masked, fired = sim.queue.schedule, self._override_open, self._fired
        for link in self._successors.get(word, ()):
            dst = link[1]
            if link in masked:
                emit(new(record, (tick, EV_OVERRIDE_BLOCKED, dst, link, None, episode, None)))
            elif (episode, dst) in fired:
                emit(new(record, (tick, EV_LOOP_SUPPRESSED, dst, link, None, episode, None)))
            else:
                schedule(replay_tick, new(AutoEnable, (dst, link, episode)))
                emit(new(record, (tick, EV_AUTO_ENABLE_SCHEDULED, dst, link, None, episode, None)))

    def set_override(self, sim, i: int, j: int, is_open: bool, tick: int) -> None:
        """Open or close the series switch masking pair (i, j).

        Purely a mask: independent of whether the pair is learned, and
        it never touches the learn register. The pair was checked when
        the scenario was built.
        """
        pair = (i, j)
        if is_open:
            self._override_open.add(pair)
        else:
            self._override_open.discard(pair)
        fields = (tick, EV_OVERRIDE_SET, None, pair, None, None, 1 if is_open else 0)
        sim.emit(_new(TraceRecord, fields))

    def _detect_into(self, sim, dst: int, tick: int) -> None:
        # Trigger signal for word dst observed: fire every filter (src, dst)
        # whose window is holding, in ascending src order. The closed
        # interval lets a trigger exactly delay1 after the done still count.
        windows, filters, emit = self._window_until, self._filters[dst], sim.emit
        delay2, threshold, new, record = self._delay2, self._threshold, _new, TraceRecord
        for src in sorted(windows):
            if windows[src] < tick:
                del windows[src]
            elif src != dst:
                state = filters.get(src) or filters.setdefault(src, [0, -delay2, (src, dst)])
                pair = state[2]
                emit(new(record, (tick, EV_FILTER_FIRE, None, pair, None, None, None)))
                if tick - state[1] < delay2:
                    # Still inside the previous learning spike: one spike cannot
                    # double-shift the register. The refractory does not restart.
                    continue
                count = state[0] = state[0] + 1
                state[1] = tick
                stage = count if count < threshold else threshold  # min() is a call per shift
                emit(new(record, (tick, EV_LATCH_SHIFT, None, pair, None, None, stage)))
                if count == threshold:
                    # The shift that sets the last stage closes the switch.
                    insort(self._successors.setdefault(src, []), pair)
                    emit(new(record, (tick, EV_LEARNED, None, pair, None, None, None)))


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
        sim.queue.schedule(tick, _new(CpuEnable, (word, episode)))

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
                sim.queue.schedule(next_tick, _new(CpuEnable, (next_word, episode)))


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
    episodes are numbered probes first. Each override and probe is
    unpacked once and its payload built whole, and each ``schedule`` call
    appends it to the queue's setup run; then each plan queues its first
    enable. Nothing is checked again: the scenario checked every part
    against its config.
    """
    # The no-repeat rule has no switch. The keyword stays only because the
    # benchmark harness passes True: ROADMAP item 1 moves the harness off it,
    # and item 8 deletes it.
    if loop_suppression is not True:
        raise ValueError(f"loop_suppression must be True, got {loop_suppression!r}")
    sim = Simulation(scenario.config)
    schedule, new_episode, add_plan = sim.queue.schedule, sim.new_episode, sim.driver.add_plan
    for tick, i, j, is_open in scenario.overrides:
        schedule(tick, _new(OverrideSet, ((i, j), is_open)))
    for tick, word in scenario.probes:
        schedule(tick, _new(CpuEnable, (word, new_episode())))
    for plan in scenario.plans:
        add_plan(sim, plan)
    return sim


def run_scenario(scenario: Scenario, *, max_tick: int | None = None) -> RunResult:
    """Build, run, and summarize one scenario."""
    sim = build_simulation(scenario)
    outcome = sim.run_to_quiescence(max_tick if max_tick is not None else scenario.max_tick)
    report = build_report(sim.records, outcome=outcome.outcome, final_tick=outcome.final_tick)
    return RunResult(
        scenario=scenario, outcome=outcome, records=sim.records, report=report, simulation=sim
    )
