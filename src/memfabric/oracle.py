"""Independent brute-force verification of runs.

Everything here recomputes fabric behavior from first principles,
sharing no logic with the event-driven implementation:

* :func:`count_detections` rescans a raw trace and counts, per ordered
  pair, the trigger signals that land inside a predecessor's hold
  window, applying the spike-width refractory by literal subtraction.
  It consumes only enable/done records; the fabric's own filter and
  latch records are ignored entirely.
* :func:`predict_learned` applies the rehearsal threshold to counts.
* :func:`predict_timeline` expands the full autonomous episode that a
  single enable of ``start`` would produce on a given learned set, as
  a naive worklist walk (scan-for-minimum, no priority queue).

Timelines and episode sub-traces are compared in a canonical order:
sorted by tick, then a fixed kind rank, then word, then pair.

:func:`verify_run` returns the first record at which a trace leaves the
run the definition owes. It compares the trace with that run, one
stream of owed records, a slice at a time, and walks record by record
only the slice where the two differ. The stream holds each head, the
first record of a dispatched event (an arrival, a done, an override
switch), followed by the records the definition derives from it: the
filter fires of a trigger with their latch shifts and learned records,
and a done's replay outcomes. A latch shift's k counts the pair's
detections in the trace itself, which :func:`detection_ticks` recounts
first. The owed heads form one schedule in the definition's
``(tick, seq)`` order: setup owes the override switches, the probes'
CPU arrivals and the plans' first enables; an accepted enable owes its
done, a scheduled replay its autonomous arrival, and a done, after its
replay outcomes, the next CPU enable of each plan that awaits its word.
The run stops before its first head past the horizon, the run's tick
limit (the scenario's ``maxticks`` unless the caller passes another).
A trace that ends before the run lacks an owed record, and a record
after the run's end is owed by nothing; either is a divergence. The
result is at most one divergence; empty means full agreement.
"""

from __future__ import annotations

from bisect import insort
from collections import deque, namedtuple
from collections.abc import Generator, Iterator
from heapq import heappop, heappush
from itertools import count, islice, zip_longest

from memfabric.fabric import DONE_ENABLE, FabricConfig
from memfabric.scenario import Scenario, check_max_tick
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
    MalformedTraceError,
    SRC_AUTO,
    SRC_CPU,
    TraceRecord,
)

Pair = tuple[int, int]

KIND_ORDER = {
    EV_ENABLE: 0,
    EV_DONE: 1,
    EV_IGNORED_ENABLE: 2,
    EV_LOOP_SUPPRESSED: 3,
    EV_OVERRIDE_BLOCKED: 4,
}


def detection_ticks(records: list[TraceRecord], config: FabricConfig) -> dict[Pair, list[int]]:
    """Ticks of the qualifying detections per ordered pair.

    A detection for (i, j) is a trigger record of j (an accepted enable
    in done_enable mode, a done in done_done mode) whose tick lies in
    the closed window [t, t + delay1] of the latest preceding done of
    i, and at least delay2 after the pair's previous detection, the last
    tick of its list. Windows retrigger: a newer done of i replaces the
    older window. Same-tick cases resolve by record order, matching dispatch
    order. Ticks never decrease (a tick below the one before it raises
    MalformedTraceError), so a window is dropped once a trigger passes it.
    """
    trigger_kind = EV_ENABLE if config.filter_mode == DONE_ENABLE else EV_DONE
    delay1, delay2 = config.delay1, config.delay2
    window_until: dict[int, int] = {}
    ticks: dict[Pair, list[int]] = {}
    last = 0
    for t, ev, word, _, _, _, _ in records:
        if t < last:
            raise MalformedTraceError(f"out-of-order tick {t} after {last}")
        last = t
        if ev == trigger_kind:
            closed = []
            for src, until in window_until.items():
                if t > until:
                    closed.append(src)
                    continue
                if src == word:
                    continue
                counted = ticks.get((src, word))
                if counted is None:
                    ticks[src, word] = [t]
                elif t - counted[-1] >= delay2:
                    counted.append(t)
            for src in closed:
                del window_until[src]
        if ev == EV_DONE:
            window_until[word] = t + delay1
    return ticks


def count_detections(records: list[TraceRecord], config: FabricConfig) -> dict[Pair, int]:
    return {pair: len(t) for pair, t in detection_ticks(records, config).items()}


def predict_learned(counts: dict[Pair, int], threshold: int) -> set[Pair]:
    return {pair for pair, count in counts.items() if count >= threshold}


TimelineEntry = namedtuple("TimelineEntry", "tick kind word pair", defaults=(None,))


def entry_sort_key(entry: TimelineEntry):
    return (entry.tick, KIND_ORDER[entry.kind], entry.word, entry.pair or (0, 0))


def shift_entries(entries: list[TimelineEntry], delta: int) -> list[TimelineEntry]:
    return [TimelineEntry(e.tick + delta, e.kind, e.word, e.pair) for e in entries]


def episode_subtrace(records: list[TraceRecord], episode_id: int) -> list[TimelineEntry]:
    """The comparable view of one episode, canonically ordered."""
    entries = [
        TimelineEntry(rec.t, rec.ev, rec.word, rec.pair)
        for rec in records
        if rec.episode == episode_id and rec.ev in KIND_ORDER
    ]
    return sorted(entries, key=entry_sort_key)


def predict_timeline(
    learned: set[Pair],
    overrides: set[Pair],
    start: int,
    config: FabricConfig,
) -> list[TimelineEntry]:
    """Expected episode from one enable of ``start`` at tick 0.

    Walks a plain worklist of pending arrivals and completions,
    repeatedly scanning for the least (tick, seq) item. A word arrival
    is ignored if the word is mid-run or has already fired in the
    episode; otherwise it runs for its duration, and its completion
    feeds every learned, non-overridden, not-yet-fired successor an
    arrival exactly delay1 later (successors in ascending word order).
    The result is sorted by (tick, kind rank, word, pair).
    """
    config.check_word(start)
    successors: dict[int, list[int]] = {}  # word -> its learned successors, ascending
    for i, j in sorted(learned):
        successors.setdefault(i, []).append(j)
    out: list[TimelineEntry] = []
    # worklist items: (tick, seq, action, word, pair)
    worklist: list[tuple[int, int, str, int, Pair | None]] = [(0, 0, "arrive", start, None)]
    next_seq = 1
    busy_until: dict[int, int] = {}
    fired: set[int] = set()
    while worklist:
        item = min(worklist, key=lambda it: (it[0], it[1]))
        worklist.remove(item)
        tick, _, action, word, pair = item
        if action == "arrive":
            if busy_until.get(word, 0) > tick or word in fired:
                out.append(TimelineEntry(tick, EV_IGNORED_ENABLE, word, pair))
                continue
            fired.add(word)
            busy_until[word] = tick + config.durations[word]
            out.append(TimelineEntry(tick, EV_ENABLE, word, pair))
            worklist.append((busy_until[word], next_seq, "finish", word, None))
            next_seq += 1
        else:
            out.append(TimelineEntry(tick, EV_DONE, word, None))
            for successor in successors.get(word, ()):
                link = (word, successor)
                if link in overrides:
                    out.append(TimelineEntry(tick, EV_OVERRIDE_BLOCKED, successor, link))
                elif successor in fired:
                    out.append(TimelineEntry(tick, EV_LOOP_SUPPRESSED, successor, link))
                else:
                    worklist.append((tick + config.delay1, next_seq, "arrive", successor, link))
                    next_seq += 1
    return sorted(out, key=entry_sort_key)


# -- whole-run verification ---------------------------------------------


def _owed_run(
    scenario: Scenario, horizon: int, detections: dict[Pair, list[int]]
) -> Iterator[tuple]:
    """The records the run owes up to the horizon, in order, as 7-tuples:
    each owed head, then the records the definition derives from it. Up to
    a divergence the trace is this run, so a pair's filter fires meet its
    ``detections`` (their ticks in the trace) in order, and a fire at the
    next one owes the pair's next latch shift. Past a divergence, which the
    caller finds up to a slice later, a fired pair may have none."""
    config = scenario.config
    n, delay1, duration = config.threshold, config.delay1, config.durations.default
    durations = dict(config.durations.exceptions)  # a dict's get is quicker than a view's
    trigger_kind = EV_ENABLE if config.filter_mode == DONE_ENABLE else EV_DONE
    episodes = count()  # numbered as README "Record order" states

    def rehearsal(plan) -> Generator[tuple | None, int, None]:
        # A plan's CPU model: sent the tick of each done it awaits, it yields its
        # next enable, gap ticks later, or rest ticks later in a new episode.
        sequence, gap, rest, t = plan.sequence, plan.gap, plan.rest, plan.start
        for _ in range(plan.reps):
            episode = next(episodes)
            for word in sequence:
                done = yield (t, EV_ENABLE, word, None, SRC_CPU, episode, None)
                t = done + gap
            t = done + rest
        yield None  # finished

    # Setup owes the override switches, then each probe's arrival, then each
    # plan's first enable. An arrival is owed as an enable: whether it is
    # ignored is decided when it is the next head.
    owed = [
        (d.tick, EV_OVERRIDE_SET, None, (d.i, d.j), None, None, int(d.is_open))
        for d in scenario.overrides
    ]
    owed += [
        (p.tick, EV_ENABLE, p.word, None, SRC_CPU, next(episodes), None) for p in scenario.probes
    ]
    plans = [rehearsal(plan) for plan in scenario.plans]
    enables = [next(plan) for plan in plans]  # each plan's last owed enable
    awaiting: dict[int, list[int]] = {}  # word -> the plans that await its done, in add order
    for k, enable in enumerate(enables):
        awaiting.setdefault(enable[2], []).append(k)
    owed += enables
    seq = count()  # the order in which the definition schedules the owed heads
    setup = deque(sorted((rec[0], next(seq), rec) for rec in owed))
    heads = [setup.popleft()] if setup else []  # heap of owed (tick, seq, record)
    busy_until: dict[int, int] = {}
    fired: set[tuple[int, int]] = set()  # (episode, word) of each accepted enable
    window_until: dict[int, int] = {}  # source word -> closing tick of its hold window
    successors: dict[int, list[int]] = {}  # word -> its learned successors, ascending
    override_stage: dict[Pair, int] = {}  # pair -> its last switch: 1 open, 0 closed
    shifts: dict[Pair, int] = {}  # pair -> the k of its last owed latch shift

    while heads and heads[0][0] <= horizon:  # a head past the horizon: the run stops
        _, scheduled, rec = heappop(heads)
        if scheduled < len(owed) and setup:  # setup feeds the heap one head at a time
            heappush(heads, setup.popleft())
        t, ev, word, pair, src, episode, stage = rec
        if ev == EV_OVERRIDE_SET:
            yield rec
            override_stage[pair] = stage
            continue
        if ev == EV_ENABLE:
            # A busy word, or one that already fired in the episode, ignores an arrival.
            if busy_until.get(word, 0) > t or (episode, word) in fired:
                yield (t, EV_IGNORED_ENABLE, word, pair, src, episode, None)
                continue
            fired.add((episode, word))
            busy_until[word] = end = t + durations.get(word, duration)
            heappush(heads, (end, next(seq), (end, EV_DONE, word, None, None, episode, None)))
        else:  # a done opens its word's hold window
            window_until[word] = t + delay1
        yield rec
        if ev == trigger_kind:
            for i in sorted(window_until):
                if window_until[i] < t:
                    del window_until[i]  # closed for good: the clock never moves back
                    continue
                if i == word:
                    continue
                link = (i, word)
                yield (t, EV_FILTER_FIRE, None, link, None, None, None)
                counted, k = detections.get(link, ()), shifts.get(link, 0)
                if k < len(counted) and counted[k] == t:
                    shifts[link] = k = k + 1
                    yield (t, EV_LATCH_SHIFT, None, link, None, None, k if k < n else n)
                    if k == n:
                        yield (t, EV_LEARNED, None, link, None, None, None)
                        insort(successors.setdefault(i, []), word)
        if ev == EV_DONE:
            for dst in successors.get(word, ()):
                link = (word, dst)
                if override_stage.get(link):
                    yield (t, EV_OVERRIDE_BLOCKED, dst, link, None, episode, None)
                elif (episode, dst) in fired:
                    yield (t, EV_LOOP_SUPPRESSED, dst, link, None, episode, None)
                else:
                    yield (t, EV_AUTO_ENABLE_SCHEDULED, dst, link, None, episode, None)
                    arrival = (t + delay1, EV_ENABLE, dst, link, SRC_AUTO, episode, None)
                    heappush(heads, (arrival[0], next(seq), arrival))
            # Then each plan awaiting the word since its own enable's tick advances.
            for k in awaiting.pop(word, ()):
                if enables[k][0] > t:
                    awaiting.setdefault(word, []).append(k)
                elif enable := plans[k].send(t):
                    enables[k] = enable
                    insort(awaiting.setdefault(enable[2], []), k)
                    heappush(heads, (enable[0], next(seq), enable))


# records of the trace, and of the run, compared at a time: a slice of the
# run is held as a list, so a longer one raises verify's peak memory
_SLICE = 1024


def verify_run(
    scenario: Scenario, records: list[TraceRecord], *, max_tick: int | None = None
) -> list[str]:
    """Return the first record at which the trace leaves the run the definition owes.

    ``max_tick`` is the horizon, the tick limit of the run that wrote the
    trace; it defaults to ``scenario.max_tick``. Returns at most one
    divergence, ``record N: the trace has X, but the run owes Y`` or
    ``record N: the trace has X, but nothing owes it`` (N counts from 1;
    X and Y are JSON lines, X is ``no more records`` past the trace's
    end), by the rule the module docstring states. An empty list means
    the trace agrees with the definition. The two are compared
    :data:`_SLICE` records at a time, and only a slice that differs is
    walked record by record. Raises MalformedTraceError for a trace whose
    ticks go down (``detection_ticks``, which runs first, checks them),
    and ValueError for a ``max_tick`` below 1.
    """
    horizon = scenario.max_tick if max_tick is None else max_tick
    check_max_tick(horizon)
    run = _owed_run(scenario, horizon, detection_ticks(records, scenario.config))
    trace = iter(records)
    n = 1  # the number of the slice's first record
    while (traced := list(islice(trace, _SLICE))) == (owed := list(islice(run, _SLICE))):
        if not traced:
            return []  # the trace ends where the run does
        n += _SLICE
    for n, (rec, want) in enumerate(zip_longest(traced, owed), n):
        if rec != want:
            break
    have = "no more records" if rec is None else rec.to_json_line()
    owes = f"the run owes {TraceRecord(*want).to_json_line()}" if want else "nothing owes it"
    return [f"record {n}: the trace has {have}, but {owes}"]
