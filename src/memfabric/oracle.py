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

:func:`verify_run` cross-checks a scenario's trace against these
recomputations plus the structural trace contracts, returning a list
of divergence descriptions (empty means full agreement).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass

from memfabric.fabric import DONE_ENABLE, FabricConfig
from memfabric.scenario import Scenario
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

# What a done of i records for each learned successor j: exactly one of these.
REPLAY_OUTCOMES = (EV_AUTO_ENABLE_SCHEDULED, EV_LOOP_SUPPRESSED, EV_OVERRIDE_BLOCKED)

KIND_ORDER = {
    EV_ENABLE: 0,
    EV_DONE: 1,
    EV_IGNORED_ENABLE: 2,
    EV_LOOP_SUPPRESSED: 3,
    EV_OVERRIDE_BLOCKED: 4,
}


def _check_order(records: list[TraceRecord]) -> None:
    last = 0
    for rec in records:
        if rec.t < last:
            raise MalformedTraceError(f"out-of-order tick {rec.t} after {last}")
        last = rec.t


def detection_ticks(records: list[TraceRecord], config: FabricConfig) -> dict[Pair, list[int]]:
    """Ticks of the qualifying detections per ordered pair.

    A detection for (i, j) is a trigger record of j (an accepted enable
    in done_enable mode, a done in done_done mode) whose tick lies in
    the closed window [t, t + delay1] of the latest preceding done of
    i, and at least delay2 after the previous counted detection of the
    same pair. Windows retrigger: a newer done of i replaces the older
    window. Same-tick cases resolve by record order, matching dispatch
    order.
    """
    _check_order(records)
    trigger_kind = EV_ENABLE if config.filter_mode == DONE_ENABLE else EV_DONE
    window_until: dict[int, int] = {}
    last_counted: dict[Pair, int] = {}
    ticks: dict[Pair, list[int]] = {}
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


def count_detections(records: list[TraceRecord], config: FabricConfig) -> dict[Pair, int]:
    return {pair: len(t) for pair, t in detection_ticks(records, config).items()}


def predict_learned(counts: dict[Pair, int], threshold: int) -> set[Pair]:
    return {pair for pair, count in counts.items() if count >= threshold}


@dataclass(frozen=True)
class TimelineEntry:
    tick: int
    kind: str
    word: int
    pair: Pair | None = None


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
            for successor in config.word_ids():
                link = (word, successor)
                if link not in learned:
                    continue
                if link in overrides:
                    out.append(TimelineEntry(tick, EV_OVERRIDE_BLOCKED, successor, link))
                elif successor in fired:
                    out.append(TimelineEntry(tick, EV_LOOP_SUPPRESSED, successor, link))
                else:
                    worklist.append((tick + config.delay1, next_seq, "arrive", successor, link))
                    next_seq += 1
    return sorted(out, key=entry_sort_key)


# -- whole-run verification ---------------------------------------------


def _override_state_at(scenario: Scenario, tick: int) -> set[Pair]:
    """Open override pairs in effect at ``tick``, by definition.

    Directives apply at their tick, in tick order; directives sharing a
    tick apply in file order, as the simulation schedules them.
    """
    state: set[Pair] = set()
    for d in sorted(scenario.overrides, key=lambda d: d.tick):
        if d.tick <= tick:
            if d.is_open:
                state.add((d.i, d.j))
            else:
                state.discard((d.i, d.j))
    return state


OverrideChanges = dict[Pair, tuple[list[int], list[bool]]]


def _override_changes(scenario: Scenario) -> OverrideChanges:
    """Per pair, the directive ticks in application order and the state each sets.

    Built once, by the same ordering as :func:`_override_state_at`, so
    that :func:`_override_open_at` answers each lookup by bisection.
    """
    changes: OverrideChanges = {}
    for d in sorted(scenario.overrides, key=lambda d: d.tick):
        ticks, states = changes.setdefault((d.i, d.j), ([], []))
        ticks.append(d.tick)
        states.append(d.is_open)
    return changes


def _override_open_at(changes: OverrideChanges, pair: Pair, tick: int) -> bool:
    ticks, states = changes.get(pair, ((), ()))
    # The last directive at or before ``tick``; among same-tick ones, the last applied.
    index = bisect_right(ticks, tick)
    return index > 0 and states[index - 1]


def verify_run(scenario: Scenario, records: list[TraceRecord]) -> list[str]:
    """Cross-check a trace against definition-level recomputation.

    Returns divergence descriptions in check order; an empty list means
    the trace agrees with the oracle on learning, replay timing, and
    the structural trace contracts. Raises MalformedTraceError for a
    trace that is not even well-formed (``detection_ticks`` checks the
    tick order before anything relies on it).
    """
    config = scenario.config
    problems: list[str] = []
    last_tick = records[-1].t if records else 0

    # Learning agreement: learned records vs recounted detections.
    ticks = detection_ticks(records, config)
    counts = {pair: len(t) for pair, t in ticks.items()}
    predicted = predict_learned(counts, config.threshold)
    traced_learned: dict[Pair, int] = {}
    for rec in records:
        if rec.ev == EV_LEARNED:
            if rec.pair in traced_learned:
                problems.append(f"pair {rec.pair} has a duplicate learned record at t={rec.t}")
            else:
                traced_learned[rec.pair] = rec.t
    for pair in sorted(predicted - set(traced_learned)):
        problems.append(
            f"pair {pair} reaches {counts[pair]} detections (threshold "
            f"{config.threshold}) but the trace has no learned record for it"
        )
    for pair in sorted(set(traced_learned) - predicted):
        problems.append(
            f"trace says pair {pair} was learned but the recount finds only "
            f"{counts.get(pair, 0)} detections (threshold {config.threshold})"
        )
    for pair in sorted(predicted & set(traced_learned)):
        expected_tick = ticks[pair][config.threshold - 1]
        if traced_learned[pair] != expected_tick:
            problems.append(
                f"pair {pair} learned at t={traced_learned[pair]} in the trace "
                f"but the {config.threshold}th detection is at t={expected_tick}"
            )

    # Replay scheduling: every scheduled autonomous enable is justified
    # and pairs up with its arrival exactly delay1 later (arrivals past
    # the end of a truncated trace are legitimately pending).
    dones: Counter[tuple[int, int, int]] = Counter()  # (t, word, episode)
    arrivals: dict[tuple[int, int, Pair, int], int] = {}
    scheduled: dict[tuple[int, int, Pair, int], int] = {}
    for rec in records:
        if rec.ev == EV_DONE:
            dones[(rec.t, rec.word, rec.episode)] += 1
        elif rec.ev in (EV_ENABLE, EV_IGNORED_ENABLE) and rec.src == SRC_AUTO:
            key = (rec.t, rec.word, rec.pair, rec.episode)
            arrivals[key] = arrivals.get(key, 0) + 1
        elif rec.ev == EV_AUTO_ENABLE_SCHEDULED:
            key = (rec.t, rec.word, rec.pair, rec.episode)
            scheduled[key] = scheduled.get(key, 0) + 1

    overrides = _override_changes(scenario)

    def learned_by(pair: Pair, tick: int) -> bool:
        t = ticks.get(pair, [])
        return len(t) >= config.threshold and t[config.threshold - 1] <= tick

    for (t, word, pair, episode), n in sorted(scheduled.items()):
        if (t, pair[0], episode) not in dones:
            problems.append(
                f"auto enable of word {word} scheduled at t={t} (pair {pair}) has "
                f"no matching done of word {pair[0]} in episode {episode}"
            )
        if not learned_by(pair, t):
            problems.append(
                f"auto enable scheduled at t={t} for pair {pair} but the pair is "
                f"not learned by then per the recount"
            )
        if _override_open_at(overrides, pair, t):
            problems.append(
                f"auto enable scheduled at t={t} for pair {pair} while its override is open"
            )
        arrival_t = t + config.delay1
        have = arrivals.get((arrival_t, word, pair, episode), 0)
        if have < n and arrival_t <= last_tick:
            problems.append(
                f"auto enable of word {word} (pair {pair}, episode {episode}) was "
                f"scheduled at t={t} but never arrived at t={arrival_t}"
            )
    for (t, word, pair, episode), n in sorted(arrivals.items()):
        if scheduled.get((t - config.delay1, word, pair, episode), 0) < n:
            problems.append(
                f"auto enable of word {word} at t={t} (pair {pair}, episode {episode}) "
                f"was never scheduled at t={t - config.delay1}"
            )

    # Latch activity: shift counts, stage progression, refractory spacing.
    shifts: dict[Pair, list[TraceRecord]] = {}
    fire_ticks: dict[Pair, set[int]] = {}
    for rec in records:
        if rec.ev == EV_LATCH_SHIFT:
            shifts.setdefault(rec.pair, []).append(rec)
        elif rec.ev == EV_FILTER_FIRE:
            fire_ticks.setdefault(rec.pair, set()).add(rec.t)
    for pair in sorted(set(shifts) | set(counts)):
        recs = shifts.get(pair, [])
        if len(recs) != counts.get(pair, 0):
            problems.append(
                f"pair {pair} has {len(recs)} latch shifts in the trace but the "
                f"recount finds {counts.get(pair, 0)} detections"
            )
            continue
        for index, rec in enumerate(recs):
            expected_stage = min(index + 1, config.threshold)
            if rec.stage != expected_stage:
                problems.append(
                    f"latch shift {index + 1} of pair {pair} at t={rec.t} reports "
                    f"stage {rec.stage}, expected {expected_stage}"
                )
            if index > 0 and rec.t - recs[index - 1].t < config.delay2:
                problems.append(
                    f"latch shifts of pair {pair} at t={recs[index - 1].t} and "
                    f"t={rec.t} are closer than delay2={config.delay2}"
                )
            if rec.t not in fire_ticks.get(pair, set()):
                problems.append(
                    f"latch shift of pair {pair} at t={rec.t} has no filter_fire record"
                )

    # Suppression and override-block records must each sit on a done of
    # the pair's predecessor, with the pair learned by then.
    fired_at: dict[tuple[int, int], int] = {}
    for rec in records:
        if rec.ev == EV_ENABLE:
            fired_at.setdefault((rec.episode, rec.word), rec.t)
    for rec in records:
        if rec.ev not in (EV_LOOP_SUPPRESSED, EV_OVERRIDE_BLOCKED):
            continue
        where = f"at t={rec.t} (pair {rec.pair}, episode {rec.episode})"
        if (rec.t, rec.pair[0], rec.episode) not in dones:
            problems.append(f"{rec.ev} record {where} has no matching done of word {rec.pair[0]}")
        if not learned_by(rec.pair, rec.t):
            problems.append(f"{rec.ev} record {where} for a pair not learned by then")
        if rec.ev == EV_LOOP_SUPPRESSED:
            enabled = fired_at.get((rec.episode, rec.word))
            if enabled is None or enabled > rec.t:
                problems.append(
                    f"loop_suppressed record {where} but word {rec.word} had not "
                    f"fired in that episode"
                )
        else:
            if not _override_open_at(overrides, rec.pair, rec.t):
                problems.append(
                    f"override_blocked record {where} but the override was not open"
                )

    # Completeness: a done of i owes exactly one replay outcome for each
    # pair (i, j) that the recount has learned at an earlier record. A pair
    # is learned at the trigger record of its threshold-th detection, so a
    # done on that tick but dispatched before the trigger owes nothing.
    trigger_kind = EV_ENABLE if config.filter_mode == DONE_ENABLE else EV_DONE
    learned_at: dict[tuple[int, int], list[Pair]] = {}  # (trigger word, tick) -> pairs
    for pair, t in ticks.items():
        if len(t) >= config.threshold:
            learned_at.setdefault((pair[1], t[config.threshold - 1]), []).append(pair)
    successors: dict[int, list[Pair]] = {}
    owed: list[tuple[int, int, Pair, int]] = []  # (t, word, pair, episode)
    outcomes: list[tuple[int, int, Pair, int]] = []
    for rec in records:
        if rec.ev == EV_DONE and rec.word in successors:
            owed += [(rec.t, pair[1], pair, rec.episode) for pair in successors[rec.word]]
        elif rec.ev in REPLAY_OUTCOMES:
            outcomes.append((rec.t, rec.word, rec.pair, rec.episode))
        if rec.ev == trigger_kind and (rec.word, rec.t) in learned_at:
            for pair in learned_at.pop((rec.word, rec.t)):
                successors.setdefault(pair[0], []).append(pair)
    owed_count, outcome_count = Counter(owed), Counter(outcomes)
    if owed_count != outcome_count:
        for key in sorted(owed_count.keys() | outcome_count.keys()):
            if owed_count[key] != outcome_count[key]:
                t, word, pair, episode = key
                problems.append(
                    f"done of word {pair[0]} at t={t} (episode {episode}) owes "
                    f"{owed_count[key]} replay outcome(s) for learned pair {pair} "
                    f"but the trace has {outcome_count[key]}"
                )

    # Durations: an accepted enable of word w owes one done of w exactly
    # durations[w] ticks later in its episode (a done past the end of a
    # truncated trace is pending), and every done is owed by one.
    owed_dones: Counter[tuple[int, int, int]] = Counter()
    for rec in records:
        if rec.ev == EV_ENABLE:
            if not 1 <= rec.word <= config.word_count:
                problems.append(
                    f"enable at t={rec.t} names word {rec.word}, outside the "
                    f"fabric's words 1..{config.word_count}"
                )
                continue
            done_t = rec.t + config.durations[rec.word]
            if done_t <= last_tick:
                owed_dones[(done_t, rec.word, rec.episode)] += 1
    if owed_dones != dones:
        for key in sorted(owed_dones.keys() | dones.keys()):
            if owed_dones[key] != dones[key]:
                t, word, episode = key
                problems.append(
                    f"word {word} has {dones[key]} done record(s) at t={t} (episode "
                    f"{episode}) but its accepted enables owe {owed_dones[key]}"
                )

    # Episode no-repeat: at most one accepted enable per word per episode.
    seen: set[tuple[int, int]] = set()
    for rec in records:
        if rec.ev == EV_ENABLE:
            key = (rec.episode, rec.word)
            if key in seen:
                problems.append(
                    f"word {rec.word} has a second enable in episode {rec.episode} at t={rec.t}"
                )
            seen.add(key)

    # Every episode originates from a cpu enable: the first record carrying
    # an episode id must be that episode's cpu trigger.
    first_of_episode: dict[int, TraceRecord] = {}
    for rec in records:
        if rec.episode is not None and rec.episode not in first_of_episode:
            first_of_episode[rec.episode] = rec
    for episode, rec in sorted(first_of_episode.items()):
        if rec.src != SRC_CPU or rec.ev not in (EV_ENABLE, EV_IGNORED_ENABLE):
            problems.append(
                f"episode {episode} starts with a {rec.ev} record at t={rec.t} "
                f"instead of a cpu enable"
            )

    # Override switch records must mirror the scenario directives that
    # fall within the traced horizon.
    expected_overrides = sorted(
        ((d.tick, (d.i, d.j), 1 if d.is_open else 0) for d in scenario.overrides if d.tick <= last_tick)
    )
    actual_overrides = sorted(
        (rec.t, rec.pair, rec.stage) for rec in records if rec.ev == EV_OVERRIDE_SET
    )
    if expected_overrides != actual_overrides:
        problems.append(
            f"override_set records {actual_overrides} do not match the scenario "
            f"directives {expected_overrides}"
        )

    # CPU enables must never carry a source pair.
    for rec in records:
        if rec.ev in (EV_ENABLE, EV_IGNORED_ENABLE) and rec.src == SRC_CPU and rec.pair is not None:
            problems.append(f"cpu enable at t={rec.t} carries a source pair {rec.pair}")

    return problems
