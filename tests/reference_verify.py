"""The multiset verifier that ``memfabric.oracle.verify_run`` replaced, kept as a reference.

From the recount, from the scenario's override directives, and in one
ordered pass over the trace, it builds for each derived record kind a
multiset of the records the definition owes and a multiset of the
records the trace holds, and reports every key on which the two differ,
then each broken structural rule. The tests assert that ``verify_run``
rejects every trace this reference rejects.
"""

from __future__ import annotations

from collections import Counter

from memfabric.fabric import DONE_ENABLE
from memfabric.oracle import Pair, detection_ticks
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
    SRC_AUTO,
    SRC_CPU,
    TraceRecord,
)


def override_state_at(scenario: Scenario, tick: int) -> set[Pair]:
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


# What a message names for each compared kind's keys.
_PAIR_AT = "of pair {1} at t={0}"
_STAGE_AT = "of pair {1} with stage {2} at t={0}"
_WORD_AT = "of word {1} at t={0} (pair {2}, episode {3})"

# An autonomous arrival: an enable or ignored_enable record with src auto.
_AUTO_ARRIVAL = "auto enable"

# The compared kinds in report order: the key's wording, and what owes the records.
_COMPARED = {
    EV_LEARNED: (_PAIR_AT, "the recounted detections owe"),
    EV_LATCH_SHIFT: (_STAGE_AT, "the recounted detections owe"),
    EV_AUTO_ENABLE_SCHEDULED: (_WORD_AT, "the dones of learned pairs owe"),
    EV_LOOP_SUPPRESSED: (_WORD_AT, "the dones of learned pairs owe"),
    EV_OVERRIDE_BLOCKED: (_WORD_AT, "the dones of learned pairs owe"),
    _AUTO_ARRIVAL: (_WORD_AT, "the scheduled replays owe"),
    EV_DONE: ("of word {1} at t={0} (episode {2})", "its accepted enables owe"),
    EV_OVERRIDE_SET: (_STAGE_AT, "the scenario's directives owe"),
}


def reference_verify_run(scenario: Scenario, records: list[TraceRecord]) -> list[str]:
    """Cross-check a trace against definition-level recomputation.

    Returns divergence descriptions: first every compared kind whose
    owed and traced records differ, in ``_COMPARED`` order, then each
    broken structural rule in record order. An empty list means the
    trace agrees with the oracle. Raises MalformedTraceError for a
    trace that is not even well-formed (``detection_ticks``, which runs
    first, checks the tick order before anything relies on it).
    """
    config = scenario.config
    threshold, delay1, durations = config.threshold, config.delay1, config.durations
    last_tick = records[-1].t if records else 0
    # Per compared kind, the keys of the records owed and of those traced.
    owed: dict[str, list[tuple]] = {kind: [] for kind in _COMPARED}
    traced: dict[str, list[tuple]] = {kind: [] for kind in _COMPARED}
    broken: list[str] = []

    # Each detection owes a latch shift, the threshold-th also a learned
    # record; from that trigger record on, the pair is learned.
    learned_at: dict[tuple[int, int], list[Pair]] = {}  # (trigger word, tick) -> pairs
    for pair, ticks in detection_ticks(records, config).items():
        owed[EV_LATCH_SHIFT] += [(t, pair, min(k, threshold)) for k, t in enumerate(ticks, 1)]
        if len(ticks) >= threshold:
            owed[EV_LEARNED].append((ticks[threshold - 1], pair))
            learned_at.setdefault((pair[1], ticks[threshold - 1]), []).append(pair)
    for d in scenario.overrides:
        if d.tick <= last_tick:
            owed[EV_OVERRIDE_SET].append((d.tick, (d.i, d.j), int(d.is_open)))

    # One ordered pass. Records owed after the last traced tick are pending.
    trigger_kind = EV_ENABLE if config.filter_mode == DONE_ENABLE else EV_DONE
    # Directives in application order, as override_state_at applies them;
    # each done first applies those at or before its tick.
    directives = sorted(scenario.overrides, key=lambda d: d.tick)
    applied = 0
    open_overrides: set[Pair] = set()
    successors: dict[int, list[Pair]] = {}  # first word -> pairs learned so far
    fired: set[tuple[int, int]] = set()  # (episode, word) of each accepted enable
    episodes: set[int] = set()
    fire_tick: dict[Pair, int] = {}  # latest filter_fire of each pair
    for t, ev, word, pair, src, episode, stage in records:
        if episode is not None and episode not in episodes:
            episodes.add(episode)
            if src != SRC_CPU:
                broken.append(
                    f"episode {episode} starts with a {ev} record at t={t} instead of a cpu enable"
                )
        if ev == EV_FILTER_FIRE:
            if fire_tick.get(pair) == t:
                broken.append(f"second filter_fire of pair {pair} at t={t}")
            fire_tick[pair] = t
        elif ev == EV_LATCH_SHIFT:
            traced[ev].append((t, pair, stage))
            if fire_tick.get(pair) != t:
                broken.append(f"latch shift of pair {pair} at t={t} has no filter_fire record")
        elif ev == EV_ENABLE or ev == EV_IGNORED_ENABLE:
            if (src == SRC_AUTO) != (pair is not None):
                broken.append(f"{src} enable at t={t} has pair {pair}; only auto enables carry one")
            elif pair is not None:
                traced[_AUTO_ARRIVAL].append((t, word, pair, episode))
            if ev == EV_ENABLE:
                if (episode, word) in fired:
                    broken.append(f"word {word} has a second enable in episode {episode} at t={t}")
                fired.add((episode, word))
                if not 1 <= word <= config.word_count:
                    broken.append(
                        f"enable at t={t} names word {word}, outside the "
                        f"fabric's words 1..{config.word_count}"
                    )
                elif t + durations[word] <= last_tick:
                    owed[EV_DONE].append((t + durations[word], word, episode))
        elif ev == EV_DONE:
            traced[ev].append((t, word, episode))
            while applied < len(directives) and directives[applied].tick <= t:
                d = directives[applied]
                if d.is_open:
                    open_overrides.add((d.i, d.j))
                else:
                    open_overrides.discard((d.i, d.j))
                applied += 1
            for link in successors.get(word, ()):
                if link in open_overrides:
                    outcome = EV_OVERRIDE_BLOCKED
                elif (episode, link[1]) in fired:
                    outcome = EV_LOOP_SUPPRESSED
                else:
                    outcome = EV_AUTO_ENABLE_SCHEDULED
                    if t + delay1 <= last_tick:
                        owed[_AUTO_ARRIVAL].append((t + delay1, link[1], link, episode))
                owed[outcome].append((t, link[1], link, episode))
        elif ev == EV_LEARNED:
            traced[ev].append((t, pair))
        elif ev == EV_OVERRIDE_SET:
            traced[ev].append((t, pair, stage))
        else:  # a replay outcome
            traced[ev].append((t, word, pair, episode))
        if ev == trigger_kind and (word, t) in learned_at:
            for link in learned_at.pop((word, t)):
                successors.setdefault(link[0], []).append(link)

    problems: list[str] = []
    for kind, (names, owner) in _COMPARED.items():
        have, want = Counter(traced[kind]), Counter(owed[kind])
        # Counter.__eq__ loops in Python over every key; Counters built from
        # iterables hold no zero counts, so plain dict equality agrees.
        if not dict.__eq__(have, want):
            problems += [
                f"{have[key]} {kind} record(s) {names.format(*key)}, but {owner} {want[key]}"
                for key in sorted(have.keys() | want.keys())
                if have[key] != want[key]
            ]
    return problems + broken
