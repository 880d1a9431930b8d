"""Scenario text format, canonical printing, and the end-of-run report.

A scenario is a line-oriented directive file (``#`` starts a comment,
blank lines are skipped)::

    fabric words=K delay1=D1 delay2=D2 threshold=N [mode=done_enable|done_done]
    dur * T                 # default duration for every word
    dur <id> T              # per-word override
    rehearse <id...> reps=R gap=G rest=S start=T
    at T probe <id>
    at T override <i> <j> open|closed
    maxticks T

``fabric`` and ``maxticks`` are required and may appear once. Unknown
directives and unknown arguments are errors. Every error names its line,
except a missing ``fabric`` or ``maxticks``. Each line is checked as it
is read, so its own faults are reported first, in file order. The rules
that need the whole file are checked after the last line: the fabric's
config (every word has a duration), the words of the ``dur`` lines, and
then the words and pairs of the plans, probes and overrides, which
:class:`Scenario` checks; the first faulty one in file order is named.
A ``gap`` larger than ``delay1`` parses with a warning: it is a
legitimate negative control (the rehearsed pairs fall outside every
coincidence window).

Its parts, :class:`RehearsalPlan`, :class:`Probe` and :class:`OverrideDirective`,
are defined here and check themselves when built; their words are checked
against a config by :func:`~memfabric.fabric.check_word`, the word rule's one
body, when a :class:`Scenario` is built. Nothing here comes from the run (the
engine, its CPU model ``Driver``, the fabric's runtime).

At setup, directives are scheduled in a fixed order: overrides first
(file order), then probes (file order), then plans (file order). An
override at tick T therefore always takes effect before any same-tick
activity.
"""

from __future__ import annotations

import json
import os
from collections import Counter, namedtuple
from collections.abc import Iterable

from memfabric.fabric import DONE_ENABLE, CheckedTuple, Durations, FabricConfig, check_int, check_word
from memfabric.trace import (
    EV_ENABLE,
    EV_IGNORED_ENABLE,
    EV_LATCH_SHIFT,
    EV_LEARNED,
    SRC_CPU,
    TraceRecord,
    split_lines,
)


class ScenarioError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ParseError(ScenarioError):
    """Syntax problem: unknown directive, bad token, malformed argument."""


class ValidationError(ScenarioError):
    """Semantic problem: out-of-range value, repeated word, bad config."""


class InvalidPlanError(ValueError):
    """A rehearsal plan violates its structural constraints."""


def _check_distinct(sequence: tuple) -> None:
    """The plan's distinct-word rule, naming the first word, in order, that an
    earlier word equals: in one pass when the words hash, by equality when one does not."""
    seen = set()
    try:
        for word in sequence:
            if word in seen:
                break
            seen.add(word)
        else:
            return
    except TypeError:  # a word with no hash
        for i, word in enumerate(sequence):
            if word in sequence[:i]:
                break
        else:
            return
    raise InvalidPlanError(f"word {word} repeats in the sequence; states must be distinct")


class RehearsalPlan(CheckedTuple, namedtuple("RehearsalPlan", "sequence reps gap rest start")):
    __slots__ = ()

    def __new__(cls, sequence, reps: int, gap: int, rest: int, start: int):
        sequence = tuple(sequence)
        if len(sequence) < 2:
            raise InvalidPlanError("a plan needs at least 2 words")
        _check_distinct(sequence)
        check_int(reps, 1, "reps", InvalidPlanError)
        check_int(gap, 0, "gap", InvalidPlanError)
        check_int(rest, 0, "rest", InvalidPlanError)
        check_int(start, 0, "start", InvalidPlanError)
        return tuple.__new__(cls, (sequence, reps, gap, rest, start))

    def check_words(self, config: FabricConfig) -> None:
        """Every word of the sequence is a word of ``config``'s fabric."""
        word_count = config.word_count
        for word in self.sequence:
            check_word(word, word_count)


class Probe(CheckedTuple, namedtuple("Probe", "tick word")):
    __slots__ = ()

    def __new__(cls, tick: int, word: int):
        check_int(tick, 0, "probe tick")
        return tuple.__new__(cls, (tick, word))

    def check_words(self, config: FabricConfig) -> None:
        """The probed word is a word of ``config``'s fabric."""
        check_word(self.word, config.word_count)


class OverrideDirective(CheckedTuple, namedtuple("OverrideDirective", "tick i j is_open")):
    __slots__ = ()

    def __new__(cls, tick: int, i: int, j: int, is_open: bool):
        check_int(tick, 0, "override tick")
        if not isinstance(is_open, bool):
            raise ValueError(f"override switch must be True or False, got {is_open!r}")
        return tuple.__new__(cls, (tick, i, j, is_open))

    def check_words(self, config: FabricConfig) -> None:
        """The switched pair is a pair of ``config``'s fabric."""
        config.check_pair(self.i, self.j)


class Scenario(
    CheckedTuple,
    namedtuple("Scenario", "config plans probes overrides max_tick warnings"),
):
    """A scenario that can run: its tick limit keeps the rule of ``maxticks``,
    ``config`` is a :class:`FabricConfig`, and each slot, in field order,
    holds parts of its own kind only, each of which checks its words
    against ``config``.
    Parts and warnings are kept as tuples; equality leaves the warnings out."""

    __slots__ = ()

    def __new__(cls, config, plans, probes, overrides, max_tick: int, warnings=()):
        check_max_tick(max_tick)
        if type(config) is not FabricConfig:
            raise TypeError(f"config is not a FabricConfig: {config!r}")
        plans, probes, overrides = tuple(plans), tuple(probes), tuple(overrides)
        for slot, kind, parts in (
            ("plans", RehearsalPlan, plans),
            ("probes", Probe, probes),
            ("overrides", OverrideDirective, overrides),
        ):
            if not set(map(type, parts)) <= {kind}:  # one test of the slot's types
                part = next(part for part in parts if type(part) is not kind)
                raise TypeError(f"{slot} holds only {kind.__name__}s, got {part!r}")
            for part in parts:
                part.check_words(config)
        return tuple.__new__(cls, (config, plans, probes, overrides, max_tick, tuple(warnings)))

    def __eq__(self, other):
        return isinstance(other, Scenario) and self[:5] == other[:5]

    def __ne__(self, other):
        return not self == other


def check_max_tick(value: int) -> None:
    """The tick-limit rule of ``maxticks``, ``--max-ticks``, the run loop and ``verify_run``."""
    check_int(value, 1, "maxticks")


def parse_int(token: str, what: str) -> int:
    """ASCII digits with an optional sign, and nothing else."""
    # int() alone would also take " 5\n", "1_0" and non-ASCII digits such as "٣".
    if token.isascii() and (token.isdigit() or token[:1] in "+-" and token[1:].isdigit()):
        try:
            return int(token, 10)
        except ValueError:  # more digits than int() converts
            pass
    raise ParseError(f"{what} is not an integer: {token!r}")


def _parse_kv(tokens: list[str], allowed: dict[str, bool], what: str) -> dict[str, str]:
    """Parse key=value tokens; ``allowed`` maps key -> required."""
    out: dict[str, str] = {}
    for token in tokens:
        if "=" not in token:
            raise ParseError(f"expected key=value argument in {what}, got {token!r}")
        key, value = token.split("=", 1)
        if key not in allowed:
            raise ParseError(f"unknown argument {key!r} in {what}")
        if key in out:
            raise ParseError(f"duplicate argument {key!r} in {what}")
        if not value:
            raise ParseError(f"empty value for {key!r} in {what}")
        out[key] = value
    for key, required in allowed.items():
        if required and key not in out:
            raise ParseError(f"{what} is missing argument {key!r}")
    return out


class _WordIds(dict):
    """Word-id tokens, each converted once; a token that fails raises and is not kept."""

    def __missing__(self, token: str) -> int:
        word = self[token] = parse_int(token, "word id")
        return word


_FABRIC_ARGS = {"words": True, "delay1": True, "delay2": True, "threshold": True, "mode": False}
_PLAN_ARGS = {"reps": True, "gap": True, "rest": True, "start": True}


def parse_scenario(text: str | Iterable[str]) -> Scenario:
    """``text`` is the whole scenario, or its blocks as :func:`~memfabric.trace.read_blocks`
    gives them; a byte they fail to decode (a :class:`UnicodeError`) is a
    :class:`ParseError` of its line. Each distinct word-id token of the
    ``at`` lines is converted once per parse, and a token that fails to
    convert raises and is never kept."""
    fabric: tuple[int, list[int], str] | None = None  # (line, [words, delays, threshold], mode)
    default_dur: int | None = None
    durations: dict[int, int] = {}  # word -> its own duration
    dur_lines: dict[int, int] = {}  # word -> the line of its duration
    plans: dict[int, RehearsalPlan] = {}  # line -> directive, in file order
    probes: dict[int, Probe] = {}
    overrides: dict[int, OverrideDirective] = {}
    max_tick: int | None = None
    # The at lines' word ids, which repeat. A plan's rarely do, and a miss costs
    # more than a plain conversion, so the plans convert theirs where they stand.
    word_ids = _WordIds()
    # ``line`` always holds the line being checked: the one being read, then the
    # directive's line of each whole-file rule. Every error is located below.
    line: int | None = 1
    try:
        for block in (text,) if isinstance(text, str) else text:
            # a block's last item, after its final newline, is the next block's first line
            for line, raw in enumerate(split_lines(block), start=line):
                tokens = raw.partition("#")[0].split()
                if not tokens:
                    continue
                head = tokens[0]
                if head == "at":  # the directive that repeats, so tested first
                    if len(tokens) < 3:
                        raise ParseError("at directive needs a tick and an action")
                    tick, action = parse_int(tokens[1], "tick"), tokens[2]
                    if action == "probe":
                        if len(tokens) != 4:
                            raise ParseError("probe takes exactly one word id")
                        probes[line] = Probe(tick, word_ids[tokens[3]])
                    elif action == "override":
                        if len(tokens) != 6:
                            raise ParseError("override takes two word ids and open|closed")
                        i, j, state = word_ids[tokens[3]], word_ids[tokens[4]], tokens[5]
                        if state not in ("open", "closed"):
                            raise ParseError(f"override state must be open or closed, got {state!r}")
                        overrides[line] = OverrideDirective(tick, i, j, state == "open")
                    else:
                        raise ParseError(f"unknown action {action!r} after 'at'")
                elif head == "fabric":
                    if fabric is not None:
                        raise ParseError("duplicate fabric directive")
                    args = _parse_kv(tokens[1:], _FABRIC_ARGS, "fabric")
                    ints = [parse_int(args[key], key) for key in _FABRIC_ARGS if key != "mode"]
                    fabric = (line, ints, args.get("mode", DONE_ENABLE))
                elif head == "dur":
                    if len(tokens) != 3:
                        raise ParseError("dur takes exactly two arguments: '*' or a word id, and ticks")
                    value = parse_int(tokens[2], "duration")
                    if tokens[1] == "*":
                        if default_dur is not None:
                            raise ParseError("duplicate default duration")
                        FabricConfig.check_duration("*", value)
                        default_dur = value
                    else:
                        word = parse_int(tokens[1], "word id")
                        if word in durations:
                            raise ParseError(f"duplicate duration for word {word}")
                        FabricConfig.check_duration(word, value)
                        durations[word], dur_lines[word] = value, line
                elif head == "rehearse":
                    kv = 1  # the first key=value token
                    while kv < len(tokens) and "=" not in tokens[kv]:
                        kv += 1
                    words = [parse_int(token, "word id") for token in tokens[1:kv]]
                    args = _parse_kv(tokens[kv:], _PLAN_ARGS, "rehearse")
                    plans[line] = RehearsalPlan(words, **{k: parse_int(v, k) for k, v in args.items()})
                elif head == "maxticks":
                    if max_tick is not None:
                        raise ParseError("duplicate maxticks directive")
                    if len(tokens) != 2:
                        raise ParseError("maxticks takes exactly one value")
                    max_tick = parse_int(tokens[1], "maxticks")
                    check_max_tick(max_tick)
                else:
                    raise ParseError(f"unknown directive {head!r}")

        line = None
        if fabric is None:
            raise ValidationError("missing fabric directive")
        if max_tick is None:
            raise ValidationError("missing maxticks directive")
        line, (word_count, delay1, delay2, threshold), mode = fabric
        # A dur line's stray word is named at its line, after the config's faults.
        named = {word: dur for word, dur in durations.items() if 1 <= word <= word_count}
        durations = Durations(word_count, default_dur, named)
        config = FabricConfig(word_count, delay1, delay2, threshold, durations, mode)
        for word, line in dur_lines.items():
            config.check_word(word)
        warnings = [
            f"line {line}: gap={plan.gap} exceeds delay1={delay1}; "
            "rehearsed pairs will fall outside every coincidence window"
            for line, plan in plans.items()
            if plan.gap > delay1
        ]
        try:
            scenario = Scenario(
                config,
                tuple(plans.values()),
                tuple(probes.values()),
                tuple(overrides.values()),
                max_tick,
                tuple(warnings),
            )
        except ValueError:  # a part's word: locate the first faulty part in file order
            for line, part in sorted({**plans, **probes, **overrides}.items()):
                part.check_words(config)
            raise
    except ScenarioError as exc:  # raised here, without its line
        raise type(exc)(str(exc), line) from None
    except UnicodeError as exc:  # a byte that is not UTF-8, from the blocks
        raise ParseError(str(exc), line) from None
    except ValueError as exc:  # a rule broken, raised by the rule's owner
        raise ValidationError(str(exc), line) from exc
    return scenario


def canonical_scenario(scenario: Scenario) -> str:
    """Normalized scenario text; parsing it reproduces the scenario.

    Directive order is fixed (fabric, durations, plans, overrides,
    probes, maxticks). Plan, override, and probe order is preserved:
    it determines episode numbering and same-tick dispatch order.
    """
    cfg = scenario.config
    lines = [
        f"fabric words={cfg.word_count} delay1={cfg.delay1} delay2={cfg.delay2} "
        f"threshold={cfg.threshold} mode={cfg.filter_mode}"
    ]
    lines.append(f"dur * {cfg.durations.default}")
    lines += [f"dur {word} {dur}" for word, dur in cfg.durations.exceptions.items()]
    for plan in scenario.plans:
        seq = " ".join(str(w) for w in plan.sequence)
        lines.append(
            f"rehearse {seq} reps={plan.reps} gap={plan.gap} rest={plan.rest} start={plan.start}"
        )
    for d in scenario.overrides:
        state = "open" if d.is_open else "closed"
        lines.append(f"at {d.tick} override {d.i} {d.j} {state}")
    for probe in scenario.probes:
        lines.append(f"at {probe.tick} probe {probe.word}")
    lines.append(f"maxticks {scenario.max_tick}")
    return "\n".join(lines) + "\n"


EpisodeSummary = namedtuple(
    "EpisodeSummary", "episode trigger_word start end fired_words cpu_enables_after_trigger"
)
# learned: ((i, j), learned tick) entries; detections: ((i, j), count) entries
Report = namedtuple("Report", "outcome final_tick learned detections episodes")


def build_report(records: list[TraceRecord], *, outcome: str, final_tick: int) -> Report:
    """Summarize a run purely from its trace, in one pass over the records."""
    learned: list[tuple[tuple[int, int], int]] = []
    shifted: list[tuple[int, int]] = []  # the pair of each latch shift
    # episode -> [first cpu enable's word, its tick, last tick, fired words, cpu enables]
    summaries: dict[int, list] = {}
    for t, ev, word, pair, src, episode, _ in records:
        if ev == EV_LATCH_SHIFT:
            shifted.append(pair)
        elif ev == EV_LEARNED:
            learned.append((pair, t))
        if episode is None:
            continue
        summary = summaries.get(episode)
        if summary is None:
            summary = summaries[episode] = [None, None, t, set(), 0]
        elif t > summary[2]:
            summary[2] = t
        if ev == EV_ENABLE or ev == EV_IGNORED_ENABLE:
            if ev == EV_ENABLE:
                summary[3].add(word)
            if src == SRC_CPU:
                if not summary[4]:
                    summary[0], summary[1] = word, t
                summary[4] += 1
    learned.sort(key=lambda item: item[0])
    episodes = [
        EpisodeSummary(episode, trigger, start, end, tuple(sorted(fired)), cpu - 1)
        for episode, (trigger, start, end, fired, cpu) in summaries.items()
        if cpu
    ]
    episodes.sort(key=lambda e: (e.start, e.episode))
    return Report(
        outcome=outcome,
        final_tick=final_tick,
        learned=tuple(learned),
        detections=tuple(sorted(Counter(shifted).items())),
        episodes=tuple(episodes),
    )


def _array(items: list[str], indent: str) -> str:
    """A JSON array of laid-out items, its bracket closing at ``indent``."""
    return "[\n" + ",\n".join(items) + f"\n{indent}]" if items else "[]"


def _pair_entries(items: tuple[tuple[tuple[int, int], int], ...], key: str) -> list[str]:
    """Laid-out ``{"pair": [i, j], key: n}`` objects of a report list."""
    return [
        f'    {{\n      "pair": [\n        {i},\n        {j}\n      ],\n      "{key}": {n}\n    }}'
        for (i, j), n in items
    ]


def format_report(report: Report) -> str:
    """The report in the layout of ``json.dumps(obj, indent=2)``, byte for byte.

    ``json`` encodes with indentation in pure Python, so the layout is
    written here directly: every value is an int or a list of ints,
    except ``outcome``, which ``json.dumps`` quotes.
    """
    learned = _pair_entries(report.learned, "tick")
    detections = _pair_entries(report.detections, "count")
    episodes = [
        f'    {{\n      "episode": {e.episode},\n      "trigger_word": {e.trigger_word},\n'
        f'      "start": {e.start},\n      "end": {e.end},\n'
        f'      "fired_words": {_array([f"        {w}" for w in e.fired_words], "      ")},\n'
        f'      "cpu_enables_after_trigger": {e.cpu_enables_after_trigger}\n    }}'
        for e in report.episodes
    ]
    return (
        f'{{\n  "outcome": {json.dumps(report.outcome)},\n  "final_tick": {report.final_tick},\n'
        f'  "learned": {_array(learned, "  ")},\n  "detections": {_array(detections, "  ")},\n'
        f'  "episodes": {_array(episodes, "  ")}\n}}\n'
    )


def write_report(report: Report, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as file:
        file.write(format_report(report))
