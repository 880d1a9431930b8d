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
directives and unknown arguments are errors. A ``gap`` larger than
``delay1`` parses with a warning: it is a legitimate negative control
(the rehearsed pairs fall outside every coincidence window).

At setup, directives are scheduled in a fixed order: overrides first
(file order), then probes (file order), then plans (file order). An
override at tick T therefore always takes effect before any same-tick
activity.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from memfabric.driver import Probe, RehearsalPlan
from memfabric.fabric import DONE_ENABLE, FabricConfig
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


@dataclass(frozen=True)
class OverrideDirective:
    tick: int
    i: int
    j: int
    is_open: bool

    def __post_init__(self) -> None:
        if self.tick < 0:
            raise ValueError(f"override tick must be >= 0, got {self.tick}")


@dataclass(frozen=True)
class Scenario:
    config: FabricConfig
    plans: tuple[RehearsalPlan, ...]
    probes: tuple[Probe, ...]
    overrides: tuple[OverrideDirective, ...]
    max_tick: int
    warnings: tuple[str, ...] = field(default=(), compare=False)


def check_max_tick(value: int) -> None:
    """The tick-limit rule of ``maxticks``, ``--max-ticks``, the run loop and ``verify_run``."""
    if value < 1:
        raise ValueError(f"maxticks must be >= 1, got {value}")


def parse_int(token: str, what: str, line: int | None = None) -> int:
    """ASCII digits with an optional sign (tokens never hold whitespace)."""
    # int() alone would also take "1_0" and non-ASCII digits such as "٣".
    if token.isascii() and "_" not in token:
        try:
            return int(token, 10)
        except ValueError:
            pass
    raise ParseError(f"{what} is not an integer: {token!r}", line)


def _parse_kv(tokens: list[str], allowed: dict[str, bool], what: str, line: int) -> dict[str, str]:
    """Parse key=value tokens; ``allowed`` maps key -> required."""
    out: dict[str, str] = {}
    for token in tokens:
        if "=" not in token:
            raise ParseError(f"expected key=value argument in {what}, got {token!r}", line)
        key, value = token.split("=", 1)
        if key not in allowed:
            raise ParseError(f"unknown argument {key!r} in {what}", line)
        if key in out:
            raise ParseError(f"duplicate argument {key!r} in {what}", line)
        if not value:
            raise ParseError(f"empty value for {key!r} in {what}", line)
        out[key] = value
    for key, required in allowed.items():
        if required and key not in out:
            raise ParseError(f"{what} is missing argument {key!r}", line)
    return out


def parse_scenario(text: str) -> Scenario:
    fabric_args: dict[str, str] | None = None
    fabric_line = 0
    default_dur: tuple[int, int] | None = None  # (value, line)
    dur_overrides: dict[int, tuple[int, int]] = {}  # word -> (value, line)
    raw_plans: list[tuple[tuple[int, ...], dict[str, int], int]] = []  # (words, args, line)
    raw_probes: list[tuple[int, int, int]] = []  # (tick, word, line)
    raw_overrides: list[tuple[int, int, int, bool, int]] = []  # (tick, i, j, open, line)
    max_tick: tuple[int, int] | None = None  # (value, line)

    for lineno, raw in enumerate(split_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "fabric":
            if fabric_args is not None:
                raise ParseError("duplicate fabric directive", lineno)
            fabric_args = _parse_kv(
                tokens[1:],
                {"words": True, "delay1": True, "delay2": True, "threshold": True, "mode": False},
                "fabric",
                lineno,
            )
            fabric_line = lineno
        elif head == "dur":
            if len(tokens) != 3:
                raise ParseError("dur takes exactly two arguments: '*' or a word id, and ticks", lineno)
            value = parse_int(tokens[2], "duration", lineno)
            if tokens[1] == "*":
                if default_dur is not None:
                    raise ParseError("duplicate default duration", lineno)
                default_dur = (value, lineno)
            else:
                word = parse_int(tokens[1], "word id", lineno)
                if word in dur_overrides:
                    raise ParseError(f"duplicate duration for word {word}", lineno)
                dur_overrides[word] = (value, lineno)
        elif head == "rehearse":
            words: list[int] = []
            rest_tokens: list[str] = []
            for idx, token in enumerate(tokens[1:], start=1):
                if "=" in token:
                    rest_tokens = tokens[idx:]
                    break
                words.append(parse_int(token, "word id", lineno))
            args = _parse_kv(
                rest_tokens,
                {"reps": True, "gap": True, "rest": True, "start": True},
                "rehearse",
                lineno,
            )
            raw_plans.append(
                (tuple(words), {k: parse_int(v, k, lineno) for k, v in args.items()}, lineno)
            )
        elif head == "at":
            if len(tokens) < 3:
                raise ParseError("at directive needs a tick and an action", lineno)
            tick = parse_int(tokens[1], "tick", lineno)
            action = tokens[2]
            if action == "probe":
                if len(tokens) != 4:
                    raise ParseError("probe takes exactly one word id", lineno)
                word = parse_int(tokens[3], "word id", lineno)
                raw_probes.append((tick, word, lineno))
            elif action == "override":
                if len(tokens) != 6:
                    raise ParseError("override takes two word ids and open|closed", lineno)
                i = parse_int(tokens[3], "word id", lineno)
                j = parse_int(tokens[4], "word id", lineno)
                if tokens[5] not in ("open", "closed"):
                    raise ParseError(f"override state must be open or closed, got {tokens[5]!r}", lineno)
                raw_overrides.append((tick, i, j, tokens[5] == "open", lineno))
            else:
                raise ParseError(f"unknown action {action!r} after 'at'", lineno)
        elif head == "maxticks":
            if max_tick is not None:
                raise ParseError("duplicate maxticks directive", lineno)
            if len(tokens) != 2:
                raise ParseError("maxticks takes exactly one value", lineno)
            max_tick = (parse_int(tokens[1], "maxticks", lineno), lineno)
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)

    if fabric_args is None:
        raise ValidationError("missing fabric directive")
    if max_tick is None:
        raise ValidationError("missing maxticks directive")

    word_count, delay1, delay2, threshold = (
        parse_int(fabric_args[key], key, fabric_line)
        for key in ("words", "delay1", "delay2", "threshold")
    )

    # The fabric and every directive are built and checked by the owners
    # of the rules (FabricConfig, RehearsalPlan, Probe, OverrideDirective).
    # ``line`` always holds the line being checked, so a broken rule is
    # reported there.
    warnings: list[str] = []
    plans: list[RehearsalPlan] = []
    probes: list[Probe] = []
    overrides: list[OverrideDirective] = []
    try:
        line = max_tick[1]
        check_max_tick(max_tick[0])
        durations: dict[int, int] = {}
        for word in range(1, word_count + 1):
            if (entry := dur_overrides.get(word, default_dur)) is not None:
                durations[word], line = entry
                FabricConfig.check_duration(word, durations[word])
        line = fabric_line
        config = FabricConfig(
            word_count, delay1, delay2, threshold, durations, fabric_args.get("mode", DONE_ENABLE)
        )
        for word, (_, line) in dur_overrides.items():
            config.check_word(word)
        for words, args, line in raw_plans:
            plan = RehearsalPlan(words, **args)
            for word in plan.sequence:
                config.check_word(word)
            if plan.gap > config.delay1:
                warnings.append(
                    f"line {line}: gap={plan.gap} exceeds delay1={config.delay1}; "
                    "rehearsed pairs will fall outside every coincidence window"
                )
            plans.append(plan)
        for tick, word, line in raw_probes:
            probes.append(Probe(tick, word))
            config.check_word(word)
        for tick, i, j, is_open, line in raw_overrides:
            overrides.append(OverrideDirective(tick, i, j, is_open))
            config.check_pair(i, j)
    except ValueError as exc:
        raise ValidationError(str(exc), line) from exc

    return Scenario(
        config=config,
        plans=tuple(plans),
        probes=tuple(probes),
        overrides=tuple(overrides),
        max_tick=max_tick[0],
        warnings=tuple(warnings),
    )


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
    counts = Counter(cfg.durations[w] for w in cfg.word_ids())
    default = counts.most_common(1)[0][0]
    lines.append(f"dur * {default}")
    for word in cfg.word_ids():
        if cfg.durations[word] != default:
            lines.append(f"dur {word} {cfg.durations[word]}")
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


@dataclass(frozen=True)
class EpisodeSummary:
    episode: int
    trigger_word: int
    start: int
    end: int
    fired_words: tuple[int, ...]
    cpu_enables_after_trigger: int


@dataclass(frozen=True)
class Report:
    outcome: str
    final_tick: int
    learned: tuple[tuple[tuple[int, int], int], ...]  # ((i, j), learned tick)
    detections: tuple[tuple[tuple[int, int], int], ...]  # ((i, j), count)
    episodes: tuple[EpisodeSummary, ...]


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


def write_report(report: Report, path: str | Path) -> None:
    Path(path).write_text(format_report(report), encoding="utf-8")
