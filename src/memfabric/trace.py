"""Bit-exact event trace records and their JSON Lines serialization.

Every observable action in a run is captured as one :class:`TraceRecord`
and serialized as a single-line JSON object with a fixed key order
(``t, ev, word, pair, src, episode, stage``; absent fields omitted).
All values are integers or short strings, never floats, so identical
runs produce byte-identical traces.

Field usage by record kind::

    ev                     word  pair  src  episode  stage
    enable                  x     *     x      x       -
    ignored_enable          x     *     x      x       -
    done                    x     -     -      x       -
    filter_fire             -     x     -      -       -
    latch_shift             -     x     -      -       x  (stages set so far)
    learned                 -     x     -      -       -
    auto_enable_scheduled   x     x     -      x       -
    loop_suppressed         x     x     -      x       -
    override_blocked        x     x     -      x       -
    override_set            -     x     -      -       x  (1 = open, 0 = closed)

``*``: ``pair`` appears on (ignored) enables only when ``src`` is
``auto``, naming the learned pair whose replay scheduled the enable.
For ``latch_shift`` the ``stage`` field is the number of register
stages set after the shift; for ``override_set`` it encodes the switch
position (the schema has no boolean field).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

EV_ENABLE = "enable"
EV_IGNORED_ENABLE = "ignored_enable"
EV_DONE = "done"
EV_FILTER_FIRE = "filter_fire"
EV_LATCH_SHIFT = "latch_shift"
EV_LEARNED = "learned"
EV_AUTO_ENABLE_SCHEDULED = "auto_enable_scheduled"
EV_LOOP_SUPPRESSED = "loop_suppressed"
EV_OVERRIDE_BLOCKED = "override_blocked"
EV_OVERRIDE_SET = "override_set"

SRC_CPU = "cpu"
SRC_AUTO = "auto"

# kind -> (required fields, optional fields), beyond the always-present t/ev
_FIELDS = {
    EV_ENABLE: (("word", "src", "episode"), ("pair",)),
    EV_IGNORED_ENABLE: (("word", "src", "episode"), ("pair",)),
    EV_DONE: (("word", "episode"), ()),
    EV_FILTER_FIRE: (("pair",), ()),
    EV_LATCH_SHIFT: (("pair", "stage"), ()),
    EV_LEARNED: (("pair",), ()),
    EV_AUTO_ENABLE_SCHEDULED: (("word", "pair", "episode"), ()),
    EV_LOOP_SUPPRESSED: (("word", "pair", "episode"), ()),
    EV_OVERRIDE_BLOCKED: (("word", "pair", "episode"), ()),
    EV_OVERRIDE_SET: (("pair", "stage"), ()),
}

EVENT_KINDS = frozenset(_FIELDS)
_ALLOWED = {ev: frozenset(("t", "ev", *req, *opt)) for ev, (req, opt) in _FIELDS.items()}

# integer field -> least legal value (bools are rejected: type(True) is bool)
_INT_FLOORS = {"t": 0, "word": 1, "episode": 0, "stage": 0}


class MalformedTraceError(ValueError):
    """A trace violates the record schema or the dispatch-order contract."""


@dataclass(frozen=True)
class TraceRecord:
    t: int
    ev: str
    word: int | None = None
    pair: tuple[int, int] | None = None
    src: str | None = None
    episode: int | None = None
    stage: int | None = None

    def to_json_line(self) -> str:
        obj: dict[str, object] = {"t": self.t, "ev": self.ev}
        if self.word is not None:
            obj["word"] = self.word
        if self.pair is not None:
            obj["pair"] = list(self.pair)
        if self.src is not None:
            obj["src"] = self.src
        if self.episode is not None:
            obj["episode"] = self.episode
        if self.stage is not None:
            obj["stage"] = self.stage
        return json.dumps(obj, separators=(",", ":"))


def record_from_obj(obj: dict) -> TraceRecord:
    """Build a validated record from a decoded JSON object."""
    if not isinstance(obj, dict):
        raise MalformedTraceError(f"trace line is not an object: {obj!r}")
    ev = obj.get("ev")
    if ev not in EVENT_KINDS:
        raise MalformedTraceError(f"unknown event kind: {ev!r}")
    allowed = _ALLOWED[ev]
    for key, value in obj.items():
        if key not in allowed:
            raise MalformedTraceError(f"field {key!r} not allowed on {ev!r} record")
        least = _INT_FLOORS.get(key)
        if least is not None and (type(value) is not int or value < least):
            raise MalformedTraceError(f"bad {key} in record: {obj!r}")
    for key in ("t", *_FIELDS[ev][0]):
        if key not in obj:
            raise MalformedTraceError(f"{ev!r} record is missing field {key!r}")
    pair = obj.get("pair")
    if "pair" in obj:
        if not (
            type(pair) is list
            and len(pair) == 2
            and all(type(x) is int and x >= 1 for x in pair)
        ):
            raise MalformedTraceError(f"bad pair in record: {obj!r}")
        pair = (pair[0], pair[1])
    src = obj.get("src")
    if "src" in obj and src not in (SRC_CPU, SRC_AUTO):
        raise MalformedTraceError(f"bad src in record: {obj!r}")
    return TraceRecord(
        t=obj["t"],
        ev=ev,
        word=obj.get("word"),
        pair=pair,
        src=src,
        episode=obj.get("episode"),
        stage=obj.get("stage"),
    )


def format_trace(records: Iterable[TraceRecord]) -> str:
    """Serialize records to the JSON Lines trace body (empty run, empty body)."""
    return "".join(rec.to_json_line() + "\n" for rec in records)


def parse_trace(text: str) -> list[TraceRecord]:
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: arrays or objects nested too deep to decode
            raise MalformedTraceError(f"line {lineno}: not valid JSON: {exc}") from exc
        try:
            records.append(record_from_obj(obj))
        except MalformedTraceError as exc:
            raise MalformedTraceError(f"line {lineno}: {exc}") from exc
    return records


def write_trace(records: Iterable[TraceRecord], path: str | Path) -> None:
    Path(path).write_text(format_trace(records), encoding="utf-8")
