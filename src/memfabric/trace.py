"""Bit-exact event trace records and their JSON Lines serialization.

Every observable action in a run is captured as one :class:`TraceRecord`
and serialized as a single-line JSON object with a fixed key order
(``t, ev, word, pair, src, episode, stage``; absent fields omitted).
All values are integers or short strings, never floats, so identical
runs produce byte-identical traces. :func:`format_trace` is the one
writer of a line, and :meth:`TraceRecord.to_json_line` is the line it
writes for one record. :func:`write_trace` formats and writes
:data:`_WRITE_BATCH` records at a time. :func:`parse_trace` matches each
line once in one regex scan of the text, or of each block of whole lines
that :func:`read_blocks` reads from a file: a read, and the rest of the
line it ends in. A line written here decodes from
the match: the fields it has pick one of the six field sets that
:func:`format_trace` writes with an f-string, its kind must be one that
set allows, and only those fields are converted, a tick once per run of
its lines. Any other line decodes alone through :func:`decode_line`.
Records decoded either way share the schema's one string per kind and
per source. :func:`read_blocks` reads a scenario too; each parser names
the line of a byte that is not UTF-8, as of any other fault.

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
import os
import re
import sys
from collections import namedtuple
from collections.abc import Iterable, Iterator
from itertools import islice

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
# integer field -> least legal value (bools are rejected: type(True) is bool)
_INT_FLOORS = {"t": 0, "word": 1, "episode": 0, "stage": 0}
# kind -> (the kind, which decoded records share; its required fields, in the
# order a missing one is named; its allowed fields; its integer fields' floors)
_SCHEMA = {
    ev: (ev, ("t", *req), allowed, tuple(kv for kv in _INT_FLOORS.items() if kv[0] in allowed))
    for ev, (req, opt) in _FIELDS.items()
    for allowed in [frozenset(("t", "ev", *req, *opt))]
}
# source -> itself, which decoded records share
_SOURCES = {SRC_CPU: SRC_CPU, SRC_AUTO: SRC_AUTO}


class MalformedTraceError(ValueError):
    """A trace violates the record schema or the dispatch-order contract."""


class TraceRecord(
    namedtuple("TraceRecord", "t ev word pair src episode stage", defaults=(None,) * 5)
):
    """One trace line: an immutable, hashable named tuple of ints, an int
    pair and strings, None for an absent field.

    Derive a changed copy with ``rec._replace(t=...)``.
    """

    __slots__ = ()

    def to_json_line(self) -> str:
        """The record as one compact JSON object, keys in the fixed order:
        the line :func:`format_trace` writes for it, without the newline."""
        return format_trace((self,))[:-1]


def record_from_obj(obj: dict) -> TraceRecord:
    """Build a validated record from a decoded JSON object.

    Of several faults, the first found is reported, in this order: the
    kind, a field the kind does not allow, a bad integer (``t``, ``word``,
    ``episode``, ``stage``), a missing field, the pair, the source.
    """
    if not isinstance(obj, dict):
        raise MalformedTraceError(f"trace line is not an object: {obj!r}")
    ev = obj.get("ev")
    # type check first: an unhashable kind such as a list cannot be looked up
    schema = _SCHEMA.get(ev) if type(ev) is str else None
    if schema is None:
        raise MalformedTraceError(f"unknown event kind: {ev!r}")
    ev, required, allowed, floors = schema  # ev: the table's copy, which records share
    keys = obj.keys()
    if not keys <= allowed:
        key = next(key for key in obj if key not in allowed)
        raise MalformedTraceError(f"field {key!r} not allowed on {ev!r} record")
    for key, least in floors:
        value = obj.get(key, least)  # an absent field is reported as missing below
        if type(value) is not int or value < least:
            raise MalformedTraceError(f"bad {key} in record: {obj!r}")
    for key in required:
        if key not in keys:
            raise MalformedTraceError(f"{ev!r} record is missing field {key!r}")
    pair = obj.get("pair")
    if "pair" in keys:
        if not (
            type(pair) is list
            and len(pair) == 2
            and type(pair[0]) is int
            and type(pair[1]) is int
            and pair[0] >= 1
            and pair[1] >= 1
        ):
            raise MalformedTraceError(f"bad pair in record: {obj!r}")
        pair = (pair[0], pair[1])
    src = obj.get("src")
    src = _SOURCES.get(src) if type(src) is str else None  # the table's copy, as for ev
    if src is None and "src" in keys:
        raise MalformedTraceError(f"bad src in record: {obj!r}")
    return TraceRecord(
        obj["t"], ev, obj.get("word"), pair, src, obj.get("episode"), obj.get("stage")
    )


# the keys after t and ev, in the order format_trace writes them
_OPTIONAL_KEYS = TraceRecord._fields[2:]


def format_trace(records: Iterable[TraceRecord]) -> str:
    """Serialize records to the JSON Lines trace body (empty run, empty body).

    Each line is one compact JSON object, keys in the fixed order, and a
    newline. Each field set the schema allows has its own f-string, picked
    by which fields are ``None``; any other set is written by ``json.dumps``
    with ``separators=(",", ":")``. The f-strings give that call's bytes for
    the ints, int pairs and schema strings the fabric (its ticks and words are
    checked ints) and the decoder build. A hand-built record is unchecked: a
    bool, a float, or a string holding a quote may give a line the decoder rejects.
    """
    lines = []
    append = lines.append
    for rec in records:
        t, ev, word, pair, src, episode, stage = rec
        if word is None:
            if src is None and episode is None and pair is not None:
                if stage is None:  # filter_fire, learned
                    append(f'{{"t":{t},"ev":"{ev}","pair":[{pair[0]},{pair[1]}]}}\n')
                else:  # latch_shift, override_set
                    append(
                        f'{{"t":{t},"ev":"{ev}","pair":[{pair[0]},{pair[1]}],"stage":{stage}}}\n'
                    )
                continue
        elif episode is not None and stage is None:
            if pair is None:
                if src is None:  # done
                    append(f'{{"t":{t},"ev":"{ev}","word":{word},"episode":{episode}}}\n')
                else:  # a cpu (ignored) enable
                    append(
                        f'{{"t":{t},"ev":"{ev}","word":{word},"src":"{src}",'
                        f'"episode":{episode}}}\n'
                    )
            elif src is None:  # a replay outcome
                append(
                    f'{{"t":{t},"ev":"{ev}","word":{word},"pair":[{pair[0]},{pair[1]}],'
                    f'"episode":{episode}}}\n'
                )
            else:  # an auto (ignored) enable
                append(
                    f'{{"t":{t},"ev":"{ev}","word":{word},"pair":[{pair[0]},{pair[1]}],'
                    f'"src":"{src}","episode":{episode}}}\n'
                )
            continue
        present = {key: value for key, value in zip(_OPTIONAL_KEYS, rec[2:]) if value is not None}
        append(json.dumps({"t": t, "ev": ev, **present}, separators=(",", ":")) + "\n")
    return "".join(lines)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A decoded JSON object, whose keys must differ."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        key = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise MalformedTraceError(f"field {key!r} repeated")
    return obj


# one decoder: json.loads makes a new one on each call that passes a hook
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def decode_line(line: str) -> TraceRecord | None:
    """The general decoder of one trace line: any JSON object that
    :func:`record_from_obj` accepts, keys in any order, whitespace and
    string escapes allowed.

    A blank line gives ``None``. Anything else that is not a valid record,
    or that repeats a key, raises :class:`MalformedTraceError`, without a
    line number.
    """
    line = line.strip()
    if not line:
        return None
    try:
        obj = _DECODER.decode(line)
    except MalformedTraceError:
        raise
    except (ValueError, RecursionError) as exc:
        # ValueError: a JSONDecodeError, or an integer with more digits than
        # the interpreter converts; RecursionError: nesting too deep to decode
        raise MalformedTraceError(f"not valid JSON: {exc}") from exc
    return record_from_obj(obj)


# -- the scan: a trace exactly as ``format_trace`` writes it ---------------

# int() of this many digits never raises, whatever limit
# sys.set_int_max_str_digits has set (no lower nonzero limit is allowed);
# a longer number takes the general path, which applies the limit.
_MAX_DIGITS = sys.int_info.str_digits_check_threshold
# least value -> the JSON integers >= it: no sign, exponent or leading zero
_NATURAL = {
    0: f"0|[1-9][0-9]{{0,{_MAX_DIGITS - 1}}}",
    1: f"[1-9][0-9]{{0,{_MAX_DIGITS - 1}}}",
}
# pair members are at least 1, as record_from_obj requires; one group holds
# both, "i,j", so that equal pairs decode to one shared tuple
_VALUE_PATTERN = {
    **{key: f"({_NATURAL[least]})" for key, least in _INT_FLOORS.items()},
    "pair": rf"\[({_NATURAL[1]},{_NATURAL[1]})\]",
    "src": f'"({"|".join(map(re.escape, _SOURCES))})"',
}
# a line, anchored at line ends, so that a scan of a text matches each line
# once: one as format_trace writes it in the first branch, any other (blank
# too) whole in the last group. An absent field is an empty alternative,
# whose group is None: cheaper for the engine than a (?:...)? repeat.
_LINE = re.compile(
    rf'^(?:\{{"t":{_VALUE_PATTERN["t"]},"ev":"({"|".join(map(re.escape, _FIELDS))})"'
    + "".join(f'(?:,"{key}":{_VALUE_PATTERN[key]}|)' for key in _OPTIONAL_KEYS)
    + r"\}|(.*))$",
    re.M,
)
# (kind, whether each optional key is absent) -> the kind, for every field
# set the kind allows: its required fields, with and without its optional
# one (no kind has more than one). A line with any other set takes the
# general path, which names the fault.
_CANONICAL_SHAPES = {
    (ev, *(key not in present for key in _OPTIONAL_KEYS)): ev
    for ev, (required, optional) in _FIELDS.items()
    for present in ({*required}, {*required, *optional})
}


def _kinds(*fields: str) -> dict[str, str]:
    """The kinds whose field set, beyond t and ev, is exactly ``fields``, each
    to itself: the table's copy, which records share."""
    absent = tuple(key not in fields for key in _OPTIONAL_KEYS)
    return {shape[0]: ev for shape, ev in _CANONICAL_SHAPES.items() if shape[1:] == absent}


# one table per field set, the six that format_trace writes with an f-string
_PAIR_KINDS = _kinds("pair")
_PAIR_STAGE_KINDS = _kinds("pair", "stage")
_WORD_EPISODE_KINDS = _kinds("word", "episode")
_WORD_SRC_EPISODE_KINDS = _kinds("word", "src", "episode")
_WORD_PAIR_EPISODE_KINDS = _kinds("word", "pair", "episode")
_WORD_PAIR_SRC_EPISODE_KINDS = _kinds("word", "pair", "src", "episode")


class _Values(dict):
    """The values of a scan's present groups but the tick, each decoded once,
    so that records share them: digits to an int, a pair's ``"i,j"`` to
    ``(i, j)``; a source, put in when it is made, to itself."""

    def __missing__(self, key: str) -> int | tuple[int, ...]:
        value = tuple(map(int, key.split(","))) if "," in key else int(key)
        self[key] = value
        return value


def _unify_newlines(text: str) -> str:
    if "\r" in text:  # a scan for it is quicker than a replace that finds none
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def split_lines(text: str) -> list[str]:
    """Lines ended by ``\\n``, ``\\r\\n`` or ``\\r`` only, as universal-newline reading
    splits them: ``str.splitlines`` also breaks at ``\\f``, ``\\x85`` and the like."""
    return _unify_newlines(text).split("\n")


def parse_trace(text: str | Iterable[str]) -> list[TraceRecord]:
    """Decode a JSON Lines trace into records; blank lines are skipped.

    ``text`` is the whole trace, or its blocks in order, each but the last
    ending with a newline, as :func:`read_blocks` gives them: a whole text
    is one block. One regex scan of each block matches each line once. A
    line as :func:`format_trace` writes it is decoded from the match's
    groups: the fields present pick its field set, by the tests
    :func:`format_trace` picks its f-string by, its kind must be one that
    set allows, and only those fields are converted: a tick's digits once
    per run of such lines, whose records share that one int. Any other line
    goes, alone, through :func:`decode_line`, to the same record. The first
    line that is not a valid record, whose tick is below the previous
    record's, or that the blocks fail to decode (a :class:`UnicodeError`)
    raises :class:`MalformedTraceError` at its line.
    """
    values = _Values(_SOURCES)
    new = tuple.__new__  # skips the named tuple's Python-level __new__
    records = []
    append = records.append
    last = 0
    digits = None  # the last tick read from a line's groups; tick is its int
    lineno = 1
    try:
        for block in (text,) if isinstance(text, str) else text:
            # the empty match after a block's final newline is the next block's
            # first line, so the next block counts on from its number
            for lineno, match in enumerate(_LINE.finditer(_unify_newlines(block)), start=lineno):
                t, ev, word, pair, src, episode, stage, line = match.groups()
                if t != digits and t is not None:  # a new tick (None: a last-branch line)
                    digits, tick = t, int(t)
                # the fields present pick the field set, by format_trace's tests;
                # its table gives the kind's copy, which records share, or None
                rec = None
                if word is None:
                    if src is None and episode is None and pair is not None:
                        if stage is None:  # filter_fire, learned
                            ev = _PAIR_KINDS.get(ev)
                            if ev is not None:
                                rec = (tick, ev, None, values[pair], None, None, None)
                        else:  # latch_shift, override_set
                            ev = _PAIR_STAGE_KINDS.get(ev)
                            if ev is not None:
                                rec = (tick, ev, None, values[pair], None, None, values[stage])
                elif episode is not None and stage is None:
                    if pair is None:
                        if src is None:  # done
                            ev = _WORD_EPISODE_KINDS.get(ev)
                            if ev is not None:
                                rec = (tick, ev, values[word], None, None, values[episode], None)
                        else:  # a cpu (ignored) enable
                            ev = _WORD_SRC_EPISODE_KINDS.get(ev)
                            if ev is not None:
                                rec = (
                                    tick, ev, values[word], None, values[src], values[episode], None
                                )
                    elif src is None:  # a replay outcome
                        ev = _WORD_PAIR_EPISODE_KINDS.get(ev)
                        if ev is not None:
                            rec = (
                                tick, ev, values[word], values[pair], None, values[episode], None
                            )
                    else:  # an auto (ignored) enable
                        ev = _WORD_PAIR_SRC_EPISODE_KINDS.get(ev)
                        if ev is not None:
                            rec = (
                                tick, ev, values[word], values[pair], values[src],
                                values[episode], None,
                            )
                if rec is not None:
                    rec, t = new(TraceRecord, rec), tick
                elif line == "":
                    continue
                else:  # the last branch, another field set, or a kind without this one
                    rec = decode_line(match[0])
                    if rec is None:
                        continue
                    t = rec.t
                if t < last:
                    raise MalformedTraceError(f"out-of-order tick {t} after {last}")
                last = t
                append(rec)
    except (MalformedTraceError, UnicodeError) as exc:
        # the line's record, its tick, or (from the blocks) its bytes
        raise MalformedTraceError(f"line {lineno}: {exc}") from exc
    return records


_READ_BLOCK = 65536  # bytes read, and decoded, at a time, with the rest of the line they end in


def _not_utf8(exc: UnicodeDecodeError, offset: int) -> str:
    """``str(exc)``, with the positions counted from ``offset`` on, not from 0."""
    start, end = exc.start + offset, exc.end - 1 + offset
    if start == end:
        where = f"byte 0x{exc.object[exc.start]:02x} in position {start}"
    else:
        where = f"bytes in position {start}-{end}"
    return f"'{exc.encoding}' codec can't decode {where}: {exc.reason}"


def read_blocks(path: str | os.PathLike) -> Iterator[str]:
    """A trace's or a scenario's text, for :func:`parse_trace` or ``parse_scenario``,
    in blocks of whole lines: each is :data:`_READ_BLOCK` bytes read, and the rest
    of the line they end in, which ``readline`` reads in one pass however long it
    is. Bytes that are not UTF-8 raise :class:`UnicodeError`
    (``not UTF-8 text: …``, at their file offset) after the text before their
    line, so the parser, which counts lines, finds a fault among those first.
    """
    offset = 0  # of the block's first byte in the file
    with open(path, "rb") as file:
        while block := file.read(_READ_BLOCK):
            if not block.endswith(b"\n"):
                block += file.readline()
            try:
                text = block.decode("utf-8")
            except UnicodeDecodeError as exc:
                good = block[: exc.start].decode("utf-8")
                yield good[: len(good) - len(split_lines(good)[-1])]  # the lines before its line
                raise UnicodeError(f"not UTF-8 text: {_not_utf8(exc, offset)}") from None
            yield text
            offset += len(block)


# records formatted, and held as text, at a time: a batch's buffers (about
# 50 KB of text on dense_crosstalk) stay below glibc malloc's default 128 KiB
# threshold for mapping fresh pages, which fault on first touch
_WRITE_BATCH = 1024


def write_trace(records: Iterable[TraceRecord], path: str | os.PathLike) -> None:
    """Write the trace :func:`format_trace` gives for the records, a batch at a time."""
    records = iter(records)
    with open(path, "w", encoding="utf-8") as file:
        while batch := list(islice(records, _WRITE_BATCH)):
            file.write(format_trace(batch))
