"""Trace codec: the fixed-order line formatter and the batched writer, the
record validator, the one-scan decoder against a line-by-line reference,
the block reader against a decode of the whole file, and the byte contract
of the shipped scenarios."""

from __future__ import annotations

import hashlib
import itertools
import json
import re
import tracemalloc
from pathlib import Path
from contextlib import closing
from unittest import mock

import pytest
from hypothesis import assume, given, strategies as st

import memfabric.trace
from memfabric import (
    MalformedTraceError,
    TraceRecord,
    format_report,
    format_trace,
    parse_scenario,
    parse_trace,
    run_scenario,
)
from memfabric.trace import (
    _CANONICAL_SHAPES,
    _LINE,
    decode_line,
    read_blocks,
    record_from_obj,
    split_lines,
    write_trace,
)
from conftest import with_odd_chars

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# SHA-256 of format_trace(records) and format_report(report) for each
# shipped scenario, computed with the json.dumps-based codec that the
# fixed-order formatter replaced.
OUTPUT_SHA256 = {
    "concurrent.scn": (
        "fcd1d05dce880749e308b432ea7490e80e94f0334cb116a82e69f967c728d289",
        "1332a8145ff040acf8c4eb753eaa309c2d51d274968287ec0166655a645a8ebd",
    ),
    "cycle.scn": (
        "75c0f15f41536efef9d5ec4c8c831e9f8a5358edc4239315c190872ce874e78a",
        "e11d0503bf20ffaced2195731df050d3b1d20e9067bfb4c0f38b89ab9d2ccbc2",
    ),
    "negative_control.scn": (
        "d55ef5f15fd87fe81ee62d00c885c2f56b9145d94c816f6d86247ec091503ad4",
        "c783771aa952f5f2cbe90420a1e6f10a64445fa6656547c708e742ba851e7692",
    ),
    "override.scn": (
        "a2cebaee63920edb521901011601ffc936a08bbf8f1c053b81f22ee4ed37c781",
        "27f5ef5cc3f98b43933c35097bc41bff7ffc77113b75396e42b015fdc8c516a4",
    ),
    "worked_example.scn": (
        "a85d7391039275561ae50f183795b0509f6c5ee0c12208700085701cdb40efd7",
        "65c46104d4ad60823d00a93a064622b8b39270fbd6ed1d1cd8597e9d609fe5e0",
    ),
}

# The record schema, restated from the trace format table:
# kind -> (required fields, optional fields), beyond t and ev.
SCHEMA = {
    "enable": (("word", "src", "episode"), ("pair",)),
    "ignored_enable": (("word", "src", "episode"), ("pair",)),
    "done": (("word", "episode"), ()),
    "filter_fire": (("pair",), ()),
    "latch_shift": (("pair", "stage"), ()),
    "learned": (("pair",), ()),
    "auto_enable_scheduled": (("word", "pair", "episode"), ()),
    "loop_suppressed": (("word", "pair", "episode"), ()),
    "override_blocked": (("word", "pair", "episode"), ()),
    "override_set": (("pair", "stage"), ()),
}
KEY_ORDER = ("t", "ev", "word", "pair", "src", "episode", "stage")


def reference_line(rec: TraceRecord) -> str:
    """The line as the json.dumps-based codec wrote it."""
    obj: dict[str, object] = {"t": rec.t, "ev": rec.ev}
    if rec.word is not None:
        obj["word"] = rec.word
    if rec.pair is not None:
        obj["pair"] = list(rec.pair)
    if rec.src is not None:
        obj["src"] = rec.src
    if rec.episode is not None:
        obj["episode"] = rec.episode
    if rec.stage is not None:
        obj["stage"] = rec.stage
    return json.dumps(obj, separators=(",", ":"))


# Integers run past 2**63 so that no fixed-width assumption hides.
_naturals = st.integers(min_value=0, max_value=2**70)
_words = st.integers(min_value=1, max_value=2**70)

# The scan converts integers of up to 640 digits itself (int() of
# that many never raises, whatever sys.set_int_max_str_digits allows) and
# hands longer ones to the general path; 4300 is the default limit of both.
SCAN_DIGITS = 640
LIMIT_DIGITS = 4300
_digit_counts = st.sampled_from([1, SCAN_DIGITS, SCAN_DIGITS + 1, LIMIT_DIGITS]) | st.integers(
    min_value=1, max_value=LIMIT_DIGITS
)
_long_naturals = _naturals | _digit_counts.flatmap(
    lambda n: st.integers(min_value=10 ** (n - 1), max_value=10**n - 1)
)
_long_words = _long_naturals.filter(lambda value: value >= 1)


@st.composite
def records(draw, naturals=_naturals, words=_words) -> TraceRecord:
    ev = draw(st.sampled_from(sorted(SCHEMA)))
    required, optional = SCHEMA[ev]
    present = [*required, *(key for key in optional if draw(st.booleans()))]
    values = {
        "word": words,
        "pair": st.tuples(words, words),
        "src": st.sampled_from(["cpu", "auto"]),
        "episode": naturals,
        "stage": naturals,
    }
    return TraceRecord(t=draw(naturals), ev=ev, **{key: draw(values[key]) for key in present})


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.scn")))
def test_scenario_trace_and_report_bytes_are_pinned(name):
    result = run_scenario(parse_scenario((SCENARIOS / name).read_text(encoding="utf-8")))
    trace = hashlib.sha256(format_trace(result.records).encode("utf-8")).hexdigest()
    report = hashlib.sha256(format_report(result.report).encode("utf-8")).hexdigest()
    assert (trace, report) == OUTPUT_SHA256[name]


def scenario_records(name: str) -> list[TraceRecord]:
    return run_scenario(parse_scenario((SCENARIOS / name).read_text(encoding="utf-8"))).records


def logging_decode_line(monkeypatch) -> list[str]:
    """Route parse_trace's general path through a wrapper; the lines it got."""
    decoded = []
    monkeypatch.setattr(
        memfabric.trace, "decode_line", lambda line: decoded.append(line) or decode_line(line)
    )
    return decoded


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.scn")))
def test_a_written_trace_is_decoded_by_the_scan(name, monkeypatch):
    records = scenario_records(name)
    text = format_trace(records)
    decoded = logging_decode_line(monkeypatch)
    # Written as run writes it, with \r\n line ends, or with a blank line
    # after the last: every line is canonical or blank, and none is decoded.
    assert parse_trace(text) == records
    assert parse_trace(text.replace("\n", "\r\n")) == records
    assert parse_trace(text + "\n") == records
    assert decoded == []
    # The records share one string per kind and per source, not one a line,
    # with each other and with those of the same trace written with
    # json.dumps's default separators, whose every line takes the general path.
    spaced = "".join(json.dumps(json.loads(line)) + "\n" for line in text.splitlines())
    both = [*parse_trace(text), *parse_trace(spaced)]
    assert both == records + records
    for strings in zip(*((rec.ev, rec.src) for rec in both)):
        assert len(set(map(id, strings))) == len(set(strings))
    decoded.clear()
    # One line with its keys reversed is not canonical: that line alone takes
    # the general path, and decodes to the same record.
    lines = text.split("\n")
    middle = len(records) // 2
    lines[middle] = json.dumps(dict(reversed(json.loads(lines[middle]).items())))
    assert parse_trace("\n".join(lines)) == records
    assert decoded == [lines[middle]]


def test_a_canonical_line_with_a_foreign_field_set_fails_at_its_line(monkeypatch):
    # The line has the canonical form, but a done needs an episode: only the
    # general path decodes it, and its error is decode_line's.
    bad = '{"t":1,"ev":"done","word":2}'
    with pytest.raises(MalformedTraceError) as info:
        decode_line(bad)
    lines = format_trace(scenario_records("worked_example.scn")).split("\n")
    middle = len(lines) // 2
    lines.insert(middle, bad)
    decoded = logging_decode_line(monkeypatch)
    error = f"line {middle + 1}: {info.value}"
    with pytest.raises(MalformedTraceError, match=f"^{re.escape(error)}$"):
        parse_trace("\n".join(lines))
    assert decoded == [bad]


@pytest.mark.parametrize("ev", sorted(SCHEMA))
def test_every_field_set_of_a_kind_decodes_on_its_branch_or_fails_as_the_general_path(
    ev, monkeypatch
):
    # Each of the 32 sets of optional fields, written in the fixed key order:
    # a set the kind allows is decoded from the match alone, any other set
    # reaches decode_line, whose error parse_trace gives at line 1.
    values = {"word": 2, "pair": (3, 4), "src": "cpu", "episode": 5, "stage": 6}
    optional = KEY_ORDER[2:]
    required, extra = SCHEMA[ev]
    decoded = logging_decode_line(monkeypatch)
    canonical = 0
    for mask in itertools.product((False, True), repeat=len(optional)):
        fields = {key: values[key] for key, on in zip(optional, mask) if on}
        line = reference_line(TraceRecord(1, ev, **fields))
        decoded.clear()
        if (ev, *(not on for on in mask)) in _CANONICAL_SHAPES:
            canonical += 1
            assert set(fields) in ({*required}, {*required, *extra}), line
            assert parse_trace(line) == [TraceRecord(1, ev, **fields)], line
            assert decoded == [], line
        else:
            with pytest.raises(MalformedTraceError) as info:
                decode_line(line)
            with pytest.raises(MalformedTraceError) as parsed:
                parse_trace(line)
            assert str(parsed.value) == f"line 1: {info.value}"
            assert decoded == [line]
    assert canonical == 1 + len(extra)


def test_a_tick_that_goes_down_after_a_general_path_line_fails_at_its_line():
    text = (
        '{"t":5,"ev":"done","word":1,"episode":0}\n'
        '{"episode":0,"word":1,"ev":"done","t":6}\n'
        '{"t":2,"ev":"done","word":1,"episode":0}\n'
    )
    with pytest.raises(MalformedTraceError, match=r"^line 3: out-of-order tick 2 after 6$"):
        parse_trace(text)


# An empty run, one record, one and two full batches of 7, and all of a run.
@pytest.mark.parametrize("count", [0, 1, 7, 14, None])
def test_write_trace_writes_format_trace_a_batch_at_a_time(count, tmp_path, monkeypatch):
    records = scenario_records("worked_example.scn")[:count]
    assert count is not None or len(records) > 2 * 7
    batches = []

    def format_batch(recs):
        batches.append(list(recs))
        return format_trace(batches[-1])

    monkeypatch.setattr(memfabric.trace, "_WRITE_BATCH", 7)
    monkeypatch.setattr(memfabric.trace, "format_trace", format_batch)
    path = tmp_path / "out.trace.jsonl"
    write_trace(records, path)
    assert path.read_bytes() == format_trace(records).encode("utf-8")
    # every batch went through the module's format_trace once, full but the last
    assert [rec for batch in batches for rec in batch] == records
    assert [len(batch) for batch in batches] == [7] * (len(records) // 7) + (
        [len(records) % 7] if len(records) % 7 else []
    )


@given(records())
def test_line_equals_the_json_dumps_reference(rec):
    line = rec.to_json_line()
    assert line == reference_line(rec)
    keys = list(json.loads(line))
    assert keys == [key for key in KEY_ORDER if key in keys]


def lines_of(recs) -> str:
    # to_json_line is format_trace's own line, so the reference is json.dumps.
    return "".join(reference_line(rec) + "\n" for rec in recs)


@pytest.mark.parametrize(
    "values",
    [
        {"t": 8, "word": 3, "pair": (4, 5), "src": "auto", "episode": 6, "stage": 7},
        {"t": 0, "word": 0, "pair": (0, 0), "src": "cpu", "episode": 0, "stage": 0},
    ],
    ids=["nonzero", "zero"],
)
def test_format_trace_writes_every_field_set_as_to_json_line(values):
    # Every present/absent combination of the five optional fields: the sets
    # the schema allows take format_trace's f-strings, the rest its json.dumps
    # branch. A zero is present, not absent.
    optional = TraceRecord._fields[2:]
    recs = [
        TraceRecord(values["t"], "enable", *(values[key] if on else None for key, on in shape))
        for shape in (
            zip(optional, mask) for mask in itertools.product((False, True), repeat=len(optional))
        )
    ]
    assert len(set(recs)) == 32
    assert format_trace(recs) == lines_of(recs)
    assert format_trace(recs).split("\n")[:-1] == [rec.to_json_line() for rec in recs]


def test_format_trace_writes_a_field_set_no_kind_has_as_json_dumps():
    # Values no run makes, which json.dumps writes as JSON and an f-string
    # would not: bools, and a source that needs escaping.
    values = {"word": True, "pair": (1, True), "src": 'c"p\\u', "episode": False, "stage": True}
    kinds = {frozenset(fields) for req, opt in SCHEMA.values() for fields in (req, req + opt)}
    optional = TraceRecord._fields[2:]
    field_sets = [
        fields
        for mask in itertools.product((False, True), repeat=len(optional))
        if (fields := frozenset(key for key, on in zip(optional, mask) if on)) not in kinds
    ]
    assert len(field_sets) == 26
    for fields in field_sets:
        present = {key: values[key] for key in optional if key in fields}
        obj = {"t": 3, "ev": "enable", **present}
        line = format_trace([TraceRecord(**obj)])
        assert line == json.dumps(obj, separators=(",", ":")) + "\n"
        assert json.loads(line) == json.loads(json.dumps(obj))


@given(st.lists(records(), max_size=20))
def test_format_trace_joins_the_lines_of_to_json_line(recs):
    assert format_trace(recs) == lines_of(recs)


# Valid traces never go back in time, so the draw is sorted by tick.
@given(st.lists(records(), max_size=20).map(lambda recs: sorted(recs, key=lambda rec: rec.t)))
def test_parse_inverts_format(recs):
    assert parse_trace(format_trace(recs)) == recs


@given(st.lists(records(), min_size=2, max_size=20))
def test_a_tick_below_the_previous_records_is_rejected_at_its_line(recs):
    recs.sort(key=lambda rec: rec.t)
    assume(recs[0].t < recs[-1].t)
    # The latest record moved to the front: the next line goes back in time.
    text = format_trace([recs[-1], *recs[:-1]])
    error = f"line 2: out-of-order tick {recs[0].t} after {recs[-1].t}"
    with pytest.raises(MalformedTraceError, match=f"^{re.escape(error)}$"):
        parse_trace(text)


@given(records(), st.randoms(use_true_random=False))
def test_key_order_of_a_valid_object_does_not_matter(rec, rnd):
    items = list(json.loads(rec.to_json_line()).items())
    rnd.shuffle(items)
    assert record_from_obj(dict(items)) == rec


@given(records(), st.data())
def test_a_missing_or_foreign_field_is_rejected_by_name(rec, data):
    obj = json.loads(rec.to_json_line())
    required, optional = SCHEMA[rec.ev]
    dropped = data.draw(st.sampled_from(("t", *required)))
    with pytest.raises(MalformedTraceError, match=f"missing field '{dropped}'"):
        record_from_obj({key: value for key, value in obj.items() if key != dropped})
    allowed = ("t", "ev", *required, *optional)
    foreign = data.draw(st.sampled_from([k for k in (*KEY_ORDER, "x") if k not in allowed]))
    with pytest.raises(MalformedTraceError, match=f"field '{foreign}' not allowed"):
        record_from_obj({**obj, foreign: 1})


@pytest.mark.parametrize("repeat", ['"t":4', '"t":9', '"ev":"done"', '"episode":1'])
def test_a_repeated_key_is_rejected_by_name(repeat):
    # json.loads alone keeps the last value: with "t":4 the record would pass
    # unchanged, with "t":9 it would silently become another record.
    line = '{"t":4,"ev":"done","word":1,"episode":1,' + repeat + "}"
    key = json.loads("{" + repeat + "}").popitem()[0]
    error = f"field {key!r} repeated"
    with pytest.raises(MalformedTraceError, match=f"^{re.escape(error)}$"):
        decode_line(line)
    lines = format_trace(scenario_records("worked_example.scn")).split("\n")
    assert lines[1] == '{"t":4,"ev":"done","word":1,"episode":1}'
    lines[1] = line
    with pytest.raises(MalformedTraceError, match=f"^line 2: {re.escape(error)}$"):
        parse_trace("\n".join(lines))


@pytest.mark.parametrize(
    "end", ["\n", "\r\n", "\r", "\f\n", "\v\n", "\x1c\n", "\x85\n", "\u2028\n", "\u2029\n"]
)
def test_only_newlines_end_a_line_that_an_error_names(end):
    # The first line is a valid record; only \n, \r\n and \r end it.
    good = TraceRecord(t=0, ev="done", word=1, episode=0).to_json_line()
    with pytest.raises(MalformedTraceError, match=r"^line 2: unknown event kind"):
        parse_trace(good + end + '{"t":0,"ev":"mystery"}\n')


def test_records_are_immutable_hashable_named_tuples():
    rec = TraceRecord(t=3, ev="done", word=2, episode=0)
    assert rec == (3, "done", 2, None, None, 0, None)
    assert hash(rec) == hash(TraceRecord(3, "done", 2, None, None, 0))
    with pytest.raises(AttributeError):
        rec.t = 4
    assert rec._replace(t=4) == TraceRecord(t=4, ev="done", word=2, episode=0)
    assert rec.t == 3


# -- the one-scan decoder against a line-by-line reference -----------------


def reference_parse_trace(text: str) -> list[TraceRecord]:
    """parse_trace as it was before the whole-text scan: each line matched
    alone, a canonical one decoded from its groups, any other by decode_line."""
    records = []
    match = _LINE.fullmatch
    last = 0
    for lineno, line in enumerate(split_lines(text), start=1):
        t, ev, word, pair, src, episode, stage, other = match(line).groups()
        rec = None
        if other is None:
            shape = (ev, word is None, pair is None, src is None, episode is None, stage is None)
            if shape in _CANONICAL_SHAPES:
                # an absent field's group is None, a present one a nonempty string
                rec = TraceRecord(
                    int(t),
                    ev,
                    word and int(word),
                    pair and tuple(map(int, pair.split(","))),
                    src,
                    episode and int(episode),
                    stage and int(stage),
                )
        if rec is None:
            try:
                rec = decode_line(line)
            except MalformedTraceError as exc:
                raise MalformedTraceError(f"line {lineno}: {exc}") from exc
            if rec is None:
                continue
        if rec.t < last:
            raise MalformedTraceError(f"line {lineno}: out-of-order tick {rec.t} after {last}")
        last = rec.t
        records.append(rec)
    return records


def assert_decoded_as_by_the_general_path(line: str) -> None:
    """parse_trace gives decode_line's record for the line, or its error."""
    try:
        expected = decode_line(line)
    except MalformedTraceError as exc:
        with pytest.raises(MalformedTraceError) as info:
            parse_trace(line)
        assert str(info.value) == f"line 1: {exc}"
    else:
        assert parse_trace(line) == ([] if expected is None else [expected])


@given(records(naturals=_long_naturals, words=_long_words))
def test_canonical_lines_decode_as_by_the_general_path(rec):
    line = rec.to_json_line()
    with mock.patch.object(memfabric.trace, "decode_line", wraps=decode_line) as general:
        assert parse_trace(line) == [decode_line(line)] == [rec]
    digits = max(len(number) for number in re.findall("[0-9]+", line))
    # the scan is not dead: every canonical line within its cap matches, and
    # its field set's branch decodes the match without the general path
    scanned = digits <= SCAN_DIGITS
    assert (_LINE.fullmatch(line).groups()[-1] is None) == scanned
    assert general.call_count == (0 if scanned else 1)


# One character that does not end a line: parse_trace splits on those first.
_chars = st.sampled_from('0123456789-+.eE ,:"{}[]\\tu') | st.characters(
    blacklist_categories=("Cs",), blacklist_characters="\n\r"
)


@st.composite
def mutated_lines(draw) -> str:
    rec = draw(records())
    line = rec.to_json_line()
    obj = json.loads(line)
    mutation = draw(
        st.sampled_from(
            [
                "insert",
                "delete",
                "replace",
                "leading zero",
                "minus",
                "long integer",
                "whitespace",
                "escaped kind",
                "reordered keys",
                "duplicated key",
                "field set",
            ]
        )
    )
    where = draw(st.integers(min_value=0, max_value=len(line) - 1))
    number = draw(st.sampled_from(list(re.finditer("[0-9]+", line))))
    before, after = line[: number.start()], line[number.end() :]
    if mutation == "insert":
        return line[:where] + draw(_chars) + line[where:]
    if mutation == "delete":
        return line[:where] + line[where + 1 :]
    if mutation == "replace":
        return line[:where] + draw(_chars) + line[where + 1 :]
    if mutation == "leading zero":
        return before + "0" + number.group() + after
    if mutation == "minus":
        return before + "-" + number.group() + after
    if mutation == "long integer":
        return before + "1" * (LIMIT_DIGITS + 1) + after
    if mutation == "whitespace":
        space = st.text(" \t", max_size=3)
        return draw(space) + line + draw(space)
    if mutation == "escaped kind":
        index = draw(st.integers(min_value=0, max_value=len(rec.ev) - 1))
        kind = rec.ev[:index] + f"\\u{ord(rec.ev[index]):04x}" + rec.ev[index + 1 :]
        return line.replace(f'"ev":"{rec.ev}"', f'"ev":"{kind}"')
    if mutation == "reordered keys":
        items = draw(st.permutations(list(obj.items())))
        return json.dumps(dict(items), separators=(",", ":"))
    if mutation == "duplicated key":
        key = draw(st.sampled_from(list(obj)))
        value = json.dumps(draw(st.sampled_from([obj[key], 0, 7, [1, 2], "cpu", "done"])))
        return line[:-1] + f',"{key}":{value}' + "}"
    # A field the kind does not allow, or without one it requires, written
    # in the canonical key order, so that only the field-set check rejects it.
    key = draw(st.sampled_from(KEY_ORDER[2:]))
    if getattr(rec, key) is None:
        value = {"pair": (1, 2), "src": "cpu"}.get(key, 1)
    else:
        value = None
    return rec._replace(**{key: value}).to_json_line()


@given(mutated_lines())
def test_mutated_lines_decode_or_fail_as_by_the_general_path(line):
    assert_decoded_as_by_the_general_path(line)


@st.composite
def traces(draw) -> str:
    """Canonical lines, mostly in tick order, with mutated and blank lines
    put in and a mix of line ends."""
    recs = draw(st.lists(records(), max_size=12))
    if draw(st.integers(min_value=0, max_value=3)):
        recs.sort(key=lambda rec: rec.t)
    lines = [rec.to_json_line() for rec in recs]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        where = draw(st.integers(min_value=0, max_value=len(lines)))
        lines.insert(where, draw(mutated_lines() | st.sampled_from(["", " ", "\t"])))
    ends = draw(
        st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines))
    )
    text = "".join(line + end for line, end in zip(lines, ends))
    return text[: -len(ends[-1])] if ends and draw(st.booleans()) else text


@given(traces())
def test_traces_decode_or_fail_as_by_the_reference(text):
    try:
        expected = reference_parse_trace(text)
    except MalformedTraceError as exc:
        with pytest.raises(MalformedTraceError) as info:
            parse_trace(text)
        assert str(info.value) == str(exc)
    else:
        records = parse_trace(text)
        assert records == expected
        assert all(type(rec) is TraceRecord for rec in records)
        assert all(type(rec.pair) is tuple for rec in records if rec.pair is not None)


def test_a_malformed_line_is_named_before_a_later_tick_that_goes_down():
    # Line 2 takes the general path and fails there, before line 3's tick,
    # which goes down, is checked.
    text = (
        '{"t":5,"ev":"done","word":1,"episode":0}\n'
        '{"t":6,"ev":"mystery"}\n'
        '{"t":1,"ev":"done","word":1,"episode":0}\n'
    )
    error = "line 2: unknown event kind: 'mystery'"
    with pytest.raises(MalformedTraceError, match=f"^{re.escape(error)}$"):
        parse_trace(text)


# -- the block reader: a file's bytes, decoded block by block --------------


def reference_read_trace(data: bytes) -> list[TraceRecord]:
    """reference_parse_trace of the file's text; at the first byte that is not
    UTF-8, the first fault of the lines before its line, else its own error."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lines = split_lines(data[: exc.start].decode("utf-8"))
        reference_parse_trace("\n".join(lines[:-1]))
        raise MalformedTraceError(f"line {len(lines)}: not UTF-8 text: {exc}") from None
    return reference_parse_trace(text)


def assert_read_as_by_the_reference(path: Path, block: int) -> None:
    """parse_trace of read_blocks, at ``block`` bytes a read, gives the
    reference's records for the file, or its error."""
    try:
        expected = reference_read_trace(path.read_bytes())
    except MalformedTraceError as exc:
        with mock.patch.object(memfabric.trace, "_READ_BLOCK", block):
            with closing(read_blocks(path)) as blocks, pytest.raises(MalformedTraceError) as info:
                parse_trace(blocks)
        assert str(info.value) == str(exc)
    else:
        with mock.patch.object(memfabric.trace, "_READ_BLOCK", block):
            assert parse_trace(read_blocks(path)) == expected


@given(data=with_odd_chars(traces()), block=st.integers(min_value=1, max_value=64))
def test_a_trace_read_in_blocks_decodes_or_fails_as_the_whole_file(
    tmp_path_factory, data, block
):
    path = tmp_path_factory.getbasetemp() / "blocks.trace.jsonl"
    path.write_bytes(data)
    assert_read_as_by_the_reference(path, block)


WORKED_LINES = format_trace(scenario_records("worked_example.scn")).splitlines()
BAD_BYTE = "\udce9"  # the lone byte 0xe9, through surrogateescape


def read_records(path: Path, block: int) -> list[TraceRecord]:
    with mock.patch.object(memfabric.trace, "_READ_BLOCK", block):
        return parse_trace(read_blocks(path))


def read_error(path: Path, block: int) -> str:
    # The error's traceback holds the suspended reader and ``info`` holds the error:
    # unclosed, the file would wait for a gc pass, and its ResourceWarning is an error.
    with mock.patch.object(memfabric.trace, "_READ_BLOCK", block):
        with closing(read_blocks(path)) as blocks, pytest.raises(MalformedTraceError) as info:
            parse_trace(blocks)
    return str(info.value)


def write_lines(path: Path, lines: list[str], end: str = "\n", last: str = "\n") -> Path:
    path.write_bytes((end.join(lines) + last).encode("utf-8", "surrogateescape"))
    return path


def test_a_tick_that_goes_down_across_blocks_fails_at_its_line(tmp_path):
    first = '{"t":5,"ev":"done","word":1,"episode":0}'
    second = '{"t":4,"ev":"done","word":1,"episode":0}'
    path = write_lines(tmp_path / "t.jsonl", [first, second])
    # one block holds the first line alone, so its tick is the next block's floor
    assert read_error(path, len(first) + 1) == "line 2: out-of-order tick 4 after 5"
    assert_read_as_by_the_reference(path, len(first) + 1)


@pytest.mark.parametrize("end", ["\r\n", "\r"])
@pytest.mark.parametrize("block", [1, 7, 64, 65536])
def test_every_line_end_is_read_across_blocks(tmp_path, end, block):
    path = write_lines(tmp_path / "t.jsonl", WORKED_LINES, end=end, last=end)
    assert read_records(path, block) == scenario_records("worked_example.scn")
    # a malformed line, and a bad byte, past the first block name their lines
    faults = [("{}", "line 90: unknown event kind: None"), (BAD_BYTE, "line 90: not UTF-8 text")]
    for fault, error in faults:
        lines = WORKED_LINES[:89] + [fault] + WORKED_LINES[89:]
        path = write_lines(tmp_path / "t.jsonl", lines, end=end, last=end)
        assert read_error(path, block).startswith(error)
        assert_read_as_by_the_reference(path, block)


@pytest.mark.parametrize("block", [64, 65536])
def test_records_read_in_blocks_share_one_object_per_value(tmp_path, block):
    # One value cache serves every block, as it serves every line of a text.
    records = read_records(write_lines(tmp_path / "t.jsonl", WORKED_LINES), block)
    assert records == scenario_records("worked_example.scn")
    for values in ([rec.t for rec in records], [rec.pair for rec in records if rec.pair]):
        assert len(set(map(id, values))) == len(set(values)) < len(values)
    # A tick is converted once per run of its lines, across a block edge, and a
    # line of the run that takes the general path (its keys reordered) leaves the
    # int the canonical lines share as it is.
    tick = records[-1].t + 1000  # above the small ints the interpreter caches
    run = [
        f'{{"t":{tick},"ev":"filter_fire","pair":[1,2]}}',
        f'{{"t":{tick},"ev":"latch_shift","pair":[1,2],"stage":1}}',
        f'{{"ev":"filter_fire","t":{tick},"pair":[2,3]}}',
        f'{{"t":{tick},"ev":"filter_fire","pair":[2,3]}}',
        f'{{"t":{tick},"ev":"learned","pair":[2,3]}}',
    ]
    path = write_lines(tmp_path / "t.jsonl", WORKED_LINES + run)
    edge = len("\n".join(WORKED_LINES + run[:2])) + 1  # the first read ends before run[2]
    for size in (block, edge):
        records = read_records(path, size)
        assert records == reference_parse_trace(path.read_text(encoding="utf-8"))
        canonical = [rec.t for rec, line in zip(records[-5:], run) if line.startswith('{"t"')]
        assert len(canonical) == 4 and len(set(map(id, canonical))) == 1
        assert records[-3] == (tick, "filter_fire", None, (2, 3), None, None, None)


@pytest.mark.parametrize("block", [1, 64, 1000])
def test_lines_a_lone_carriage_return_ends_are_counted_across_blocks(tmp_path, block):
    # A block is cut only after a \n, so only a mix of line ends puts lines
    # that a \r ends into blocks before the faulty line's.
    lines = WORKED_LINES[:99] + [BAD_BYTE] + WORKED_LINES[99:]
    text = "".join(line + ("\n" if n % 10 == 9 else "\r") for n, line in enumerate(lines))
    path = tmp_path / "t.jsonl"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    assert read_error(path, block).startswith("line 100: not UTF-8 text")
    assert_read_as_by_the_reference(path, block)


@pytest.mark.parametrize("block", [1, 10, 64, 65536])
def test_a_last_line_without_a_newline_is_read(tmp_path, block):
    path = write_lines(tmp_path / "t.jsonl", WORKED_LINES, last="")
    assert read_records(path, block) == scenario_records("worked_example.scn")
    path = write_lines(tmp_path / "t.jsonl", WORKED_LINES + ['{"t":0,"ev":"mystery"}'], last="")
    error = f"line {len(WORKED_LINES) + 1}: unknown event kind: 'mystery'"
    assert read_error(path, block) == error


# the lone byte 0xe9, and a 3-byte character cut after two bytes
@pytest.mark.parametrize(
    "bad,where",
    [(BAD_BYTE, "byte 0xe9 in position {0}"), ("\udce2\udc82", "bytes in position {0}-{1}")],
)
@pytest.mark.parametrize("block", [1, 64, 1000])
def test_a_bad_byte_past_the_first_block_names_its_line_and_file_offset(
    tmp_path, block, bad, where
):
    lines = WORKED_LINES[:]
    lines[99] = lines[99][:10] + bad + lines[99][10:]
    path = write_lines(tmp_path / "t.jsonl", lines)
    offset = sum(len(line) + 1 for line in WORKED_LINES[:99]) + 10
    where = where.format(offset, offset + 1)
    assert read_error(path, block) == (
        f"line 100: not UTF-8 text: 'utf-8' codec can't decode {where}: invalid continuation byte"
    )
    assert_read_as_by_the_reference(path, block)


@pytest.mark.parametrize("gap", [0, 1, 60])
@pytest.mark.parametrize("block", [1, 64, 65536])
def test_a_malformed_line_before_a_bad_byte_is_named_first(tmp_path, gap, block):
    # gap lines between the two, so that at 64 bytes a read they share a block
    # or not; at 65536 one block holds the file
    lines = WORKED_LINES[:10] + ['{"t":0,"ev":"mystery"}'] + WORKED_LINES[10 : 10 + gap]
    lines.append(WORKED_LINES[10 + gap][:5] + BAD_BYTE)
    path = write_lines(tmp_path / "t.jsonl", lines)
    assert read_error(path, block) == "line 11: unknown event kind: 'mystery'"
    assert_read_as_by_the_reference(path, block)


# one-byte, two-, three- and four-byte characters, in lines as long as 5 reads of 64
_LINES = st.lists(
    st.tuples(
        st.text(st.sampled_from("a{é€\U0001f600"), max_size=320),
        st.sampled_from(["\n", "\r\n", "\r"]),
    ),
    max_size=8,
)


@given(lines=_LINES, last=st.sampled_from(["", "\n", "x", "é\r"]), block=st.integers(1, 64))
def test_the_reader_gives_whole_lines_of_one_read_and_the_rest_of_a_line(
    tmp_path_factory, lines, last, block
):
    text = "".join(line + end for line, end in lines) + last
    path = tmp_path_factory.getbasetemp() / "lines.txt"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(memfabric.trace, "_READ_BLOCK", block):
        blocks = list(read_blocks(path))
    assert "".join(blocks) == text
    assert all(blocks) and all(part.endswith("\n") for part in blocks[:-1])
    for part in map(str.encode, blocks):
        # one read that ends in a newline, or one that ends in the block's last line
        assert len(part) <= block or part.rfind(b"\n", 0, len(part) - 1) < block - 1


def test_a_long_line_is_read_at_twice_its_length(tmp_path):
    # Its bytes and its text; pieces of the line kept while its text is
    # decoded would make it three times.
    path = tmp_path / "long.txt"
    path.write_bytes(b"x" * 8_000_000 + b"\n")
    tracemalloc.start()
    try:
        with mock.patch.object(memfabric.trace, "_READ_BLOCK", 65536):
            sizes = [len(part) for part in read_blocks(path)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes == [8_000_001]
    assert peak <= 2.5 * 8_000_001
