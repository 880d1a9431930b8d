"""The learning memory fabric.

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

The K(K-1) filters are represented as one window per source word plus
a capped shift count per touched pair, and this is exact. The filters
``(i, *)`` are only ever opened together, by a done of ``i``, so they
always hold the same window. A register of set-once latches whose
shifts fill stage after stage always holds a prefix of set stages, so
its whole state is the number of shifts capped at the register depth.
A pair whose filter never fired is an empty register. A touched pair's
``(src, dst)`` tuple is built once: its records and replays share it.

The signals (:class:`CpuEnable`, :class:`AutoEnable`, :class:`WordDone`,
:class:`OverrideSet`) are the event payloads. The fabric queues its own
dones and replays on ``sim.queue`` unchecked: a duration or ``delay1``
(both >= 1) after the current tick is never behind the clock. It builds
each payload and each trace record (all seven fields, in order) whole
through ``tuple.__new__``, which skips the named tuple's Python ``__new__``.
"""

from __future__ import annotations

from bisect import insort
from collections import defaultdict, namedtuple
from collections.abc import Iterator, Mapping
from itertools import count, islice
from types import MappingProxyType

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

_new = tuple.__new__  # _new(TraceRecord, (t, ev, word, pair, src, episode, stage)), unchecked

DONE_ENABLE = "done_enable"
DONE_DONE = "done_done"
FILTER_MODES = (DONE_ENABLE, DONE_DONE)


class InvalidConfigError(ValueError):
    """Fabric configuration violates a structural constraint."""


class UnknownWordError(ValueError):
    """A word id outside ``1..word_count`` was referenced."""


class SelfPairError(ValueError):
    """An ordered pair (i, i); the fabric has no self connections."""


class CheckedTuple:
    """Base of a named tuple whose ``__new__`` checks its fields.

    Every way to build one calls ``__new__``: the constructor; ``_make``,
    and so ``_replace``, which a plain named tuple builds through
    ``tuple.__new__``; and pickle and copy, which call ``__new__`` with
    the values ``__getnewargs__`` gives.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def check_int(value, least: int, what: str, error: type[ValueError] = ValueError) -> None:
    """The integer rule: ``value`` is an int (a bool is not) and no less than ``least``."""
    if type(value) is not int:
        raise error(f"{what} is not an integer: {value!r}")
    if value < least:
        raise error(f"{what} must be >= {least}, got {value}")


def _unnamed(named: Mapping[int, int]) -> Iterator[int]:
    """The words that ``named`` leaves out, ascending; the first is at most ``len(named) + 1``."""
    return (word for word in count(1) if word not in named)


class Durations(Mapping):
    """Each word's duration over ``1..word_count``: the words of ``named`` run for
    their own, the others for ``default``; with no default (None) the mapping
    ends before the first word left out, which a config rejects. It keeps
    ``default``, the most common duration (on a tie, the first in word order),
    and ``exceptions``, the words whose duration differs. It behaves as a
    read-only dict with no hash but never builds one, and it pickles and
    copies through the constructor, which checks each duration."""

    __slots__ = ("_parts",)  # (word_count, default, exceptions)

    def __init__(self, word_count: int, default: int | None, named: Mapping[int, int]):
        named = dict(sorted(named.items()))
        for word, dur in named.items():
            FabricConfig.check_duration(word, dur)
        if default is None:
            word_count = min(word_count, next(_unnamed(named)) - 1)
            named = {word: dur for word, dur in named.items() if word <= word_count}
        spare = word_count - len(named)  # the words that run for the default
        rank = {}  # duration -> (its words, minus its first word); the greatest is the most common
        if spare > 0:
            first = next(_unnamed(named))
            FabricConfig.check_duration(first, default)
            rank[default] = (spare, -first)
        for word, dur in named.items():
            words, least = rank.get(dur, (0, -word))
            rank[dur] = (words + 1, max(least, -word))
        most = max(rank, key=rank.__getitem__, default=default)
        exceptions = {word: dur for word, dur in named.items() if dur != most}
        if spare > 0 and most != default:  # then the default has no more words than named has
            exceptions.update((word, default) for word in islice(_unnamed(named), spare))
        self._parts = (word_count, most, dict(sorted(exceptions.items())))

    default = property(lambda self: self._parts[1])
    exceptions = property(lambda self: MappingProxyType(self._parts[2]))  # ascending

    def __getitem__(self, word: int) -> int:
        word_count, default, exceptions = self._parts
        if isinstance(word, int) and 1 <= word <= word_count:
            return exceptions.get(word, default)
        raise KeyError(word)

    def __len__(self) -> int:
        return self._parts[0]

    def __iter__(self) -> Iterator[int]:
        return iter(range(1, len(self) + 1))

    def __eq__(self, other):
        if isinstance(other, Durations):
            return self._parts == other._parts
        return isinstance(other, Mapping) and len(other) == len(self) and dict(self) == other

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self._parts!r}"

    def __reduce__(self):
        return type(self), self._parts


class FabricConfig(
    CheckedTuple,
    namedtuple("FabricConfig", "word_count delay1 delay2 threshold durations filter_mode"),
):
    """Structural parameters of one fabric.

    ``delay1`` is the hold time of a done signal: both the filter
    coincidence window length and the replay latency between chained
    words. ``delay2`` is the learning-spike width, realized as the
    minimum spacing between two register shifts of the same filter;
    it may not exceed ``delay1``. ``threshold`` is the register depth:
    the number of qualifying repetitions after which a pair is learned.
    ``durations`` maps every word, and nothing else, to its duration.
    Any mapping is kept as :class:`Durations`, at the cost of its length,
    so later edits of the caller's mapping cannot undo its checks, and a
    config has no hash.
    """

    __slots__ = ()

    def __new__(
        cls,
        word_count: int,
        delay1: int,
        delay2: int,
        threshold: int,
        durations: Mapping[int, int],
        filter_mode: str = DONE_ENABLE,
    ):
        if type(word_count) is not int or word_count < 2:
            raise InvalidConfigError(f"need at least 2 words, got {word_count!r}")
        check_int(delay1, 1, "delay1", InvalidConfigError)
        check_int(delay2, 1, "delay2", InvalidConfigError)
        if delay2 > delay1:
            raise InvalidConfigError(f"delay2 ({delay2}) must not exceed delay1 ({delay1})")
        check_int(threshold, 1, "threshold", InvalidConfigError)
        if filter_mode not in FILTER_MODES:
            raise InvalidConfigError(f"mode must be done_enable or done_done, got {filter_mode!r}")
        config = tuple.__new__(cls, (word_count, delay1, delay2, threshold, durations, filter_mode))
        if not isinstance(durations, Durations):  # any other mapping pays for its own length
            durations = dict(durations)
            for word in durations:  # a stray key, or one such as 1.0 that equals a word
                config.check_word(word)
            return config._replace(durations=Durations(word_count, None, durations))
        if len(durations) < word_count:  # the durations end before the fabric does
            raise InvalidConfigError(f"no duration for word {len(durations) + 1}")
        if len(durations) > word_count:  # a fabric smaller than its durations
            config.check_word(word_count + 1)
        return config

    @classmethod
    def uniform(cls, word_count: int, *, duration: int, **fields) -> "FabricConfig":
        """Config with the same duration for every word; ``fields`` are the others by name."""
        return cls(word_count, durations=Durations(word_count, duration, {}), **fields)

    @staticmethod
    def check_duration(word: int | str, dur: int) -> None:
        """The duration rule: a word runs for at least one tick. ``word`` is
        ``"*"`` for the default of ``dur *``."""
        check_int(dur, 1, f"duration of word {word}", InvalidConfigError)

    def check_word(self, word: int) -> None:
        """The word-range rule: word ids are the ints from 1 to ``word_count``."""
        if type(word) is not int or not 1 <= word <= self.word_count:
            raise UnknownWordError(f"word {word!r} outside 1..{self.word_count}")

    def check_pair(self, i: int, j: int) -> None:
        """The pair rule: both words in range, and no self connection."""
        self.check_word(i)
        self.check_word(j)
        if i == j:
            raise SelfPairError(f"pair ({i}, {j}) is a self pair")


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

    The filters are held as one window-until tick per source word and,
    per destination word, a ``[shift_count, last_shift_tick, pair]``
    per source whose filter has fired; the latched stage count is
    ``min(shift_count, threshold)``. Both are exact, as the module
    docstring shows. Each word keeps its learned successors, those
    ``pair`` tuples in ascending order: the closed switches. A done or an
    enable therefore costs its open windows and learned out-degree, not a
    scan of all K words, and a fresh fabric allocates nothing per word or
    per pair. An episode is an int; the no-repeat rule reads one set of
    the ``(episode, word)`` of every accepted enable.

    All mutation happens through the single-threaded dispatch loop of
    the owning simulation, which is passed in so the fabric can emit
    trace records and put its own done and replay events on its queue.
    A trigger fires its filters inline, and the handlers read the frozen
    config's fields from attributes bound once, at construction.
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
        sim.queue.schedule(done_tick, tuple.__new__(WordDone, (word, episode)))
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
