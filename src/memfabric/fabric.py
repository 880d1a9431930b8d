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
A pair whose filter never fired is an empty register.

The signals (:class:`CpuEnable`, :class:`AutoEnable`, :class:`WordDone`,
:class:`OverrideSet`) are the event payloads. The fabric queues its own
dones and replays on ``sim.queue`` unchecked: a duration or ``delay1``
(both >= 1) after the current tick is never behind the clock. It builds
each payload and each trace record (all seven fields, in order) whole
through ``tuple.__new__``, which skips the named tuple's Python ``__new__``.
"""

from __future__ import annotations

from bisect import insort
from collections import namedtuple
from collections.abc import Mapping
from functools import partial

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

# A trace record from a tuple of all seven fields (t, ev, word, pair, src,
# episode, stage); tuple.__new__ checks neither their count nor their types.
_record = partial(tuple.__new__, TraceRecord)

DONE_ENABLE = "done_enable"
DONE_DONE = "done_done"
FILTER_MODES = (DONE_ENABLE, DONE_DONE)


class ReadOnlyDict(dict):
    """A dict that refuses every change; it pickles, copies and deep-copies."""

    def _refuse(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


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
    It is kept as a read-only copy, so later edits of the
    caller's mapping cannot undo its checks; while it is a dict, a
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
        durations = ReadOnlyDict(durations)
        if type(word_count) is not int or word_count < 2:
            raise InvalidConfigError(f"need at least 2 words, got {word_count!r}")
        check_int(delay1, 1, "delay1", InvalidConfigError)
        check_int(delay2, 1, "delay2", InvalidConfigError)
        if delay2 > delay1:
            raise InvalidConfigError(f"delay2 ({delay2}) must not exceed delay1 ({delay1})")
        check_int(threshold, 1, "threshold", InvalidConfigError)
        if filter_mode not in FILTER_MODES:
            raise InvalidConfigError(f"mode must be done_enable or done_done, got {filter_mode!r}")
        for word in range(1, word_count + 1):
            dur = durations.get(word)
            if dur is None:
                raise InvalidConfigError(f"no duration for word {word}")
            cls.check_duration(word, dur)
        config = tuple.__new__(cls, (word_count, delay1, delay2, threshold, durations, filter_mode))
        if len(durations) > word_count or not all(type(key) is int for key in durations):
            for word in durations:  # a stray key, or one such as 1.0 that equals a word
                config.check_word(word)
        return config

    @classmethod
    def uniform(
        cls,
        word_count: int,
        *,
        delay1: int,
        delay2: int,
        threshold: int,
        duration: int,
        filter_mode: str = DONE_ENABLE,
    ) -> "FabricConfig":
        """Config with the same duration for every word."""
        durations = {w: duration for w in range(1, word_count + 1)}
        return cls(word_count, delay1, delay2, threshold, durations, filter_mode)

    def word_ids(self) -> range:
        return range(1, self.word_count + 1)

    @staticmethod
    def check_duration(word: int | str, dur: int) -> None:
        """The duration rule: a word runs for at least one tick. ``word`` is
        ``"*"`` for the default of ``dur *``."""
        if type(dur) is not int or dur < 1:  # one per word at setup: format only a fault's text
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


class Episode:
    """One activation chain rooted at a single CPU enable.

    ``fired_words`` collects the words that accepted an enable within
    the episode; each word may appear at most once.
    """

    __slots__ = ("episode_id", "fired_words")

    def __init__(self, episode_id: int):
        self.episode_id = episode_id
        self.fired_words: set[int] = set()


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

    The filters are held as one window-until tick per source word and
    a ``(shift_count, last_shift_tick)`` entry per pair whose filter has
    fired; the latched stage count is ``min(shift_count, threshold)``.
    Both are exact for the reasons given in the module docstring. Each
    word also keeps its learned successors in ascending order, the one
    record of the closed switches. A done or an enable therefore costs
    its open windows and learned out-degree, not a scan of all K words,
    and a fresh fabric allocates nothing per word or per pair.

    All mutation happens through the single-threaded dispatch loop of
    the owning simulation, which is passed in so the fabric can emit
    trace records and put its own done and replay events on its queue.
    A trigger fires its filters inline, and the handlers read the frozen
    config's fields from attributes bound once, at construction.
    """

    def __init__(self, config: FabricConfig):
        self.config = config
        self._durations, self._threshold = config.durations, config.threshold
        self._delay1, self._delay2 = config.delay1, config.delay2
        self._done_enable = config.filter_mode == DONE_ENABLE
        self._busy_until: dict[int, int] = {}  # word -> end of its last run; a past end is idle
        # Source word -> closing tick of its hold window. A closed window
        # stays closed (the clock never moves back), so stale entries are
        # dropped whenever a trigger scans the windows.
        self._window_until: dict[int, int] = {}
        self._shifts: dict[tuple[int, int], tuple[int, int]] = {}
        self._successors: dict[int, list[int]] = {}
        self._override_open: set[tuple[int, int]] = set()

    @property
    def filter_count(self) -> int:
        return self.config.word_count * (self.config.word_count - 1)

    def learned_set(self) -> set[tuple[int, int]]:
        return {(src, dst) for src, dsts in self._successors.items() for dst in dsts}

    def override_is_open(self, pair: tuple[int, int]) -> bool:
        return pair in self._override_open

    def on_enable(self, sim, word: int, tick: int, *, source: str, pair, episode: Episode) -> None:
        """Apply an enable signal to a word.

        A busy word ignores the enable, as does a word that already
        fired within the episode (the no-repeat rule; replay races can
        reach an idle word a second time, which the scheduling-time
        check alone cannot catch). An accepted enable runs the word
        for its duration and, in done_enable mode, feeds the filters
        watching for this word as a sequence successor.

        ``word`` is not checked here: CPU enables were checked when the
        simulation scheduled them, and autonomous enables follow learned
        pairs of words the fabric already accepted.
        """
        episode_id = episode.episode_id
        if self._busy_until.get(word, 0) > tick or word in episode.fired_words:
            sim.emit(_record((tick, EV_IGNORED_ENABLE, word, pair, source, episode_id, None)))
            return
        done_tick = self._busy_until[word] = tick + self._durations[word]
        sim.queue.schedule(done_tick, tuple.__new__(WordDone, (word, episode)))
        episode.fired_words.add(word)
        sim.emit(_record((tick, EV_ENABLE, word, pair, source, episode_id, None)))
        if self._done_enable:
            self._detect_into(sim, word, tick)

    def on_done(self, sim, word: int, tick: int, episode: Episode) -> None:
        """Handle a word's done signal.

        Opens (retriggers) the coincidence window this word holds as the
        sequence predecessor, feeds done-done filters, and walks the
        learned successors: overridden pairs are blocked, already-fired
        successors suppressed, and every remaining one gets an
        autonomous enable scheduled delay1 ticks out, carrying the same
        episode.
        """
        episode_id, emit = episode.episode_id, sim.emit
        emit(_record((tick, EV_DONE, word, None, None, episode_id, None)))
        self._window_until[word] = replay_tick = tick + self._delay1
        if not self._done_enable:
            self._detect_into(sim, word, tick)
        successors = self._successors.get(word)
        if not successors:
            return
        schedule, masked, fired = sim.queue.schedule, self._override_open, episode.fired_words
        for dst in successors:
            link = (word, dst)
            if link in masked:
                emit(_record((tick, EV_OVERRIDE_BLOCKED, dst, link, None, episode_id, None)))
            elif dst in fired:
                emit(_record((tick, EV_LOOP_SUPPRESSED, dst, link, None, episode_id, None)))
            else:
                schedule(replay_tick, tuple.__new__(AutoEnable, (dst, link, episode)))
                emit(_record((tick, EV_AUTO_ENABLE_SCHEDULED, dst, link, None, episode_id, None)))

    def set_override(self, sim, i: int, j: int, is_open: bool, tick: int) -> None:
        """Open or close the series switch masking pair (i, j).

        Purely a mask: independent of whether the pair is learned, and
        it never touches the learn register. The pair was checked when
        the simulation scheduled the override.
        """
        if is_open:
            self._override_open.add((i, j))
        else:
            self._override_open.discard((i, j))
        sim.emit(_record((tick, EV_OVERRIDE_SET, None, (i, j), None, None, 1 if is_open else 0)))

    def _detect_into(self, sim, dst: int, tick: int) -> None:
        # Trigger signal for word dst observed: fire every filter (src, dst)
        # whose window is holding, in ascending src order. The closed
        # interval lets a trigger exactly delay1 after the done still count.
        windows, shifts, emit, record = self._window_until, self._shifts, sim.emit, _record
        delay2, threshold = self._delay2, self._threshold
        for src in sorted(windows):
            if windows[src] < tick:
                del windows[src]
            elif src != dst:
                pair = (src, dst)
                emit(record((tick, EV_FILTER_FIRE, None, pair, None, None, None)))
                count, last_shift_tick = shifts.get(pair, (0, None))
                if last_shift_tick is not None and tick - last_shift_tick < delay2:
                    # Still inside the previous learning spike: one spike cannot
                    # double-shift the register. The refractory does not restart.
                    continue
                count += 1
                shifts[pair] = (count, tick)
                stage = count if count < threshold else threshold  # min() is a call per shift
                emit(record((tick, EV_LATCH_SHIFT, None, pair, None, None, stage)))
                if count == threshold:
                    # The shift that sets the last stage closes the switch.
                    insort(self._successors.setdefault(src, []), dst)
                    emit(record((tick, EV_LEARNED, None, pair, None, None, None)))
