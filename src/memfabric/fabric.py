"""The fabric's definition: :class:`FabricConfig`, :class:`Durations`, the
filter modes, the rules each input keeps where it enters (``check_int``;
``check_word``, the word rule's one body, which ``Durations``, the config
and the scenario's parts call; the config's ``check_pair`` and
``check_duration``; and :class:`CheckedTuple`) and the three error classes.
It imports nothing from the package: the fabric that runs, and its signals,
are in :mod:`memfabric.engine`.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Mapping
from itertools import count, islice
from types import MappingProxyType

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


def check_word(word, word_count: int) -> None:
    """The word rule: word ids are the ints from 1 to ``word_count``."""
    if type(word) is not int or not 1 <= word <= word_count:
        raise UnknownWordError(f"word {word!r} outside 1..{word_count}")


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
    copies through the constructor, which checks each word, then each duration."""

    __slots__ = ("_parts",)  # (word_count, default, exceptions)

    def __init__(self, word_count: int, default: int | None, named: Mapping[int, int]):
        named = dict(named)  # a mapping, or (word, duration) pairs as dict takes them
        for word in named:
            check_word(word, word_count)
        named = dict(sorted(named.items()))
        for word, dur in named.items():
            FabricConfig.check_duration(word, dur)
        if default is None:
            word_count = next(_unnamed(named)) - 1
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
    Any other mapping is built into :class:`Durations`, at the cost of its
    length, so later edits of the caller's mapping cannot undo its checks,
    and a config has no hash.
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
        if not isinstance(durations, Durations):  # any other mapping pays for its own length
            durations = Durations(word_count, None, durations)
        if len(durations) < word_count:  # the durations end before the fabric does
            raise InvalidConfigError(f"no duration for word {len(durations) + 1}")
        if len(durations) > word_count:  # a fabric smaller than its durations
            check_word(word_count + 1, word_count)
        return tuple.__new__(cls, (word_count, delay1, delay2, threshold, durations, filter_mode))

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
        """The word rule, :func:`check_word`, for a word of this fabric."""
        check_word(word, self.word_count)

    def check_pair(self, i: int, j: int) -> None:
        """The pair rule: both words in range, and no self connection."""
        check_word(i, self.word_count)
        check_word(j, self.word_count)
        if i == j:
            raise SelfPairError(f"pair ({i}, {j}) is a self pair")
