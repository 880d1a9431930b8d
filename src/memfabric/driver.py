"""The scripted CPU (working-memory) model.

Each rehearsal plan runs as one generator of its steps. For each
repetition it draws a fresh episode; for each word of the sequence it
yields that word's CPU enable ``(tick, word, episode)`` and is sent the
tick of the done it awaits. The next enable lies ``gap`` ticks after
that done, or, after a repetition's last word, ``rest`` ticks after it
in the next repetition's episode. After the last repetition it yields
``None``. A one-shot :class:`Probe` needs no driver:
``build_simulation`` schedules its single CPU enable in an episode of
its own, which is what triggers autonomous replay on a trained fabric.

Advancement keys on the word id, not on the episode: if the awaited
word was started autonomously before the CPU got there (so the plan's
own enable was ignored as busy), the plan still advances on that
word's done. A plan only starts waiting once its own enable's tick is
reached; dones of the awaited word from before that (another plan's
traffic, say) do not advance it.

The driver holds no simulation: ``add_plan`` and ``on_done`` take the
one they act on and put each step straight on its queue. It keeps each
unfinished plan's generator under the word whose done it awaits, in
add order, so a done reads only the plans awaiting its word; those
advance in add order.
"""

from __future__ import annotations

from bisect import insort
from collections import namedtuple
from collections.abc import Generator

from memfabric.fabric import CheckedTuple, CpuEnable, check_int


class InvalidPlanError(ValueError):
    """A rehearsal plan violates its structural constraints."""


class RehearsalPlan(CheckedTuple, namedtuple("RehearsalPlan", "sequence reps gap rest start")):
    __slots__ = ()

    def __new__(cls, sequence, reps: int, gap: int, rest: int, start: int):
        sequence = tuple(sequence)
        if len(sequence) < 2:
            raise InvalidPlanError("a plan needs at least 2 words")
        for i, word in enumerate(sequence):  # by equality: a word need not hash
            if word in sequence[:i]:
                raise InvalidPlanError(f"word {word} repeats in the sequence; states must be distinct")
        check_int(reps, 1, "reps", InvalidPlanError)
        check_int(gap, 0, "gap", InvalidPlanError)
        check_int(rest, 0, "rest", InvalidPlanError)
        check_int(start, 0, "start", InvalidPlanError)
        return tuple.__new__(cls, (sequence, reps, gap, rest, start))

    def check_words(self, config) -> None:
        """Every word of the sequence is a word of ``config``'s fabric."""
        for word in self.sequence:
            config.check_word(word)


class Probe(CheckedTuple, namedtuple("Probe", "tick word")):
    __slots__ = ()

    def __new__(cls, tick: int, word: int):
        check_int(tick, 0, "probe tick")
        return tuple.__new__(cls, (tick, word))

    def check_words(self, config) -> None:
        """The probed word is a word of ``config``'s fabric."""
        config.check_word(self.word)


def _rehearsal(plan: RehearsalPlan, new_episode) -> Generator[tuple | None, int, None]:
    # It holds the episode counter, never sim: a plan left suspended by a
    # tick limit then makes no reference cycle.
    sequence, gap, rest, tick = plan.sequence, plan.gap, plan.rest, plan.start
    for _ in range(plan.reps):
        episode = new_episode()
        for word in sequence:
            done = yield tick, word, episode
            tick = done + gap
        tick = done + rest
    yield None


class Driver:
    def __init__(self):
        # Awaited word -> (add order, own enable's tick, steps) of each
        # unfinished plan that awaits its done, in add order.
        self._awaiting: dict[int, list[tuple]] = {}
        self._added = 0

    def add_plan(self, sim, plan: RehearsalPlan) -> None:
        # The scenario checked the plan; later steps lie gap or rest (>= 0) after a done.
        steps = _rehearsal(plan, sim.new_episode)
        tick, word, episode = next(steps)
        self._awaiting.setdefault(word, []).append((self._added, tick, steps))  # last in add order
        self._added += 1
        sim.queue.schedule(tick, tuple.__new__(CpuEnable, (word, episode)))

    def unfinished_plans(self) -> int:
        return sum(map(len, self._awaiting.values()))

    def on_done(self, sim, word: int, tick: int) -> None:
        entries = self._awaiting.pop(word, None)
        if entries is None:
            return
        # An advancing plan next awaits another word (a plan's words are
        # distinct), so only the plans kept waiting come back under this one.
        for entry in entries:
            order, enable_tick, steps = entry
            if tick < enable_tick:  # its own enable is still ahead
                self._awaiting.setdefault(word, []).append(entry)
            elif (step := steps.send(tick)) is not None:  # else finished: it awaits no word
                next_tick, next_word, episode = step
                insort(self._awaiting.setdefault(next_word, []), (order, next_tick, steps))
                sim.queue.schedule(next_tick, tuple.__new__(CpuEnable, (next_word, episode)))
