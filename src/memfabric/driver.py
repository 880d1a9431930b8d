"""The scripted CPU (working-memory) model.

The driver executes rehearsal plans reactively: it issues a CPU
enable, waits for the enabled word's done signal, and issues the next
enable ``gap`` ticks after that done. Each repetition of a plan is a
fresh episode; repetitions are spaced by ``rest`` ticks from the
previous repetition's last done. A one-shot :class:`Probe` needs no
driver: the simulation schedules its single CPU enable in an episode
of its own, which is what triggers autonomous replay on a trained
fabric.

Advancement keys on the word id, not on the episode: if the awaited
word was started autonomously before the CPU got there (so the plan's
own enable was ignored as busy), the plan still advances on that
word's done. A plan only starts waiting once its own enable's tick is
reached; dones of the awaited word from before that (another plan's
traffic, say) do not advance it.

The driver holds no simulation: ``add_plan`` and ``on_done`` take the
one they act on and put each plan step straight on its queue. It keeps
each unfinished plan under the word whose done it awaits, in add order,
so a done reads only the plans awaiting its word; those advance in add
order. A plan leaves the driver when the last done of its last
repetition arrives.
"""

from __future__ import annotations

from bisect import insort
from collections import namedtuple
from operator import attrgetter

from memfabric.fabric import CheckedTuple, CpuEnable, Episode, check_int


class InvalidPlanError(ValueError):
    """A rehearsal plan violates its structural constraints."""


class RehearsalPlan(CheckedTuple, namedtuple("RehearsalPlan", "sequence reps gap rest start")):
    __slots__ = ()

    def __new__(cls, sequence, reps: int, gap: int, rest: int, start: int):
        sequence = tuple(sequence)
        if len(sequence) < 2:
            raise InvalidPlanError("a plan needs at least 2 words")
        if len(set(sequence)) != len(sequence):
            dup = next(w for i, w in enumerate(sequence) if w in sequence[:i])
            raise InvalidPlanError(f"word {dup} repeats in the sequence; states must be distinct")
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


class _PlanRun:
    def __init__(self, plan: RehearsalPlan, episode: Episode, order: int):
        # The plan's fields, read on each of its steps, bound once.
        self.sequence, self.reps = plan.sequence, plan.reps
        self.gap, self.rest = plan.gap, plan.rest
        self.episode = episode
        self.order = order  # the plan's place in add order
        self.pos = 0  # index of the word whose done we are waiting on
        self.enable_tick = plan.start  # tick of the current cpu enable
        self.rep = 0


_add_order = attrgetter("order")


class Driver:
    def __init__(self):
        # Awaited word -> the unfinished plans that await its done, in add order.
        self._awaiting: dict[int, list[_PlanRun]] = {}
        self._added = 0

    def add_plan(self, sim, plan: RehearsalPlan) -> None:
        # The simulation checked the plan; later steps lie gap or rest (>= 0) after a done.
        run = _PlanRun(plan, sim.new_episode(), self._added)
        self._added += 1
        self._awaiting.setdefault(plan.sequence[0], []).append(run)  # last in add order
        sim.queue.schedule(plan.start, tuple.__new__(CpuEnable, (plan.sequence[0], run.episode)))

    def unfinished_plans(self) -> int:
        return sum(map(len, self._awaiting.values()))

    def on_done(self, sim, word: int, tick: int) -> None:
        runs = self._awaiting.pop(word, None)
        if runs is None:
            return
        # An advancing plan next awaits another word (a plan's words are
        # distinct), so only the plans kept waiting come back under this one.
        for run in runs:
            if tick < run.enable_tick:  # its own enable is still ahead
                self._awaiting.setdefault(word, []).append(run)
            else:
                self._advance(sim, run, tick)

    def _advance(self, sim, run: _PlanRun, tick: int) -> None:
        run.pos += 1
        if run.pos < len(run.sequence):
            run.enable_tick = tick + run.gap
        else:
            run.rep += 1
            if run.rep == run.reps:
                return  # finished: it awaits no word
            run.pos = 0
            run.episode = sim.new_episode()
            run.enable_tick = tick + run.rest
        word = run.sequence[run.pos]
        insort(self._awaiting.setdefault(word, []), run, key=_add_order)
        sim.queue.schedule(run.enable_tick, tuple.__new__(CpuEnable, (word, run.episode)))
