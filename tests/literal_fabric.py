"""A literal circuit of the fabric's timing filters, for differential testing.

The fabric keeps one window per source word and a shift count capped at
the register depth, and the oracle's ``detection_ticks`` keeps the same
compression (see ``memfabric.engine``). This model keeps neither: it
holds each of the K(K-1) filters as an object of its own, with its own
coincidence window, its own refractory and a list of ``n`` set-once
latches, and drives them with a trace's ``enable`` and ``done`` records.
The ``filter_fire``, ``latch_shift`` and ``learned`` records it gives
must equal the trace's, in order. The method is differential testing
(McKeeman, "Differential Testing for Software", Digital Technical
Journal, 1998): two implementations that share no state layout, held
to the same output.
"""

from __future__ import annotations

from memfabric.fabric import DONE_ENABLE, FabricConfig
from memfabric.trace import (
    EV_DONE,
    EV_ENABLE,
    EV_FILTER_FIRE,
    EV_LATCH_SHIFT,
    EV_LEARNED,
    TraceRecord,
)

FILTER_KINDS = (EV_FILTER_FIRE, EV_LATCH_SHIFT, EV_LEARNED)


class Filter:
    """The filter of the ordered pair (src, dst).

    A done of ``src`` opens its window for ``delay1`` ticks, both ends
    included. A trigger of ``dst`` inside the window fires the filter; a
    fire outside the last learning spike (``delay2`` ticks from the shift
    that started it) starts a new spike and shifts the register: it sets
    the first latch not yet set, if any. The shift that sets the last
    latch closes the switch.
    """

    __slots__ = ("pair", "window_closes", "spike_ends", "latches")

    def __init__(self, pair: tuple[int, int], threshold: int):
        self.pair = pair
        self.window_closes = None  # the window's last tick; None: never opened
        self.spike_ends = None  # the first tick after the last spike; None: no spike yet
        self.latches = [False] * threshold

    def trigger(self, tick: int, delay2: int) -> list[TraceRecord]:
        if self.window_closes is None or tick > self.window_closes:
            return []
        out = [TraceRecord(tick, EV_FILTER_FIRE, pair=self.pair)]
        if self.spike_ends is not None and tick < self.spike_ends:
            return out
        self.spike_ends = tick + delay2
        was_full = all(self.latches)
        if not was_full:
            self.latches[self.latches.index(False)] = True
        out.append(TraceRecord(tick, EV_LATCH_SHIFT, pair=self.pair, stage=sum(self.latches)))
        if not was_full and all(self.latches):
            out.append(TraceRecord(tick, EV_LEARNED, pair=self.pair))
        return out


class LiteralFabric:
    """All K(K-1) filters of a fabric, each opened and triggered on its own."""

    def __init__(self, config: FabricConfig):
        words = range(1, config.word_count + 1)
        self.config = config
        # source word -> its filters; destination word -> its filters, in ascending source
        self.outgoing = {i: [] for i in words}
        self.incoming = {j: [] for j in words}
        for i in words:
            for j in words:
                if i != j:
                    filt = Filter((i, j), config.threshold)
                    self.outgoing[i].append(filt)
                    self.incoming[j].append(filt)

    def filter_records(self, records: list[TraceRecord]) -> list[TraceRecord]:
        """The filter records of a run whose enables and dones are ``records``'."""
        delay1, delay2 = self.config.delay1, self.config.delay2
        trigger_kind = EV_ENABLE if self.config.filter_mode == DONE_ENABLE else EV_DONE
        out = []
        for rec in records:
            if rec.ev == EV_DONE:
                for filt in self.outgoing[rec.word]:
                    filt.window_closes = rec.t + delay1
            if rec.ev == trigger_kind:
                for filt in self.incoming[rec.word]:
                    out += filt.trigger(rec.t, delay2)
        return out


def filter_records(records: list[TraceRecord]) -> list[TraceRecord]:
    """The trace's own filter records, in order."""
    return [rec for rec in records if rec.ev in FILTER_KINDS]
