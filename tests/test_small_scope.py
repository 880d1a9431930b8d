"""Every scenario of a small scope, each held to four checks at once.

A scope enumerates, with ``itertools.product``, every fabric of K = 3
words in both filter modes, with ``delay1`` of 1 or 2, ``delay2`` equal
to it (so a fire one tick after a shift shifts again at 1 and falls in the
refractory at 2), a threshold of 1 or 2 and each word's duration 1 or 2
(64 configs), and every scenario its parts allow on each:

* the one-plan scope: a plan of any 2 or 3 distinct words, 1 to 3
  repetitions, a gap of 0 to 2, and a probe of any word or none, whose
  tick meets the longer plans and follows the shorter ones (27,648);
* the two-plan scope: two plans of any such words with starts of their
  own, an override window on the pair (1, 2) or none, and a probe of any
  word at the tick the window opens (55,296).

For each scenario, ``verify_run`` and the multiset reference verifier
both accept its run's trace, its filter records equal those of the
literal K(K-1) circuit, and a second run writes the same trace. Tier-1
runs the one-plan scope; run this file as a script for the two-plan
scope::

    PYTHONPATH=src python tests/test_small_scope.py
"""

from __future__ import annotations

import sys
import time
from itertools import permutations, product

from literal_fabric import LiteralFabric, filter_records
from memfabric import (
    FabricConfig,
    OverrideDirective,
    Probe,
    RehearsalPlan,
    Scenario,
    canonical_scenario,
    run_scenario,
    verify_run,
)
from memfabric.fabric import FILTER_MODES
from memfabric.trace import EV_LEARNED
from reference_verify import reference_verify_run

WORDS = (1, 2, 3)
SEQUENCES = [seq for n in (2, 3) for seq in permutations(WORDS, n)]
MAX_TICK = 100  # past the end of every run in both scopes
WINDOW_OPENS = 14


def configs() -> list[FabricConfig]:
    return [
        FabricConfig(3, delay1, delay1, threshold, dict(zip(WORDS, durations)), mode)
        for mode, delay1, threshold, durations in product(
            FILTER_MODES, (1, 2), (1, 2), product((1, 2), repeat=len(WORDS))
        )
    ]


def one_plan_scope():
    for config, sequence, reps, gap, word in product(
        configs(), SEQUENCES, (1, 2, 3), (0, 1, 2), (None, *WORDS)
    ):
        probes = () if word is None else (Probe(12, word),)
        yield Scenario(config, (RehearsalPlan(sequence, reps, gap, 1, 0),), probes, (), MAX_TICK)


def two_plan_scope():
    window = (
        OverrideDirective(WINDOW_OPENS, 1, 2, True),
        OverrideDirective(WINDOW_OPENS + 4, 1, 2, False),
    )
    for config, first, second, overrides, word in product(
        configs(), SEQUENCES, SEQUENCES, ((), window), WORDS
    ):
        plans = (RehearsalPlan(first, 2, 0, 1, 0), RehearsalPlan(second, 2, 0, 1, 1))
        yield Scenario(config, plans, (Probe(WINDOW_OPENS, word),), overrides, MAX_TICK)


def check_scope(scenarios) -> tuple[int, int]:
    """Hold every scenario to the four checks; return how many ran and how many learn a pair."""
    total = learning = 0
    for scenario in scenarios:
        records = run_scenario(scenario).records
        checks = (
            verify_run(scenario, records) == [],
            reference_verify_run(scenario, records) == [],
            LiteralFabric(scenario.config).filter_records(records) == filter_records(records),
            run_scenario(scenario).records == records,
        )
        assert all(checks), f"checks {checks} on\n{canonical_scenario(scenario)}"
        total += 1
        learning += any(rec.ev == EV_LEARNED for rec in records)
    return total, learning


def test_every_scenario_of_the_one_plan_scope_agrees_four_ways():
    assert check_scope(one_plan_scope())[0] == 27_648


if __name__ == "__main__":
    start = time.perf_counter()
    total, learning = check_scope(two_plan_scope())
    seconds = time.perf_counter() - start
    print(f"two-plan scope: {total} scenarios, {learning} learn a pair, {seconds:.1f} s")
    sys.exit(total != 55_296)
