"""The fabric's filter records, held to a literal circuit of its K(K-1) filters.

``literal_fabric.LiteralFabric`` keeps every filter as an object with its
own window, refractory and latches; the fabric and the oracle keep one
window per source word and a capped shift count. Each run below must
give the same ``filter_fire``, ``latch_shift`` and ``learned`` records,
in order, under both. The benchmark workloads are held to it in
``test_bench_workloads.py``.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings

from literal_fabric import LiteralFabric, filter_records
from memfabric import parse_scenario, run_scenario
from memfabric.fabric import FILTER_MODES
from test_scenario import scenarios

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def assert_filters_agree(scenario) -> None:
    records = run_scenario(scenario).records
    assert LiteralFabric(scenario.config).filter_records(records) == filter_records(records)


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.scn")), ids=lambda path: path.stem)
def test_shipped_scenarios_fire_as_the_literal_circuit(path):
    assert_filters_agree(parse_scenario(path.read_text(encoding="utf-8")))


# Word 2 runs at ticks 2, 3 and 4, each inside word 1's window: the fire at 3
# falls in the spike that the shift at 2 starts, and the fire at 4 shifts, for
# a spike runs from its shift, not from a fire it blocks.
BLOCKED_FIRE_THEN_SHIFT = (
    "fabric words=2 delay1=5 delay2=2 threshold=3\n"
    "dur * 1\n"
    "at 0 probe 1\n"
    "at 2 probe 2\n"
    "at 3 probe 2\n"
    "at 4 probe 2\n"
    "maxticks 100\n"
)


def test_a_blocked_fire_does_not_restart_the_refractory():
    scenario = parse_scenario(BLOCKED_FIRE_THEN_SHIFT)
    assert_filters_agree(scenario)
    fires = [(rec.t, rec.ev) for rec in filter_records(run_scenario(scenario).records)]
    assert fires == [
        (2, "filter_fire"), (2, "latch_shift"), (3, "filter_fire"), (4, "filter_fire"),
        (4, "latch_shift"),
    ]


@pytest.mark.parametrize("mode", FILTER_MODES)
@settings(max_examples=50)
@given(scenario=scenarios())
def test_generated_scenarios_fire_as_the_literal_circuit(mode, scenario):
    config = scenario.config._replace(filter_mode=mode)
    assert_filters_agree(scenario._replace(config=config))
