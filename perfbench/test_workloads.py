"""Checks on the seeded workload generators.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from memfabric import cli
from memfabric.scenario import canonical_scenario, parse_scenario
from workloads import WORKLOADS, generate

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_text_other_seed_other_scenario(name):
    seed = WORKLOADS[name][1]
    assert generate(name, seed) == generate(name, seed)
    assert parse_scenario(generate(name, seed + 1)) != parse_scenario(generate(name, seed))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_text_is_canonical_and_passes_check(name, tmp_path, capsys):
    text = generate(name, WORKLOADS[name][1])
    scenario = parse_scenario(text)
    assert not scenario.warnings
    assert canonical_scenario(scenario) == text
    assert parse_scenario(canonical_scenario(scenario)) == scenario
    path = tmp_path / "workload.scn"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["check", str(path)]) == 0
    assert capsys.readouterr().out == text


def test_expected_outputs_recorded_at_default_seeds():
    assert {name: entry["seed"] for name, entry in EXPECTED.items()} == {
        name: seed for name, (_, seed) in WORKLOADS.items()
    }
