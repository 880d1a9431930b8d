"""The supported public surface, and the demos that use it."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import memfabric
from conftest import python_command

ROOT = Path(__file__).resolve().parent.parent

# Engine and driver internals (event payloads, the queue, Driver, Durations)
# stay importable from their own modules but are not part of this list.
SUPPORTED = {
    # scenario format, report and run entry points
    "Scenario", "OverrideDirective", "RehearsalPlan", "Probe",
    "parse_scenario", "canonical_scenario",
    "Report", "EpisodeSummary", "build_report", "format_report", "write_report",
    "Simulation", "build_simulation", "run_scenario",
    "RunResult", "RunOutcome", "QUIESCENT", "TICK_LIMIT",
    # fabric model
    "Fabric", "FabricConfig", "DONE_ENABLE", "DONE_DONE",
    # trace
    "TraceRecord", "format_trace", "parse_trace", "write_trace",
    # oracle
    "TimelineEntry", "count_detections", "detection_ticks", "episode_subtrace",
    "predict_learned", "predict_timeline", "shift_entries", "verify_run",
    # errors
    "ScenarioError", "ParseError", "ValidationError", "InvalidConfigError",
    "InvalidPlanError", "UnknownWordError", "SelfPairError", "MalformedTraceError",
}


def test_all_lists_exactly_the_supported_names():
    assert len(memfabric.__all__) == len(set(memfabric.__all__))
    assert set(memfabric.__all__) == SUPPORTED
    for name in memfabric.__all__:
        assert getattr(memfabric, name) is not None, name


def test_a_simulation_has_no_public_way_to_add_a_part():
    # A run is built only by build_simulation from a checked Scenario, so no
    # method may queue a plan, a probe or an override of its own.
    config = memfabric.FabricConfig.uniform(2, delay1=5, delay2=1, threshold=1, duration=4)
    sim = memfabric.Simulation(config)
    assert {name for name in dir(sim) if not name.startswith("_")} == {
        "config", "clock", "queue", "fabric", "driver", "records", "emit",
        "new_episode", "dispatched_total", "step", "run_to_quiescence",
    }


def test_package_imports_only_the_standard_library():
    # pyproject.toml declares no dependencies; every import must be stdlib.
    allowed = {"memfabric", "__future__"} | sys.stdlib_module_names
    sources = sorted((ROOT / "src" / "memfabric").glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] in allowed, f"{path.name}:{node.lineno} {module}"


def _memfabric_imports(module):
    """Each import statement of ``src/memfabric/<module>.py``: its line, module and names."""
    path = ROOT / "src" / "memfabric" / f"{module}.py"
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name, []
        elif isinstance(node, ast.ImportFrom):
            imported = ("memfabric." if node.level else "") + (node.module or "")
            yield node.lineno, imported.rstrip("."), [alias.name for alias in node.names]


def _import_closure(module):
    """The package modules ``module`` reaches through ``memfabric`` imports,
    followed from module to module."""
    modules = {path.stem for path in (ROOT / "src" / "memfabric").glob("*.py")}
    reached, todo = set(), [module]
    while todo:
        for _, imported, names in _memfabric_imports(todo.pop()):
            package, _, rest = imported.partition(".")
            if package != "memfabric":
                continue
            # from memfabric import X reaches module X, or the package's __init__.
            if rest:
                targets = {rest.partition(".")[0]}
            else:
                targets = {name if name in modules else "__init__" for name in names}
            todo += targets - reached
            reached |= targets
    return reached


# Each module's closure under memfabric imports. The definition (trace,
# fabric, scenario) imports nothing from the run, and verify_run's model of
# the run is written from the definition, not from the engine it checks: the
# oracle reaches the definition alone.
LAYERS = {
    "trace": set(),
    "fabric": set(),
    "scenario": {"fabric", "trace"},
    "engine": {"fabric", "scenario", "trace"},
    "oracle": {"fabric", "scenario", "trace"},
    "cli": {"engine", "fabric", "oracle", "scenario", "trace"},
}


def test_each_module_reaches_only_the_layers_below_it():
    modules = {path.stem for path in (ROOT / "src" / "memfabric").glob("*.py")}
    assert modules - {"__init__"} == set(LAYERS)
    assert {module: _import_closure(module) for module in LAYERS} == LAYERS


def test_the_fabric_and_its_signals_are_defined_in_the_engine_alone():
    # The simulation's layout (sim.fabric, sim.driver, sim.queue, sim.emit) and
    # the dispatch protocol, payload.fire(sim, tick), are known to one module.
    defined = {}
    for path in sorted((ROOT / "src" / "memfabric").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
            if node.name == "Fabric" or "fire" in methods:
                defined.setdefault(node.name, []).append(path.stem)
    signals = ("CpuEnable", "AutoEnable", "WordDone", "OverrideSet")
    assert defined == {name: ["engine"] for name in ("Fabric", *signals)}


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs_to_exit_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [*python_command(), str(ROOT / "demos" / demo)],
        capture_output=True,
        text=True,
        encoding="utf-8",
        env=env,
        cwd=ROOT,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_children_run_under_the_interpreter_flags_of_the_suite():
    # The demos and CLI subprocesses start through python_command, so CI's
    # -X and -W options (and any others) reach them.
    proc = subprocess.run(
        [*python_command(), "-c", "import sys; print(sys._xoptions, sys.warnoptions)"],
        capture_output=True,
        text=True,
        encoding="utf-8",
    )
    assert proc.stdout == f"{sys._xoptions} {sys.warnoptions}\n"
