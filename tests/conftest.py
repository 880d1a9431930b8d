from __future__ import annotations

import copy
import pickle
import sys
import warnings

import pytest
from hypothesis import strategies as st

from memfabric import (
    QUIESCENT,
    TICK_LIMIT,
    RunOutcome,
    RunResult,
    Scenario,
    Simulation,
    build_simulation,
    parse_scenario,
    run_scenario,
)

# When a property test fails, Hypothesis imports hypothesis.extra._patching to
# report it, and that module imports libcst where libcst is installed. Some
# libcst versions warn (DeprecationWarning) at import; the suite makes warnings
# errors, so that import would end the session with an INTERNALERROR and leave
# the remaining tests unrun. Imported here once, with only its own warnings
# ignored, the module is already loaded when a property test fails.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: Hypothesis skips the report's patch itself
        pass

# Both directions of a 2-word cycle learned; the probe's replay reaches the
# open override on (2, 1) at t=141.
OVERRIDE_CYCLE = (
    "fabric words=2 delay1=5 delay2=1 threshold=2\n"
    "dur * 3\n"
    "rehearse 1 2 reps=2 gap=1 rest=10 start=0\n"
    "rehearse 2 1 reps=2 gap=1 rest=10 start=60\n"
    "at 120 override 2 1 open\n"
    "at 130 probe 1\n"
    "maxticks 2000\n"
)

# Probes of word 2 at t=3 and t=5 both land in word 1's window; with delay2=5
# the second fire of (1, 2) falls inside the refractory and shifts nothing.
REFRACTORY_FIRE = (
    "fabric words=3 delay1=5 delay2=5 threshold=3\n"
    "dur * 2\n"
    "at 0 probe 1\n"
    "at 3 probe 2\n"
    "at 5 probe 2\n"
    "maxticks 500\n"
)


# surrogateescape writes "\udcXX" as the lone byte 0xXX: a byte that starts
# no character, one that cannot start one, and a cut-off 3-byte character;
# then 2-, 3- and 4-byte characters, which no line of run's has.
ODD_CHARS = ["\udc80", "\udcff", "\udce2\udc82", "\u00e9", "\u20ac", "\U0001f600"]


@st.composite
def with_odd_chars(draw, texts, chars=ODD_CHARS) -> bytes:
    """A text of ``texts`` with up to two of ``chars`` put in, encoded."""
    text = draw(texts)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        where = draw(st.integers(min_value=0, max_value=len(text)))
        text = text[:where] + draw(st.sampled_from(chars)) + text[where:]
    return text.encode("utf-8", "surrogateescape")


def assert_every_path_checks(valid, field: str, bad, error: type[Exception]) -> None:
    """Every way to build a value of ``valid``'s type rejects ``bad`` as ``field``
    with ``error``: the constructor, ``_make``, ``_replace``, ``copy.replace``
    where it exists, and a pickle, copy or deep copy of a value built without
    the checks (by ``tuple.__new__``). A valid value comes through each unchanged."""
    cls, fields = type(valid), valid._asdict()
    bad_fields = {**fields, field: bad}
    invalid = tuple.__new__(cls, bad_fields.values())
    builds = [
        lambda: cls(**bad_fields),
        lambda: cls(*bad_fields.values()),
        lambda: cls._make(bad_fields.values()),
        lambda: valid._replace(**{field: bad}),
        lambda: pickle.loads(pickle.dumps(invalid)),
        lambda: copy.copy(invalid),
        lambda: copy.deepcopy(invalid),
    ]
    if hasattr(copy, "replace"):  # Python 3.13 on
        builds.append(lambda: copy.replace(valid, **{field: bad}))
    for build in builds:
        with pytest.raises(error):
            build()
    copies = [cls._make(valid), valid._replace(), pickle.loads(pickle.dumps(valid))]
    copies += [copy.copy(valid), copy.deepcopy(valid)]
    for same in copies:
        assert type(same) is cls and same == valid


def python_command() -> list[str]:
    """This interpreter with its own -X and -W options, to start a child under
    the flags the suite runs with (CI's -X dev -X warn_default_encoding -W error)."""
    command = [sys.executable]
    for key, value in sys._xoptions.items():
        command += ["-X", key if value is True else f"{key}={value}"]
    return command + [f"-W{option}" for option in sys.warnoptions]


def run_text(text: str, **kwargs) -> RunResult:
    return run_scenario(parse_scenario(text), **kwargs)


def simulation(config, *, plans=(), probes=(), overrides=()) -> Simulation:
    """A simulation of ``config`` and the parts given, built as every run is:
    through a checked :class:`Scenario` and ``build_simulation``. The scenario's
    tick limit is never read; a test passes its own to ``run_to_quiescence``."""
    return build_simulation(Scenario(config, plans, probes, overrides, max_tick=10**9))


def step_until(sim, max_tick: int) -> tuple[RunOutcome, int]:
    """Dispatch with a loop of the caller's own over ``Simulation.step()``, as the
    per-layer benchmark does; return the outcome and the number of events stepped."""
    steps = 0
    while (tick := sim.queue.peek_tick()) is not None and tick <= max_tick:
        steps += sim.step() is not None
    return RunOutcome(QUIESCENT if tick is None else TICK_LIMIT, sim.clock), steps


def records_of(result: RunResult, ev: str):
    return [rec for rec in result.records if rec.ev == ev]


@pytest.fixture
def worked_example_text() -> str:
    return (
        "fabric words=3 delay1=5 delay2=1 threshold=10\n"
        "dur * 4\n"
        "rehearse 1 3 2 reps=10 gap=2 rest=20 start=0\n"
        "at 500 probe 1\n"
        "maxticks 2000\n"
    )
