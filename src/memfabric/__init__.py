"""memfabric: deterministic simulation of a sequence-learning memory fabric.

Memory words execute on an enable signal and report a done signal.
Per-pair timing filters watch for one word triggering within a hold
window of another word's done; after a configurable number of such
coincidences an n-stage set-once register fills and the pair is
learned. From then on the fabric replays the connection on its own:
every done of the predecessor schedules the successor's enable a
fixed delay later, with no CPU involvement. A scripted CPU rehearses
sequences and probes words; a brute-force oracle independently
recounts detections and predicts replay timelines for verification.
"""

from memfabric.driver import Driver, InvalidPlanError, Probe, RehearsalPlan
from memfabric.engine import (
    AutoEnable,
    CpuEnable,
    Event,
    EventQueue,
    OverrideSet,
    QUIESCENT,
    RunOutcome,
    RunResult,
    SchedulingInPastError,
    Simulation,
    TICK_LIMIT,
    WordDone,
    build_simulation,
    run_scenario,
)
from memfabric.fabric import (
    DONE_DONE,
    DONE_ENABLE,
    Episode,
    Fabric,
    FabricConfig,
    FilterState,
    InvalidConfigError,
    SelfPairError,
    UnknownWordError,
)
from memfabric.oracle import (
    TimelineEntry,
    count_detections,
    detection_ticks,
    episode_subtrace,
    predict_learned,
    predict_timeline,
    shift_entries,
    verify_run,
)
from memfabric.scenario import (
    EpisodeSummary,
    OverrideDirective,
    ParseError,
    Report,
    Scenario,
    ScenarioError,
    ValidationError,
    build_report,
    canonical_scenario,
    format_report,
    parse_scenario,
    read_scenario,
    write_report,
)
from memfabric.trace import (
    MalformedTraceError,
    TraceRecord,
    format_trace,
    parse_trace,
    read_trace,
    write_trace,
)

__version__ = "0.1.0"

__all__ = [
    "AutoEnable",
    "CpuEnable",
    "DONE_DONE",
    "DONE_ENABLE",
    "Driver",
    "Episode",
    "EpisodeSummary",
    "Event",
    "EventQueue",
    "Fabric",
    "FabricConfig",
    "FilterState",
    "InvalidConfigError",
    "InvalidPlanError",
    "MalformedTraceError",
    "OverrideDirective",
    "OverrideSet",
    "ParseError",
    "Probe",
    "QUIESCENT",
    "RehearsalPlan",
    "Report",
    "RunOutcome",
    "RunResult",
    "Scenario",
    "ScenarioError",
    "SchedulingInPastError",
    "SelfPairError",
    "Simulation",
    "TICK_LIMIT",
    "TimelineEntry",
    "TraceRecord",
    "UnknownWordError",
    "ValidationError",
    "WordDone",
    "build_report",
    "build_simulation",
    "canonical_scenario",
    "count_detections",
    "detection_ticks",
    "episode_subtrace",
    "format_report",
    "format_trace",
    "parse_scenario",
    "parse_trace",
    "predict_learned",
    "predict_timeline",
    "read_scenario",
    "read_trace",
    "run_scenario",
    "shift_entries",
    "verify_run",
    "write_report",
    "write_trace",
]
