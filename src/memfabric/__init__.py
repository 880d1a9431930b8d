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

from memfabric.engine import (
    Fabric,
    QUIESCENT,
    RunOutcome,
    RunResult,
    Simulation,
    TICK_LIMIT,
    build_simulation,
    run_scenario,
)
from memfabric.fabric import (
    DONE_DONE,
    DONE_ENABLE,
    FabricConfig,
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
    InvalidPlanError,
    OverrideDirective,
    ParseError,
    Probe,
    RehearsalPlan,
    Report,
    Scenario,
    ScenarioError,
    ValidationError,
    build_report,
    canonical_scenario,
    format_report,
    parse_scenario,
    write_report,
)
from memfabric.trace import (
    MalformedTraceError,
    TraceRecord,
    format_trace,
    parse_trace,
    write_trace,
)

__version__ = "0.1.0"

__all__ = [
    "DONE_DONE",
    "DONE_ENABLE",
    "EpisodeSummary",
    "Fabric",
    "FabricConfig",
    "InvalidConfigError",
    "InvalidPlanError",
    "MalformedTraceError",
    "OverrideDirective",
    "ParseError",
    "Probe",
    "QUIESCENT",
    "RehearsalPlan",
    "Report",
    "RunOutcome",
    "RunResult",
    "Scenario",
    "ScenarioError",
    "SelfPairError",
    "Simulation",
    "TICK_LIMIT",
    "TimelineEntry",
    "TraceRecord",
    "UnknownWordError",
    "ValidationError",
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
    "run_scenario",
    "shift_entries",
    "verify_run",
    "write_report",
    "write_trace",
]
