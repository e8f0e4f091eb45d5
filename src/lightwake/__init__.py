"""lightwake: accelerometer-driven light-sleep alarm engine and simulator.

A sleep session is split into fixed periods. Motion is condensed to one
scalar per sample pair (the Manhattan distance between consecutive
normalized acceleration vectors); every period but the last contributes its
maximum to a learned [t_min, t_max] band, and the first final-period delta
inside the band fires the alarm, otherwise it fires at the end of the
sleep time. Everything runs on a virtual clock, so multi-hour sessions
replay deterministically in seconds.
"""

from .detector import (
    AlarmTrigger,
    Detector,
    DetectorOutcome,
    DetectorSnapshot,
    Phase,
    SleepStage,
    ThresholdState,
    classify,
)
from .engine import (
    HOUR_NS,
    MINUTE_NS,
    SessionConfig,
    SessionEvent,
    SessionResult,
    run_session,
)
from .errors import (
    BindError,
    ConfigInvalid,
    DegenerateSample,
    InvalidMelody,
    InvalidParams,
    InvalidThresholds,
    LightwakeError,
    MalformedLog,
    OrderViolation,
    ParseError,
    PhaseViolation,
    SourceFailed,
)
from .motion import (
    MAX_DELTA,
    NS_PER_S,
    MotionDelta,
    NormalizedSample,
    RawSample,
    euclidean_norm,
    manhattan_delta,
    normalize,
)
from .sinks import (
    DEFAULT_ALARM_MELODY,
    Melody,
    export_period_charts,
    melody_to_wav,
    parse_melody,
    read_event_log,
    synthesize_melody,
    write_wav,
)
from .sources import (
    SleepModelParams,
    TraceHeader,
    generate_trace,
    listen_live,
    read_trace,
    write_trace,
)

__version__ = "0.1.0"

__all__ = [
    "AlarmTrigger", "Detector", "DetectorOutcome",
    "DetectorSnapshot", "Phase", "SleepStage", "ThresholdState", "classify",
    "HOUR_NS", "MINUTE_NS", "NS_PER_S", "SessionConfig", "SessionEvent",
    "SessionResult", "run_session",
    "BindError", "ConfigInvalid", "DegenerateSample", "InvalidMelody",
    "InvalidParams", "InvalidThresholds", "LightwakeError", "MalformedLog",
    "OrderViolation", "ParseError", "PhaseViolation", "SourceFailed",
    "MAX_DELTA", "MotionDelta", "NormalizedSample", "RawSample",
    "euclidean_norm", "manhattan_delta", "normalize",
    "DEFAULT_ALARM_MELODY", "Melody", "export_period_charts", "melody_to_wav",
    "parse_melody", "read_event_log", "synthesize_melody", "write_wav",
    "SleepModelParams", "TraceHeader", "generate_trace", "listen_live",
    "read_trace", "write_trace",
]
