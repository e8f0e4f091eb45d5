"""lightwake: accelerometer-driven light-sleep alarm engine and simulator.

A sleep session is split into fixed periods. Motion is condensed to one
scalar per sample pair (the Manhattan distance between consecutive
normalized acceleration vectors); every period but the last contributes its
maximum to a learned [t_min, t_max] band, and the first final-period delta
inside the band fires the alarm, otherwise it fires at the end of the
sleep time. Everything runs on a virtual clock, so multi-hour sessions
replay deterministically in seconds.

The package namespace holds the names the README and the demos use; every
other name is imported from its module (lightwake.detector, .engine,
.errors, .motion, .sinks, .sources).
"""

from .detector import Detector
from .engine import HOUR_NS, SessionConfig, run_session
from .errors import LightwakeError
from .motion import NS_PER_S, RawSample, manhattan_delta, normalize
from .sinks import (
    DEFAULT_ALARM_MELODY,
    export_period_charts,
    melody_to_wav,
    parse_melody,
    read_event_log,
    synthesize_melody,
)
from .sources import SleepModelParams, TraceHeader, generate_trace

__version__ = "0.1.0"

__all__ = [
    "Detector", "HOUR_NS", "SessionConfig", "run_session", "LightwakeError",
    "NS_PER_S", "RawSample", "manhattan_delta", "normalize",
    "DEFAULT_ALARM_MELODY", "export_period_charts", "melody_to_wav", "parse_melody",
    "read_event_log", "synthesize_melody",
    "SleepModelParams", "TraceHeader", "generate_trace",
]
