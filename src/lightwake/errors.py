"""Exception hierarchy shared by all lightwake modules."""


class LightwakeError(Exception):
    """Base class for every error raised by this package."""


# --- signal math ---------------------------------------------------------

class DegenerateSample(LightwakeError):
    """Acceleration vector too short to normalize (sensor fault, not stillness)."""


class OrderViolation(LightwakeError):
    """Timestamps in a source or handed to a stateful consumer went backwards or out of range."""


# --- detector ------------------------------------------------------------

class PhaseViolation(LightwakeError):
    """Detector operation called in a phase that does not allow it."""


# --- sources -------------------------------------------------------------

class ParseError(LightwakeError):
    """Malformed or out-of-range trace row or live protocol line.

    The message names the 1-based number of the offending trace or wire
    line; a live connection that breaks the protocol is dropped.
    """


class BindError(LightwakeError):
    """Live listener could not bind its address."""


# --- engine --------------------------------------------------------------

class ConfigInvalid(LightwakeError):
    """A SessionConfig, TraceHeader or SleepModelParams was built with a bad value,
    such as sleep < 2 * period or a rate outside 1..250 Hz."""


class SourceFailed(LightwakeError):
    """Sample source raised or broke timestamp order mid-session; the event log
    written so far, whole lines only, was flushed first."""


# --- sinks ---------------------------------------------------------------

class InvalidMelody(LightwakeError):
    """Melody text, notes or durations are unusable (empty, unparseable, out of range)."""


class MalformedLog(LightwakeError):
    """Event log is syntactically corrupt (not a truncation)."""
