"""Per-session threshold learning and the light-sleep alarm decision.

The session of length S is divided into fixed periods of length P (half
open: period k covers [k*P, (k+1)*P)). Every period except the last is a
learning period: the detector records the maximum motion delta of each one
in an array, keeps

    t_max = running maximum over every learning delta seen so far
            (raised immediately whenever a larger value arrives),
    t_min = minimum of the per-period maxima recorded so far,

and freezes both on entry to the final period. During the final period each
delta A is classified

    NREM  if t_min <= A <= t_max   (bounds inclusive)
    REM   otherwise

and the first NREM delta fires the alarm; if none arrives, finalize() fires
it at the end of the sleep time.

The phase is not stored: it follows from the period index and the outcome.
The detector is learning while the index is below the final period's, in
the final period once it reaches it, and done once it holds an outcome.
Transitions are strictly forward:

    Learning(0) -> ... -> Learning(k) -> FinalPeriod -> AlarmFired

The detector owns the session clock: only advance_to(t_ns) moves it and
crosses period boundaries, so a source that goes quiet cannot stall the
state machine, and ingest(value) feeds the delta at that clock. A learning
period that saw no deltas contributes no entry to the maxima array (it
does not drag t_min to zero).

learn(times, values) feeds a run of learning deltas in one call, with the
same records and state as advance_to(t) then ingest(value) for each pair.
It checks that the run belongs to the current learning period: the phase
is learning (else PhaseViolation), and the times increase strictly, start
after the last delta and at or after the clock, and end before
learning_end_ns, so that no period boundary falls inside the run (else
OrderViolation). Crossing a boundary stays advance_to's job.

Every transition is written as an event-log record through the emit
callable the detector is given, emit(t_ns, kind, **fields): PeriodClosed
and, when the band moved, ThresholdsUpdated at each period boundary;
ThresholdsUpdated when a delta raises t_max; FinalPeriodEntered;
StageClassified for each final-period delta; AlarmFired. A detector built
without emit discards them.

A Detector instance is single-writer: advance_to/ingest/finalize must be
called from one logical stream. Instances are independent, so any
number of sessions may run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import lt
from typing import Any, Callable

from .errors import ConfigInvalid, OrderViolation, PhaseViolation

PERIOD_CLOSED = "PeriodClosed"
THRESHOLDS_UPDATED = "ThresholdsUpdated"
FINAL_PERIOD_ENTERED = "FinalPeriodEntered"
STAGE_CLASSIFIED = "StageClassified"
ALARM_FIRED = "AlarmFired"

# Every period costs a PeriodClosed record, a maxima entry and a chart file;
# an 8 h night of one-minute periods has 480.
MAX_PERIODS = 10_000

Emit = Callable[..., None]
"""Record sink, called as emit(t_ns, kind, **fields) with fields in log order."""


class AlarmTrigger(Enum):
    THRESHOLD_HIT = "ThresholdHit"
    SESSION_END = "SessionEnd"


@dataclass(frozen=True, slots=True)
class ThresholdState:
    """Learned model: per-period maxima plus the derived band.

    t_max, when present, never decreases over a session; t_min always equals
    min(period_maxima). Both are None until the first learning delta or the
    first completed period, respectively.
    """

    period_maxima: tuple[float, ...]
    t_min: float | None
    t_max: float | None


@dataclass(frozen=True, slots=True)
class DetectorOutcome:
    """Terminal result of a session: when and why the alarm fired.

    trigger_delta is the in-band delta value for THRESHOLD_HIT and None for
    SESSION_END.
    """

    alarm_time_ns: int
    trigger: AlarmTrigger
    trigger_delta: float | None
    final_thresholds: ThresholdState


@dataclass(frozen=True, slots=True)
class Advance:
    """Timer transitions performed while moving the detector clock forward.

    closes holds the indices of the learning periods closed on the way.
    """

    closes: tuple[int, ...]
    final_entry_ns: int | None


_NO_ADVANCE = Advance(closes=(), final_entry_ns=None)


def _discard(t_ns: int, kind: str, **fields: Any) -> None:
    pass


def validate_session_shape(sleep_duration_ns: int, period_length_ns: int) -> int:
    """Return the period count (the last may be short); raise ConfigInvalid unless the
    session holds a learning period plus the final one, and at most MAX_PERIODS in all."""
    if period_length_ns <= 0:
        raise ConfigInvalid(f"period length must be positive, got {period_length_ns} ns")
    if sleep_duration_ns < 2 * period_length_ns:
        raise ConfigInvalid(
            f"sleep duration {sleep_duration_ns} ns leaves no room for a learning "
            f"period plus the final one (need >= {2 * period_length_ns} ns)"
        )
    n_periods = -(-sleep_duration_ns // period_length_ns)
    if n_periods > MAX_PERIODS:
        raise ConfigInvalid(f"session of {n_periods} periods exceeds the limit of {MAX_PERIODS}")
    return n_periods


class Detector:
    """Stateful session detector; see the module docstring for semantics."""

    def __init__(self, sleep_duration_ns: int, period_length_ns: int,
                 emit: Emit | None = None):
        # Index of the last period; it may be shorter than P when the sleep
        # duration is not an exact multiple.
        self.final_period_index = validate_session_shape(sleep_duration_ns, period_length_ns) - 1
        self._emit = _discard if emit is None else emit
        self.sleep_duration_ns = sleep_duration_ns
        self.period_length_ns = period_length_ns

        self._period_index = 0
        self._outcome: DetectorOutcome | None = None
        self._period_maxima: list[float] = []
        self._period_max: float | None = None  # of the current learning period
        self._t_min: float | None = None
        self._t_max: float | None = None
        self._clock_ns = 0
        self._last_delta_ns = -1

    # -- timer ------------------------------------------------------------

    def advance_to(self, t_ns: int) -> Advance:
        """Move the detector clock to t_ns, closing any periods it crosses.

        Emits the transitions it performs. Idempotent for equal timestamps.
        Raises OrderViolation when t_ns moves backwards or beyond the sleep
        duration, PhaseViolation after the alarm has fired.
        """
        if self._outcome is not None:
            raise PhaseViolation("cannot advance a detector whose alarm already fired")
        if t_ns < self._clock_ns:
            raise OrderViolation(f"clock moved backwards: {t_ns} ns < {self._clock_ns} ns")
        if t_ns > self.sleep_duration_ns:
            raise OrderViolation(
                f"t={t_ns} ns is beyond the session end at {self.sleep_duration_ns} ns"
            )
        self._clock_ns = t_ns
        target_index = min(t_ns // self.period_length_ns, self.final_period_index)
        if self._period_index == target_index:
            return _NO_ADVANCE
        first = self._period_index
        while self._period_index < target_index:
            self._close_current_period()
            self._period_index += 1
        final_entry_ns: int | None = None
        if target_index == self.final_period_index:
            final_entry_ns = target_index * self.period_length_ns
            self._emit(final_entry_ns, FINAL_PERIOD_ENTERED)
        return Advance(closes=tuple(range(first, target_index)), final_entry_ns=final_entry_ns)

    def _close_current_period(self) -> None:
        period_max = self._period_max
        self._period_max = None
        boundary_ns = (self._period_index + 1) * self.period_length_ns
        self._emit(boundary_ns, PERIOD_CLOSED, index=self._period_index, period_max=period_max)
        if period_max is not None:
            self._period_maxima.append(period_max)
            if self._t_min is None or period_max < self._t_min:
                self._t_min = period_max
                self._emit(boundary_ns, THRESHOLDS_UPDATED, t_min=self._t_min, t_max=self._t_max)

    # -- stream -----------------------------------------------------------

    def ingest(self, value: float) -> DetectorOutcome | None:
        """Feed one motion delta at the detector clock; returns the outcome if it fired.

        One delta per clock tick, none at the session end. Learning phase:
        updates the running period max and raises t_max. Final phase:
        classifies the delta against the frozen band and fires the alarm on
        the first NREM hit.
        """
        if self._outcome is not None:
            raise PhaseViolation("detector already fired; no further deltas may be ingested")
        t_ns = self._clock_ns
        if not self._last_delta_ns < t_ns < self.sleep_duration_ns:
            raise OrderViolation(f"clock at t={t_ns} ns: it holds a delta already or is the "
                                 f"session end; advance_to the next sample first")
        self._last_delta_ns = t_ns

        if self._period_index < self.final_period_index:
            self._learn((t_ns,), (value,))
            return None

        # Final period: the band is frozen. Every learning period is closed,
        # so t_min and t_max are both set or, with no learning data at all,
        # both None: an empty band that nothing can hit.
        if self._t_min is None or self._t_max is None:
            return None
        if not self._t_min <= value <= self._t_max:
            self._emit(t_ns, STAGE_CLASSIFIED, stage="REM", value=value)
            return None
        self._emit(t_ns, STAGE_CLASSIFIED, stage="NREM", value=value)
        return self._fire(t_ns, AlarmTrigger.THRESHOLD_HIT, value)

    @property
    def learning_end_ns(self) -> int:
        """End of the current learning period, or 0 once learning is over."""
        if self._period_index < self.final_period_index:
            return (self._period_index + 1) * self.period_length_ns
        return 0

    def learn(self, times: list[int], values: list[float]) -> None:
        """Feed learning deltas values[i] at times[i], all inside the current period.

        The same as advance_to(t) then ingest(value) for each pair in turn;
        see the module docstring for the checks.
        """
        end = self.learning_end_ns
        if not end:
            raise PhaseViolation("learn takes learning deltas only; final-period ones go to ingest")
        if len(times) != len(values):
            raise ValueError(f"{len(times)} times for {len(values)} values")
        if not times:
            return
        if not (self._last_delta_ns < times[0] and self._clock_ns <= times[0]
                and times[-1] < end and all(map(lt, times, times[1:]))):
            raise OrderViolation(f"deltas at {times[0]}..{times[-1]} ns do not increase strictly "
                                 f"from the clock at {self._clock_ns} ns to before the period "
                                 f"end at {end} ns")
        self._clock_ns = self._last_delta_ns = times[-1]
        self._learn(times, values)

    def _learn(self, times, values) -> None:
        top = max(values)
        if self._period_max is None or top > self._period_max:
            self._period_max = top
        if self._t_max is None or top > self._t_max:
            if self._emit is not _discard:
                # t_max rises at each delta above all before it, up to the run's largest.
                t_max = self._t_max
                for t_ns, value in zip(times, values[:values.index(top) + 1]):
                    if t_max is None or value > t_max:
                        t_max = value
                        self._emit(t_ns, THRESHOLDS_UPDATED, t_min=self._t_min, t_max=value)
            self._t_max = top

    def finalize(self) -> DetectorOutcome:
        """Fire the fallback alarm at the end of the sleep time.

        Moves the clock to the session end first, so any learning periods
        left are closed and the final one is entered; raises PhaseViolation
        after the alarm fired.
        """
        self.advance_to(self.sleep_duration_ns)
        return self._fire(self.sleep_duration_ns, AlarmTrigger.SESSION_END, None)

    def _fire(self, t_ns: int, trigger: AlarmTrigger, value: float | None) -> DetectorOutcome:
        if value is None:
            self._emit(t_ns, ALARM_FIRED, trigger=trigger.value)
        else:
            self._emit(t_ns, ALARM_FIRED, trigger=trigger.value, value=value)
        self._outcome = DetectorOutcome(
            alarm_time_ns=t_ns,
            trigger=trigger,
            trigger_delta=value,
            final_thresholds=ThresholdState(tuple(self._period_maxima), self._t_min, self._t_max),
        )
        return self._outcome
