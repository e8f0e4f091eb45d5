from typing import NamedTuple

import numpy as np
import pytest

from lightwake import Detector
from lightwake.detector import (
    ALARM_FIRED,
    FINAL_PERIOD_ENTERED,
    MAX_PERIODS,
    PERIOD_CLOSED,
    STAGE_CLASSIFIED,
    THRESHOLDS_UPDATED,
    AlarmTrigger,
    ThresholdState,
)
from lightwake.errors import ConfigInvalid, OrderViolation, PhaseViolation

NS = 1_000_000_000
P = 60 * NS  # one-minute periods keep the arithmetic readable


class Records(list):
    """emit target that keeps every record as (t_ns, kind, fields)."""

    def __call__(self, t_ns, kind, **fields):
        self.append((t_ns, kind, fields))

    def of(self, kind):
        return [(t_ns, fields) for t_ns, k, fields in self if k == kind]


class Delta(NamedTuple):
    """A motion delta and the session time of the sample it ends at."""

    t_ns: int
    value: float


def d(t_s: float, value: float) -> Delta:
    return Delta(int(t_s * NS), value)


def step(det: Detector, delta: Delta):
    """Feed one delta the way run_session does: clock first, then ingest."""
    det.advance_to(delta.t_ns)
    return det.ingest(delta.value)


def feed_periods(det: Detector, period_values: list[list[float]], period_ns: int = P):
    """Ingest each period's values at 1 s spacing from its start."""
    outcomes = []
    for k, values in enumerate(period_values):
        for i, value in enumerate(values):
            outcomes.append(step(det, Delta(k * period_ns + (i + 1) * NS, value)))
    return outcomes


class TestConstruction:
    def test_eight_hour_session(self):
        records = Records()
        det = Detector(8 * 3600 * NS, 3600 * NS, emit=records)
        assert det.final_period_index == 7  # 7 learning periods + 1 final
        assert records == []
        outcome = det.finalize()
        assert outcome.final_thresholds == ThresholdState(period_maxima=(), t_min=None, t_max=None)
        assert [f["index"] for _, f in records.of(PERIOD_CLOSED)] == list(range(7))

    def test_minimum_legal_session(self):
        det = Detector(2 * 3600 * NS, 3600 * NS)
        assert det.final_period_index == 1

    def test_too_short(self):
        with pytest.raises(ConfigInvalid):
            Detector(30 * 60 * NS, 3600 * NS)
        with pytest.raises(ConfigInvalid):
            Detector(2 * 3600 * NS, 0)
        with pytest.raises(ConfigInvalid):
            Detector(10_001 * P, P)
        assert Detector(10_000 * P, P).final_period_index == 9_999

    def test_short_final_period_allowed(self):
        det = Detector(int(2.5 * 3600 * NS), 3600 * NS)
        assert det.final_period_index == 2


class TestClassify:
    """Band edges, as the StageClassified record of one final-period delta."""

    def classify(self, value: float) -> str:
        records = Records()
        det = Detector(3 * P, P, emit=records)
        feed_periods(det, [[1.662], [0.497]])  # band [0.497, 1.662]
        t_ns = 2 * P + NS
        outcome = step(det, Delta(t_ns, value))
        (t, fields), = records.of(STAGE_CLASSIFIED)
        assert t == t_ns and fields["value"] == value
        assert (outcome is not None) == (fields["stage"] == "NREM")
        return fields["stage"]

    def test_paper_alarm_value(self):
        assert self.classify(1.016) == "NREM"

    def test_below_band(self):
        assert self.classify(0.3) == "REM"

    def test_bounds_inclusive(self):
        assert self.classify(0.497) == "NREM"
        assert self.classify(1.662) == "NREM"

    def test_above_band(self):
        assert self.classify(1.9) == "REM"


class TestLearning:
    def test_spec_fixture_thresholds(self):
        # t_max rises at a period's delta, t_min falls when its period closes.
        descending = [2.0 - k / 8192 for k in range(MAX_PERIODS - 1)]
        for maxima, updates in (
            ([0.9, 1.1, 0.8, 1.662, 0.497, 1.2, 0.75],
             [(NS, None, 0.9), (P, 0.9, 0.9), (P + NS, 0.9, 1.1), (3 * P, 0.8, 1.1),
              (3 * P + NS, 0.8, 1.662), (5 * P, 0.497, 1.662)]),
            # Every close lowers t_min, over the most periods a session may hold.
            (descending,
             [(NS, None, 2.0)] + [((k + 1) * P, value, 2.0) for k, value in enumerate(descending)]),
        ):
            n = len(maxima)
            records = Records()
            det = Detector((n + 1) * P, P, emit=records)
            feed_periods(det, [[value] for value in maxima])
            det.advance_to(n * P)
            assert records.of(PERIOD_CLOSED) == [
                ((k + 1) * P, {"index": k, "period_max": value}) for k, value in enumerate(maxima)]
            assert records.of(THRESHOLDS_UPDATED) == [
                (t_ns, {"t_min": t_min, "t_max": t_max}) for t_ns, t_min, t_max in updates]
            assert records.of(FINAL_PERIOD_ENTERED) == [(n * P, {})]
            assert records[-1][1] == FINAL_PERIOD_ENTERED
            assert det.finalize().final_thresholds == ThresholdState(
                tuple(maxima), min(maxima), max(maxima))

    def test_single_period_min_equals_max(self):
        records = Records()
        det = Detector(8 * P, P, emit=records)
        step(det, d(10, 0.9))
        det.advance_to(P)
        assert records == [
            (10 * NS, THRESHOLDS_UPDATED, {"t_min": None, "t_max": 0.9}),
            (P, PERIOD_CLOSED, {"index": 0, "period_max": 0.9}),
            (P, THRESHOLDS_UPDATED, {"t_min": 0.9, "t_max": 0.9}),
        ]
        assert det.finalize().final_thresholds == ThresholdState((0.9,), 0.9, 0.9)

    def test_t_max_raised_immediately_not_at_close(self):
        records = Records()
        det = Detector(8 * P, P, emit=records)
        assert step(det, d(1, 0.4)) is None
        assert records == [(1 * NS, THRESHOLDS_UPDATED, {"t_min": None, "t_max": 0.4})]
        step(det, d(2, 0.2))
        assert len(records) == 1  # no raise, no record
        step(det, d(3, 0.7))
        assert records[-1] == (3 * NS, THRESHOLDS_UPDATED, {"t_min": None, "t_max": 0.7})
        assert records.of(PERIOD_CLOSED) == []  # t_min stays None: no period closed yet

    def test_empty_period_contributes_nothing(self):
        records = Records()
        det = Detector(8 * P, P, emit=records)
        step(det, d(10, 0.5))            # period 0
        del records[:]
        advance = det.advance_to(int((2 * 60 + 5) * NS))  # skips period 1 entirely
        assert advance.closes == (0, 1) and advance.final_entry_ns is None
        assert records == [
            (P, PERIOD_CLOSED, {"index": 0, "period_max": 0.5}),
            (P, THRESHOLDS_UPDATED, {"t_min": 0.5, "t_max": 0.5}),
            (2 * P, PERIOD_CLOSED, {"index": 1, "period_max": None}),
        ]
        det.ingest(0.8)
        assert records[-1] == ((2 * 60 + 5) * NS, THRESHOLDS_UPDATED, {"t_min": 0.5, "t_max": 0.8})
        assert det.finalize().final_thresholds == ThresholdState((0.5, 0.8), 0.5, 0.8)

    def test_boundary_delta_belongs_to_new_period(self):
        records = Records()
        det = Detector(8 * P, P, emit=records)
        step(det, d(30, 0.5))
        del records[:]
        step(det, Delta(P, 0.9))  # exactly on the boundary
        assert records == [
            (P, PERIOD_CLOSED, {"index": 0, "period_max": 0.5}),
            (P, THRESHOLDS_UPDATED, {"t_min": 0.5, "t_max": 0.5}),
            (P, THRESHOLDS_UPDATED, {"t_min": 0.5, "t_max": 0.9}),
        ]
        det.advance_to(2 * P)
        assert records[-1] == (2 * P, PERIOD_CLOSED, {"index": 1, "period_max": 0.9})

    def test_advance_emits_final_entry_once(self):
        records = Records()
        det = Detector(3 * P, P, emit=records)
        adv = det.advance_to(2 * P)
        assert adv.closes == (0, 1)
        assert adv.final_entry_ns == 2 * P
        assert records == [
            (P, PERIOD_CLOSED, {"index": 0, "period_max": None}),
            (2 * P, PERIOD_CLOSED, {"index": 1, "period_max": None}),
            (2 * P, FINAL_PERIOD_ENTERED, {}),
        ]
        again = det.advance_to(2 * P + NS)
        assert again.closes == () and again.final_entry_ns is None
        assert len(records) == 3


class TestFinalPeriod:
    def build(self, records=None) -> Detector:
        det = Detector(8 * P, P, emit=records)
        feed_periods(det, [[0.9], [1.1], [0.8], [0.75], [1.662], [0.497], [1.2]])
        det.advance_to(7 * P)
        if records is not None:
            assert records[-2:] == [(7 * P, PERIOD_CLOSED, {"index": 6, "period_max": 1.2}),
                                    (7 * P, FINAL_PERIOD_ENTERED, {})]
            del records[:]
        return det

    def test_first_hit_fires_and_seals(self):
        records = Records()
        det = self.build(records)
        assert step(det, d(7 * 60 + 1, 0.2)) is None
        assert step(det, d(7 * 60 + 2, 0.31)) is None
        outcome = step(det, d(7 * 60 + 3, 1.016))
        assert outcome is not None
        assert outcome.trigger is AlarmTrigger.THRESHOLD_HIT
        assert outcome.alarm_time_ns == (7 * 60 + 3) * NS
        assert outcome.trigger_delta == 1.016
        assert outcome.final_thresholds.t_min == 0.497
        assert outcome.final_thresholds.t_max == 1.662
        hit_ns = (7 * 60 + 3) * NS
        assert records[-2:] == [
            (hit_ns, STAGE_CLASSIFIED, {"stage": "NREM", "value": 1.016}),
            (hit_ns, ALARM_FIRED, {"trigger": "ThresholdHit", "value": 1.016}),
        ]
        assert [f["stage"] for _, f in records.of(STAGE_CLASSIFIED)] == ["REM", "REM", "NREM"]
        with pytest.raises(PhaseViolation):
            det.ingest(1.0)
        with pytest.raises(PhaseViolation):
            det.advance_to((7 * 60 + 4) * NS)
        assert len(records.of(ALARM_FIRED)) == 1

    def test_out_of_band_classified_rem_both_sides(self):
        records = Records()
        det = self.build(records)
        assert step(det, d(7 * 60 + 1, 0.1)) is None
        assert step(det, d(7 * 60 + 2, 2.5)) is None
        assert records == [
            ((7 * 60 + 1) * NS, STAGE_CLASSIFIED, {"stage": "REM", "value": 0.1}),
            ((7 * 60 + 2) * NS, STAGE_CLASSIFIED, {"stage": "REM", "value": 2.5}),
        ]

    def test_session_end_fallback(self):
        records = Records()
        det = self.build(records)
        step(det, d(7 * 60 + 1, 0.1))
        outcome = det.finalize()
        assert outcome.trigger is AlarmTrigger.SESSION_END
        assert outcome.alarm_time_ns == 8 * P
        assert outcome.trigger_delta is None
        assert records[-1] == (8 * P, ALARM_FIRED, {"trigger": "SessionEnd"})

    def test_empty_final_period(self):
        records = Records()
        det = Detector(8 * P, P, emit=records)
        step(det, d(10, 0.5))    # learning data only
        outcome = det.finalize()  # source exhausted; clock jumps to session end
        assert outcome.trigger is AlarmTrigger.SESSION_END
        assert outcome.final_thresholds.t_min == 0.5
        assert [f["index"] for _, f in records.of(PERIOD_CLOSED)] == list(range(7))
        assert records[-2:] == [(7 * P, FINAL_PERIOD_ENTERED, {}),
                                (8 * P, ALARM_FIRED, {"trigger": "SessionEnd"})]
        assert records.of(STAGE_CLASSIFIED) == []

    def test_finalize_from_learning_closes_periods_then_fires_at_sleep_end(self):
        records = Records()
        det = Detector(8 * P, P, emit=records)
        step(det, d(2 * 60 + 1, 0.5))  # Learning(2)
        outcome = det.finalize()
        assert outcome.trigger is AlarmTrigger.SESSION_END
        assert outcome.alarm_time_ns == 8 * P
        assert outcome.final_thresholds == ThresholdState((0.5,), 0.5, 0.5)
        assert records.of(PERIOD_CLOSED) == [
            ((k + 1) * P, {"index": k, "period_max": 0.5 if k == 2 else None}) for k in range(7)]
        assert records[-2:] == [(7 * P, FINAL_PERIOD_ENTERED, {}),
                                (8 * P, ALARM_FIRED, {"trigger": "SessionEnd"})]

    def test_finalize_twice_is_phase_violation(self):
        records = Records()
        det = self.build(records)
        det.finalize()
        with pytest.raises(PhaseViolation):
            det.finalize()
        assert len(records.of(ALARM_FIRED)) == 1

    def test_no_learning_data_never_hits(self):
        records = Records()
        det = Detector(3 * P, P, emit=records)
        det.advance_to(2 * P)
        assert step(det, d(2 * 60 + 1, 0.0)) is None
        assert records.of(STAGE_CLASSIFIED) == []
        outcome = det.finalize()
        assert outcome.trigger is AlarmTrigger.SESSION_END
        assert outcome.final_thresholds.t_min is None
        assert records.of(THRESHOLDS_UPDATED) == []
        assert records[-1] == (3 * P, ALARM_FIRED, {"trigger": "SessionEnd"})

    def test_degenerate_band_exact_match_only(self):
        records = Records()
        det = Detector(2 * P, P, emit=records)
        step(det, d(10, 0.6))
        assert step(det, d(60 + 1, 0.59)) is None
        assert records[-1] == ((60 + 1) * NS, STAGE_CLASSIFIED, {"stage": "REM", "value": 0.59})
        hit = step(det, d(60 + 2, 0.6))
        assert hit is not None
        assert hit.trigger is AlarmTrigger.THRESHOLD_HIT
        assert records[-1] == ((60 + 2) * NS, ALARM_FIRED, {"trigger": "ThresholdHit", "value": 0.6})


class TestOrdering:
    def test_non_monotone_delta_rejected(self):
        det = Detector(8 * P, P)
        step(det, d(10, 0.5))
        with pytest.raises(OrderViolation):
            det.ingest(0.6)  # a second delta at the same clock tick
        with pytest.raises(OrderViolation):
            step(det, d(5, 0.6))
        assert step(det, d(11, 0.6)) is None

    def test_ingest_requires_clock_at_delta(self):
        records = Records()
        det = Detector(8 * P, P, emit=records)
        det.advance_to(20 * NS)
        assert records == []
        assert det.ingest(0.5) is None  # the delta lands at the clock: ingest never moves it
        assert records == [(20 * NS, THRESHOLDS_UPDATED, {"t_min": None, "t_max": 0.5})]
        with pytest.raises(OrderViolation):
            det.ingest(0.7)
        det.advance_to(P + 30 * NS)
        det.ingest(0.7)
        assert records[-1] == (P + 30 * NS, THRESHOLDS_UPDATED, {"t_min": 0.5, "t_max": 0.7})

    def test_delta_beyond_session_rejected(self):
        det = Detector(2 * P, P)
        det.advance_to(2 * P)
        with pytest.raises(OrderViolation):
            det.ingest(0.5)  # the clock may reach sleep_ns, a delta may not

    def test_clock_cannot_move_backwards_or_past_end(self):
        det = Detector(2 * P, P)
        det.advance_to(90 * NS)
        with pytest.raises(OrderViolation):
            det.advance_to(80 * NS)
        with pytest.raises(OrderViolation):
            det.advance_to(2 * P + 1)

    def test_learn_checks_its_run(self):
        det = Detector(3 * P, P)
        det.learn([], [])
        det.learn([10 * NS, 20 * NS], [0.5, 0.7])
        with pytest.raises(OrderViolation):
            det.learn([20 * NS], [0.1])  # not after the last delta
        with pytest.raises(OrderViolation):
            det.learn([30 * NS, 30 * NS], [0.1, 0.2])  # not strictly increasing
        with pytest.raises(OrderViolation):
            det.learn([50 * NS, P], [0.1, 0.2])  # the period boundary lies inside the run
        with pytest.raises(ValueError):
            det.learn([30 * NS], [0.1, 0.2])
        det.advance_to(P + 30 * NS)
        with pytest.raises(OrderViolation):
            det.learn([P + 20 * NS], [0.1])  # before the clock
        assert det.learning_end_ns == 2 * P
        det.advance_to(2 * P)
        assert det.learning_end_ns == 0
        with pytest.raises(PhaseViolation):
            det.learn([2 * P + NS], [0.6])
        assert det.finalize().final_thresholds == ThresholdState((0.7,), 0.7, 0.7)


class TestRandomizedProperties:
    def random_stream(self, rng, n_periods=6, period_ns=P):
        """Deltas at random grid times with random values, plus the brute map."""
        deltas = []
        per_period: dict[int, list[float]] = {}
        for k in range(n_periods):
            count = int(rng.integers(0, 12))
            offsets = np.sort(rng.choice(np.arange(1, 59), size=count, replace=False))
            for off, value in zip(offsets.tolist(),
                                  rng.uniform(0.0, 3.0, size=count).tolist()):
                deltas.append(Delta(k * period_ns + off * NS, value))
                per_period.setdefault(k, []).append(value)
        return deltas, per_period

    def test_min_of_maxima_against_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            deltas, per_period = self.random_stream(rng)
            records = Records()
            det = Detector(6 * P, P, emit=records)
            outcome = None
            for delta in deltas:
                outcome = step(det, delta)
                if outcome is not None:
                    break
            else:
                outcome = det.finalize()
            learning = {k: v for k, v in per_period.items() if k < 5}
            expected_t_min = min(max(vs) for vs in learning.values()) if learning else None
            expected_t_max = max(v for vs in learning.values() for v in vs) if learning else None
            assert outcome.final_thresholds.t_min == expected_t_min
            assert outcome.final_thresholds.t_max == expected_t_max
            closed = {f["index"]: f["period_max"] for _, f in records.of(PERIOD_CLOSED)}
            assert closed == {k: max(learning[k]) if k in learning else None for k in range(5)}
            updates = records.of(THRESHOLDS_UPDATED)
            if learning:
                assert updates[-1][1] == {"t_min": expected_t_min, "t_max": expected_t_max}
            else:
                assert updates == []

    def test_t_max_monotone_during_learning(self):
        rng = np.random.default_rng(22)
        deltas, _ = self.random_stream(rng)
        records = Records()
        det = Detector(6 * P, P, emit=records)
        last = -1.0
        for delta in deltas:
            if delta.t_ns >= 5 * P:
                break
            step(det, delta)
            current = records.of(THRESHOLDS_UPDATED)[-1][1]["t_max"]
            assert current is not None and current >= last
            last = current
        logged = [f["t_max"] for _, f in records.of(THRESHOLDS_UPDATED)]
        assert logged == sorted(logged) and logged[-1] == last

    def test_within_period_permutation_leaves_period_max(self):
        rng = np.random.default_rng(23)
        values = rng.uniform(0.0, 2.0, size=10).tolist()
        times = [(i + 1) * NS for i in range(10)]

        def run(order):
            records = Records()
            det = Detector(3 * P, P, emit=records)
            for t_ns, value in zip(times, order):
                step(det, Delta(t_ns, value))
            det.advance_to(P)
            assert records.of(PERIOD_CLOSED) == [(P, {"index": 0, "period_max": max(values)})]
            return det.finalize().final_thresholds.period_maxima

        baseline = run(values)
        for _ in range(5):
            shuffled = list(values)
            rng.shuffle(shuffled)
            assert run(shuffled) == baseline

    def test_replay_determinism(self):
        rng = np.random.default_rng(24)
        deltas, _ = self.random_stream(rng)

        def run(emit):
            det = Detector(6 * P, P, emit=emit)
            outcome = None
            for delta in deltas:
                outcome = step(det, delta)
                if outcome is not None:
                    break
            if outcome is None:
                outcome = det.finalize()
            return outcome

        first, second = Records(), Records()
        assert run(first) == run(second) == run(None)
        assert first == second
        assert first[-1][1] == ALARM_FIRED

    def test_first_hit_matches_brute_scan(self):
        rng = np.random.default_rng(25)
        for _ in range(60):
            deltas, per_period = self.random_stream(rng)
            learning = {k: v for k, v in per_period.items() if k < 5}
            t_min = min(max(vs) for vs in learning.values()) if learning else None
            t_max = max(v for vs in learning.values() for v in vs) if learning else None
            expected = None
            if t_min is not None:
                for delta in deltas:
                    if delta.t_ns >= 5 * P and t_min <= delta.value <= t_max:
                        expected = delta
                        break
            records = Records()
            det = Detector(6 * P, P, emit=records)
            fired = None
            for delta in deltas:
                fired = step(det, delta)
                if fired is not None:
                    break
            if expected is None:
                assert fired is None
                assert records.of(ALARM_FIRED) == []
            else:
                assert fired is not None
                assert fired.alarm_time_ns == expected.t_ns
                assert fired.trigger_delta == expected.value
                assert records.of(ALARM_FIRED) == [
                    (expected.t_ns, {"trigger": "ThresholdHit", "value": expected.value})]

    def test_learn_runs_give_the_records_and_outcome_of_single_deltas(self):
        rng = np.random.default_rng(26)
        for _ in range(40):
            deltas, _ = self.random_stream(rng)

            def run(use_learn):
                records = Records()
                det = Detector(6 * P, P, emit=records)
                outcome = None
                i = 0
                while i < len(deltas) and outcome is None:
                    k = deltas[i].t_ns // P
                    if use_learn and k < 5:
                        # A run of 1..4 deltas of period k, as an engine block would cut it.
                        j, stop = i + 1, min(i + int(rng.integers(1, 5)), len(deltas))
                        while j < stop and deltas[j].t_ns // P == k:
                            j += 1
                        det.advance_to(deltas[i].t_ns)
                        det.learn([dl.t_ns for dl in deltas[i:j]], [dl.value for dl in deltas[i:j]])
                        i = j
                    else:
                        outcome = step(det, deltas[i])
                        i += 1
                return outcome or det.finalize(), records

            assert run(True) == run(False)

    def test_detector_without_emit_holds_the_same_state(self):
        """Without emit, learn skips the scan for t_max's rises; the state it
        leaves, ties and rising maxima within a run included, is the same."""
        rng = np.random.default_rng(27)
        for _ in range(60):
            deltas, _ = self.random_stream(rng)
            # Values from a small pool, so runs hold ties and rise more than once.
            pool = rng.uniform(0.0, 3.0, size=4)
            deltas = [Delta(dl.t_ns, float(rng.choice(pool))) for dl in deltas]
            cuts = rng.integers(1, 5, size=len(deltas)).tolist()

            def run(emit, steps):
                """Outcome after the first steps learn runs or final deltas, then finalize."""
                det = Detector(6 * P, P, emit=emit)
                outcome, i = None, 0
                for _ in range(steps):
                    if i == len(deltas) or outcome is not None:
                        break
                    k = deltas[i].t_ns // P
                    if k < 5:
                        j, stop = i + 1, min(i + cuts[i], len(deltas))
                        while j < stop and deltas[j].t_ns // P == k:
                            j += 1
                        det.advance_to(deltas[i].t_ns)
                        det.learn([dl.t_ns for dl in deltas[i:j]], [dl.value for dl in deltas[i:j]])
                        i = j
                    else:
                        outcome = step(det, deltas[i])
                        i += 1
                return outcome or det.finalize()

            for steps in range(len(deltas) + 1):
                records = Records()
                assert run(None, steps) == run(records, steps)
            rises = [f["t_max"] for _, f in records.of(THRESHOLDS_UPDATED)]
            assert rises == sorted(rises)
