"""Unit tests for the sliding-window threshold alarm manager."""

import pytest

from repro.obs import scoped_registry
from repro.obs.alarms import AlarmEvent, AlarmManager, AlarmRule, AlarmState
from repro.obs.timeseries import TelemetryBus, validate_timeseries_doc
from repro.obs.trace import scoped_trace


def bus_with_gauge(levels, name="pool.busy_servers", labels=None):
    """A bus holding one gauge whose per-bucket means equal ``levels``."""
    bus = TelemetryBus(bucket_width=1.0)
    gauge = bus.gauge(name, labels)
    for i, level in enumerate(levels):
        gauge.set(float(i), level)
    gauge.finalize(float(len(levels)))
    return bus


class TestAlarmRule:
    def test_validation(self):
        with pytest.raises(ValueError):
            AlarmRule("", "s", "overload", 1.0)
        with pytest.raises(ValueError):
            AlarmRule("r", "s", "sideways", 1.0)
        with pytest.raises(ValueError):
            AlarmRule("r", "s", "overload", 1.0, window=0)
        with pytest.raises(ValueError):
            AlarmRule("r", "s", "overload", 1.0, debounce=0)
        # Hysteresis must sit on the safe side of the firing threshold.
        with pytest.raises(ValueError):
            AlarmRule("r", "s", "overload", 1.0, clear=2.0)
        with pytest.raises(ValueError):
            AlarmRule("r", "s", "underload", 1.0, clear=0.5)

    def test_clear_defaults_to_threshold(self):
        rule = AlarmRule("r", "s", "overload", 3.0)
        assert rule.clear_threshold == 3.0

    def test_label_subset_match(self):
        rule = AlarmRule("r", "s", "overload", 1.0, labels={"pool": "p"})
        assert rule.matches("s", {"pool": "p", "resource": "cpu"})
        assert not rule.matches("s", {"pool": "q"})
        assert not rule.matches("other", {"pool": "p"})


def reference_transitions(rule, values):
    """The alarm semantics spelled out: trailing-window mean (short at the
    start), debounce streak while quiet, hysteresis clear while firing."""
    out, firing, streak = [], False, 0
    for i in range(len(values)):
        recent = values[max(0, i + 1 - rule.window) : i + 1]
        mean = sum(recent) / len(recent)
        if rule.kind == "overload":
            breach, clear = mean >= rule.threshold, mean < rule.clear_threshold
        else:
            breach, clear = mean <= rule.threshold, mean > rule.clear_threshold
        if not firing:
            streak = streak + 1 if breach else 0
            if streak >= rule.debounce:
                firing, streak = True, 0
                out.append(("fire", i, mean))
        elif clear:
            firing = False
            out.append(("clear", i, mean))
    return out


class TestAlarmState:
    @pytest.mark.parametrize(
        "rule",
        [
            AlarmRule("o", "s", "overload", 1.0, clear=0.9, window=2, debounce=2),
            AlarmRule("u", "s", "underload", 0.75, clear=0.85, window=3),
            AlarmRule("b", "s", "overload", 2.0, clear=1.0, debounce=3),
        ],
    )
    def test_step_matches_reference(self, rule):
        values = [0.5, 0.6, 1.1, 1.2, 1.3, 0.8, 0.7, 1.0, 1.05, 0.85,
                  2.5, 2.5, 2.5, 0.3, 0.2, 0.9, 3.0, 0.1]
        state = AlarmState(rule)
        got = []
        for i, value in enumerate(values):
            change = state.step(value)
            if change is not None:
                got.append((change, i, state.mean))
        assert got == reference_transitions(rule, values)

    def test_reset_forgets_window_streak_and_firing(self):
        state = AlarmState(AlarmRule("r", "s", "overload", 1.0, window=2, debounce=2))
        assert state.step(5.0) is None
        assert state.step(5.0) == "fire"
        state.reset()
        assert not state.firing and state.mean == 0.0
        # The old 5.0s are gone from the window and the streak restarts.
        assert state.step(1.0) is None
        assert state.step(0.0) is None
        assert state.mean == 0.5

    def test_event_thresholds_follow_state(self):
        rule = AlarmRule("r", "s", "overload", 1.0, clear=0.5)
        state = AlarmState(rule)
        state.step(2.0)
        assert state.event("fire", 1.0, "s", {}).threshold == 1.0
        assert state.event("clear", 1.0, "s", {}).threshold == 0.5
        assert state.event("open_at_exit", 1.0, "s", {}).threshold == 1.0
        assert state.event("fire", 1.0, "s", {}).value == 2.0


class TestEvaluate:
    def test_overload_fire_and_clear(self):
        bus = bus_with_gauge([1.0, 9.0, 9.0, 1.0, 1.0])
        manager = AlarmManager([
            AlarmRule("hot", "pool.busy_servers", "overload", 8.0, clear=4.0),
        ])
        events = manager.evaluate(bus)
        assert [(e.state, e.t) for e in events] == [("fire", 2.0), ("clear", 4.0)]

    def test_underload_mirrors_overload(self):
        bus = bus_with_gauge([9.0, 1.0, 1.0, 9.0, 9.0])
        manager = AlarmManager([
            AlarmRule("cold", "pool.busy_servers", "underload", 2.0, clear=5.0),
        ])
        events = manager.evaluate(bus)
        assert [(e.state, e.t) for e in events] == [("fire", 2.0), ("clear", 4.0)]

    def test_debounce_suppresses_single_bucket_spike(self):
        spike = bus_with_gauge([1.0, 9.0, 1.0, 1.0, 1.0])
        sustained = bus_with_gauge([1.0, 9.0, 9.0, 1.0, 1.0])
        rule = AlarmRule("hot", "pool.busy_servers", "overload", 8.0, debounce=2)
        assert AlarmManager([rule]).evaluate(spike) == []
        events = AlarmManager([rule]).evaluate(sustained)
        assert [e.state for e in events] == ["fire", "clear"]
        assert events[0].t == 3.0  # second consecutive breach

    def test_hysteresis_prevents_flapping(self):
        # Oscillates around the firing threshold but never below clear.
        bus = bus_with_gauge([9.0, 7.0, 9.0, 7.0, 9.0])
        manager = AlarmManager([
            AlarmRule("hot", "pool.busy_servers", "overload", 8.0, clear=4.0),
        ])
        events = manager.evaluate(bus)
        assert [e.state for e in events] == ["fire"]  # no clears, no re-fires

    def test_window_smooths_the_signal(self):
        bus = bus_with_gauge([0.0, 12.0, 0.0, 12.0])
        windowed = AlarmRule(
            "hot", "pool.busy_servers", "overload", 8.0, window=2
        )
        # Window means: 0, 6, 6, 6 — never reaches 8.
        assert AlarmManager([windowed]).evaluate(bus) == []

    def test_window_means_short_prefix(self):
        state = AlarmState(AlarmRule("r", "s", "overload", 100.0, window=4))
        means = []
        for value in [4.0, 8.0, 12.0]:
            state.step(value)
            means.append(state.mean)
        assert means == [4.0, 6.0, 8.0]

    def test_rule_applies_per_matching_series(self):
        bus = TelemetryBus(bucket_width=1.0)
        for pool in ("a", "b"):
            g = bus.gauge("pool.busy_servers", {"pool": pool})
            g.set(0.0, 9.0)
            g.finalize(2.0)
        manager = AlarmManager([
            AlarmRule("hot", "pool.busy_servers", "overload", 8.0),
        ])
        events = manager.evaluate(bus)
        assert [e.labels["pool"] for e in events] == ["a", "b"]

    def test_duplicate_rule_names_rejected(self):
        rule = AlarmRule("r", "s", "overload", 1.0)
        with pytest.raises(ValueError, match="duplicate"):
            AlarmManager([rule, rule])


    def test_fold_returns_transitions_and_open_alarms(self):
        bus = bus_with_gauge([9.0, 9.0, 1.0, 9.0])
        manager = AlarmManager([
            AlarmRule("hot", "pool.busy_servers", "overload", 8.0, clear=4.0),
        ])
        events, open_events = manager.fold(bus)
        assert events == manager.evaluate(bus)
        assert open_events == manager.open_alarms(bus)
        assert [e.state for e in events] == ["fire", "clear", "fire"]
        assert [(e.state, e.t) for e in open_events] == [("open_at_exit", 4.0)]


class TestEmit:
    def test_events_reach_trace_and_registry(self):
        bus = bus_with_gauge([1.0, 9.0, 9.0, 1.0, 1.0], labels={"pool": "p"})
        manager = AlarmManager([
            AlarmRule("hot", "pool.busy_servers", "overload", 8.0, clear=4.0),
        ])
        with scoped_trace() as trace, scoped_registry() as registry:
            events = manager.emit(manager.evaluate(bus))
        assert len(events) == 2
        kinds = [e.kind for e in trace.events()]
        assert kinds.count("alarm") == 2
        snapshot = registry.snapshot()["alarms_total"]
        states = {
            entry["labels"]["state"]: entry["value"]
            for entry in snapshot["series"]
        }
        assert states == {"fire": 1.0, "clear": 1.0}

    def test_summarize_counts_by_kind(self):
        events = [
            AlarmEvent("a", "overload", "fire", 1.0, 9.0, 8.0, "s", {}),
            AlarmEvent("a", "overload", "clear", 2.0, 1.0, 4.0, "s", {}),
            AlarmEvent("b", "underload", "fire", 3.0, 0.5, 1.0, "s", {}),
        ]
        assert AlarmManager([]).summarize(events) == {
            "overload_fires": 1,
            "underload_fires": 1,
            "clears": 1,
            "open_at_exit": 0,
        }

    def test_event_docs_validate_against_schema(self):
        bus = bus_with_gauge([1.0, 9.0, 9.0, 1.0])
        manager = AlarmManager([
            AlarmRule("hot", "pool.busy_servers", "overload", 8.0, clear=4.0),
        ])
        for event in manager.evaluate(bus):
            validate_timeseries_doc(event.to_doc())


class TestOpenAtExit:
    def _manager(self):
        return AlarmManager([
            AlarmRule("hot", "pool.busy_servers", "overload", 8.0, clear=4.0),
        ])

    def test_unresolved_fire_is_reported_open(self):
        bus = bus_with_gauge([1.0, 9.0, 9.0])  # fires at t=2, never clears
        manager = self._manager()
        open_events = manager.open_alarms(bus)
        assert [(e.rule, e.state, e.t) for e in open_events] == [
            ("hot", "open_at_exit", 3.0)
        ]
        # evaluate() itself still only reports the transition.
        assert [e.state for e in manager.evaluate(bus)] == ["fire"]

    def test_cleared_alarm_is_not_open(self):
        bus = bus_with_gauge([1.0, 9.0, 9.0, 1.0, 1.0])
        assert self._manager().open_alarms(bus) == []

    def test_never_fired_is_not_open(self):
        bus = bus_with_gauge([1.0, 1.0, 1.0])
        assert self._manager().open_alarms(bus) == []

    def test_emit_writes_warning_trace_event_and_counter(self):
        bus = bus_with_gauge([1.0, 9.0, 9.0], labels={"pool": "p"})
        manager = self._manager()
        with scoped_trace() as trace, scoped_registry() as registry:
            manager.emit(manager.open_alarms(bus))
        events = [e for e in trace.events() if e.name == "alarm_open_at_exit"]
        assert len(events) == 1
        assert events[0].kind == "warning"
        assert events[0].fields["rule"] == "hot"
        snapshot = registry.snapshot()["alarms_total"]
        ((entry,),) = [snapshot["series"]]
        assert entry["labels"] == {"rule": "hot", "state": "open_at_exit"}

    def test_open_doc_validates_and_summarizes(self):
        bus = bus_with_gauge([1.0, 9.0, 9.0])
        manager = self._manager()
        open_events = manager.open_alarms(bus)
        for event in open_events:
            validate_timeseries_doc(event.to_doc())
        counts = manager.summarize(manager.evaluate(bus) + open_events)
        assert counts["overload_fires"] == 1
        assert counts["open_at_exit"] == 1
