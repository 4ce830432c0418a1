"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import TelemetryBus, scoped_bus
from repro.simulation.engine import Simulator

# One scheduling action: ("at" | "in", k) queues an event k half-steps
# ahead of now (a small grid, so many times tie); ("cancel", i) cancels
# the i-th handle ever made, modulo their count (queued, fired or
# already cancelled alike).
ACTION = st.one_of(
    st.tuples(st.sampled_from(["at", "in"]), st.integers(0, 4)),
    st.tuples(st.just("cancel"), st.integers(0, 1000)),
)


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule_at(3.0, lambda: order.append("c"))
        sim.schedule_at(1.0, lambda: order.append("a"))
        sim.schedule_at(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion(self):
        sim = Simulator()
        order = []
        sim.schedule_at(1.0, lambda: order.append(1))
        sim.schedule_at(1.0, lambda: order.append(2))
        sim.schedule_at(1.0, lambda: order.append(3))
        sim.run()
        assert order == [1, 2, 3]

    def test_now_advances(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]
        assert sim.now == 5.0

    def test_schedule_in_is_relative(self):
        sim = Simulator()
        times = []
        def first():
            times.append(sim.now)
            sim.schedule_in(2.5, lambda: times.append(sim.now))
        sim.schedule_at(1.0, first)
        sim.run()
        assert times == [1.0, 3.5]

    def test_cannot_schedule_into_past(self):
        sim = Simulator()
        sim.schedule_at(10.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(5.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule_in(-1.0, lambda: None)


class TestRunControl:
    def test_run_until_stops_early(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.schedule_at(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        assert sim.pending == 1

    def test_run_until_includes_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(5.0, lambda: fired.append(5))
        sim.run(until=5.0)
        assert fired == [5]

    def test_cancelled_events_skipped(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule_at(1.0, lambda: fired.append("dead"))
        sim.schedule_at(2.0, lambda: fired.append("alive"))
        ev.cancel()
        sim.run()
        assert fired == ["alive"]

    def test_pending_counts_live_only(self):
        sim = Simulator()
        ev = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        ev.cancel()
        assert sim.pending == 1

    def test_run_until_resumes_where_it_stopped(self):
        sim = Simulator()
        sim.run(until=1.0)  # nothing queued: only the clock moves
        assert sim.now == 1.0
        fired = []
        sim.schedule_at(2.0, lambda: fired.append(2))
        sim.schedule_at(3.0, lambda: fired.append(3))
        sim.run(until=2.0)
        assert fired == [2] and sim.pending == 1
        sim.run(until=3.0)
        assert fired == [2, 3] and sim.pending == 0
        sim.run()
        assert fired == [2, 3] and sim.now == 3.0

    def test_cancelled_head_does_not_run_event_past_until(self):
        # Regression: a cancelled event heading the heap used to let the
        # next live event run even though it lies past ``until``.
        sim = Simulator()
        fired = []
        sim.schedule_at(5.0, lambda: fired.append(5)).cancel()
        sim.schedule_at(10.0, lambda: fired.append(10))
        sim.run(until=7.0)
        assert fired == []
        assert sim.now == 7.0
        assert sim.pending == 1
        sim.run()
        assert fired == [10]

    def test_cascading_events(self):
        # Events scheduling further events: a 1000-step chain completes.
        sim = Simulator()
        count = [0]
        def tick():
            count[0] += 1
            if count[0] < 1000:
                sim.schedule_in(0.001, tick)
        sim.schedule_at(0.0, tick)
        sim.run()
        assert count[0] == 1000

    def test_not_reentrant(self):
        sim = Simulator()
        errors = []
        def recurse():
            try:
                sim.run()
            except RuntimeError as e:
                errors.append(e)
        sim.schedule_at(0.0, recurse)
        sim.run()
        assert len(errors) == 1


class TestEventOrder:
    @settings(max_examples=200, deadline=None)
    @given(
        setup=st.lists(ACTION, max_size=30),
        script=st.lists(ACTION, max_size=60),
        untils=st.lists(st.integers(0, 12), max_size=3),
    )
    def test_execution_matches_sorted_reference(self, setup, script, untils):
        # Callbacks run in exactly the (time, insertion order) order of
        # every event ever scheduled, minus those cancelled while queued,
        # and ``pending`` tracks the live count after every action.
        sim = Simulator()
        handles = []
        reference = []  # (time, insertion index) of every scheduled event
        live = set()  # scheduled, neither executed nor cancelled
        cancelled = set()  # cancelled while still queued
        executed = []
        steps = iter(script)

        def fire(index):
            assert index in live
            live.discard(index)
            executed.append(index)
            assert sim.pending == len(live)
            # Each callback applies the next two scripted actions, so
            # events schedule and cancel others from inside the loop.
            for action in (next(steps, None), next(steps, None)):
                if action is not None:
                    apply(action)

        def apply(action):
            kind, arg = action
            if kind == "cancel":
                if handles:
                    index = arg % len(handles)
                    if index in live:
                        live.discard(index)
                        cancelled.add(index)
                    handles[index].cancel()
            else:
                index = len(handles)
                t = sim.now + 0.5 * arg
                if kind == "at":
                    handle = sim.schedule_at(t, lambda i=index: fire(i))
                else:
                    handle = sim.schedule_in(0.5 * arg, lambda i=index: fire(i))
                assert handle.time == t
                handles.append(handle)
                reference.append((t, index))
                live.add(index)
            assert sim.pending == len(live)

        for action in setup:
            apply(action)
        for until in sorted(untils):
            sim.run(until=0.5 * until)
            assert sim.pending == len(live)
        sim.run()
        assert executed == [i for _, i in sorted(reference) if i not in cancelled]
        assert sim.pending == 0 and not live


class TestTelemetryStep:
    """engine.events bucketing by the run loop (construct-time bound)."""

    def drive(self, bus, n=50, dt=0.5):
        with scoped_bus(bus):
            sim = Simulator()
        for i in range(n):
            sim.schedule_at(i * dt, lambda: None)
        sim.run()
        return sim

    def test_every_executed_event_recorded(self):
        bus = TelemetryBus(bucket_width=1.0)
        self.drive(bus, n=50)
        (executed,) = [
            s for s in bus.series()
            if s.name == "engine.events" and ("kind", "executed") in s.labels
        ]
        assert executed.total == 50.0
        # Two 0.5-spaced events per unit-width bucket.
        assert executed.values() == [2.0] * 25

    def test_cancelled_events_counted_as_skipped(self):
        bus = TelemetryBus(bucket_width=1.0)
        with scoped_bus(bus):
            sim = Simulator()
        keep = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None).cancel()
        sim.run()
        assert keep is not None
        skipped = [
            s for s in bus.series()
            if s.name == "engine.events" and ("kind", "skipped") in s.labels
        ]
        assert sum(s.total for s in skipped) == 1.0

    def test_cache_survives_decimation(self):
        # A horizon far beyond max_buckets forces mid-run decimation; the
        # engine's cached bucket window must refresh, not drop samples.
        bus = TelemetryBus(bucket_width=1.0, max_buckets=4)
        self.drive(bus, n=200, dt=1.0)  # t up to 199 >> 4 buckets
        (executed,) = [
            s for s in bus.series()
            if s.name == "engine.events" and ("kind", "executed") in s.labels
        ]
        assert executed.total == 200.0
        assert executed.decimations >= 1
        assert executed.buckets <= 4

    def test_disabled_bus_leaves_plain_step(self):
        sim = Simulator()
        assert sim._series is None and sim._instruments is None

    def test_split_runs_record_like_one_run(self):
        whole = TelemetryBus(bucket_width=1.0)
        self.drive(whole, n=20, dt=0.3)
        split = TelemetryBus(bucket_width=1.0)
        with scoped_bus(split):
            sim = Simulator()
        for i in range(20):
            sim.schedule_at(i * 0.3, lambda: None)
        for until in (0.5, 0.9, 2.0, 2.05, 4.4):
            sim.run(until=until)
        sim.run()
        assert split.to_docs() == whole.to_docs()

    def test_skips_land_in_the_cancelled_events_bucket(self):
        bus = TelemetryBus(bucket_width=1.0)
        with scoped_bus(bus):
            sim = Simulator()
        sim.schedule_at(0.5, lambda: None)
        sim.schedule_at(2.5, lambda: None).cancel()
        sim.schedule_at(3.5, lambda: None)
        sim.run()
        values = {
            dict(s.labels)["kind"]: s.values()
            for s in bus.series() if s.name == "engine.events"
        }
        assert values == {
            "executed": [1.0, 0.0, 0.0, 1.0],
            "skipped": [0.0, 0.0, 1.0],
        }

    def test_bus_clock_follows_virtual_time(self):
        bus = TelemetryBus()
        with scoped_bus(bus):
            sim = Simulator()
        sim.schedule_at(7.25, lambda: None)
        sim.run()
        assert bus.now == 7.25
