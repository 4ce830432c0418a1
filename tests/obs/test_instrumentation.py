"""The instrumentation hooks across the stack record what they claim to."""

import numpy as np
import pytest

from repro.cluster.dispatcher import (
    LeastConnectionsDispatcher,
    RandomDispatcher,
    RoundRobinDispatcher,
)
from repro.core import ModelInputs, ResourceKind, ServiceSpec, UtilityAnalyticModel
from repro.obs import scoped_registry, scoped_trace
from repro.queueing.cache import GRID_SCALAR_CUTOFF, ErlangCache
from repro.queueing.erlang import min_servers, min_servers_continuous
from repro.simulation.engine import Simulator


def _inputs() -> ModelInputs:
    web = ServiceSpec(
        "web",
        1200.0,
        {ResourceKind.CPU: 3360.0, ResourceKind.DISK_IO: 1420.0},
        {ResourceKind.CPU: 0.65, ResourceKind.DISK_IO: 0.8},
    )
    db = ServiceSpec("db", 80.0, {ResourceKind.CPU: 100.0}, {ResourceKind.CPU: 0.9})
    return ModelInputs((web, db), 0.01)


class TestEngineInstrumentation:
    def test_counts_executed_events_and_virtual_time(self):
        with scoped_registry() as reg:
            sim = Simulator()
            for t in (1.0, 2.0, 3.0):
                sim.schedule_at(t, lambda: None)
            sim.run()
            assert reg.counter("sim_events_executed_total").value == 3
            assert reg.gauge("sim_virtual_time").value == 3.0
            assert reg.gauge("sim_pending_events").value == 0

    def test_counts_accumulate_across_runs(self):
        with scoped_registry() as reg:
            sim = Simulator()
            for t in (1.0, 2.0, 3.0):
                sim.schedule_at(t, lambda: None)
            sim.run(until=1.5)
            assert reg.counter("sim_events_executed_total").value == 1
            assert reg.gauge("sim_pending_events").value == 2
            assert reg.gauge("sim_virtual_time").value == 1.5
            sim.run()
            assert reg.counter("sim_events_executed_total").value == 3

    def test_cancelled_events_counted_as_skips(self):
        with scoped_registry() as reg:
            sim = Simulator()
            ev = sim.schedule_at(1.0, lambda: None)
            sim.schedule_at(2.0, lambda: None)
            ev.cancel()
            sim.run()
            assert reg.counter("sim_events_executed_total").value == 1
            assert reg.counter("sim_events_skipped_total").value == 1

    def test_uninstrumented_simulator_records_nothing(self):
        sim = Simulator()  # constructed under the default null registry
        with scoped_registry() as reg:
            sim.schedule_at(1.0, lambda: None)
            sim.run()
            assert reg.snapshot() == {}


class TestPendingCounter:
    """O(1) pending must stay exact through schedule/cancel/pop cycles."""

    def test_schedule_and_drain(self):
        sim = Simulator()
        events = [sim.schedule_at(float(t), lambda: None) for t in range(1, 6)]
        assert sim.pending == 5
        events[0].cancel()
        events[0].cancel()  # double-cancel must not double-count
        assert sim.pending == 4
        sim.run()
        assert sim.pending == 0

    def test_late_cancel_of_fired_event_is_harmless(self):
        sim = Simulator()
        ev = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        sim.run(until=1.0)
        assert sim.pending == 1
        ev.cancel()  # already executed
        assert sim.pending == 1

    def test_cancel_inside_callback(self):
        sim = Simulator()
        later = sim.schedule_at(2.0, lambda: None)
        sim.schedule_at(1.0, later.cancel)
        sim.run()
        assert sim.pending == 0

    def test_pending_matches_heap_scan(self, rng):
        sim = Simulator()
        live = []
        for _ in range(200):
            action = rng.integers(0, 3)
            if action == 0 or not live:
                live.append(sim.schedule_in(float(rng.random()), lambda: None))
            elif action == 1:
                live.pop(int(rng.integers(0, len(live)))).cancel()
            elif sim.pending:
                # Run exactly the next live event.
                sim.run(until=min(e.time for _, _, e in sim._heap if not e.cancelled))
            scan = sum(1 for _, _, e in sim._heap if not e.cancelled)
            assert sim.pending == scan


class TestDispatcherInstrumentation:
    def test_pick_counts_per_backend(self):
        with scoped_registry() as reg:
            d = RoundRobinDispatcher(3)
            for _ in range(6):
                d.pick()
            for backend in range(3):
                counter = reg.counter(
                    "dispatcher_picks_total",
                    labels={"policy": "RoundRobinDispatcher", "backend": str(backend)},
                )
                assert counter.value == 2
            imbalance = reg.gauge(
                "dispatcher_imbalance_ratio",
                labels={"policy": "RoundRobinDispatcher"},
            )
            assert imbalance.value == pytest.approx(1.0)

    def test_imbalance_gauge_tracks_skew(self):
        with scoped_registry() as reg:
            d = LeastConnectionsDispatcher(2)
            for _ in range(4):
                d.pick(in_flight=[0, 10])  # backend 0 always wins
            imbalance = reg.gauge(
                "dispatcher_imbalance_ratio",
                labels={"policy": "LeastConnectionsDispatcher"},
            )
            assert imbalance.value == pytest.approx(2.0)  # max=4, mean=2

    def test_disabled_registry_keeps_picks_cheap_and_silent(self):
        d = RoundRobinDispatcher(2)
        assert [d.pick() for _ in range(4)] == [0, 1, 0, 1]
        assert not d._instrumented


class TestRandomDispatcherSeeding:
    def test_unseeded_fallback_emits_trace_warning(self):
        with scoped_trace() as trace:
            RandomDispatcher(3)
            (event,) = trace.events()
            assert event.kind == "warning"
            assert event.name == "dispatcher.unseeded_rng"
            assert event.fields["backends"] == 3

    def test_explicit_rng_stays_silent_and_reproducible(self):
        with scoped_trace() as trace:
            a = RandomDispatcher(5, rng=np.random.default_rng(42))
            b = RandomDispatcher(5, rng=np.random.default_rng(42))
            assert trace.events() == []
        assert [a.pick() for _ in range(20)] == [b.pick() for _ in range(20)]


class TestErlangInstrumentation:
    def test_recurrence_inversion_metrics(self):
        with scoped_registry() as reg:
            n = min_servers(5.0, 0.01)
            calls = reg.counter(
                "erlang_inversion_calls_total", labels={"method": "recurrence"}
            )
            iterations = reg.counter(
                "erlang_inversion_iterations_total", labels={"method": "recurrence"}
            )
            timer = reg.timer(
                "erlang_inversion_seconds", labels={"method": "recurrence"}
            )
            assert calls.value == 1
            assert iterations.value == n  # scan increments once per server
            assert timer.count == 1

    def test_bisection_inversion_metrics(self):
        with scoped_registry() as reg:
            min_servers_continuous(5.0, 0.01)
            calls = reg.counter(
                "erlang_inversion_calls_total", labels={"method": "bisection"}
            )
            iterations = reg.counter(
                "erlang_inversion_iterations_total", labels={"method": "bisection"}
            )
            assert calls.value == 1
            assert iterations.value > 0

    @pytest.mark.parametrize(
        "points, method, calls", [(2, "recurrence", 2), (256, "vectorized", 1)]
    )
    def test_grid_label_follows_the_cutoff(self, points, method, calls):
        # Below the cutoff a batch records one recurrence inversion per
        # lane; at or above it, one vectorized entry for the whole batch.
        assert 2 < GRID_SCALAR_CUTOFF <= 256
        other = {"recurrence": "vectorized", "vectorized": "recurrence"}[method]
        with scoped_registry() as reg:
            ErlangCache().min_servers_grid(np.linspace(1.0, 300.0, points), 0.01)
            assert reg.counter(
                "erlang_inversion_calls_total", labels={"method": method}
            ).value == calls
            assert reg.counter(
                "erlang_inversion_calls_total", labels={"method": other}
            ).value == 0

    def test_agreement_is_not_perturbed_by_instrumentation(self):
        with scoped_registry():
            assert min_servers(11.8, 0.01) == min_servers_continuous(11.8, 0.01)


class TestModelInstrumentation:
    def test_solve_timer_and_counter(self):
        with scoped_registry() as reg:
            UtilityAnalyticModel(_inputs()).solve()
            UtilityAnalyticModel(_inputs(), load_model="offered").solve()
            assert (
                reg.counter("model_solves_total", labels={"load_model": "paper"}).value
                == 1
            )
            assert (
                reg.counter(
                    "model_solves_total", labels={"load_model": "offered"}
                ).value
                == 1
            )
            timer = reg.timer("model_solve_seconds", labels={"load_model": "paper"})
            assert timer.count == 1
            assert timer.total_seconds > 0.0

    def test_solution_identical_with_and_without_observability(self):
        plain = UtilityAnalyticModel(_inputs()).solve()
        with scoped_registry():
            observed = UtilityAnalyticModel(_inputs()).solve()
        assert plain.dedicated_servers == observed.dedicated_servers
        assert plain.consolidated_servers == observed.consolidated_servers
        assert plain.consolidated_load == observed.consolidated_load
