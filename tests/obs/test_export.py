"""Tests for the Prometheus exporter and the run manifest."""

import json

import pytest

from oracles.prometheus import parse_prometheus_text
from repro import __version__
from repro.obs import (
    MANIFEST_SCHEMA,
    PROMETHEUS_CONTENT_TYPE,
    MetricsRegistry,
    TraceLog,
    build_manifest,
    environment_fingerprint,
    inputs_hash,
    prometheus_text,
    write_manifest,
    write_prometheus,
)


def _populated_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("requests_total", help="seen requests").inc(12)
    reg.counter("picks_total", labels={"backend": "0"}).inc(3)
    reg.counter("picks_total", labels={"backend": "1"}).inc(4)
    reg.gauge("depth").set(2.5)
    h = reg.histogram("latency", start=0.001, factor=10.0, buckets=3)
    h.observe(0.0005)
    h.observe(0.5)
    reg.timer("solve_seconds").observe(0.002)
    return reg


class TestPrometheusText:
    def test_counter_and_gauge_lines(self):
        text = prometheus_text(_populated_registry())
        assert "# HELP requests_total seen requests" in text
        assert "# TYPE requests_total counter" in text
        assert "requests_total 12" in text
        assert 'picks_total{backend="0"} 3' in text
        assert 'picks_total{backend="1"} 4' in text
        assert "# TYPE depth gauge" in text
        assert "depth 2.5" in text

    def test_histogram_rendering(self):
        text = prometheus_text(_populated_registry())
        assert 'latency_bucket{le="0.001"} 1' in text
        assert 'latency_bucket{le="+Inf"} 2' in text
        assert "latency_sum 0.5005" in text
        assert "latency_count 2" in text

    def test_timer_renders_as_histogram(self):
        text = prometheus_text(_populated_registry())
        assert "# TYPE solve_seconds histogram" in text
        assert "solve_seconds_count 1" in text

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""

    def test_write_prometheus_creates_parents(self, tmp_path):
        path = write_prometheus(_populated_registry(), tmp_path / "a" / "m.prom")
        assert path.exists()
        assert "requests_total 12" in path.read_text()


def _unescape_label_value(value: str) -> str:
    """Inverse of the text-format label escaping, per the exposition spec."""
    out = []
    it = iter(value)
    for ch in it:
        if ch != "\\":
            out.append(ch)
            continue
        nxt = next(it)
        out.append({"n": "\n", '"': '"', "\\": "\\"}[nxt])
    return "".join(out)


class TestPrometheusEscaping:
    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("x", labels={"svc": 'a"b\n\\'}).inc()
        text = prometheus_text(reg)
        assert 'x{svc="a\\"b\\n\\\\"} 1' in text
        # No raw newline may survive inside a sample line.
        sample = [l for l in text.splitlines() if l.startswith("x{")]
        assert len(sample) == 1

    def test_label_round_trip(self):
        nasty = 'quote:" backslash:\\ newline:\nend'
        reg = MetricsRegistry()
        reg.counter("y", labels={"k": nasty}).inc()
        line = [l for l in prometheus_text(reg).splitlines() if l.startswith("y{")][0]
        escaped = line[line.index('"') + 1 : line.rindex('"')]
        assert _unescape_label_value(escaped) == nasty

    def test_help_escapes_newline_and_backslash(self):
        reg = MetricsRegistry()
        reg.counter("z", help="line1\nline2 \\ slash").inc()
        text = prometheus_text(reg)
        assert "# HELP z line1\\nline2 \\\\ slash" in text

    def test_plain_values_unchanged(self):
        reg = MetricsRegistry()
        reg.counter("plain", help="simple", labels={"a": "b"}).inc()
        text = prometheus_text(reg)
        assert '# HELP plain simple' in text
        assert 'plain{a="b"} 1' in text


class TestParsePrometheusText:
    """Round-trip conformance: everything we render must parse back."""

    def test_round_trip_families(self):
        families = parse_prometheus_text(prometheus_text(_populated_registry()))
        assert families["requests_total"]["kind"] == "counter"
        assert families["requests_total"]["help"] == "seen requests"
        assert families["requests_total"]["samples"] == [
            ("requests_total", {}, 12.0)
        ]
        assert families["depth"]["kind"] == "gauge"
        # Families registered without help self-describe with their name.
        assert families["picks_total"]["help"] == "picks_total"
        labelled = {
            labels["backend"]: value
            for _, labels, value in families["picks_total"]["samples"]
        }
        assert labelled == {"0": 3.0, "1": 4.0}

    def test_round_trip_histogram_and_timer(self):
        families = parse_prometheus_text(prometheus_text(_populated_registry()))
        assert families["latency"]["kind"] == "histogram"
        bucket_les = [
            labels["le"]
            for name, labels, _ in families["latency"]["samples"]
            if name == "latency_bucket"
        ]
        assert bucket_les[-1] == "+Inf"
        names = {name for name, _, _ in families["latency"]["samples"]}
        assert names == {"latency_bucket", "latency_sum", "latency_count"}
        assert families["solve_seconds"]["kind"] == "histogram"

    def test_round_trip_nasty_label_values(self):
        nasty = 'quote:" backslash:\\ newline:\nend'
        reg = MetricsRegistry()
        reg.counter("y", labels={"k": nasty}).inc()
        families = parse_prometheus_text(prometheus_text(reg))
        ((_, labels, value),) = families["y"]["samples"]
        assert labels == {"k": nasty}
        assert value == 1.0

    def test_empty_text_parses_empty(self):
        assert parse_prometheus_text("") == {}

    def test_content_type_constant(self):
        assert PROMETHEUS_CONTENT_TYPE.startswith("text/plain; version=0.0.4")

    @pytest.mark.parametrize(
        "text",
        [
            "no_type_declared 1\n",
            "# TYPE x counter\n# TYPE x counter\nx 1\n",
            "# HELP x one\n# HELP x two\n# TYPE x counter\nx 1\n",
            "# TYPE x widget\nx 1\n",
            "# HELP x h\n# TYPE x counter\nx notanumber\n",
            "# HELP x h\n# TYPE x counter\nx{k=unquoted} 1\n",
            "# HELP x h\n# TYPE x counter\n",  # TYPE without samples
            "# HELP x h\n# TYPE x counter\nx_sum 1\nx 1\n",  # suffix on counter
            "# TYPE x counter\nx 1\n",  # missing HELP
            "# HELP x h\n",  # HELP without TYPE
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_prometheus_text(text)


class TestEnvironmentFingerprint:
    def test_fields(self):
        fp = environment_fingerprint()
        assert fp["python"].count(".") >= 1
        assert fp["implementation"]
        assert fp["cpu_count"] >= 1
        assert fp["numpy"] is not None

    def test_json_serialisable(self):
        json.dumps(environment_fingerprint())


class TestInputsHash:
    def test_stable_across_key_order(self):
        assert inputs_hash({"a": 1, "b": [2, 3]}) == inputs_hash({"b": [2, 3], "a": 1})

    def test_sensitive_to_values(self):
        assert inputs_hash({"a": 1}) != inputs_hash({"a": 2})

    def test_known_shape(self):
        digest = inputs_hash({})
        assert len(digest) == 64
        assert int(digest, 16) >= 0


class TestManifest:
    def test_fields(self):
        reg = _populated_registry()
        trace = TraceLog()
        trace.emit("e")
        manifest = build_manifest(
            {"experiments": ["table1"], "seed": 7},
            seed=7,
            wall_time_s=1.25,
            registry=reg,
            trace=trace,
            extra={"note": "test"},
        )
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["model_version"] == __version__
        assert manifest["seed"] == 7
        assert manifest["inputs_hash"] == inputs_hash({"experiments": ["table1"], "seed": 7})
        assert manifest["wall_time_s"] == 1.25
        assert manifest["metrics"]["requests_total"]["series"][0]["value"] == 12.0
        assert manifest["trace"] == {
            "events": 1,
            "emitted": 1,
            "dropped": 0,
            "dropped_by_kind": {},
            "capacity": trace.capacity,
        }
        assert manifest["environment"]["python"]
        assert manifest["note"] == "test"

    def test_trace_overflow_detectable(self):
        trace = TraceLog(capacity=4)
        for i in range(10):
            trace.emit("e", i=i)
        manifest = build_manifest({}, trace=trace)
        assert manifest["trace"]["capacity"] == 4
        assert manifest["trace"]["emitted"] == 10
        assert manifest["trace"]["dropped"] == 6
        assert manifest["trace"]["dropped_by_kind"] == {"event": 6}
        assert manifest["trace"]["events"] == 4

    def test_same_inputs_same_hash(self):
        a = build_manifest({"x": 1}, seed=1)
        b = build_manifest({"x": 1}, seed=99)
        assert a["inputs_hash"] == b["inputs_hash"]

    def test_write_manifest_is_valid_json(self, tmp_path):
        manifest = build_manifest({"x": 1}, seed=1)
        path = write_manifest(manifest, tmp_path / "out" / "run_manifest.json")
        loaded = json.loads(path.read_text())
        assert loaded["inputs_hash"] == manifest["inputs_hash"]
        assert loaded["schema"] == MANIFEST_SCHEMA
