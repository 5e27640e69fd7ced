"""The observability core: metrics and the trace-document base."""

import json

import pytest

from repro.obs import (
    Histogram,
    MetricsRegistry,
    TraceDocument,
    read_trace_file,
)


class TestMetrics:
    def test_counter_gauge_histogram_roundtrip(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc()
        reg.counter("hits").inc(2)
        reg.gauge("depth").set(3.0)
        reg.gauge("depth").set(1.0)
        reg.histogram("lat").observe(10)
        reg.histogram("lat").observe(30)
        doc = reg.to_dict()
        assert doc["counters"]["hits"] == 3
        assert doc["gauges"]["depth"] == {"value": 1.0, "peak": 3.0}
        assert doc["histograms"]["lat"]["count"] == 2
        assert doc["histograms"]["lat"]["max"] == 30

    def test_labels_key_metrics_separately(self):
        reg = MetricsRegistry()
        reg.counter("lost", event="a").inc()
        reg.counter("lost", event="b").inc(5)
        doc = reg.to_dict()["counters"]
        assert doc["lost{event=a}"] == 1
        assert doc["lost{event=b}"] == 5
        # Label order never changes the key.
        assert reg.counter("x", b=2, a=1) is reg.counter("x", a=1, b=2)

    def test_render_mentions_every_metric(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(2.5)
        reg.histogram("h").observe(7)
        reg.histogram("empty")
        text = reg.render()
        for needle in ("c 1", "g 2.5", "count=1", "empty count=0"):
            assert needle in text
        assert len(reg) == 4

    def test_histogram_percentiles_nearest_rank(self):
        h = Histogram()
        for v in range(1, 101):
            h.observe(v)
        assert h.percentile(0) == 1
        assert h.percentile(50) == 50
        assert h.percentile(90) == 90
        assert h.percentile(100) == 100
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_empty_histogram(self):
        h = Histogram()
        assert h.percentile(50) is None
        assert h.average is None
        assert h.to_dict() == {"count": 0}


class TestTraceDocument:
    def test_from_dict_rejects_wrong_format(self):
        class Doc(TraceDocument):
            FORMAT = "repro-test/v1"

            def to_dict(self):
                return {"format": self.FORMAT}

            def populate_from(self, doc):
                pass

        with pytest.raises(ValueError, match="repro-test/v1"):
            Doc.from_dict({"format": "something-else"})
        assert isinstance(Doc.from_dict({"format": "repro-test/v1"}), Doc)

    def test_read_trace_file_requires_format(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"format": "f", "events": []}))
        fmt, doc = read_trace_file(str(path))
        assert fmt == "f" and doc["events"] == []
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ValueError, match="not a repro trace"):
            read_trace_file(str(bad))
