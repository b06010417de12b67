"""OpenMetrics exposition: format conformance and the render/parse round-trip."""

from __future__ import annotations

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.openmetrics import (
    metric_name,
    parse_openmetrics,
    render_openmetrics,
)


def populated_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("pairs.scored").inc(630)
    reg.counter("cluster.merges").inc(35)
    reg.gauge("obs.sampler.gc_collections").set(17)
    hist = reg.histogram("resolve.seconds", buckets=(0.1, 1.0, 10.0))
    for v in (0.05, 0.5, 0.5, 5.0, 50.0):
        hist.observe(v)
    return reg


class TestMetricName:
    def test_dots_become_underscores(self):
        assert metric_name("pairs.scored") == "repro_pairs_scored"

    def test_invalid_chars_sanitized(self):
        assert metric_name("a b-c.d") == "repro_a_b_c_d"

    def test_custom_prefix(self):
        assert metric_name("x", prefix="p_") == "p_x"


class TestRender:
    def test_counter_exposed_with_total_suffix(self):
        text = render_openmetrics(registry=populated_registry())
        assert "# TYPE repro_pairs_scored counter" in text
        assert "repro_pairs_scored_total 630" in text

    def test_gauge_exposed_bare(self):
        text = render_openmetrics(registry=populated_registry())
        assert "# TYPE repro_obs_sampler_gc_collections gauge" in text
        assert "repro_obs_sampler_gc_collections 17" in text

    def test_histogram_buckets_cumulative_with_inf(self):
        text = render_openmetrics(registry=populated_registry())
        lines = text.splitlines()
        assert 'repro_resolve_seconds_bucket{le="0.1"} 1' in lines
        assert 'repro_resolve_seconds_bucket{le="1"} 3' in lines
        assert 'repro_resolve_seconds_bucket{le="10"} 4' in lines
        assert 'repro_resolve_seconds_bucket{le="+Inf"} 5' in lines
        assert "repro_resolve_seconds_count 5" in lines

    def test_ends_with_eof(self):
        assert render_openmetrics(registry=populated_registry()).endswith(
            "# EOF\n"
        )

    def test_snapshot_from_saved_trace_document(self):
        snapshot = populated_registry().snapshot()
        assert render_openmetrics(snapshot=snapshot) == render_openmetrics(
            registry=populated_registry()
        )

    def test_families_sorted(self):
        text = render_openmetrics(registry=populated_registry())
        merges = text.index("repro_cluster_merges_total")
        pairs = text.index("repro_pairs_scored_total")
        assert merges < pairs


class TestRoundTrip:
    def test_counters_and_gauges_survive(self):
        reg = populated_registry()
        back = parse_openmetrics(render_openmetrics(registry=reg))
        assert back["counters"]["repro_pairs_scored"] == 630
        assert back["counters"]["repro_cluster_merges"] == 35
        assert back["gauges"]["repro_obs_sampler_gc_collections"] == 17

    def test_histogram_survives_decumulated(self):
        reg = populated_registry()
        back = parse_openmetrics(render_openmetrics(registry=reg))
        hist = back["histograms"]["repro_resolve_seconds"]
        original = reg.snapshot()["histograms"]["resolve.seconds"]
        assert hist["buckets"] == original["buckets"]
        assert hist["counts"] == original["counts"]
        assert hist["sum"] == pytest.approx(original["sum"])
        assert hist["count"] == original["count"]

    def test_render_parse_render_is_stable(self):
        first = render_openmetrics(registry=populated_registry())
        again = render_openmetrics(
            snapshot=parse_openmetrics(first), prefix=""
        )
        back = parse_openmetrics(again)
        assert back["counters"]["repro_pairs_scored"] == 630

    def test_empty_registry_round_trips(self):
        text = render_openmetrics(registry=MetricsRegistry())
        assert parse_openmetrics(text) == {
            "counters": {}, "gauges": {}, "histograms": {},
        }


class TestParseErrors:
    def test_garbage_line_raises_with_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_openmetrics("# TYPE x counter\nnot a metric line at all !\n")

    def test_comments_and_blanks_ignored(self):
        parsed = parse_openmetrics("\n# a comment\n# EOF\n")
        assert parsed["counters"] == {}
