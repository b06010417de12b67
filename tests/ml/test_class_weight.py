"""Unit tests for :func:`repro.eval.reporting.format_xy_chart`."""


class TestXYChart:
    def test_renders_grid(self):
        from repro.eval.reporting import format_xy_chart

        points = [(0.001, 0.2), (0.01, 0.8), (0.1, 0.5)]
        text = format_xy_chart(points, title="sweep", x_label="min-sim", y_label="f1")
        assert "sweep" in text
        assert text.count("*") == 3
        assert "min-sim" in text
        assert "f1 in [0.200, 0.800]" in text

    def test_empty_points(self):
        from repro.eval.reporting import format_xy_chart

        assert format_xy_chart([], title="t") == "t"

    def test_single_point(self):
        from repro.eval.reporting import format_xy_chart

        text = format_xy_chart([(1.0, 0.5)])
        assert text.count("*") == 1
