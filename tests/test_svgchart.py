"""SVG renderer tests: structural well-formedness, determinism, and the
degenerate inputs the charts must survive."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from tradelab import svgchart
from tradelab.svgchart import COLORS, render_bar_chart, render_line_chart


def parse(svg: str) -> ET.Element:
    return ET.fromstring(svg)


class TestLineChart:
    def test_well_formed_single_series(self):
        svg = render_line_chart([("pnl", [0, 1, 2, 3], [1.0, 2.0, 1.5, 3.0])], title="demo")
        root = parse(svg)
        assert root.tag.endswith("svg")
        assert svg.count("<polyline") == 1
        assert "demo" in svg

    def test_multi_series_gets_legend(self):
        series = [(f"s{i}", [0, 1, 2], [i, i + 1, i]) for i in range(30)]
        svg = render_line_chart(series, title="many")
        parse(svg)
        assert svg.count("<polyline") == 30
        for i in range(30):
            assert f">s{i}</text>" in svg
        # colors cycle rather than run out
        assert COLORS[0] in svg and COLORS[9] in svg

    def test_flat_series_survives(self):
        svg = render_line_chart([("flat", [0, 1, 2], [5.0, 5.0, 5.0])])
        parse(svg)
        assert "NaN" not in svg and "inf" not in svg

    def test_single_point(self):
        parse(render_line_chart([("dot", [3.0], [7.0])]))

    def test_escapes_markup(self):
        svg = render_line_chart([("<b>&\"x\"</b>", [0, 1], [0, 1])], title="a<b>&c")
        parse(svg)
        assert "<b>" not in svg.replace("<body", "")
        assert "&amp;" in svg

    def test_non_finite_data_gets_the_unit_span(self):
        assert svgchart._span(np.nan, 1.0) == svgchart._span(0.0, np.inf) == (-1.0, 1.0)
        svg = render_line_chart([("a", [0.0, 1.0], [1.0, np.inf])])
        parse(svg)
        ticks = [el.text for el in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
        assert ticks[2:11:2] == ["-1", "-0.5", "0", "0.5", "1"]  # the y ticks, beside the x ones

    def test_deterministic(self):
        args = [("a", [0, 1, 2], [0.1, 0.7, 0.3]), ("b", [0, 1, 2], [1, 0, 1])]
        assert render_line_chart(args, title="t") == render_line_chart(args, title="t")

    def test_rejects_empty_and_ragged(self):
        with pytest.raises(ValueError):
            render_line_chart([])
        with pytest.raises(ValueError):
            render_line_chart([("x", [1, 2], [1.0])])
        with pytest.raises(ValueError):
            render_line_chart([("x", [], [])])


class TestBarChart:
    def test_well_formed(self):
        svg = render_bar_chart(["a", "b", "c"], [1.0, 2.0, 0.5], title="bars")
        parse(svg)
        # one background rect, one per-bar rect each, plus legend swatches: none
        assert svg.count("<rect") == 1 + 3

    def test_all_zero_bars_render(self):
        svg = render_bar_chart([str(i) for i in range(5)], np.zeros(5))
        parse(svg)
        assert svg.count("<rect") == 1 + 5
        assert 'height="0.00"' in svg

    def test_negative_values(self):
        svg = render_bar_chart(["dn", "up"], [-2.0, 3.0])
        parse(svg)
        assert svg.count("<rect") == 1 + 2

    def test_deterministic(self):
        assert render_bar_chart(["x"], [1.25]) == render_bar_chart(["x"], [1.25])

    def test_rejects_mismatch(self):
        with pytest.raises(ValueError):
            render_bar_chart(["a", "b"], [1.0])
        with pytest.raises(ValueError):
            render_bar_chart([], [])
