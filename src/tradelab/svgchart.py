"""Minimal static SVG charts: polyline series and bar columns.

No plotting dependency — the point is diffable, byte-stable output, so all
coordinates are formatted to fixed precision and every run over the same
data yields the identical document.
"""

from __future__ import annotations

import numpy as np

__all__ = ["COLORS", "render_line_chart", "render_bar_chart"]

COLORS = (
    "#2563eb", "#dc2626", "#16a34a", "#9333ea", "#ea580c",
    "#0891b2", "#ca8a04", "#db2777", "#4b5563", "#65a30d",
)

# canvas layout; left margin leaves room for y tick labels
_W, _H = 960.0, 540.0
_ML, _MR, _MT, _MB = 72.0, 24.0, 40.0, 48.0
_LEGEND_W = 150.0


def _escape(text: str) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _tick_label(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def _span(lo: float, hi: float) -> tuple[float, float]:
    if not np.isfinite(lo) or not np.isfinite(hi):
        return -1.0, 1.0
    if lo == hi:  # a flat series still needs a nonzero range
        return lo - 1.0, hi + 1.0
    return lo, hi


def _axes(x0: float, x1: float, y0: float, y1: float, plot_right: float) -> list[str]:
    parts = []
    parts.append(
        f'<line x1="{_fmt(_ML)}" y1="{_fmt(_H - _MB)}" x2="{_fmt(plot_right)}" '
        f'y2="{_fmt(_H - _MB)}" stroke="#111" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_fmt(_ML)}" y1="{_fmt(_MT)}" x2="{_fmt(_ML)}" '
        f'y2="{_fmt(_H - _MB)}" stroke="#111" stroke-width="1"/>'
    )
    for k in range(5):
        frac = k / 4
        xv = x0 + frac * (x1 - x0)
        px = _ML + frac * (plot_right - _ML)
        parts.append(
            f'<text x="{_fmt(px)}" y="{_fmt(_H - _MB + 18)}" font-size="11" '
            f'text-anchor="middle" fill="#333">{_escape(_tick_label(xv))}</text>'
        )
        yv = y0 + frac * (y1 - y0)
        py = _H - _MB - frac * (_H - _MB - _MT)
        parts.append(
            f'<line x1="{_fmt(_ML)}" y1="{_fmt(py)}" x2="{_fmt(plot_right)}" '
            f'y2="{_fmt(py)}" stroke="#ddd" stroke-width="0.5"/>'
        )
        parts.append(
            f'<text x="{_fmt(_ML - 6)}" y="{_fmt(py + 4)}" font-size="11" '
            f'text-anchor="end" fill="#333">{_escape(_tick_label(yv))}</text>'
        )
    return parts


def _frame(title: str, body: list[str]) -> str:
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_W)}" height="{int(_H)}" '
        f'viewBox="0 0 {int(_W)} {int(_H)}">',
        f'<rect width="{int(_W)}" height="{int(_H)}" fill="#ffffff"/>',
        f'<text x="{_fmt(_W / 2)}" y="24" font-size="16" text-anchor="middle" '
        f'fill="#111">{_escape(title)}</text>',
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"


def render_line_chart(series, title: str = "") -> str:
    """SVG document for (label, xs, ys) polyline series on shared axes.

    A legend appears whenever there is more than one series.
    """
    series = [(str(label), np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64))
              for label, xs, ys in series]
    if not series or any(xs.size != ys.size or xs.size == 0 for _, xs, ys in series):
        raise ValueError("each series needs equally sized, non-empty xs and ys")
    legend = len(series) > 1
    plot_right = _W - _MR - (_LEGEND_W if legend else 0.0)

    x0, x1 = _span(min(xs.min() for _, xs, _ in series), max(xs.max() for _, xs, _ in series))
    y0, y1 = _span(min(ys.min() for _, _, ys in series), max(ys.max() for _, _, ys in series))

    body = _axes(x0, x1, y0, y1, plot_right)
    for i, (label, xs, ys) in enumerate(series):
        color = COLORS[i % len(COLORS)]
        px = _ML + (xs - x0) / (x1 - x0) * (plot_right - _ML)
        py = _H - _MB - (ys - y0) / (y1 - y0) * (_H - _MB - _MT)
        points = " ".join(map("{:.2f},{:.2f}".format, px.tolist(), py.tolist()))
        body.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        if legend:
            ly = _MT + 14 * i
            lx = plot_right + 12
            body.append(
                f'<rect x="{_fmt(lx)}" y="{_fmt(ly)}" width="10" height="10" fill="{color}"/>'
            )
            body.append(
                f'<text x="{_fmt(lx + 14)}" y="{_fmt(ly + 9)}" font-size="11" '
                f'fill="#333">{_escape(label)}</text>'
            )
    return _frame(title, body)


def render_bar_chart(labels, values, title: str = "") -> str:
    """SVG document of one vertical bar per label; zero values render as
    zero-height rects so the document structure never depends on the data."""
    values = np.asarray(values, dtype=np.float64)
    labels = [str(v) for v in labels]
    if len(labels) != values.size or values.size == 0:
        raise ValueError("labels and values must be equally sized and non-empty")
    y0, y1 = _span(min(0.0, float(values.min())), max(0.0, float(values.max())))
    plot_right = _W - _MR

    def py(v):
        return _H - _MB - (v - y0) / (y1 - y0) * (_H - _MB - _MT)

    body = _axes(0.0, float(len(labels)), y0, y1, plot_right)
    n = len(labels)
    slot = (plot_right - _ML) / n
    width = slot * 0.8
    base = py(0.0)
    for i, (label, value) in enumerate(zip(labels, values)):
        x = _ML + slot * i + slot * 0.1
        top = py(float(value))
        height = abs(base - top)
        body.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(min(top, base))}" width="{_fmt(width)}" '
            f'height="{_fmt(height)}" fill="{COLORS[0]}"/>'
        )
        if n <= 40:  # per-bar labels stay readable only at modest counts
            body.append(
                f'<text x="{_fmt(x + width / 2)}" y="{_fmt(_H - _MB + 30)}" font-size="10" '
                f'text-anchor="middle" fill="#333">{_escape(label)}</text>'
            )
    return _frame(title, body)
