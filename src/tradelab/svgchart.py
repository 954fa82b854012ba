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


def _fmt_each(values: np.ndarray) -> list[str]:
    """``_fmt`` of each value, formatted once per distinct float64 bit pattern,
    so -0.0 and NaN keep their own text."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array(list(map(_fmt, bits.view(np.float64).tolist())), dtype=object)
    return texts[inverse].tolist()


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


def _el(tag: str, text=None, **attrs) -> str:
    """One SVG element. Each ``_`` in an attribute name becomes ``-``, a float
    value prints through ``_fmt`` and any other value as it is; ``text``, when
    given, is escaped and closed in, otherwise the element closes itself."""
    spelled = " ".join(f'{name.replace("_", "-")}="{_fmt(value) if isinstance(value, float) else value}"'
                       for name, value in attrs.items())
    return f"<{tag} {spelled}/>" if text is None else f"<{tag} {spelled}>{_escape(text)}</{tag}>"


def _axes(x0: float, x1: float, y0: float, y1: float, plot_right: float) -> list[str]:
    parts = [
        _el("line", x1=_ML, y1=_H - _MB, x2=plot_right, y2=_H - _MB, stroke="#111", stroke_width=1),
        _el("line", x1=_ML, y1=_MT, x2=_ML, y2=_H - _MB, stroke="#111", stroke_width=1),
    ]
    for k in range(5):
        frac = k / 4
        parts.append(_el("text", _tick_label(x0 + frac * (x1 - x0)), x=_ML + frac * (plot_right - _ML),
                         y=_H - _MB + 18, font_size=11, text_anchor="middle", fill="#333"))
        py = _H - _MB - frac * (_H - _MB - _MT)
        parts.append(_el("line", x1=_ML, y1=py, x2=plot_right, y2=py, stroke="#ddd", stroke_width="0.5"))
        parts.append(_el("text", _tick_label(y0 + frac * (y1 - y0)), x=_ML - 6, y=py + 4, font_size=11,
                         text_anchor="end", fill="#333"))
    return parts


def _frame(title: str, body: list[str]) -> str:
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_W)}" height="{int(_H)}" '
        f'viewBox="0 0 {int(_W)} {int(_H)}">',
        _el("rect", width=int(_W), height=int(_H), fill="#ffffff"),
        _el("text", title, x=_W / 2, y=24, font_size=16, text_anchor="middle", fill="#111"),
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"


def render_line_chart(series, title: str = "") -> str:
    """SVG document for (label, xs, ys) polyline series on shared axes.

    A legend appears whenever there is more than one series. Each coordinate
    text is made once: the ``"x,"`` texts once per xs array, however many
    series pass that same array, and each series' y texts once per distinct
    value.
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
    x_texts = {}  # id(xs) -> its "x," texts; series holds every xs, so no id is reused
    for i, (label, xs, ys) in enumerate(series):
        color = COLORS[i % len(COLORS)]
        if id(xs) not in x_texts:
            px = _ML + (xs - x0) / (x1 - x0) * (plot_right - _ML)
            x_texts[id(xs)] = list(map("{:.2f},".format, px.tolist()))
        py = _H - _MB - (ys - y0) / (y1 - y0) * (_H - _MB - _MT)
        points = " ".join(map(str.__add__, x_texts[id(xs)], _fmt_each(py)))
        body.append(_el("polyline", points=points, fill="none", stroke=color, stroke_width="1.5"))
        if legend:
            ly = _MT + 14 * i
            lx = plot_right + 12
            body.append(_el("rect", x=lx, y=ly, width=10, height=10, fill=color))
            body.append(_el("text", label, x=lx + 14, y=ly + 9, font_size=11, fill="#333"))
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
        body.append(_el("rect", x=x, y=min(top, base), width=width, height=height, fill=COLORS[0]))
        if n <= 40:  # per-bar labels stay readable only at modest counts
            body.append(_el("text", label, x=x + width / 2, y=_H - _MB + 30, font_size=10, text_anchor="middle",
                            fill="#333"))
    return _frame(title, body)
