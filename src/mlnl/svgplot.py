"""Self-contained static SVG plots (lines and grouped bars), no plotting deps.

Output is deterministic: identical input produces byte-identical files.
Bars are the only <rect> elements; legend swatches use circles.
"""

from __future__ import annotations

from . import textio

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 30, 50, 60
_X0, _Y0, _X1, _Y1 = _ML, _MT, _W - _MR, _H - _MB  # plot area, y grows downwards


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _esc(text) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def _color(i: int) -> str:
    return _PALETTE[i % len(_PALETTE)]


def _nice_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / max(n - 1, 1)
    return [lo + i * step for i in range(n)]


def _scale(lo: float, hi: float, p0: float, p1: float):
    """The linear map taking data values lo..hi to pixel coordinates p0..p1."""
    return lambda v: p0 + (v - lo) / (hi - lo) * (p1 - p0)


def _stroke(x1, y1, x2, y2) -> str:
    return (f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="black"/>')


def _text(x: str, y: str, text, size: int, anchor: str | None = "middle",
          extra: str = "") -> str:
    a = f' text-anchor="{anchor}"' if anchor else ""
    return (f'<text x="{x}" y="{y}"{a} font-family="sans-serif" '
            f'font-size="{size}"{extra}>{_esc(text)}</text>')


def _x_label(x: float, text) -> str:
    """A tick or group label under the x axis."""
    return _text(_fmt(x), _fmt(_Y1 + 20), text, 11)


def _document(series, title, xlabel, ylabel, y_lo, y_hi, x_axis, marks) -> list[str]:
    """The SVG document around one plot body: title, axes, y ticks, legend and
    axis labels. `x_axis` is written before the y ticks and `marks` after."""
    py = _scale(y_lo, y_hi, _Y1, _Y0)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        _text(f"{_W / 2:.0f}", "24", title, 15),
        _stroke(_X0, _Y1, _X1, _Y1),
        _stroke(_X0, _Y0, _X0, _Y1),
        *x_axis,
    ]
    for t in _nice_ticks(y_lo, y_hi):
        parts += [_stroke(_X0 - 5, py(t), _X0, py(t)),
                  _text(_fmt(_X0 - 8), _fmt(py(t) + 4), f"{t:.4g}", 11, "end")]
    parts += marks
    lx, ly = _ML + 10, _MT - 14
    for i, (name, _, _) in enumerate(series):
        parts += [f'<circle cx="{_fmt(lx)}" cy="{_fmt(ly)}" r="5" fill="{_color(i)}"/>',
                  _text(_fmt(lx + 9), _fmt(ly + 4), name, 12, None)]
        lx += 9 + 8 * len(name) + 28
    if xlabel:
        parts.append(_text(f"{_W / 2:.0f}", f"{_H - 12}", xlabel, 13))
    if ylabel:
        mid = f"{_H / 2:.0f}"
        parts.append(_text("16", mid, ylabel, 13, extra=f' transform="rotate(-90 16 {mid})"'))
    parts.append("</svg>")
    return parts


def _line_plot(series, title, xlabel, ylabel) -> list[str]:
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    px, py = _scale(x_lo, x_hi, _X0, _X1), _scale(y_lo, y_hi, _Y1, _Y0)

    x_axis = []
    for t in _nice_ticks(x_lo, x_hi):
        x_axis += [_stroke(px(t), _Y1, px(t), _Y1 + 5), _x_label(px(t), f"{t:.4g}")]
    marks = []
    for i, (_, xs, ys) in enumerate(series):
        pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(xs, ys))
        marks.append(f'<polyline points="{pts}" fill="none" stroke="{_color(i)}" '
                     f'stroke-width="2"/>')
        marks += [f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="3" fill="{_color(i)}"/>'
                  for x, y in zip(xs, ys)]
    return _document(series, title, xlabel, ylabel, y_lo, y_hi, x_axis, marks)


def _grouped_bar_plot(series, title, xlabel, ylabel) -> list[str]:
    groups = series[0][1]
    if any(xs != groups for _, xs, _ in series):
        raise ValueError("grouped bars need identical group labels across series")
    ys_all = [y for _, _, ys in series for y in ys]
    y_lo = min(0.0, min(ys_all))
    y_hi = max(0.0, max(ys_all))  # bars start at 0, so 0 stays in range
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    y_hi *= 1.08
    py = _scale(y_lo, y_hi, _Y1, _Y0)

    group_w = (_X1 - _X0) / len(groups)
    bar_w = group_w * 0.8 / len(series)
    marks = []
    for gi, g in enumerate(groups):
        gx = _X0 + gi * group_w
        marks.append(_x_label(gx + group_w / 2, g))
        for si, (_, _, ys) in enumerate(series):
            by = py(ys[gi])
            marks.append(f'<rect x="{_fmt(gx + group_w * 0.1 + si * bar_w)}" '
                         f'y="{_fmt(min(by, py(0.0)))}" width="{_fmt(bar_w)}" '
                         f'height="{_fmt(abs(py(0.0) - by))}" fill="{_color(si)}"/>')
    return _document(series, title, xlabel, ylabel, y_lo, y_hi, [], marks)


def emit_plot(series, kind: str, path, title: str = "", xlabel: str = "",
              ylabel: str = "") -> None:
    """Render named (x, y) series to `path` as a line or grouped_bar SVG."""
    sl = [(str(name), tuple(xs), tuple(float(y) for y in ys)) for name, xs, ys in series]
    if not sl or any(len(xs) == 0 or len(xs) != len(ys) for _, xs, ys in sl):
        raise ValueError("emit_plot needs non-empty, aligned series")
    plots = {"line": _line_plot, "grouped_bar": _grouped_bar_plot}
    if kind not in plots:
        raise ValueError(f"unknown plot kind {kind!r}")
    textio.write_lines(path, plots[kind](sl, title, xlabel, ylabel))
