"""Static SVG plots: survival-trace line plots and box-and-whisker summaries.

Rendering is a pure function of the input data (fixed palette, fixed float
formatting, no timestamps), so identical inputs produce byte-identical SVG.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["svg_line_plot", "svg_box_plot"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#e377c2", "#17becf")
_W, _H = 720, 460
_ML, _MR, _MT, _MB = 80, 24, 40, 56


def _fmt(v):
    return format(float(v), ".2f")


def _tick_label(v):
    return format(float(v), ".4g")


def _ticks(lo, hi, count=6):
    if hi <= lo:
        hi = lo + 1.0
    raw = np.linspace(lo, hi, count)
    return list(raw)


def _log_ticks(lo, hi):
    lo_d = int(math.floor(math.log10(lo)))
    hi_d = int(math.ceil(math.log10(hi)))
    return [10.0 ** d for d in range(lo_d, hi_d + 1)]


class _Axes:
    def __init__(self, xlo, xhi, ylo, yhi, log_y=False):
        self.xlo, self.xhi = xlo, xhi
        self.ylo, self.yhi = ylo, yhi
        self.log_y = log_y

    def x(self, v):
        span = self.xhi - self.xlo or 1.0
        return _ML + (v - self.xlo) / span * (_W - _ML - _MR)

    def y(self, v):
        if self.log_y:
            lo, hi = math.log10(self.ylo), math.log10(self.yhi)
            u = (math.log10(max(v, self.ylo)) - lo) / ((hi - lo) or 1.0)
        else:
            u = (v - self.ylo) / ((self.yhi - self.ylo) or 1.0)
        return _H - _MB - u * (_H - _MT - _MB)


def _frame(parts, ax, title, xlabel, ylabel):
    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
                 f'height="{_H - _MT - _MB}" fill="none" stroke="#333" stroke-width="1"/>')
    parts.append(f'<text x="{_W // 2}" y="{_MT - 14}" text-anchor="middle" '
                 f'font-size="15">{title}</text>')
    parts.append(f'<text x="{(_ML + _W - _MR) // 2}" y="{_H - 14}" '
                 f'text-anchor="middle" font-size="13">{xlabel}</text>')
    parts.append(f'<text x="20" y="{(_MT + _H - _MB) // 2}" text-anchor="middle" '
                 f'font-size="13" transform="rotate(-90 20 {(_MT + _H - _MB) // 2})">'
                 f'{ylabel}</text>')
    xticks = _ticks(ax.xlo, ax.xhi)
    yticks = _log_ticks(ax.ylo, ax.yhi) if ax.log_y else _ticks(ax.ylo, ax.yhi)
    for v in xticks:
        px = ax.x(v)
        parts.append(f'<line x1="{_fmt(px)}" y1="{_H - _MB}" x2="{_fmt(px)}" '
                     f'y2="{_H - _MB + 5}" stroke="#333"/>')
        parts.append(f'<text x="{_fmt(px)}" y="{_H - _MB + 19}" text-anchor="middle" '
                     f'font-size="11">{_tick_label(v)}</text>')
    for v in yticks:
        py = ax.y(v)
        parts.append(f'<line x1="{_ML - 5}" y1="{_fmt(py)}" x2="{_ML}" '
                     f'y2="{_fmt(py)}" stroke="#333"/>')
        parts.append(f'<text x="{_ML - 8}" y="{_fmt(py + 4)}" text-anchor="end" '
                     f'font-size="11">{_tick_label(v)}</text>')


def _document(parts):
    body = "\n".join(parts)
    return ('<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
            'font-family="Helvetica, Arial, sans-serif">\n%s\n</svg>\n' % (_W, _H, body))


def svg_line_plot(series, title="", xlabel="", ylabel="", log_y=False):
    """Line plot; ``series`` is an ordered list of (label, xs, ys)."""
    xs_all = [x for (_, xs, _) in series for x in xs]
    ys_all = [y for (_, _, ys) in series for y in ys]
    if not xs_all:
        raise ValueError("no data to plot")
    if log_y:
        positive = [y for y in ys_all if y > 0] or [1e-3]
        ylo, yhi = min(positive), max(positive)
        ylo, yhi = ylo / 1.5, yhi * 1.5
    else:
        ylo, yhi = min(ys_all), max(ys_all)
        pad = 0.05 * ((yhi - ylo) or 1.0)
        ylo, yhi = ylo - pad, yhi + pad
    ax = _Axes(min(xs_all), max(xs_all), ylo, yhi, log_y)
    parts = []
    _frame(parts, ax, title, xlabel, ylabel)
    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{_fmt(ax.x(x))},{_fmt(ax.y(y))}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.6"/>')
        for x, y in zip(xs, ys):
            parts.append(f'<circle cx="{_fmt(ax.x(x))}" cy="{_fmt(ax.y(y))}" '
                         f'r="2.4" fill="{color}"/>')
        ly = _MT + 16 + 16 * i
        parts.append(f'<line x1="{_ML + 10}" y1="{ly - 4}" x2="{_ML + 34}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="1.6"/>')
        parts.append(f'<text x="{_ML + 40}" y="{ly}" font-size="12">{label}</text>')
    return _document(parts)


def svg_box_plot(groups, title="", ylabel="", log_y=False):
    """Box-and-whisker plot: median, quartiles, whiskers to the furthest point
    within 1.5*IQR, fliers beyond.  ``groups`` is an ordered list of
    (label, values)."""
    vals_all = [v for (_, vals) in groups for v in vals]
    if not vals_all:
        raise ValueError("no data to plot")
    # when every value is infinite (no decay was fitted) the frame and group
    # labels are still drawn, on a default range
    vals_all = [v for v in vals_all if math.isfinite(v)] or [1e-3]
    if log_y:
        positive = [v for v in vals_all if v > 0] or [1e-3]
        ylo, yhi = min(positive) / 1.5, max(positive) * 1.5
    else:
        ylo, yhi = min(vals_all), max(vals_all)
        pad = 0.05 * ((yhi - ylo) or 1.0)
        ylo, yhi = ylo - pad, yhi + pad
    ax = _Axes(0.0, float(len(groups)), ylo, yhi, log_y)
    parts = []
    _frame(parts, ax, title, "", ylabel)
    for i, (label, values) in enumerate(groups):
        finite = sorted(v for v in values if math.isfinite(v))
        color = _PALETTE[i % len(_PALETTE)]
        cx = ax.x(i + 0.5)
        half = 0.28 * (ax.x(1) - ax.x(0))
        parts.append(f'<text x="{_fmt(cx)}" y="{_H - _MB + 19}" text-anchor="middle" '
                     f'font-size="11">{label}</text>')
        if not finite:
            continue
        q1, med, q3 = (float(np.percentile(finite, q)) for q in (25, 50, 75))
        iqr = q3 - q1
        lo_lim, hi_lim = q1 - 1.5 * iqr, q3 + 1.5 * iqr
        inside = [v for v in finite if lo_lim <= v <= hi_lim]
        w_lo, w_hi = min(inside), max(inside)
        parts.append(f'<rect x="{_fmt(cx - half)}" y="{_fmt(ax.y(q3))}" '
                     f'width="{_fmt(2 * half)}" height="{_fmt(ax.y(q1) - ax.y(q3))}" '
                     f'fill="none" stroke="{color}" stroke-width="1.4"/>')
        parts.append(f'<line x1="{_fmt(cx - half)}" y1="{_fmt(ax.y(med))}" '
                     f'x2="{_fmt(cx + half)}" y2="{_fmt(ax.y(med))}" '
                     f'stroke="{color}" stroke-width="2"/>')
        for w, q in ((w_lo, q1), (w_hi, q3)):
            parts.append(f'<line x1="{_fmt(cx)}" y1="{_fmt(ax.y(q))}" x2="{_fmt(cx)}" '
                         f'y2="{_fmt(ax.y(w))}" stroke="{color}" stroke-width="1.2"/>')
            parts.append(f'<line x1="{_fmt(cx - half / 2)}" y1="{_fmt(ax.y(w))}" '
                         f'x2="{_fmt(cx + half / 2)}" y2="{_fmt(ax.y(w))}" '
                         f'stroke="{color}" stroke-width="1.2"/>')
        for v in finite:
            if v < lo_lim or v > hi_lim:
                parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(ax.y(v))}" r="2.4" '
                             f'fill="none" stroke="{color}"/>')
    return _document(parts)
