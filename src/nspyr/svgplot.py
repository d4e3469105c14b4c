"""Minimal deterministic SVG emitters for the demo commands.

Hand-rolled on purpose: the plots are structural artifacts (tests assert
on elements, not pixels) and the package stays free of plotting
dependencies.  All coordinates are formatted to fixed precision so
identical inputs produce byte-identical files.
"""

from __future__ import annotations

import math

_PALETTE = ("#1f77b4", "#d62728", "#e8b000", "#2ca02c", "#9467bd")

# Plot sizes in pixels; log10 scales plot smaller values at _LOG_FLOOR.
_CURVE_SIZE = 480
_BAR_SIZE = (480, 320)
_LINES_SIZE = (520, 360)
_PROFILE_SIZE = (560, 320)
_LOG_FLOOR = 1e-17


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _log_scale(values):
    """log10 of each ``|v|`` floored at ``_LOG_FLOOR``; their max and min."""
    logs = [math.log10(max(abs(v), _LOG_FLOOR)) for v in values]
    return logs, max(logs), min(logs)


def _document(width, height, body, title):
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">')
    caption = (f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" '
               f'font-size="14" font-family="sans-serif">{title}</text>')
    return "\n".join([head, caption, *body, "</svg>"]) + "\n"


def curve_overlay_svg(points, coarse_points=None, title="curve") -> str:
    """Closed-curve polyline with optional coarse points as black squares."""
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    margin = 40.0
    scale = (_CURVE_SIZE - 2 * margin) / span
    cx = (max(xs) + min(xs)) / 2
    cy = (max(ys) + min(ys)) / 2

    def to_px(p):
        return (_CURVE_SIZE / 2 + (p[0] - cx) * scale,
                _CURVE_SIZE / 2 - (p[1] - cy) * scale)

    pts = " ".join(f"{_fmt(u)},{_fmt(v)}" for u, v in map(to_px, points))
    body = [f'<polygon points="{pts}" fill="none" stroke="{_PALETTE[0]}" '
            f'stroke-width="1.5"/>']
    if coarse_points is not None:
        half = 4.0
        for p in coarse_points:
            u, v = to_px(p)
            body.append(f'<rect x="{_fmt(u - half)}" y="{_fmt(v - half)}" '
                        f'width="{2 * half}" height="{2 * half}" '
                        f'fill="black"/>')
    return _document(_CURVE_SIZE, _CURVE_SIZE, body, title)


def bar_chart_svg(values, title="detail norms") -> str:
    """Bar chart on a log10 scale (values are norms, possibly near zero)."""
    width, height = _BAR_SIZE
    logs, top, bottom = _log_scale(values)
    bottom = min(bottom, top - 1.0)
    margin = 48.0
    span = max(top - bottom, 1e-9)
    n = len(values)
    slot = (width - 2 * margin) / max(n, 1)
    body = []
    for i, lg in enumerate(logs):
        h = (lg - bottom) / span * (height - 2 * margin)
        x = margin + i * slot + 0.15 * slot
        y = height - margin - h
        body.append(f'<rect x="{_fmt(x)}" y="{_fmt(y)}" '
                    f'width="{_fmt(0.7 * slot)}" height="{_fmt(h)}" '
                    f'fill="{_PALETTE[0]}"/>')
        body.append(f'<text x="{_fmt(x + 0.35 * slot)}" '
                    f'y="{height - margin + 16:.1f}" text-anchor="middle" '
                    f'font-size="11" font-family="sans-serif">{i + 1}</text>')
        body.append(f'<text x="{_fmt(x + 0.35 * slot)}" y="{_fmt(y - 4)}" '
                    f'text-anchor="middle" font-size="9" '
                    f'font-family="sans-serif">{values[i]:.1e}</text>')
    body.append(f'<line x1="{margin}" y1="{height - margin:.1f}" '
                f'x2="{width - margin}" y2="{height - margin:.1f}" '
                f'stroke="black"/>')
    return _document(width, height, body, title)


def log_lines_svg(series: dict, title="detail decay") -> str:
    """One log10-scaled polyline per named series, with a legend.

    Series map names to per-level value lists; the x axis is the level.
    """
    width, height = _LINES_SIZE
    scaled = [_log_scale(vals) for vals in series.values()]
    logs_top = max(top for _, top, _ in scaled)
    logs_bot = min(bot for _, _, bot in scaled)
    span = max(logs_top - logs_bot, 1e-9)
    margin = 52.0
    n_levels = max(len(v) for v in series.values())
    body = []
    body.append(f'<line x1="{margin}" y1="{height - margin:.1f}" '
                f'x2="{width - margin}" y2="{height - margin:.1f}" '
                f'stroke="black"/>')
    body.append(f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
                f'y2="{height - margin:.1f}" stroke="black"/>')
    for i, (name, (logs, _, _)) in enumerate(zip(series, scaled)):
        color = _PALETTE[i % len(_PALETTE)]
        pts = []
        for l, lg in enumerate(logs):
            x = margin + (width - 2 * margin) * (l / max(n_levels - 1, 1))
            y = margin + (logs_top - lg) / span * (height - 2 * margin)
            pts.append(f"{_fmt(x)},{_fmt(y)}")
        body.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                    f'stroke="{color}" stroke-width="2"/>')
        body.append(f'<text x="{width - margin - 150:.1f}" '
                    f'y="{margin + 16 * i + 6:.1f}" font-size="11" '
                    f'fill="{color}" font-family="sans-serif">{name}</text>')
    for l in range(n_levels):
        x = margin + (width - 2 * margin) * (l / max(n_levels - 1, 1))
        body.append(f'<text x="{_fmt(x)}" y="{height - margin + 16:.1f}" '
                    f'text-anchor="middle" font-size="11" '
                    f'font-family="sans-serif">{l + 1}</text>')
    return _document(width, height, body, title)


def index_profile_svg(values, title="finest-level detail norms") -> str:
    """Per-index log10 profile of detail norms along the curve."""
    width, height = _PROFILE_SIZE
    logs, top, bot = _log_scale(values)
    span = max(top - bot, 1e-9)
    margin = 48.0
    n = len(values)
    pts = []
    for i, lg in enumerate(logs):
        x = margin + (width - 2 * margin) * (i / max(n - 1, 1))
        y = margin + (top - lg) / span * (height - 2 * margin)
        pts.append(f"{_fmt(x)},{_fmt(y)}")
    body = [f'<polyline points="{" ".join(pts)}" fill="none" '
            f'stroke="{_PALETTE[1]}" stroke-width="1.2"/>',
            f'<line x1="{margin}" y1="{height - margin:.1f}" '
            f'x2="{width - margin}" y2="{height - margin:.1f}" '
            f'stroke="black"/>']
    return _document(width, height, body, title)
