"""Minimal deterministic SVG charts.

Text-template SVG so outputs are byte-identical across runs and platforms:
fixed canvas, fixed palette, coordinates formatted to two decimals.
"""

from __future__ import annotations

from typing import Sequence

_WIDTH, _HEIGHT = 640, 420
_PX, _PY = 70, 44  # the plot rectangle's left and top edges
_PW, _PH = _WIDTH - 30 - _PX, _HEIGHT - 64 - _PY  # and its size: 30 right, 64 bottom margins
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.0f}" y="26" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{_escape(title)}</text>',
    ]


def _axes(x_label: str, y_label: str) -> list[str]:
    """Axis lines and titles, and gridlines at 0, 0.25, ..., 1 on the fixed [0, 1] y axis."""
    x0, y0, x1, y1 = _PX, _PY + _PH, _PX + _PW, _PY
    parts = [
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="{(x0 + x1) / 2:.0f}" y="{_HEIGHT - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{_escape(x_label)}</text>',
        f'<text x="20" y="{(y0 + y1) / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 20 {(y0 + y1) / 2:.0f})">{_escape(y_label)}</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        gy = _PY + _PH - frac * _PH
        parts.append(
            f'<line x1="{x0:.2f}" y1="{gy:.2f}" x2="{x1:.2f}" y2="{gy:.2f}" '
            f'stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{x0 - 8:.2f}" y="{gy + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(frac)}</text>'
        )
    return parts


def _legend(labels: Sequence[str]) -> list[str]:
    parts = []
    x = _PX + 10
    y = _PY + 8
    for i, label in enumerate(labels):
        color = _PALETTE[i % len(_PALETTE)]
        ly = y + 18 * i
        parts.append(
            f'<rect x="{x}" y="{ly - 9}" width="12" height="12" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{x + 18}" y="{ly + 2}" font-family="sans-serif" '
            f'font-size="12">{_escape(label)}</text>'
        )
    return parts


def line_chart(
    series: dict[str, Sequence[tuple[float, float]]],
    title: str,
    x_label: str,
    y_label: str,
) -> str:
    """Polyline chart of one or more (x, y) series sharing the x axis, y in [0, 1]."""
    xs = [x for pts in series.values() for x, _ in pts]
    if not xs:
        raise ValueError("line_chart needs at least one point")
    x_min, x_max = min(xs), max(xs)
    span_x = (x_max - x_min) or 1.0

    def sx(x: float) -> float:
        return _PX + (x - x_min) / span_x * _PW

    def sy(y: float) -> float:
        return _PY + _PH - y * _PH

    parts = _header(title) + _axes(x_label, y_label)
    for x in sorted(set(xs)):
        parts.append(
            f'<text x="{sx(x):.2f}" y="{_PY + _PH + 18:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(x)}</text>'
        )
    for i, (label, pts) in enumerate(series.items()):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        for x, y in pts:
            parts.append(
                f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="{color}"/>'
            )
    parts.extend(_legend(list(series.keys())))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def grouped_bar_chart(
    groups: Sequence[str],
    series: dict[str, Sequence[float]],
    title: str,
    x_label: str,
    y_label: str,
) -> str:
    """Bars grouped by category, one bar per series within each group; heights
    clipped to [0, 1]."""
    if not groups:
        raise ValueError("grouped_bar_chart needs at least one group")
    for label, vals in series.items():
        if len(vals) != len(groups):
            raise ValueError(f"series {label!r} has {len(vals)} values for {len(groups)} groups")
    n_groups = len(groups)
    n_series = max(1, len(series))
    group_w = _PW / n_groups
    bar_w = group_w * 0.8 / n_series

    parts = _header(title) + _axes(x_label, y_label)
    for gi, group in enumerate(groups):
        gx = _PX + gi * group_w
        parts.append(
            f'<text x="{gx + group_w / 2:.2f}" y="{_PY + _PH + 18:.2f}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">'
            f"{_escape(str(group))}</text>"
        )
        for si, (label, vals) in enumerate(series.items()):
            h = max(0.0, min(1.0, vals[gi])) * _PH
            bx = gx + group_w * 0.1 + si * bar_w
            color = _PALETTE[si % len(_PALETTE)]
            parts.append(
                f'<rect x="{bx:.2f}" y="{_PY + _PH - h:.2f}" width="{bar_w:.2f}" '
                f'height="{h:.2f}" fill="{color}"/>'
            )
    parts.extend(_legend(list(series.keys())))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
