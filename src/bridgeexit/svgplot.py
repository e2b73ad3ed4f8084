"""Minimal deterministic SVG scatter/line plots.

No randomness, no timestamps, no float formatting drift: the same curves
produce byte-identical files on every run.  Markers carry their data-space
coordinates in data-x / data-y attributes so a figure can be round-tripped
by tests without a rasterizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .paths import format_sig

__all__ = ["Curve", "Marker", "render_svg"]

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
DASH = {"solid": None, "dashed": "8 5", "dotted": "2 4"}


@dataclass(frozen=True)
class Curve:
    points: np.ndarray
    style: str = "solid"
    role: str = "curve"
    color: str | None = None
    width: float = 2.0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ValueError("a curve needs an (n, 2) array with n >= 2")
        if self.style not in DASH:
            raise ValueError(f"unknown style {self.style!r}")
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class Marker:
    x: float
    y: float
    role: str = "point"
    label: str | None = None
    color: str | None = None
    radius: float = 4.0


@dataclass
class _Frame:
    xmin: float
    xmax: float
    ymin: float
    ymax: float
    width: float
    height: float

    def to_screen(self, x, y):
        sx = (x - self.xmin) / (self.xmax - self.xmin) * self.width
        sy = self.height - (y - self.ymin) / (self.ymax - self.ymin) * self.height
        return sx, sy


def _extent(curves, markers, margin_frac):
    xs = [c.points[:, 0] for c in curves] + [np.array([m.x]) for m in markers]
    ys = [c.points[:, 1] for c in curves] + [np.array([m.y]) for m in markers]
    if not xs:
        raise ValueError("nothing to draw")
    ax = np.concatenate(xs)
    ay = np.concatenate(ys)
    xmin, xmax = float(ax.min()), float(ax.max())
    ymin, ymax = float(ay.min()), float(ay.max())
    dx = (xmax - xmin) or 1.0
    dy = (ymax - ymin) or 1.0
    return (
        xmin - margin_frac * dx,
        xmax + margin_frac * dx,
        ymin - margin_frac * dy,
        ymax + margin_frac * dy,
    )


def _fmt(v: float) -> str:
    return format(float(v), ".6g")


def render_svg(curves, markers=(), width: int = 640, height: int = 480,
               margin_frac: float = 0.1) -> str:
    curves = list(curves)
    markers = list(markers)
    xmin, xmax, ymin, ymax = _extent(curves, markers, margin_frac)
    frame = _Frame(xmin, xmax, ymin, ymax, float(width), float(height))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for i, c in enumerate(curves):
        color = c.color or PALETTE[i % len(PALETTE)]
        coords = " ".join(
            "{},{}".format(_fmt(sx), _fmt(sy))
            for sx, sy in (frame.to_screen(px, py) for px, py in c.points)
        )
        dash = DASH[c.style]
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        out.append(
            f'<polyline fill="none" stroke="{color}" '
            f'stroke-width="{_fmt(c.width)}"{dash_attr} '
            f'data-role="{c.role}" points="{coords}"/>'
        )
    for i, m in enumerate(markers):
        color = m.color or PALETTE[(len(curves) + i) % len(PALETTE)]
        sx, sy = frame.to_screen(m.x, m.y)
        out.append(
            f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="{_fmt(m.radius)}" '
            f'fill="{color}" data-role="{m.role}" '
            f'data-x="{format_sig(m.x)}" data-y="{format_sig(m.y)}"/>'
        )
        if m.label:
            out.append(
                f'<text x="{_fmt(sx + 6)}" y="{_fmt(sy - 6)}" '
                f'font-size="13" font-family="sans-serif" '
                f'fill="#333333">{m.label}</text>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"
