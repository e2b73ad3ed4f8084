"""Discrete paths on the uniform unit-interval grid, plus their CSV text.

A path with N segments stores its N+1 points at grid times s_i = i/N.
The container itself is dumb on purpose: domain membership and energy are
properties of a (model, path) pair and live in the geodesic module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DiscretePath", "format_sig"]

# 12 significant digits everywhere a float is serialized.
CSV_DIGITS = 12


def format_sig(x: float) -> str:
    """Format a float with CSV_DIGITS significant digits, locale independent."""
    return format(float(x), f".{CSV_DIGITS}g")


@dataclass(frozen=True)
class DiscretePath:
    """Points of a path sampled at s_i = i/N, i = 0..N."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 2:
            raise ValueError("points must be a (N+1, d) array with N >= 1")
        if not np.all(np.isfinite(pts)):
            raise ValueError("path points must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def n_segments(self) -> int:
        return self.points.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def grid(self) -> np.ndarray:
        n = self.n_segments
        return np.arange(n + 1) / n


def path_to_csv(path: DiscretePath) -> str:
    d = path.dim
    header = "s," + ",".join(f"coord_{k}" for k in range(d))
    lines = [header]
    for s, row in zip(path.grid, path.points):
        lines.append(",".join([format_sig(s)] + [format_sig(v) for v in row]))
    return "\n".join(lines) + "\n"

