"""Flat key = value run configurations.

One assignment per line, '#' starts a comment, keys are dotted identifiers,
values are scalars, comma-separated vectors, or semicolon-separated point
lists.  One config drives every command, and every command reads every block
of it (model, endpoints, barrier, solver, horizons, freeze points, exit, mc,
figure) before any computation starts; commands differ only in which blocks
they require.  Each key is read by one call with one default, and unknown or
malformed keys are reported with their line number.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .exits import Boundary, Hyperplane, VerticalBarrier
from .geodesic import SolverOptions
from .model import (
    DiffusionModel,
    constant_model,
    grid_model_from_csv,
    hull_white_model,
)

__all__ = [
    "RawConfig",
    "ConfigView",
    "parse_config_text",
    "model_from_view",
    "boundary_from_view",
    "solver_from_view",
    "endpoints_from_view",
    "t_list_from_view",
    "freeze_points_from_view",
]

_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*$")

_REQUIRED = object()


@dataclass(frozen=True)
class RawConfig:
    """Parsed assignments: key -> (raw value, 1-based line number)."""

    entries: dict


def parse_config_text(text: str) -> RawConfig:
    entries: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError("expected 'key = value'", lineno)
        key, _, val = body.partition("=")
        key = key.strip()
        val = val.strip()
        if not _KEY_RE.match(key):
            raise ConfigError(f"malformed key {key!r}", lineno)
        if key in entries:
            raise ConfigError(
                f"duplicate key {key!r} (first set on line {entries[key][1]})",
                lineno,
            )
        if val == "":
            raise ConfigError(f"empty value for {key!r}", lineno)
        entries[key] = (val, lineno)
    return RawConfig(entries)


def _number(val: str) -> float:
    out = float(val)
    if math.isnan(out):
        raise ValueError
    return out


def _numbers(val: str) -> np.ndarray:
    return np.array([_number(p) for p in val.split(",")], dtype=float)


def _bool(val: str) -> bool:
    low = val.lower()
    if low not in ("true", "yes", "1", "false", "no", "0"):
        raise ValueError
    return low in ("true", "yes", "1")


def _points(val: str) -> list:
    pts = [_numbers(chunk) for chunk in val.split(";") if chunk.strip()]
    if not pts or len({p.shape[0] for p in pts}) != 1:
        raise ValueError
    return pts


class ConfigView:
    """Typed access to a RawConfig with consumed-key bookkeeping.

    finish() rejects any key the command never asked about, so typos fail
    loudly instead of silently falling back to defaults.
    """

    def __init__(self, raw: RawConfig):
        self._entries = dict(raw.entries)
        self._used: set[str] = set()

    def has(self, key: str) -> bool:
        return key in self._entries

    def lineno(self, key: str) -> int | None:
        ent = self._entries.get(key)
        return ent[1] if ent else None

    def _get(self, key: str, default, parse, expected: str):
        """The one read path: fetch key, mark it used, parse its value, and
        report a value parse rejects with the key and its line."""
        ent = self._entries.get(key)
        if ent is None:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key {key!r}")
            return default
        self._used.add(key)
        val, lineno = ent
        try:
            return parse(val)
        except ValueError:
            raise ConfigError(f"{key} must be {expected}; got {val!r}", lineno) from None

    def get_str(self, key: str, default=_REQUIRED, choices=None) -> str | None:
        def parse(val):
            if choices is not None and val not in choices:
                raise ValueError
            return val

        return self._get(key, default, parse, "one of " + ", ".join(choices or ()))

    def get_float(self, key: str, default=_REQUIRED) -> float | None:
        return self._get(key, default, _number, "a number")

    def get_int(self, key: str, default=_REQUIRED) -> int | None:
        return self._get(key, default, int, "an integer")

    def get_bool(self, key: str, default=_REQUIRED) -> bool | None:
        return self._get(key, default, _bool, "true or false")

    def get_floats(self, key: str, default=_REQUIRED) -> np.ndarray | None:
        return self._get(key, default, _numbers,
                         "a comma-separated list of numbers")

    def get_points(self, key: str, default=_REQUIRED) -> list | None:
        """Semicolon-separated list of comma-separated points."""
        return self._get(key, default, _points,
                         "a semicolon-separated list of points of one dimension")

    def finish(self) -> None:
        leftover = set(self._entries) - self._used
        if leftover:
            key = min(leftover, key=lambda k: self._entries[k][1])
            raise ConfigError(f"unknown key {key!r}", self._entries[key][1])


# ---- Builders ---- #

MODEL_KINDS = ("constant", "hull_white_simple", "hull_white", "custom_grid")


def model_from_view(view: ConfigView) -> DiffusionModel:
    kind = view.get_str("model.kind", choices=MODEL_KINDS)
    if kind == "constant":
        flat = view.get_floats("model.sigma")
        d = int(round(math.sqrt(len(flat))))
        if d * d != len(flat):
            raise ConfigError(
                f"model.sigma must list a square matrix row-major; "
                f"got {len(flat)} entries",
                view.lineno("model.sigma"),
            )
        complete = view.get_bool("model.complete", default=True)
        try:
            return constant_model(flat.reshape(d, d), complete=complete)
        except Exception as exc:
            raise ConfigError(f"model.sigma: {exc}", view.lineno("model.sigma"))
    if kind == "hull_white_simple":
        return hull_white_model()
    if kind == "hull_white":
        sv = view.get_float("model.sigma_vol", default=1.0)
        rho = view.get_float("model.rho", default=0.0)
        b = view.get_float("model.b", default=0.0)
        mu = view.get_float("model.mu", default=0.0)
        try:
            return hull_white_model(b=b, mu=mu, sigma_vol=sv, rho=rho)
        except Exception as exc:
            raise ConfigError(str(exc), view.lineno("model.sigma_vol"))
    path = view.get_str("model.grid_csv")
    complete = view.get_bool("model.complete", default=True)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(
            f"model.grid_csv: cannot read {path!r} ({exc})",
            view.lineno("model.grid_csv"),
        )
    try:
        return grid_model_from_csv(text, complete=complete)
    except Exception as exc:
        raise ConfigError(
            f"model.grid_csv: {exc}", view.lineno("model.grid_csv")
        )


def boundary_from_view(view: ConfigView, dim: int,
                       required: bool = False) -> Boundary | None:
    kind = view.get_str("barrier.kind", default=None,
                        choices=("vertical", "hyperplane"))
    if kind is None:
        if required:
            raise ConfigError("this command needs a barrier.kind")
        return None
    if kind == "vertical":
        if dim != 2:
            raise ConfigError(
                "barrier.kind = vertical needs a two-dimensional model",
                view.lineno("barrier.kind"),
            )
        try:
            return VerticalBarrier(view.get_float("barrier.x0"))
        except ValueError as exc:
            raise ConfigError(str(exc), view.lineno("barrier.x0"))
    normal = view.get_floats("barrier.normal")
    if normal.shape[0] != dim:
        raise ConfigError(
            f"barrier.normal has dimension {normal.shape[0]}, model has {dim}",
            view.lineno("barrier.normal"),
        )
    offset = view.get_float("barrier.offset")
    try:
        return Hyperplane(normal, offset)
    except ValueError as exc:
        key = "barrier.normal" if "normal" in str(exc) else "barrier.offset"
        raise ConfigError(str(exc), view.lineno(key))


def solver_from_view(view: ConfigView) -> SolverOptions:
    n = view.get_int("solver.n", default=200)
    grad_tol = view.get_float("solver.grad_tol", default=None)
    max_iter = view.get_int("solver.max_iter", default=5000)
    multi_start = view.get_int("solver.multi_start", default=1)
    try:
        return SolverOptions(
            n=n,
            grad_tol=grad_tol,
            max_iter=max_iter,
            multi_start=multi_start,
        )
    except ValueError as exc:
        raise ConfigError(f"solver options: {exc}")


def endpoints_from_view(view: ConfigView, dim: int):
    x = view.get_floats("x")
    y = view.get_floats("y")
    for name, p in (("x", x), ("y", y)):
        if p.shape[0] != dim:
            raise ConfigError(
                f"{name} has dimension {p.shape[0]}, model has {dim}",
                view.lineno(name),
            )
    return x, y


def t_list_from_view(view: ConfigView, required: bool = False):
    if not view.has("t"):
        if required:
            raise ConfigError("this command needs a list of horizons t")
        return ()
    ts = view.get_floats("t")
    if not ((ts > 0.0) & np.isfinite(ts)).all():
        raise ConfigError("every horizon t must be finite and positive",
                          view.lineno("t"))
    return tuple(float(t) for t in ts)


def freeze_points_from_view(view: ConfigView, dim: int):
    if not view.has("freeze"):
        return []
    pts = view.get_points("freeze")
    if pts[0].shape[0] != dim:
        raise ConfigError(
            f"freeze points have dimension {pts[0].shape[0]}, model has {dim}",
            view.lineno("freeze"),
        )
    return pts
