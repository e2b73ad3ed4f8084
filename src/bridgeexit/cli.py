"""Command-line front end.

Subcommands: distance, geodesic, exit, mc, figure.  Every run is driven by a
flat key = value config (--config takes a file path or the name of a bundled
config); results go to stdout and, with --out, to CSV or SVG.  load_run reads
every block of the config once, whatever the command; a command only states
what it cannot do without (COMMANDS) and computes from the loaded Run.

Exit codes: 0 success, 2 configuration or input problem, 3 solver failure,
4 degenerate Monte Carlo estimate.
"""

from __future__ import annotations

import argparse
import functools
import importlib.resources
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import (
    ConfigView,
    boundary_from_view,
    endpoints_from_view,
    freeze_points_from_view,
    model_from_view,
    parse_config_text,
    solver_from_view,
    t_list_from_view,
)
from .errors import (
    BridgeExitError,
    ConfigError,
    DegenerateCorrelation,
    DegenerateEstimate,
    IncompleteModel,
    NotSPD,
    OutsideDomain,
    RejectionBudgetExceeded,
)
from .exits import (
    Boundary,
    _as_plane,
    _oracle,
    compare_freezing,
    exit_asymptotics,
    model_distance,
)
from .geodesic import SolverOptions, solve_geodesic
from .model import (
    ConstantGeometry,
    DiffusionModel,
    HullWhiteGeometry,
    _check_point,
    diffusion_matrix,
)
from .montecarlo import (
    RngSpec,
    crossing_curve,
    estimates_to_csv,
    hw_crossing_probability,
    ld_slope,
)
from .paths import format_sig, path_to_csv
from .svgplot import Curve, Marker, render_svg

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_DEGENERATE = 4


def _resolve_config_text(spec: str) -> str:
    p = Path(spec)
    if p.is_file():
        return p.read_text(encoding="utf-8")
    name = spec if spec.endswith(".cfg") else spec + ".cfg"
    res = importlib.resources.files("bridgeexit") / "configs" / name
    if res.is_file():
        return res.read_text(encoding="utf-8")
    raise ConfigError(f"config {spec!r} is neither a file nor a bundled config")


def _write_out(args, content: str) -> None:
    if args.out:
        Path(args.out).write_text(content, encoding="utf-8")
        print(f"wrote {args.out}")


# ---- the loaded run ---- #


@dataclass(frozen=True)
class Run:
    """Every block of one config, read once and checked."""

    model: DiffusionModel
    x: np.ndarray
    y: np.ndarray
    boundary: Boundary | None
    opts: SolverOptions
    t_list: tuple[float, ...]
    freeze: list
    force_numeric: bool
    n_paths: int
    n_steps: int
    batch_size: int
    per_step_correction: bool
    seed: int
    stream: int
    workers: int
    eps: float
    n_attempts: int
    min_accepted: int
    figure_n: int


def load_run(view: ConfigView, needs=()) -> Run:
    """Reads every key a command may use, each once with its one default,
    then rejects any key left over.  needs names the blocks the command
    cannot do without: "barrier" and "t"."""
    model = model_from_view(view)
    x, y = endpoints_from_view(view, model.dim)
    run = Run(
        model, x, y,
        boundary=boundary_from_view(view, model.dim, required="barrier" in needs),
        opts=solver_from_view(view),
        t_list=t_list_from_view(view, required="t" in needs),
        freeze=freeze_points_from_view(view, model.dim),
        force_numeric=view.get_bool("exit.force_numeric", default=False),
        n_paths=view.get_int("mc.n_paths", default=100000),
        n_steps=view.get_int("mc.n_steps", default=50),
        batch_size=view.get_int("mc.batch_size", default=16384),
        per_step_correction=view.get_bool("mc.per_step_correction", default=True),
        seed=view.get_int("mc.seed", default=0),
        stream=view.get_int("mc.stream", default=0),
        workers=view.get_int("mc.workers", default=1),
        eps=view.get_float("mc.eps", default=0.02),
        n_attempts=view.get_int("mc.n_attempts", default=200000),
        min_accepted=view.get_int("mc.min_accepted", default=50),
        figure_n=view.get_int("figure.n", default=200),
    )
    view.finish()
    if run.workers < 1:
        raise ConfigError("mc.workers must be at least 1",
                          view.lineno("mc.workers"))
    return run


# ---- distance ---- #


def cmd_distance(run: Run, args) -> int:
    model, x, y = run.model, run.x, run.y
    # the closed form first: it refuses a distance past the float range
    closed = model_distance(model, x, y) if model.geometry is not None else None
    numeric = solve_geodesic(model, x, y, run.opts).distance
    print(f"numeric = {format_sig(numeric)}")
    if closed is not None:
        gap = abs(closed - numeric) / max(abs(closed), 1e-300)
        print(f"closed_form = {format_sig(closed)}")
        print(f"rel_gap = {format_sig(gap)}")
        row = f"{format_sig(closed)},{format_sig(numeric)},{format_sig(gap)}"
    else:
        row = f",{format_sig(numeric)},"
    _write_out(args, "closed_form,numeric,rel_gap\n" + row + "\n")
    return EXIT_OK


# ---- geodesic ---- #


def cmd_geodesic(run: Run, args) -> int:
    res = solve_geodesic(run.model, run.x, run.y, run.opts)
    print(f"distance = {format_sig(res.distance)}")
    print(f"energy = {format_sig(res.energy)}")
    print(f"iterations = {res.iterations}")
    print(f"grad_sup = {format_sig(res.grad_sup)}")
    print(f"stalled = {res.stalled}")
    if res.multistart_spread:
        print(f"multistart_spread = {format_sig(res.multistart_spread)}")
    _write_out(args, path_to_csv(res.path))
    return EXIT_OK


# ---- exit ---- #


def _probability_header(t_list) -> list[str]:
    return [f"p_at_{format(t, 'g')}" for t in t_list]


def _freezing_rows(run: Run):
    """The true exit and one frozen exit per freeze point, under the run's
    exit and solver options."""
    return compare_freezing(run.model, run.x, run.y, run.boundary, run.freeze,
                            t_list=run.t_list, opts=run.opts,
                            force_numeric=run.force_numeric).rows


def cmd_exit(run: Run, args) -> int:
    t_list = run.t_list
    rows = _freezing_rows(run)

    for row in rows:
        r = row.result
        zs = ", ".join(format_sig(v) for v in r.z_star)
        print(f"[{row.label}] J = {format_sig(r.J)}  u_bar = {format_sig(r.u_bar)}"
              f"  z_star = ({zs})  method = {r.method}")
        flags = []
        if r.geodesic_exits:
            flags.append("geodesic exits the domain")
        if r.degenerate:
            flags.append("an endpoint sits on the barrier")
        if flags:
            print("  note: " + "; ".join(flags))
        for t, p in zip(t_list, row.probabilities):
            print(f"  p(t={format(t, 'g')}) ~ {format_sig(p)}")

    d = run.model.dim
    header = (["label", "J"] + [f"z_star_{i}" for i in range(d)]
              + ["u_bar", "d_xy", "d_xz", "d_zy", "method"]
              + _probability_header(t_list))
    lines = [",".join(header)]
    for row in rows:
        r = row.result
        cells = [row.label, format_sig(r.J)]
        cells += [format_sig(v) for v in r.z_star]
        cells += [
            format_sig(r.u_bar) if np.isfinite(r.u_bar) else "nan",
            format_sig(r.d_xy),
            format_sig(r.d_xz),
            format_sig(r.d_zy),
            r.method,
        ]
        cells += [format_sig(p) for p in row.probabilities]
        lines.append(",".join(cells))
    _write_out(args, "\n".join(lines) + "\n")
    return EXIT_OK


# ---- mc ---- #


def cmd_mc(run: Run, args) -> int:
    model, x, y, boundary, t_list = run.model, run.x, run.y, run.boundary, run.t_list
    seed = args.seed if args.seed is not None else run.seed
    workers = args.workers if args.workers is not None else run.workers
    rng = RngSpec(seed, run.stream)
    geom = model.geometry
    if isinstance(geom, ConstantGeometry):
        cov = diffusion_matrix(model, np.zeros(model.dim))
        estimates = crossing_curve(
            x, y, t_list, cov, boundary, run.n_paths, run.n_steps, rng,
            workers=workers, batch_size=run.batch_size,
            per_step_correction=run.per_step_correction,
        )
    elif isinstance(geom, HullWhiteGeometry):
        estimates = [
            hw_crossing_probability(
                geom.sigma_vol, geom.rho, geom.b, geom.mu, x, y, t, boundary,
                run.n_attempts, run.n_steps, rng.with_stream(run.stream + k),
                run.eps, min_accepted=run.min_accepted, workers=workers,
                batch_size=run.batch_size,
                per_step_correction=run.per_step_correction,
            )
            for k, t in enumerate(t_list)
        ]
    else:
        raise ConfigError(
            "mc supports constant and volatility models only"
        )

    analytic = exit_asymptotics(model, x, y, boundary, opts=run.opts,
                                force_numeric=run.force_numeric).J
    for e in estimates:
        print(
            f"t = {format(e.t, 'g')}  p_hat = {format_sig(e.p_hat)} "
            f"+/- {format_sig(e.ci_half_width)}  n = {e.n_paths}  "
            f"exponent = "
            + (format_sig(e.exponent) if np.isfinite(e.exponent) else "inf")
        )
    print(f"analytic_J = {format_sig(analytic)}")

    fit_val = None
    degenerate_msg = None
    if len(t_list) >= 3:
        try:
            fit = ld_slope(estimates)
            fit_val = fit.intercept
            print(f"extrapolated_exponent = {format_sig(fit.intercept)}")
            print(f"slope = {format_sig(fit.slope)}")
        except DegenerateEstimate as exc:
            degenerate_msg = str(exc)
    _write_out(args, estimates_to_csv(estimates, extrapolated=fit_val,
                                      analytic_J=analytic))
    if degenerate_msg is not None:
        print(f"error: {degenerate_msg}", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


# ---- figure ---- #


def cmd_figure(run: Run, args) -> int:
    model, x, y, boundary, opts, n = (run.model, run.x, run.y, run.boundary,
                                      run.opts, run.figure_n)
    if model.dim != 2:
        raise ConfigError("figure supports two-dimensional models only")
    for name, p in (("x", x), ("y", y)):  # the oracles take points of the domain
        _check_point(model, p, name)

    def geodesic(p, q):
        return _oracle(model, model.geometry, opts, p, q).path(n)

    curves = [Curve(geodesic(x, y), "solid", "geodesic")]
    markers = [
        Marker(float(x[0]), float(x[1]), role="start", label="x"),
        Marker(float(y[0]), float(y[1]), role="end", label="y"),
    ]
    if boundary is not None:
        true, *frozen = _freezing_rows(run)
        z = true.result.z_star
        for p, q, role in ((x, z, "crossing_leg_in"), (z, y, "crossing_leg_out")):
            if not np.array_equal(p, q):  # an endpoint on the barrier: no leg
                curves.append(Curve(geodesic(p, q), "dotted", role, color="#d62728"))
        markers.append(Marker(float(z[0]), float(z[1]), role="crossing",
                              label="z*", color="#d62728"))
        for k, row in enumerate(frozen):
            fz = row.result.z_star
            markers.append(
                Marker(float(fz[0]), float(fz[1]), role=f"frozen_crossing_{k}",
                       label=f"z*froz{k}", color="#9467bd")
            )
        pts = np.concatenate([c.points for c in curves])
        ymin, ymax = float(pts[:, 1].min()), float(pts[:, 1].max())
        pad = 0.15 * max(ymax - ymin, 1e-9)
        plane = _as_plane(boundary, 2)
        nvec, c0 = plane.normal, plane.offset
        tangent = np.array([-nvec[1], nvec[0]])
        mid = 0.5 * (x + y)
        anchor = mid - (float(nvec @ mid) - c0) * nvec
        xmin, xmax = float(pts[:, 0].min()), float(pts[:, 0].max())
        span = float(np.hypot(xmax - xmin, ymax - ymin)) + 2.0 * pad
        seg = np.stack([anchor - span * tangent, anchor + span * tangent])
        if abs(nvec[0]) == 1.0:  # a vertical barrier's plane too
            lo = ymin - pad
            if isinstance(model.geometry, HullWhiteGeometry):
                lo = max(lo, 1e-9)
            seg = np.array([[anchor[0], lo], [anchor[0], ymax + pad]])
        curves.insert(0, Curve(seg, "dashed", "barrier", color="#7f7f7f",
                               width=1.5))
    svg = render_svg(curves, markers)
    Path(args.out).write_text(svg, encoding="utf-8")
    print(f"wrote {args.out}")
    return EXIT_OK


# ---- wiring ---- #


# name -> (command, what it cannot run without, help).  Every command loads
# the whole config; "barrier" and "t" are config blocks, "out" is --out.
COMMANDS = {
    "distance": (cmd_distance, (), "geodesic distance between x and y"),
    "geodesic": (cmd_geodesic, (), "solve and export the minimizing path"),
    "exit": (cmd_exit, ("barrier",), "exit exponent against a barrier, with freezing rows"),
    "mc": (cmd_mc, ("barrier", "t"), "Monte Carlo barrier-crossing estimates and slope fit"),
    "figure": (cmd_figure, ("out",), "render geodesic, barrier and crossing as SVG"),
}


@functools.cache  # built once per process: each parse_args starts a fresh namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bridgeexit",
        description="Small-time exit asymptotics for pinned diffusions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, needs, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True,
                       help="config file path or bundled config name")
        p.add_argument("--out", default=None, help="output CSV or SVG path")
        p.add_argument("--workers", type=int, default=None,
                       help="Monte Carlo worker threads (default: config or 1)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the Monte Carlo seed")
        p.set_defaults(func=fn, needs=needs)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        view = ConfigView(parse_config_text(_resolve_config_text(args.config)))
        if "out" in args.needs and not args.out:
            raise ConfigError(f"{args.command} needs --out <file>")
        if args.workers is not None and args.workers < 1:
            raise ConfigError("--workers must be at least 1")
        return args.func(load_run(view, args.needs), args)
    except (ConfigError, OutsideDomain, IncompleteModel, DegenerateCorrelation,
            NotSPD, ValueError) as exc:
        # the library raises ValueError for arguments it cannot work with
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DegenerateEstimate, RejectionBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except BridgeExitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
