"""Micro-cases for the per-layer metrics, on fixed inputs.

They time public functions of one layer each, untraced, on config A, the
13 x 13 grid model and the brownian_barrier bridge, so their values mean
the same in every traced run whatever the workload.  The cases that run
at 1 and 2 workers also report whether the outputs were identical.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from bridgeexit.config import parse_config_text
from bridgeexit.exits import Hyperplane, VerticalBarrier, compare_freezing, exit_asymptotics
from bridgeexit.geodesic import SolverOptions, energy_gradient, path_energy, solve_geodesic
from bridgeexit.hyperbolic import barrier_infimum_vertical, hw_distance
from bridgeexit.model import grid_model_from_csv, hull_white_model
from bridgeexit.montecarlo import RngSpec, crossing_probability
from bridgeexit.paths import DiscretePath
from workloads import A, DATA, MC_X, MC_Y, Api

SEGMENTS = (25, 50, 200, 800)
MC_BATCH = 16384
MC_STEPS = 50


def per_call_s(fn, budget_s=0.02, repeats=5) -> float:
    """Median over repeats of the mean time of one call, with the call
    count per repeat sized to take about budget_s."""
    n, dt = 1, 0.0
    while dt < budget_s / 4 and n < 1 << 20:
        t0 = perf_counter()
        for _ in range(n):
            fn()
        dt = perf_counter() - t0
        n *= 2
    n = max(1, int(n / 2 * budget_s / max(dt, 1e-9)))
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(n):
            fn()
        times.append((perf_counter() - t0) / n)
    return statistics.median(times)


def grid_model():
    return grid_model_from_csv((DATA / "grid13.csv").read_text())


def geodesic_cases() -> dict:
    out = {}
    models = {"hw": hull_white_model(), "grid": grid_model()}
    for n in SEGMENTS:
        path = DiscretePath(np.linspace(A[0], A[1], n + 1))
        for tag, model in models.items():
            out[f"geodesic.path_energy_us.{tag}.n{n}"] = 1e6 * per_call_s(
                lambda: path_energy(model, path))
            out[f"geodesic.energy_gradient_us.{tag}.n{n}"] = 1e6 * per_call_s(
                lambda: energy_gradient(model, path))
    solve_s, results = _timed(
        lambda: solve_geodesic(models["hw"], A[0], A[1], SolverOptions(n=200)), 5)
    out["geodesic.solve_ms.n200"] = 1e3 * solve_s
    out["geodesic.solve_iters.n200"] = results[-1].iterations
    return out


def hyperbolic_cases() -> dict:
    return {
        "hyperbolic.hw_distance.us_per_call": 1e6 * per_call_s(
            lambda: hw_distance(1.0, 0.0, A[0], A[1])),
        "hyperbolic.barrier_infimum_vertical.us_per_call": 1e6 * per_call_s(
            lambda: barrier_infimum_vertical(A[0], A[1], A[2])),
    }


def _mc(n_paths, workers):
    plane = Hyperplane(np.array([0.0, 1.0]), 0.0)
    return crossing_probability(MC_X, MC_Y, 0.1, np.eye(2), plane, n_paths, MC_STEPS,
                                RngSpec(1), workers=workers, batch_size=MC_BATCH)


def _timed(fn, repeats):
    times, outs = [], []
    for _ in range(repeats):
        t0 = perf_counter()
        outs.append(fn())
        times.append(perf_counter() - t0)
    return statistics.median(times), outs


def montecarlo_cases():
    batch_s, _ = _timed(lambda: _mc(MC_BATCH, 1), 5)
    one, outs1 = _timed(lambda: _mc(4 * MC_BATCH, 1), 3)
    two, outs2 = _timed(lambda: _mc(4 * MC_BATCH, 2), 3)
    same = len({e.p_hat for e in outs1 + outs2}) == 1
    return {"montecarlo.batch_ms": 1e3 * batch_s, "montecarlo.speedup_2w": one / two}, same


def cli_cases(api: Api, config_text: str) -> dict:
    """Config parsing, and the CLI's cost over the library on figure1."""
    x, y, x0 = A
    model = hull_white_model()
    cli_s, _ = _timed(lambda: api.cli(["exit", "--config", "figure1"]), 15)
    lib_s, _ = _timed(lambda: compare_freezing(model, x, y, VerticalBarrier(x0), [y],
                                               t_list=(0.05,)), 15)
    return {
        "cli.config_parse_ms": 1e3 * per_call_s(lambda: parse_config_text(config_text)),
        "cli.overhead_ms": 1e3 * (cli_s - lib_s),
    }


def scan_speedup():
    """The grid exit of config A at 2 workers against 1."""
    model = grid_model()
    x, y, x0 = A
    times, Js = [], []
    for workers in (1, 2):
        t0 = perf_counter()
        Js.append(exit_asymptotics(model, x, y, VerticalBarrier(x0), workers=workers).J)
        times.append(perf_counter() - t0)
    return {"exits.scan.speedup_2w": times[0] / times[1]}, Js[0] == Js[1]


def all_cases(api: Api, config_text: str):
    out = {}
    out.update(geodesic_cases())
    out.update(hyperbolic_cases())
    mc, mc_same = montecarlo_cases()
    out.update(mc)
    out.update(cli_cases(api, config_text))
    scan, scan_same = scan_speedup()
    out.update(scan)
    return out, {"mc_workers_identical": mc_same, "scan_workers_identical": scan_same}
