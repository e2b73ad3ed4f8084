"""Spans at the layer boundaries, recorded from outside the library.

A traced pass wraps the DiffusionModel callbacks with dataclasses.replace
and, for its duration only, rebinds solve_geodesic and hw_distance in the
bridgeexit.exits namespace and the entry points the CLI commands call
(model_from_view, exit_asymptotics, compare_freezing, crossing_curve) in
the bridgeexit.cli namespace.  Nothing under src/ changes.

Spans (name, start, end, parent, query id) are kept in memory and written
out when the run ends.  Cheap, very frequent calls -- the model callbacks
and hw_distance -- are leaves: they are counted and timed per (name,
enclosing span) instead of getting a span each, which keeps a grid exit
with ~400k scalar domain tests affordable.  The recorder keeps one stack of
open spans, so a traced pass runs with workers=1.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import replace
from time import perf_counter

import numpy as np

from bridgeexit import cli, config, exits, geodesic, hyperbolic, montecarlo
from bridgeexit.geodesic import path_energy
from bridgeexit.paths import DiscretePath
from workloads import Api

LAYERS = ("cli", "exits", "geodesic", "hyperbolic", "model", "montecarlo")
MODEL_HOOKS = ("domain_test", "sigma", "batch_inverse_metric", "batch_domain_test")


class Recorder:
    """Spans and leaf counters of one traced pass."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent, query]
        self.stack = []
        self.leaves = defaultdict(lambda: [0, 0.0, 0])  # (name, parent) -> calls, s, points
        self.solves = []     # (kind, GeodesicResult, unwrapped model, options)
        self.raw_models = {}  # id(wrapped) -> (model, wrapped); holding both keeps ids unique
        self.query = -1
        self.legs_from = None  # endpoints of the innermost exit call
        self.legs_to = None
        self.samples = 0
        self.mc_batches = 0

    def parent(self) -> int:
        return self.stack[-1] if self.stack else -1

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self.parent(), self.query])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx][2] = perf_counter()

    def leaf(self, name, fn, counts_points=False):
        leaves = self.leaves

        def wrapped(arg):
            t0 = perf_counter()
            try:
                return fn(arg)
            finally:
                c = leaves[(name, self.stack[-1] if self.stack else -1)]
                c[0] += 1
                c[1] += perf_counter() - t0
                if counts_points:
                    c[2] += len(arg)

        return wrapped

    def wrap_model(self, model):
        hooks = {h: self.leaf(f"model.{h}", getattr(model, h),
                              counts_points=h.startswith("batch_"))
                 for h in MODEL_HOOKS if getattr(model, h) is not None}
        wrapped = replace(model, **hooks)
        self.raw_models[id(wrapped)] = (model, wrapped)
        return wrapped

    def _note_leg(self, p, q=None):
        """Counts a distance evaluation from the exit's x to a boundary point."""
        if self.legs_from is None or not np.array_equal(p, self.legs_from):
            return
        if q is None or not np.array_equal(q, self.legs_to):
            self.samples += 1

    @contextmanager
    def exit_call(self, name, x, y):
        saved = self.legs_from, self.legs_to
        self.legs_from, self.legs_to = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        try:
            with self.span(name):
                yield
        finally:
            self.legs_from, self.legs_to = saved

    # -- rebinding -- #

    @contextmanager
    def installed(self):
        """Rebinds the library entry points for the duration of a pass.
        A name a module no longer has is left alone; its metrics read 0."""
        hw = self.leaf("hyperbolic.hw_distance", lambda a: hyperbolic.hw_distance(*a))

        def solve_geodesic(model, x, y, opts=None, init=None):
            kind = "scan" if opts is not None and not opts.strict else "full"
            if kind == "scan":
                self._note_leg(np.asarray(x, dtype=float))
            with self.span(f"geodesic.{kind}"):
                res = geodesic.solve_geodesic(model, x, y, opts, init)
            raw = self.raw_models.get(id(model), (model,))[0]
            self.solves.append((kind, res, raw, opts))
            return res

        def hw_distance(sigma_vol, rho, p, q):
            self._note_leg(np.asarray(p, dtype=float), np.asarray(q, dtype=float))
            return hw((sigma_vol, rho, p, q))

        def model_from_view(view):
            with self.span("cli.model_from_view"):
                return self.wrap_model(config.model_from_view(view))

        def exit_asymptotics(model, x, y, boundary, **kw):
            with self.exit_call("exits.exit_asymptotics", x, y):
                return exits.exit_asymptotics(model, x, y, boundary, **kw)

        def compare_freezing(model, x, y, boundary, freeze_points, **kw):
            with self.exit_call("exits.compare_freezing", x, y):
                return exits.compare_freezing(model, x, y, boundary, freeze_points, **kw)

        def crossing_curve(x, y, t_list, cov, boundary, n_paths, n_steps, rng, **kw):
            batch = kw.get("batch_size") or montecarlo.DEFAULT_BATCH
            self.mc_batches += len(t_list) * math.ceil(n_paths / batch)
            with self.span("montecarlo.crossing_curve"):
                return montecarlo.crossing_curve(x, y, t_list, cov, boundary,
                                                 n_paths, n_steps, rng, **kw)

        new = {
            (exits, "solve_geodesic"): solve_geodesic,
            (exits, "hw_distance"): hw_distance,
            (cli, "model_from_view"): model_from_view,
            (cli, "exit_asymptotics"): exit_asymptotics,
            (cli, "compare_freezing"): compare_freezing,
            (cli, "crossing_curve"): crossing_curve,
        }
        orig = {(mod, name): getattr(mod, name) for mod, name in new if hasattr(mod, name)}
        for mod, name in orig:
            setattr(mod, name, new[(mod, name)])
        try:
            yield
        finally:
            for (mod, name), fn in orig.items():
                setattr(mod, name, fn)

    # -- summaries -- #

    def layer_metrics(self) -> dict:
        """Per-layer counts, busy and self times of everything recorded."""
        child = defaultdict(float)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        leaf_total = defaultdict(lambda: [0, 0.0, 0])
        window_calls = 0
        self_s = dict.fromkeys(LAYERS, 0.0)
        for (name, parent), (calls, busy, points) in self.leaves.items():
            if parent >= 0:
                child[parent] += busy
                if self.spans[parent][0].startswith("exits."):
                    window_calls += calls if name.startswith("model.") else 0
            tot = leaf_total[name]
            tot[0] += calls
            tot[1] += busy
            tot[2] += points
            self_s[name.split(".")[0]] += busy
        busy = defaultdict(float)
        for idx, (name, t0, t1, _, _) in enumerate(self.spans):
            layer = name.split(".")[0]
            busy[name] += t1 - t0
            if layer in self_s:
                self_s[layer] += t1 - t0 - child[idx]

        out = {}
        for hook in MODEL_HOOKS:
            calls, s, points = leaf_total[f"model.{hook}"]
            out[f"model.{hook}.calls"] = calls
            if hook != "batch_domain_test":
                out[f"model.{hook}.busy_s"] = s
        out["model.batch_inverse_metric.points"] = leaf_total["model.batch_inverse_metric"][2]
        for kind in ("scan", "full"):
            rows = [r for r in self.solves if r[0] == kind]
            out[f"geodesic.{kind}.solves"] = len(rows)
            out[f"geodesic.{kind}.iters"] = sum(r[1].iterations for r in rows)
            out[f"geodesic.{kind}.busy_s"] = busy[f"geodesic.{kind}"]
        scan = [r for r in self.solves if r[0] == "scan"]
        out["geodesic.scan.stalled"] = sum(1 for _, res, _, _ in scan if res.stalled)
        out["geodesic.scan.unconverged"] = sum(1 for r in scan if _unconverged(*r[1:]))
        iters = out["geodesic.scan.iters"] + out["geodesic.full.iters"]
        out["geodesic.us_per_iter"] = (
            1e6 * (busy["geodesic.scan"] + busy["geodesic.full"]) / iters if iters else 0.0)
        out["exits.window.model_calls"] = window_calls
        out["exits.scan.samples"] = self.samples
        out["hyperbolic.hw_distance.calls"] = leaf_total["hyperbolic.hw_distance"][0]
        out["montecarlo.batches"] = self.mc_batches
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent, query in self.spans:
                fh.write(json.dumps({"span": name, "start": t0, "end": t1,
                                     "parent": parent, "query": query}) + "\n")
            for (name, parent), (calls, s, points) in self.leaves.items():
                fh.write(json.dumps({"leaf": name, "parent": parent, "calls": calls,
                                     "busy_s": s, "points": points}) + "\n")


def _unconverged(res, model, opts) -> bool:
    """A scan leg that stopped (strict=False) above the solver's tolerance,
    which is grad_tol or grad_tol_rel times the energy of the straight chord
    at the leg's resolution.  Computed after the pass.  The chord between
    two domain points needs no floor on the built-in models."""
    if res.stalled:
        return False
    tol = opts.grad_tol
    if tol is None:
        chord = np.linspace(res.path.points[0], res.path.points[-1], opts.n + 1)
        tol = opts.grad_tol_rel * path_energy(model, DiscretePath(chord))
    return res.grad_sup > tol


class TracedApi(Api):
    """Api whose calls open spans on a Recorder and see wrapped models;
    use it inside Recorder.installed()."""

    def __init__(self, workdir, recorder: Recorder):
        super().__init__(workdir, workers=1)
        self.rec = recorder

    def begin_query(self, qid):
        self.rec.query = qid

    def exit(self, model, x, y, boundary, **kw):
        model = self.rec.wrap_model(model)
        with self.rec.exit_call("exits.exit_asymptotics", x, y):
            return super().exit(model, x, y, boundary, **kw)

    def frozen(self, model, x, y, boundary, z0):
        model = self.rec.wrap_model(model)
        with self.rec.exit_call("exits.frozen_exit_asymptotics", x, y):
            return super().frozen(model, x, y, boundary, z0)

    def cli(self, argv):
        with self.rec.span("cli.main"):
            return super().cli(argv)
