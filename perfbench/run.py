"""Benchmark of bridgeexit: end-to-end metrics per workload, or, with
--trace 1, a traced run that reports per-layer metrics.

    python3 perfbench/run.py --workload grid_exit --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run it from the root of a checkout: it imports the package from src/ and
writes scratch files and traces under .perfbench_out/.  Workloads,
metrics and the layer mapping are described in perfbench/README.md.  A
human-readable table goes to stdout; the last line is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOAD_NAMES = ("grid_exit", "numeric_exit", "closed_form", "mc_curve")
# At least this many passes, even past --seconds: a grid_exit pass takes
# 8-17 s, and its median needs more than two samples.
MIN_PASSES = 3
SETUP_REPEATS = 5
# The host probe (HostProbe): a reference loop of PROBE_ROUNDS rounds, run
# PROBE_WARM times before each pass and then every PROBE_PERIOD_S during it.
# Scaled timings are in seconds of a host on which the loop takes
# PROBE_REF_S, a little under its median of about 35 us on the 2-core
# x86_64 host the baseline was measured on.
PROBE_ROUNDS = 4
PROBE_WARM = 8
PROBE_PERIOD_S = 0.02
PROBE_REF_S = 30e-6
UNITS = {"setup_s": "s", "wall_s": "s", "query_p50_ms": "ms", "query_p90_ms": "ms",
         "peak_rss_mb": "MB"}

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import bridgeexit.cli; "
    "from pathlib import Path; "
    "from bridgeexit.config import ConfigView, model_from_view, parse_config_text; "
    "model_from_view(ConfigView(parse_config_text(Path(sys.argv[2]).read_text())))"
)


class Setup:
    """Wall time of a fresh process that imports the package, parses the
    workload's config and builds its model.  Samples are taken between
    the first passes, so that a slow spell of the machine touches few of
    them."""

    def __init__(self, config_path: Path):
        self.cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(config_path)]
        self.samples = []
        subprocess.run(self.cmd, check=True, timeout=120)  # byte-compiles the package

    def sample(self) -> None:
        if len(self.samples) >= SETUP_REPEATS:
            return
        t0 = perf_counter()
        subprocess.run(self.cmd, check=True, timeout=120)
        self.samples.append(perf_counter() - t0)

    def median(self) -> float:
        while len(self.samples) < SETUP_REPEATS:
            self.sample()
        return statistics.median(self.samples)


class HostProbe:
    """How fast the host runs right now, sampled while a pass runs.

    The host's speed drifts by up to 1.6x over seconds to tens of minutes
    (README.md, "Noise"), and every workload slows with it.  A SIGALRM
    handler runs a fixed reference loop every PROBE_PERIOD_S of a pass;
    the loop's median time over the pass gives the factor that takes the
    drift out of the pass's timings.  Each sample runs the loop twice and
    times the second run, so that it measures the host and not the caches
    the workload just filled.  The handler's time is excluded from every
    timing.
    """

    def __init__(self):
        import numpy as np

        self.held_s = 0.0  # time spent in the handler so far
        self.samples = []
        self._v = np.linspace(0.1, 1.0, 64)

    def _loop(self) -> float:
        import numpy as np

        v, s = self._v.copy(), 0.0
        for i in range(PROBE_ROUNDS):
            s += float(np.sqrt(v * v + i) @ v)
            for j in range(25):
                s += (i * j) % 7
        return s

    def sample(self, *_) -> None:
        t0 = perf_counter()
        self._loop()
        t1 = perf_counter()
        self._loop()
        t2 = perf_counter()
        self.samples.append(t2 - t1)
        self.held_s += t2 - t0

    def start(self) -> None:
        self.samples = []
        for _ in range(PROBE_WARM):
            self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> float:
        """Stops sampling; returns the pass's scale, PROBE_REF_S over the
        median probe time of the pass."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return PROBE_REF_S / statistics.median(self.samples)


class Passes:
    """Timings, checks and output identity of the passes of one run.  With
    a probe, each pass also records its host scale (HostProbe.stop)."""

    def __init__(self, probe: HostProbe | None = None):
        self.probe = probe
        self.scale = []  # one per pass
        self.pass_s = []
        self.latency_s = []  # one list per pass, one entry per query
        self.attempted = 0
        self.failed = 0
        self.worst_rel_err = 0.0
        self.keys = None
        self.deterministic = True

    def _held(self) -> float:
        return self.probe.held_s if self.probe else 0.0

    def run(self, wl, api) -> None:
        from workloads import check, key

        outcomes, latency = [], []
        if self.probe:
            self.probe.start()
        try:
            held0 = self._held()
            t_pass = perf_counter()
            for qid, q in enumerate(wl.queries):
                api.begin_query(qid)
                held = self._held()
                t0 = perf_counter()
                try:
                    out = q.call(api)
                except Exception:  # a failed query is counted, the run goes on
                    traceback.print_exc(limit=3, file=sys.stderr)
                    out = None
                latency.append(perf_counter() - t0 - (self._held() - held))
                outcomes.append(out)
            self.pass_s.append(perf_counter() - t_pass - (self._held() - held0))
        finally:
            scale = self.probe.stop() if self.probe else 1.0
        self.scale.append(scale)
        self.latency_s.append(latency)

        keys = []
        for q, out in zip(wl.queries, outcomes):
            self.attempted += 1
            ok, err = check(q, out) if out is not None else (False, math.inf)
            self.failed += not ok
            self.worst_rel_err = max(self.worst_rel_err, err)
            keys.append(key(out) if out is not None else b"")
        if self.keys is None:
            self.keys = keys
        self.deterministic &= keys == self.keys

    def run_for(self, wl, api, seconds: float, between) -> None:
        """Passes until the next one would end after `seconds`; calls
        between() after each pass, outside the measured time."""
        elapsed = 0.0
        while (len(self.pass_s) < MIN_PASSES
               or elapsed + statistics.median(self.pass_s) <= seconds):
            self.run(wl, api)
            elapsed += self.pass_s[-1]
            between()


def machine() -> str:
    import numpy
    import scipy

    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}, nproc {os.cpu_count()}, "
            f"BLAS threads {os.environ['OPENBLAS_NUM_THREADS']}, {platform.machine()}")


def untraced(name, seed, seconds, workdir):
    import numpy as np

    import workloads

    wl = workloads.WORKLOADS[name](seed, workdir)
    api = workloads.Api(workdir)
    setup = Setup(wl.config_path)
    wl.warmup(api)
    p = Passes(HostProbe())
    p.run_for(wl, api, seconds, setup.sample)
    # Each query's median over its runs in the run, each run scaled to the
    # reference host speed by its pass's probe (README.md, "Noise").
    # wall_s adds these up over the calls a pass makes.
    runs = defaultdict(lambda: ([], []))
    for latency, scale in zip(p.latency_s, p.scale):
        for q, t in zip(wl.queries, latency):
            runs[q][0].append(t)
            runs[q][1].append(t * scale)

    def summary(which):
        est = {q: statistics.median(v[which]) for q, v in runs.items()}
        ms = [1e3 * t for t in est.values()]
        return (sum(est[q] for q in wl.queries), float(np.percentile(ms, 50)),
                float(np.percentile(ms, 90)), ms)

    wall, p50, p90, query_ms = summary(1)
    metrics = {
        "setup_s": setup.median(),
        "wall_s": wall,
        "query_p50_ms": p50,
        "query_p90_ms": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = [
        f"passes {len(p.pass_s)} (median {statistics.median(p.pass_s):.4g} s), "
        f"queries {len(runs)}, calls per pass {len(wl.queries)}",
        "unscaled: wall_s {:.6g} s, query_p50_ms {:.6g} ms, query_p90_ms {:.6g} ms".format(
            *summary(0)[:3]),
        f"host scale: median {statistics.median(p.scale):.4g}, "
        f"min {min(p.scale):.4g}, max {max(p.scale):.4g}",
        f"J_rel_err_max {p.worst_rel_err:.3e}",
        f"failed_frac {p.failed / p.attempted:.4g} ({p.failed} of {p.attempted})",
        f"outputs identical across passes: {p.deterministic}",
    ]
    by_kind = defaultdict(list)
    for q, ms in zip(runs, query_ms):
        by_kind[q.kind].append(ms)
    for kind, ms in by_kind.items():
        info.append(f"  {kind}: median {statistics.median(ms):.4g} ms over {len(ms)} queries")
    if name == "mc_curve":
        info.append(f"mc_path_steps_per_s {workloads.mc_path_steps(wl) / metrics['wall_s']:.4g} 1/s")
    correct = p.failed == 0 and p.deterministic
    return metrics, UNITS, correct, p.attempted, p.failed, info


def traced(name, seed, seconds, workdir):
    """One untraced and one traced pass (outputs must match bitwise), the
    layer micro-cases, and the spans written to .perfbench_out/.  The
    pass count is fixed, so `seconds` is not used."""
    import layers
    import workloads
    from tracing import Recorder, TracedApi

    wl = workloads.WORKLOADS[name](seed, workdir)
    api = workloads.Api(workdir)
    wl.warmup(api)
    plain = Passes()
    plain.run(wl, api)
    rec = Recorder()
    tr = Passes()
    with rec.installed():
        tr.run(wl, TracedApi(workdir, rec))
    identical = tr.keys == plain.keys
    metrics = rec.layer_metrics()
    metrics["trace.overhead_frac"] = tr.pass_s[0] / plain.pass_s[0] - 1.0
    micro, checks = layers.all_cases(api, wl.config_text)
    metrics.update(micro)
    checks["traced_outputs_identical"] = identical
    if name == "mc_curve":
        two = Passes()
        two.run(wl, workloads.Api(workdir, workers=2))
        checks["mc_cli_workers_identical"] = two.keys == plain.keys
    trace_path = OUT / f"trace-{name}-seed{seed}.jsonl"
    rec.dump(trace_path)
    units = {k: _layer_unit(k) for k in metrics}
    failed = plain.failed + tr.failed
    correct = failed == 0 and all(checks.values())
    info = [f"{k}: {v}" for k, v in checks.items()]
    info.append(f"spans: {len(rec.spans)} written to {trace_path.relative_to(ROOT)}")
    return metrics, units, correct, plain.attempted + tr.attempted, failed, info


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "_ms" in name:
        return "ms"
    if "_us" in name or "us_per" in name:
        return "us"
    if name.endswith(("speedup_2w", "overhead_frac")):
        return "ratio"
    return "count"


def report(name, metrics, units, info) -> None:
    print(f"== {name}")
    for k, v in metrics.items():
        print(f"  {k:<48} {v:>14.6g} {units[k]}")
    for line in info:
        print(f"  {line}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # One BLAS thread, set before numpy is imported (here and in the setup
    # processes): the library's own workers are the only parallelism measured.
    os.environ.update(dict.fromkeys(BLAS_THREADS, "1"))
    sys.path.insert(0, str(SRC))
    try:
        import bridgeexit
    except ImportError as exc:
        print(f"error: cannot import bridgeexit from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(bridgeexit.__file__).resolve().parent.parent != SRC:
        print(f"error: bridgeexit was imported from {bridgeexit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    run = traced if args.trace else untraced
    print(f"machine: {machine()}")
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            metrics, units, correct, attempted, failed, info = run(
                name, args.seed, args.seconds, workdir)
            report(name, metrics, units, info)
            prefix = "" if len(names) == 1 else f"{name}."
            total["correct"] &= correct
            total["attempted"] += attempted
            total["failed"] += failed
            total["metrics"].update({prefix + k: {"value": v, "unit": units[k]}
                                     for k, v in metrics.items()})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
