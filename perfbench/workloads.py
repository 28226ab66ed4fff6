"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed, drives genprior
through its public entry points in a closed loop (one process, the next call
only after the previous one returns), checks every output, and fills a
``Run`` with timing samples, gate outcomes and operation counts. ``run.py``
turns a ``Run`` into the printed result.

- ``rate-small``: ``analysis.rate_experiment`` at the acceptance decoder.
  Small-matrix latent descent, bound by Python overhead; restart batching
  and a lockstep trial engine act here.
- ``solve-preset``: ``analysis.solve_instance`` at the ``model new`` preset
  with a circulant operator and a one-bit link, once with ``pgd_glasso`` and
  once with ``csgm``. BLAS- and FFT-bound, one restart and one instance per
  call, so restart and trial batching have nothing to act on.
- ``check-sweep``: ``cli.main(["check", ...])`` over all six suites. No
  projection and no latent descent; single-vector ``forward`` and dense
  ``apply`` calls plus link builds.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import statistics
import subprocess
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from genprior import (analysis, cli, derive_seed, genmodel, measurement,
                      projection, solvers)
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent

RATE_SMALL = {
    "decoder": (101, 8, [32], 256, 3.0, "tanh", 1.0),  # acceptance decoder
    "sigma": 0.1,
    "step_size": solvers.ZETA_THEORY,
    "iterations": 30,
    "projection": {"steps": 200, "learning_rate": 0.03, "restarts": 2},
    "grid": [250, 1000],
    "trials": 10,           # per grid point and call; rate_experiment's minimum
    # worker processes of each call in a round: 50 trials per grid point in
    # a run, so the pooled ratio gate almost never fails by chance
    "round": (1, 2, 2, 2, 2),
    "ratio_range": (1.6, 2.6),  # acceptance criterion 5
    "setup_repeats": 3,
}

SOLVE_PRESET = {
    "decoder": (0, 20, [500, 500], 784, 3.0, "tanh", 1.0),  # `model new` preset
    "sigma_d": 0.1,
    "n": 400,
    "step_size": solvers.NU_DEFAULT,
    "iterations": 30,
    "projection": {"steps": 100, "learning_rate": 0.1, "restarts": 1},
    "min_cosine": 0.9,      # acceptance criterion 9
    "setup_repeats": 3,
}

CHECK_SWEEP = {
    "suites": cli.CHECK_SUITES,
    # The suites' frozen, calibrated seed. At other seeds `gradients` and
    # `adjoint` can report false violations (relative tolerances meet
    # round-off), so the workload seed only orders the suites.
    "check_seed": cli.DEFAULT_CHECK_SEED,
    "extra_args": [],
    "setup_repeats": 3,
}


class Run:
    """Samples, gate outcomes and operation counts of one benchmark run."""

    def __init__(self):
        self.ok = {}         # operation group -> list of per-operation flags
        self.gates = {}      # gate name -> {"value", "limit", "passed"}
        self.samples = {}    # sample name -> list of floats
        self.detail = {}     # workload-specific figures for the report
        self.layers = None   # per-layer metrics of a traced run
        self.tracer = None   # the Tracer of a traced run, for its spans

    def op(self, group, ok):
        self.ok.setdefault(group, []).append(bool(ok))

    def gate(self, name, value, limit, passed, group):
        """Record a pooled gate; failing it fails every operation of group."""
        self.gates[name] = {"value": value, "limit": limit, "passed": bool(passed)}
        if not passed:
            self.ok[group] = [False] * len(self.ok.get(group, [1]))

    def sample(self, name, value):
        self.samples.setdefault(name, []).append(value)

    @property
    def attempted(self):
        return sum(len(v) for v in self.ok.values())

    @property
    def failed(self):
        return sum(v.count(False) for v in self.ok.values())


def closed_loop(seconds, step):
    """Call step(0), step(1), ... until ``seconds`` have passed (at least once)."""
    start = time.perf_counter()
    i = 0
    while True:
        step(i)
        i += 1
        if time.perf_counter() - start >= seconds:
            return


def timed(fn):
    t = time.perf_counter()
    out = fn()
    return time.perf_counter() - t, out


def guarded(run, group, fn):
    """fn() or None; an exception is reported and counts as a failed operation."""
    try:
        return fn()
    except Exception:
        traceback.print_exc()
        run.op(group, False)
        return None


def finite(*values):
    return all(math.isfinite(v) for v in values)


def tail(samples):
    """(percentile, value, n) of the highest percentile with at least 10
    samples beyond it, or None when no percentile at or above the median has."""
    n = len(samples)
    if n < 20:
        return None
    q = 100.0 * (1.0 - 10.0 / n)
    return q, float(np.percentile(samples, q)), n


def setup_time(run, build, repeats=1):
    """Build the inputs ``repeats`` times, timing each; returns the last build.

    Workloads also rebuild once per loop step, so the set-up samples spread
    over the whole run instead of one moment of it.
    """
    out = None
    for _ in range(repeats):
        wall, out = timed(build)
        run.sample("setup", wall)
    return out


def trace_rounds(run, tracer, seconds, call, same):
    """Alternate an untraced and a traced call on the same inputs.

    ``call(i)`` returns (main-path seconds, comparable outputs); ``same``
    names the gate that requires both outputs to be bit-identical.
    Returns the tracing overhead on the main path.
    """
    walls = {"untraced": [], "traced": []}

    def one(i):
        plain = guarded(run, "trace", lambda: call(i))
        with tracer:
            traced = guarded(run, "trace", lambda: call(i))
        if plain is None or traced is None:
            return
        walls["untraced"].append(plain[0])
        walls["traced"].append(traced[0])
        run.op("trace", plain[1] == traced[1])

    closed_loop(seconds, one)
    equal = all(run.ok.get("trace", [False]))
    run.gates[same] = {"value": equal, "limit": True, "passed": equal}
    run.detail["trace_main_s_untraced"] = walls["untraced"]
    run.detail["trace_main_s_traced"] = walls["traced"]
    if not walls["untraced"]:
        return 0.0
    return sum(walls["traced"]) / sum(walls["untraced"]) - 1.0


# ------------------------------------------------------------- rate-small

def _rate_setup(p):
    dec = genmodel.decoder_new(*p["decoder"])
    link = measurement.shifted_cosine_link(sigma=p["sigma"])
    cfg = solvers.SolverConfig(
        step_size=p["step_size"], iterations=p["iterations"],
        projection=projection.ProjectionConfig(**p["projection"]),
        x0_mode="zero")
    return analysis.TrialSetup(decoder=dec, link=link,
                               solver_kind="pgd_nlasso", solver_cfg=cfg)


def _table_finite(table):
    return all(finite(r.median_error, r.q25, r.q75) for r in table.rows)


def rate_small(seed, seconds, trace, p=RATE_SMALL):
    run = Run()
    setup = setup_time(run, lambda: _rate_setup(p), p["setup_repeats"])
    trials = p["trials"] * len(p["grid"])

    def call(s, threads):
        return timed(lambda: analysis.rate_experiment(
            p["grid"], p["trials"], setup, s, threads=threads))

    if trace:
        tracer = Tracer()
        with tracer:
            _rate_setup(p)

        def traced_call(i):
            wall, table = call(derive_seed(seed, "rate-small", 100 * i), 1)
            run.op("rate", _table_finite(table))
            return wall, table

        overhead = trace_rounds(run, tracer, seconds, traced_call,
                                "traced_equals_untraced")
        untraced, traced = (run.detail["trace_main_s_" + k]
                            for k in ("untraced", "traced"))
        run.detail["trials_per_s_untraced"] = trials * len(untraced) / sum(untraced)
        run.detail["trials_per_s_traced"] = trials * len(traced) / sum(traced)
        run.layers = tracer.layer_metrics(overhead_frac=overhead)
        run.tracer = tracer
        return run

    tables = []

    def one_round(i):
        nonlocal setup
        for j, threads in enumerate(p["round"]):
            setup = setup_time(run, lambda: _rate_setup(p))
            s = derive_seed(seed, "rate-small", 100 * i + j)
            out = guarded(run, "rate", lambda: call(s, threads))
            if out is None:
                continue
            wall, table = out
            ok = _table_finite(table)
            run.op("rate", ok)
            run.sample("main" if threads == 1 else "alt", wall / trials)
            if ok:
                tables.append(table)

    closed_loop(seconds, one_round)
    if tables:
        lo = statistics.fmean(t.rows[0].median_error for t in tables)
        hi = statistics.fmean(t.rows[-1].median_error for t in tables)
        ratio = lo / hi
        low, high = p["ratio_range"]
        run.gate("median_error_ratio", ratio, [low, high],
                 low <= ratio <= high, "rate")
        run.detail.update(
            median_error=hi, median_error_ratio=ratio,
            pooled_trials_per_grid_point=p["trials"] * len(tables))
    else:
        run.gate("median_error_ratio", None, list(p["ratio_range"]), False, "rate")
    for key, name in (("main", "trials_per_s"), ("alt", "trials_per_s_2proc")):
        per_trial = run.samples.get(key, [])
        if per_trial:
            run.detail[name] = len(per_trial) / sum(per_trial)
    return run


# ----------------------------------------------------------- solve-preset

def _preset_setups(p):
    dec = genmodel.decoder_new(*p["decoder"])
    link = measurement.sign_dithered_link(p["sigma_d"])
    cfg = solvers.SolverConfig(
        step_size=p["step_size"], iterations=p["iterations"],
        projection=projection.ProjectionConfig(**p["projection"]),
        x0_mode="zero")
    glasso = analysis.TrialSetup(decoder=dec, link=link, solver_kind="pgd_glasso",
                                 solver_cfg=cfg, sensing_kind="partial_circulant")
    return glasso, replace(glasso, solver_kind="csgm")


def solve_preset(seed, seconds, trace, p=SOLVE_PRESET):
    run = Run()
    setups = setup_time(run, lambda: _preset_setups(p), p["setup_repeats"])
    records = {"main": [], "alt": []}

    def instance(i):
        s = derive_seed(seed, "solve-preset", i)
        walls, out = [], []
        for key, setup in zip(("main", "alt"), setups):
            wall, res = timed(lambda: analysis.solve_instance(setup, p["n"], s))
            rec = res.record
            ok = finite(rec.error, rec.cosine)
            run.op("pgd" if key == "main" else "csgm", ok)
            if ok:
                records[key].append(rec)
            walls.append(wall)
            out.append(rec)
        return walls, tuple(out)

    if trace:
        tracer = Tracer()
        with tracer:
            _preset_setups(p)

        def traced_call(i):
            walls, recs = instance(i)
            return walls[0], recs

        overhead = trace_rounds(run, tracer, seconds, traced_call,
                                "traced_equals_untraced")
        for k in ("untraced", "traced"):
            run.detail["solve_s_p50_" + k] = statistics.median(
                run.detail["trace_main_s_" + k] or [0.0])
        run.layers = tracer.layer_metrics(overhead_frac=overhead)
        run.tracer = tracer
        return run

    def one(i):
        nonlocal setups
        setups = setup_time(run, lambda: _preset_setups(p))
        out = guarded(run, "pgd", lambda: instance(i))
        if out is not None:
            run.sample("main", out[0][0])
            run.sample("alt", out[0][1])

    closed_loop(seconds, one)
    cos = [r.cosine for r in records["main"]]
    med = statistics.median(cos) if cos else None
    run.gate("median_cosine", med, p["min_cosine"],
             med is not None and med >= p["min_cosine"], "pgd")
    solve_s = run.samples.get("main", [])
    t = tail(solve_s)
    run.detail.update(
        solve_s_p50=statistics.median(solve_s) if solve_s else None,
        solve_s_tail=(None if t is None else
                      {"percentile": t[0], "value": t[1], "samples": t[2]}),
        solve_samples=len(solve_s),
        csgm_s_p50=statistics.median(run.samples.get("alt", [0.0])),
        median_cosine=med,
        median_error=(statistics.median(r.error for r in records["main"])
                      if records["main"] else None),
        csgm_median_cosine=(statistics.median(r.cosine for r in records["alt"])
                            if records["alt"] else None))
    return run


# ------------------------------------------------------------ check-sweep

_IMPORT_PROBE = ("import time; t = time.perf_counter(); import genprior; "
                 "print(time.perf_counter() - t)")


def _import_seconds():
    """Seconds to import genprior in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [v for v in [env.get("PYTHONPATH")] if v])
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                         cwd=ROOT, capture_output=True, text=True, check=True,
                         timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


def run_suite(args):
    """One `genprior check` suite; module-level so pool workers can run it."""
    return cli.main(args)


def check_sweep(seed, seconds, trace, p=CHECK_SWEEP):
    run = Run()
    for _ in range(p["setup_repeats"]):
        run.sample("setup", _import_seconds())

    def suite_args(i):
        order = np.random.default_rng(
            derive_seed(seed, "check-order", i)).permutation(len(p["suites"]))
        return [["check", p["suites"][k], "--seed", str(p["check_seed"]),
                 "--quiet"] + list(p["extra_args"]) for k in order]

    def serial(args_list):
        codes = []
        for args in args_list:
            codes.append(cli.main(args))
            run.op("check", codes[-1] == 0)
        return tuple(codes)

    if trace:
        tracer = Tracer()
        overhead = trace_rounds(
            run, tracer, seconds,
            lambda i: timed(lambda: serial(suite_args(i))),
            "traced_equals_untraced")
        sweeps = len(run.detail["trace_main_s_traced"]) or 1
        run.layers = tracer.layer_metrics(sweeps=sweeps, overhead_frac=overhead)
        run.tracer = tracer
        return run

    # fork, as analysis.rate_experiment uses: spawn and forkserver start a
    # resource-tracker process that outlives the benchmark.
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
        # warm the workers before timing
        list(pool.map(run_suite, suite_args(-1)))

        def one(i):
            run.sample("setup", _import_seconds())
            args_list = suite_args(i)
            wall, codes = timed(lambda: serial(args_list))
            run.sample("main", wall)
            wall, codes = timed(lambda: list(pool.map(run_suite, args_list)))
            for code in codes:
                run.op("check", code == 0)
            run.sample("alt", wall)

        closed_loop(seconds, lambda i: guarded(run, "check", lambda: one(i)))
    run.detail.update(
        check_sweep_s=statistics.median(run.samples.get("main", [0.0])),
        check_sweep_2proc_s=statistics.median(run.samples.get("alt", [0.0])),
        sweeps=len(run.samples.get("main", [])))
    return run


WORKLOADS = {"rate-small": rate_small, "solve-preset": solve_preset,
             "check-sweep": check_sweep}
