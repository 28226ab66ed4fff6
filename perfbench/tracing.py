"""Span tracer that wraps genprior's public functions from outside.

While a ``Tracer`` is entered, chosen module attributes are replaced by
wrappers that record one span (name, start, end, parent, trial) per call;
leaving it restores the originals. Spans stay in memory in typed arrays and
are written out once, at the end of a run.

Internal calls made through a module attribute (``projection`` calling
``genmodel.forward``, ``solvers`` calling ``sensing.apply``) go through the
wrapper as well. Names bound with ``from x import y`` are wrapped in every
module that imports them, so ``solvers`` and ``analysis`` calls to
``link_eval`` and ``observe_*`` are seen too. Wrapping is single-threaded:
spans from worker processes are not recorded.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

from genprior import (analysis, cli, genmodel, measurement, projection,
                      sensing, solvers)

MODULES = {"analysis": analysis, "cli": cli, "genmodel": genmodel,
           "measurement": measurement, "projection": projection,
           "sensing": sensing, "solvers": solvers}

# (module, attribute, span name). One span name may cover several bindings.
WRAPPED = (
    [("genmodel", a, "genmodel." + a) for a in ("forward", "vjp", "decoder_new")]
    + [("sensing", a, "sensing." + a)
       for a in ("apply", "adjoint_apply", "sensing_new")]
    + [(m, "link_eval", "measurement.link_eval")
       for m in ("measurement", "solvers", "analysis")]
    + [(m, "link_deriv", "measurement.link_deriv")
       for m in ("measurement", "solvers")]
    + [(m, a, "measurement.observe") for m in ("measurement", "analysis")
       for a in ("observe_sim", "observe_known")]
    + [("measurement", a, "measurement.link_build")
       for a in ("linear_link", "shifted_cosine_link", "sign_dithered_link",
                 "custom_monotone_link")]
    + [("projection", "project", "projection.project"),
       ("solvers", "pgd_glasso", "solvers.pgd"),
       ("solvers", "pgd_nlasso", "solvers.pgd"),
       ("solvers", "csgm_baseline", "solvers.csgm_baseline"),
       ("solvers", "loss_glasso", "solvers.loss"),
       ("solvers", "loss_nlasso", "solvers.loss"),
       ("analysis", "solve_instance", "analysis.solve_instance"),
       ("analysis", "rate_experiment", "analysis.rate_experiment"),
       ("cli", "main", "cli.main")]
    + [("analysis", c + "_check", "analysis." + c + "_check")
       for c in ("tsrec", "jle", "wnu", "polarization", "mvt", "adjoint",
                 "gradient")]
)

# A span with one of these names starts a new trial id for itself and for
# everything it calls.
TRIAL_ROOTS = ("analysis.solve_instance", "cli.main")

CHECKS = ("tsrec", "jle", "wnu", "polarization", "mvt", "adjoint", "gradient")

# Per-layer metrics in output order: (name, unit, better).
PER_LAYER = (
    [(f"genmodel.{f}.{m}", u, b) for f in ("forward", "vjp")
     for m, u, b in (("calls", "count", "lower"), ("us_per_call", "us", "lower"),
                     ("gflops_computed", "GFLOP/s", "higher"))]
    + [("genmodel.decoder_new.s", "s", "lower")]
    + [(f"sensing.{f}.{m}", u, "lower") for f in ("apply", "adjoint_apply")
       for m, u in (("calls", "count"), ("us_per_call", "us"))]
    + [("sensing.sensing_new.ms_per_call", "ms", "lower"),
       ("measurement.link_build.s", "s", "lower"),
       ("measurement.observe.ms_per_call", "ms", "lower"),
       ("measurement.link_eval.calls", "count", "lower"),
       ("measurement.link_eval.us_per_call", "us", "lower"),
       ("projection.project.calls", "count", "lower"),
       ("projection.project.ms_per_call", "ms", "lower"),
       ("projection.project.self_frac", "fraction", "lower"),
       ("projection.project.latent_steps_per_call", "count", "lower"),
       ("projection.project.warm_win_frac", "fraction", "higher"),
       ("projection.project.oob_step_frac", "fraction", "lower"),
       ("projection.project.residual_mean", "l2", "lower"),
       ("projection.latent_step.us", "us", "lower"),
       ("solvers.pgd.calls", "count", "lower"),
       ("solvers.pgd.iter_ms", "ms", "lower"),
       ("solvers.pgd.grad_frac", "fraction", "lower"),
       ("solvers.pgd.project_frac", "fraction", "lower"),
       ("solvers.pgd.record_frac", "fraction", "lower"),
       ("solvers.pgd.iters_to_floor", "count", "lower"),
       ("solvers.csgm_baseline.ms_per_call", "ms", "lower"),
       ("solvers.csgm_baseline.latent_step.us", "us", "lower"),
       ("analysis.solve_instance.self_ms", "ms", "lower"),
       ("analysis.rate_experiment.self_frac", "fraction", "lower")]
    + [(f"analysis.{c}_check.s", "s", "lower") for c in CHECKS]
    + [("cli.main.self_s", "s", "lower"),
       ("trace.overhead_frac", "fraction", "lower")]
)

GRAD_PHASE = ("sensing.apply", "sensing.adjoint_apply", "measurement.link_eval",
              "measurement.link_deriv")


class Tracer:
    """Records spans while entered; may be entered any number of times."""

    def __init__(self):
        self.names = []                  # span-name table, index = name id
        self.name_of = array("i")
        self.parent = array("q")
        self.trial = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._trial = 0
        self._saved = []
        self.project_stats = []          # (warm started, restart won, residual, oob steps)
        self.pgd_stats = []              # (iterations, iters_to_floor or -1)
        self.flops = {"genmodel.forward": 0.0, "genmodel.vjp": 0.0}

    def __enter__(self):
        for mod_name, attr, span in WRAPPED:
            mod = MODULES[mod_name]
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(span, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()
        return False

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, span, fn):
        nid = self._name_id(span)
        new_trial = span in TRIAL_ROOTS
        hook = {"projection.project": self._on_project,
                "solvers.pgd": self._on_pgd,
                "genmodel.forward": self._on_decoder_call,
                "genmodel.vjp": self._on_decoder_call}.get(span)
        stack, clock = self._stack, time.perf_counter
        name_of, parent, trial = self.name_of, self.parent, self.trial
        start, end = self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if new_trial:
                self._trial += 1
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            trial.append(self._trial)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(span, args, kwargs, result)
            return result
        return wrapper

    def _on_project(self, span, args, kwargs, res):
        self.project_stats.append((kwargs.get("warm_start") is not None,
                                   res.restart_index, res.residual,
                                   res.out_of_ball_steps))

    def _on_pgd(self, span, args, kwargs, res):
        traj = res[1]
        errs = traj.error_to_target
        floor = -1
        if errs:
            final = errs[-1]
            floor = next((t for t, e in enumerate(errs) if e <= 1.1 * final), -1)
        self.pgd_stats.append((len(traj.loss_values) - 1, floor))

    def _on_decoder_call(self, span, args, kwargs, res):
        # one matvec per layer, 2 flops per weight; vjp reruns the forward
        # pass, then does one transposed matvec per layer
        flops = 2.0 * sum(w.size for w, _ in args[0].layers)
        self.flops[span] += flops if span == "genmodel.forward" else 2 * flops

    def spans(self):
        """Spans as numpy arrays, with durations and self times."""
        name = np.frombuffer(self.name_of, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int64).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return {"name": name, "parent": parent,
                "trial": np.frombuffer(self.trial, dtype=np.int64).copy(),
                "start": start, "end": end, "dur": dur, "self": dur - child}

    def save(self, path):
        """Write every span to a compressed .npz file."""
        s = self.spans()
        np.savez_compressed(path, names=np.asarray(self.names), name=s["name"],
                            parent=s["parent"], trial=s["trial"],
                            start=s["start"], end=s["end"])

    def layer_metrics(self, sweeps=1, overhead_frac=0.0):
        """Every PER_LAYER metric; a layer that never ran reports 0.

        ``sweeps`` divides the check-suite and cli totals so they read per
        six-suite sweep.
        """
        s = self.spans()
        ids = {n: i for i, n in enumerate(self.names)}

        def mask(name):
            return s["name"] == ids.get(name, -1)

        def count(name):
            return int(mask(name).sum())

        def total(name, key="dur"):
            return float(s[key][mask(name)].sum())

        def per_call(name, scale, key="dur"):
            c = count(name)
            return total(name, key) * scale / c if c else 0.0

        def children(parent_name, child_names):
            # spans named child_names whose direct parent is parent_name
            par = s["parent"]
            is_parent = np.zeros(len(par) + 1, dtype=bool)
            is_parent[:-1] = mask(parent_name)
            sel = is_parent[par] & np.isin(
                s["name"], [ids.get(c, -1) for c in child_names])
            return int(sel.sum()), float(s["dur"][sel].sum())

        def ratio(a, b):
            return a / b if b else 0.0

        m = {}
        for f in ("forward", "vjp"):
            key = "genmodel." + f
            m[key + ".calls"] = count(key)
            m[key + ".us_per_call"] = per_call(key, 1e6)
            m[key + ".gflops_computed"] = ratio(self.flops[key] / 1e9, total(key))
        m["genmodel.decoder_new.s"] = per_call("genmodel.decoder_new", 1.0)
        for f in ("apply", "adjoint_apply"):
            m[f"sensing.{f}.calls"] = count("sensing." + f)
            m[f"sensing.{f}.us_per_call"] = per_call("sensing." + f, 1e6)
        m["sensing.sensing_new.ms_per_call"] = per_call("sensing.sensing_new", 1e3)
        m["measurement.link_build.s"] = per_call("measurement.link_build", 1.0)
        m["measurement.observe.ms_per_call"] = per_call("measurement.observe", 1e3)
        m["measurement.link_eval.calls"] = count("measurement.link_eval")
        m["measurement.link_eval.us_per_call"] = per_call("measurement.link_eval", 1e6)

        proj = "projection.project"
        n_proj = count(proj)
        steps, _ = children(proj, ["genmodel.vjp"])
        stats = self.project_stats
        warm = [won == 0 for started, won, _, _ in stats if started]
        m[proj + ".calls"] = n_proj
        m[proj + ".ms_per_call"] = per_call(proj, 1e3)
        m[proj + ".self_frac"] = ratio(total(proj, "self"), total(proj))
        m[proj + ".latent_steps_per_call"] = ratio(steps, n_proj)
        m[proj + ".warm_win_frac"] = ratio(sum(warm), len(warm))
        m[proj + ".oob_step_frac"] = ratio(sum(st[3] for st in stats), steps)
        m[proj + ".residual_mean"] = (float(np.mean([st[2] for st in stats]))
                                      if stats else 0.0)
        m["projection.latent_step.us"] = ratio(total(proj) * 1e6, steps)

        pgd = "solvers.pgd"
        pgd_time = total(pgd)
        iters = sum(it for it, _ in self.pgd_stats)
        floors = [fl for _, fl in self.pgd_stats if fl >= 0]
        m[pgd + ".calls"] = count(pgd)
        m[pgd + ".iter_ms"] = ratio(pgd_time * 1e3, iters)
        m[pgd + ".grad_frac"] = ratio(children(pgd, GRAD_PHASE)[1], pgd_time)
        m[pgd + ".project_frac"] = ratio(children(pgd, [proj])[1], pgd_time)
        m[pgd + ".record_frac"] = ratio(children(pgd, ["solvers.loss"])[1], pgd_time)
        m[pgd + ".iters_to_floor"] = float(np.median(floors)) if floors else 0.0
        csgm = "solvers.csgm_baseline"
        csgm_steps, _ = children(csgm, ["genmodel.vjp"])
        m[csgm + ".ms_per_call"] = per_call(csgm, 1e3)
        m[csgm + ".latent_step.us"] = ratio(total(csgm) * 1e6, csgm_steps)

        m["analysis.solve_instance.self_ms"] = per_call(
            "analysis.solve_instance", 1e3, "self")
        m["analysis.rate_experiment.self_frac"] = ratio(
            total("analysis.rate_experiment", "self"),
            total("analysis.rate_experiment"))
        for c in CHECKS:
            m[f"analysis.{c}_check.s"] = total(f"analysis.{c}_check") / sweeps
        m["cli.main.self_s"] = total("cli.main", "self") / sweeps
        m["trace.overhead_frac"] = overhead_frac
        return {name: {"value": m[name], "unit": unit}
                for name, unit, _ in PER_LAYER}
