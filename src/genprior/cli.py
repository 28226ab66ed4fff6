"""Command-line front end.

Subcommands: ``solve`` (one configured reconstruction), ``rate`` (error
versus measurement-count grid), ``check`` (named verification suites with
frozen constants), and ``model`` (decoder JSON tooling). All randomness
derives from one master seed, so re-running a command with the same config
and seed reproduces its outputs byte for byte.

Exit codes: 0 success/pass, 1 check failed, 2 bad config, 3 the requested
solver does not apply to the configured link.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import analysis, genmodel, measurement, projection, sensing, solvers
from .errors import ConfigError, UnsupportedOperationError
from .seeding import derive_seed

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_INAPPLICABLE = 3

CHECK_SUITES = ("adjoint", "tsrec", "jle", "wnu", "mvt", "gradients")

DEFAULT_CHECK_SEED = 20240
CHECK_REPEATS = 10  # fresh operator draws per probabilistic suite


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


TYPES = {  # the JSON types of config values, by their names in errors
    "an integer": _is_int,
    "a finite number": lambda v: ((_is_int(v) or isinstance(v, float))
                                  and abs(v) <= sys.float_info.max),
    "a string": lambda v: isinstance(v, str),
    "a list of integers": lambda v: isinstance(v, list) and all(map(_is_int, v)),
    "a JSON object": lambda v: isinstance(v, dict),
}
INT, NUM, STR, INTS, OBJ = TYPES
# A key's type (a name in TYPES), whether it is required, and the values
# allowed when only some are.
_Key = collections.namedtuple("_Key", "type required choices",
                              defaults=(False, ()))
_DIMS = {"k": _Key(INT, True), "p": _Key(INT, True), "r": _Key(NUM, True)}

# The config schema: the keys of each section, exactly the keys the CLI
# reads. A section whose keys depend on one of its values is a (variant key,
# its default, {variant: keys}) triple. Defaults and ranges are left to the
# library constructors the values are passed to.
SCHEMA = {
    "config": {"master_seed": _Key(INT), "out_dir": _Key(STR),
               **dict.fromkeys(("decoder", "sensing", "link", "solver"),
                               _Key(OBJ, True)), "experiment": _Key(OBJ)},
    "decoder": ("family", "mlp", {
        "mlp": {"seed": _Key(INT), **_DIMS,
                "activation": _Key(STR, False, genmodel.ACTIVATIONS),
                "layer_dims": _Key(INTS), "weight_scale": _Key(NUM)},
        "orthonormal_linear": {"seed": _Key(INT), **_DIMS},
        "identity": {"k": _DIMS["k"], "r": _DIMS["r"]}}),
    "sensing": {"kind": _Key(STR, False, sensing.KINDS), "n": _Key(INT)},
    "link": ("kind", None, {  # built by measurement.<kind>_link
        "linear": {"sigma": _Key(NUM), "tau": _Key(NUM)},
        "shifted_cosine": {"sigma": _Key(NUM), "tau": _Key(NUM)},
        "sign_dithered": {"sigma_d": _Key(NUM), "tau": _Key(NUM)}}),
    "solver": {"kind": _Key(STR, True, solvers.KINDS),
               "step_size": _Key(NUM), "iterations": _Key(INT),
               # "given" is library-only: the CLI cannot pass an x0
               "x0_mode": _Key(STR, False, ("zero", "random_range_point")),
               "projection": _Key(OBJ)},
    "solver.projection": {"steps": _Key(INT), "restarts": _Key(INT)},
    "experiment": {"observation": _Key(STR, False, analysis.OBSERVATIONS),
                   "delta": _Key(NUM), "grid": _Key(INTS),
                   "trials": _Key(INT)},
}
# The decoder keys model new has flags for, with the values of its preset,
# and the flags not named after their key.
MODEL_PRESET = {"seed": 0, "k": 20, "layer_dims": "500,500", "p": 784,
                "r": 3.0, "activation": "tanh", "weight_scale": 1.0}
MODEL_FLAGS = {"layer_dims": "--hidden", "weight_scale": "--scale"}
# The genmodel factory of each decoder family. Its parameters are the
# family's keys in SCHEMA, with layer_dims passed as hidden_dims.
FACTORIES = {"mlp": "decoder_new",
             "orthonormal_linear": "orthonormal_linear_decoder",
             "identity": "identity_decoder"}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except UnsupportedOperationError as e:
        print(f"inapplicable method: {e}", file=sys.stderr)
        return EXIT_INAPPLICABLE


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser():
    p = argparse.ArgumentParser(prog="genprior")
    sub = p.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one configured reconstruction")
    _common_flags(solve)
    solve.set_defaults(func=cmd_solve)

    rate = sub.add_parser("rate", help="error vs measurement-count grid")
    _common_flags(rate)
    rate.add_argument("--threads", type=int, default=1)
    rate.set_defaults(func=cmd_rate)

    check = sub.add_parser("check", help="run a named verification suite")
    check.add_argument("suite", choices=CHECK_SUITES)
    check.add_argument("--n", type=int, default=None,
                       help="override the calibrated measurement count")
    check.add_argument("--seed", type=int, default=DEFAULT_CHECK_SEED)
    check.add_argument("--quiet", action="store_true")
    check.add_argument("--json", action="store_true",
                       help="print the reports as a JSON list")
    check.set_defaults(func=cmd_check)

    model = sub.add_parser("model", help="create or describe decoder JSON")
    msub = model.add_subparsers(dest="model_command", required=True)
    # a decoder flag that is not given is absent from args, and
    # cmd_model_new fills in its MODEL_PRESET value
    mnew = msub.add_parser("new", argument_default=argparse.SUPPRESS)
    mnew.add_argument("--out", default=None, help="output path (default stdout)")
    mnew.add_argument("--k", type=int)
    mnew.add_argument("--hidden", dest="layer_dims", metavar="DIMS",
                      help="comma-separated hidden dims, empty for linear")
    mnew.add_argument("--p", type=int)
    mnew.add_argument("--r", type=float)
    mnew.add_argument("--activation", choices=genmodel.ACTIVATIONS)
    mnew.add_argument("--scale", dest="weight_scale", metavar="SCALE",
                      type=float)
    mnew.add_argument("--family", default="mlp", choices=SCHEMA["decoder"][2])
    mnew.add_argument("--seed", type=int)
    mnew.set_defaults(func=cmd_model_new)
    minfo = msub.add_parser("info")
    minfo.add_argument("path")
    minfo.set_defaults(func=cmd_model_info)

    return p


def _common_flags(sp):
    sp.add_argument("--config", required=True, help="JSON config path")
    sp.add_argument("--out", default=None, help="output directory override")
    sp.add_argument("--seed", type=int, default=None, help="master seed override")
    sp.add_argument("--quiet", action="store_true")


# ----------------------------------------------------------------- solve

def cmd_solve(args):
    cfg = _load_config(args.config)
    setup, n, master, out_dir = _build_setup(cfg, args)
    if n is None:  # rate measures at the experiment.grid values instead
        raise ConfigError("sensing.n: required by the solve command")
    # the operator is drawn in the solve, so its size is checked here
    with _reported("sensing"):
        analysis._check_n(n, setup.sensing_kind, setup.decoder.ambient_dim, "n")
    # as in rate: a planted signal the decoder maps to zero is a config error
    with _reported("experiment"):
        result = analysis.solve_instance(setup, n, derive_seed(master, "solve"))
    metrics = {
        "n": n,
        "p": setup.decoder.ambient_dim,
        "k": setup.decoder.latent_dim,
        "solver": setup.solver_kind,
        "link": setup.link.kind,
        "mu": setup.link.mu,
        "lipschitz_bound": setup.decoder.lipschitz,
        "final_loss": result.record.loss,
        "l2_error": result.record.error if setup.matched() else None,
        "cosine_similarity": result.record.cosine,
    }
    instance = _instance_doc(cfg, setup, result, master)
    _write_outputs(out_dir, {
        "trajectory.csv": lambda path: _write_trajectory_csv(
            result.trajectory, path),
        "metrics.json": lambda path: _write_json(path, metrics),
        "instance.json": lambda path: _write_json(path, instance)})
    if not args.quiet:
        print(f"solve: loss={metrics['final_loss']:.6g} "
              f"cosine={metrics['cosine_similarity']:.4f} -> {out_dir}")
    return EXIT_OK


# ------------------------------------------------------------------ rate

def cmd_rate(args):
    cfg = _load_config(args.config)
    setup, _, master, out_dir = _build_setup(cfg, args)
    exp = cfg.get("experiment", {})
    if "grid" not in exp:
        raise ConfigError("experiment.grid: required by the rate command")
    with _reported("experiment"):
        table = analysis.rate_experiment(exp["grid"], exp.get("trials", 30),
                                         setup, derive_seed(master, "rate"),
                                         threads=_threads(args))
    _write_outputs(out_dir, {
        "rate.csv": lambda path: _write_rate_csv(table, path),
        "rate.json": lambda path: _write_json(path, dataclasses.asdict(table))})
    if not args.quiet:
        for row in table.rows:
            print(f"n={row.n}: median={row.median_error:.4g} "
                  f"predicted={row.predicted:.4g}")
        print(f"fitted constant: {table.fitted_constant:.4g} -> {out_dir}")
    return EXIT_OK


# ----------------------------------------------------------------- check

def cmd_check(args):
    if args.n is not None and not 1 <= args.n <= analysis.N_CAP:
        bound = ">= 1" if args.n < 1 else f"<= {analysis.N_CAP}"
        raise ConfigError(f"check {args.suite}: --n must be {bound}, "
                          f"got {args.n}")
    # one BLAS thread, as in rate: the reports do not depend on the host's
    # thread count
    with _reported(f"check {args.suite}"), analysis._one_blas_thread():
        reports = _run_suite(args.suite, args.seed, args.n)
    passed = all(r.passed for r in reports)
    if args.json and not args.quiet:
        print(json.dumps([dataclasses.asdict(r) for r in reports], indent=2))
    elif not args.quiet:
        for r in reports:
            print(r.summary())
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _check_decoder(seed):
    return genmodel.decoder_new(seed, k=4, hidden_dims=[16], p=64, r=3.0,
                                activation="tanh", weight_scale=1.0)


def _calibrated_n(decoder, factor, eps, delta):
    return max(1, math.ceil(factor * decoder.latent_dim / eps ** 2
                            * analysis._log_lr_over_delta(decoder, delta)))


def _run_suite(suite, seed, n_override):
    def size(n):
        return n if n_override is None else n_override

    def fresh(tag, n, p):  # CHECK_REPEATS dense operators, drawn one by one
        for i in range(CHECK_REPEATS):
            yield i, sensing.sensing_new("dense_gaussian", n, p,
                                         derive_seed(seed, f"{tag}-op", i))

    reports = []
    if suite == "adjoint":
        cases = [("dense_gaussian", 50, 80), ("dense_gaussian", 200, 120),
                 ("partial_circulant", 5, 8), ("partial_circulant", 37, 64)]
        for kind, n, p in cases:  # every size before any draw
            if kind == "partial_circulant" and size(n) > p:
                raise ValueError(f"--n must be <= {p} (a partial_circulant "
                                 f"case has p = {p}), got {size(n)}")
        for i, (kind, n, p) in enumerate(cases):
            op = sensing.sensing_new(kind, size(n), p,
                                     derive_seed(seed, "adjoint-op", i))
            reports.append(analysis.adjoint_check(
                op, trials=100, seed=derive_seed(seed, "adjoint", i)))
    elif suite == "tsrec":
        dec = _check_decoder(derive_seed(seed, "decoder"))
        # frozen: C = 8 at eps = 0.5 (the eps^2 factor is folded into C)
        n = size(_calibrated_n(dec, 8 * 0.5 ** 2, 0.5, 0.01))
        for i, op in fresh("tsrec", n, dec.ambient_dim):
            reports.append(analysis.tsrec_check(
                op, dec, eps=0.5, delta=0.01, pairs=1000,
                seed=derive_seed(seed, "tsrec", i)))
    elif suite == "jle":
        for i, op in fresh("jle", size(200), 64):
            pts = np.random.default_rng(
                derive_seed(seed, "jle-points", i)).standard_normal((100, 64))
            reports.append(analysis.jle_check(op, pts, eps=0.5))
    elif suite == "wnu":
        dec = _check_decoder(derive_seed(seed, "decoder"))
        n = size(_calibrated_n(dec, 1.0, 0.3, 1e-3))
        for i, op in fresh("wnu", n, dec.ambient_dim):
            reports.append(analysis.wnu_check(
                op, dec, nu=1.0, eps=0.3, pairs=500,
                seed=derive_seed(seed, "wnu", i)))
        op = sensing.sensing_new("dense_gaussian", size(48), 32,
                                 derive_seed(seed, "polar-op"))
        reports.append(analysis.polarization_check(
            op, pairs=100, seed=derive_seed(seed, "polar")))
    elif suite == "mvt":
        op = sensing.sensing_new("dense_gaussian", size(60), 40,
                                 derive_seed(seed, "mvt-op"))
        links = (measurement.linear_link(), measurement.shifted_cosine_link())
        for i, link in enumerate(links):
            reports.append(analysis.mvt_check(
                op, link, triples=100, seed=derive_seed(seed, "mvt", i)))
    elif suite == "gradients":
        dec = genmodel.decoder_new(derive_seed(seed, "decoder"), k=4,
                                   hidden_dims=[8], p=24, r=3.0,
                                   activation="tanh", weight_scale=1.0)
        op = sensing.sensing_new("dense_gaussian", size(40), 24,
                                 derive_seed(seed, "grad-op"))
        reports.append(analysis.gradient_check(
            op, measurement.shifted_cosine_link(), dec, points=50,
            seed=derive_seed(seed, "grad")))
    return reports


# ----------------------------------------------------------------- model

def cmd_model_new(args):
    keys = SCHEMA["decoder"][2][args.family]
    given = {key: getattr(args, key) for key in MODEL_PRESET
             if hasattr(args, key)}
    for key in given:
        if key not in keys:
            raise ConfigError(f"{MODEL_FLAGS.get(key, '--' + key)}: not read "
                              f"by the {args.family} family")
    doc = {**MODEL_PRESET, **given}
    with _reported("--hidden"):
        doc["layer_dims"] = [int(h) for h in doc["layer_dims"].split(",")
                             if h.strip()]
    with _reported("model new"):
        dec = _decoder({"family": args.family, **doc})
    text = json.dumps(_decoder_section(dec), sort_keys=True, indent=2) + "\n"
    if args.out:
        with _reported("--out", OSError), open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_model_info(args):
    doc = _load_config(args.path)
    with _reported(args.path, (ConfigError, ValueError)):
        _check(doc, "decoder")
        dec = _decoder(doc)
    print(f"family={dec.family} k={dec.latent_dim} p={dec.ambient_dim} "
          f"r={dec.latent_radius} activation={dec.activation} "
          f"layers={len(dec.layers)} L={dec.lipschitz:.6g}")
    return EXIT_OK


# ---------------------------------------------------------------- config

def _load_config(path):
    """The JSON object in the file at path."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"{path}: line {e.lineno}, column {e.colno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: the top level must be a JSON object")
    return doc


def _check(doc, name):
    """Check doc, the JSON object of section name, against SCHEMA: each key's
    presence, type and value, its subsections, and that it has no other key."""
    table = SCHEMA[name]
    if isinstance(table, tuple):
        key, default, tables = table
        variant = doc.get(key, default)
        table = {key: _Key(STR, default is None, tuple(tables)),
                 **(tables.get(variant, {}) if isinstance(variant, str) else {})}
    at = "" if name == "config" else f"{name}."
    for key, spec in table.items():
        value = doc.get(key)
        if key not in doc:
            if spec.required:
                raise ConfigError(f"{at}{key}: missing required key")
        elif not TYPES[spec.type](value):
            raise ConfigError(f"{at}{key}: expected {spec.type}, "
                              f"got {json.dumps(value)}")
        elif spec.choices and value not in spec.choices:
            raise ConfigError(f"{at}{key}: {json.dumps(value)} is not one of "
                              f"{', '.join(spec.choices)}")
        elif spec.type == OBJ:
            _check(value, at + key)
    unknown = sorted(set(doc) - set(table))
    if unknown:
        raise ConfigError(f"{at}{unknown[0]}: unknown key "
                          f"(known: {', '.join(table)})")


def _args(doc, **names):
    """The keys of doc present among names, as the keyword arguments named."""
    return {arg: doc[key] for key, arg in names.items() if key in doc}


@contextlib.contextmanager
def _reported(where, errors=ValueError):
    """Report errors raised in the block, by default a library constructor's
    ValueError, as config errors about where."""
    try:
        yield
    except errors as e:
        raise ConfigError(f"{where}: {e}") from e


def _build_setup(cfg, args):
    _check(cfg, "config")
    master = args.seed if args.seed is not None else cfg.get("master_seed", 0)
    out_dir = args.out or cfg.get("out_dir", "genprior-out")
    sense, solver, exp = cfg["sensing"], cfg["solver"], cfg.get("experiment", {})
    with _reported("decoder"):
        decoder = _decoder(cfg["decoder"], derive_seed(master, "decoder"))
    link_args = dict(cfg["link"])
    with _reported("link"):
        link = getattr(measurement, link_args.pop("kind") + "_link")(**link_args)
    nlasso = solver["kind"] == "pgd_nlasso"
    with _reported("solver"):
        scfg = solvers.SolverConfig(
            step_size=solver.get("step_size", solvers.ZETA_DEFAULT if nlasso
                                 else solvers.NU_DEFAULT),
            projection=projection.ProjectionConfig(
                **solver.get("projection", {})),
            **_args(solver, iterations="iterations", x0_mode="x0_mode"))
    cells = scfg.projection.restarts * decoder.latent_dim * decoder.ambient_dim
    if cells > analysis.JACOBIAN_CAP:  # before the descent draws its starts
        raise ConfigError(f"solver.projection.restarts: restarts * k * p = "
                          f"{cells}, above the cap of {analysis.JACOBIAN_CAP}")
    setup = analysis.TrialSetup(
        decoder=decoder, link=link, solver_kind=solver["kind"],
        solver_cfg=scfg, **_args(sense, kind="sensing_kind"),
        **_args(exp, observation="observation", delta="delta"))
    return setup, sense.get("n"), master, out_dir


def _decoder(doc, seed=None):
    """The decoder of a decoder section: its family's factory called with
    the keys SCHEMA gives that family. Other keys are left out, so a file
    is checked against SCHEMA first; ``model new`` passes every flag. A
    family that takes a seed is given seed when doc has none, and needs
    one or the other."""
    family = doc.get("family", "mlp")
    keys = SCHEMA["decoder"][2][family]
    args = {key: doc[key] for key in keys if key in doc}
    if family == "mlp":
        args["hidden_dims"] = args.pop("layer_dims", [])
    if "seed" in keys:
        args.setdefault("seed", seed)
        if args["seed"] is None:
            raise ConfigError("decoder.seed: missing required key")
    return getattr(genmodel, FACTORIES[family])(**args)


def _decoder_section(dec):
    """The decoder section that rebuilds dec: the keys of its family."""
    values = {"family": dec.family, "seed": dec.seed, "k": dec.latent_dim,
              "p": dec.ambient_dim, "r": dec.latent_radius,
              "activation": dec.activation, "layer_dims": list(dec.hidden_dims),
              "weight_scale": dec.weight_scale}
    return {key: values[key]
            for key in ("family", *SCHEMA["decoder"][2][dec.family])}


def _instance_doc(cfg, setup, result, master):
    proj = setup.solver_cfg.projection
    return {
        "master_seed": master,
        "decoder": _decoder_section(setup.decoder),
        "sensing": {"kind": setup.sensing_kind, "n": result.op.n,
                    "seed": result.op.seed},
        "link": cfg.get("link"),
        "solver": {
            "kind": setup.solver_kind,
            "step_size": setup.solver_cfg.step_size,
            "iterations": setup.solver_cfg.iterations,
            "x0_mode": setup.solver_cfg.x0_mode,
            "projection": {"steps": proj.steps, "restarts": proj.restarts},
        },
        "observation": setup.resolved_observation(),
    }


def _write_outputs(out_dir, writers):
    """Create out_dir and write its files, all or none: each
    ``writers[name](path)`` writes to a temporary path beside its file, and
    the files take their names only once every write has succeeded. A
    failure removes every temporary and every file already renamed, and is
    reported as the output directory's config error at the file's path."""
    path = out_dir
    staged, placed = [], []
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name, write in writers.items():
            path = os.path.join(out_dir, name)
            staged.append(os.path.join(out_dir, f".{name}.tmp"))
            write(staged[-1])
        for tmp, name in zip(staged, writers):
            path = os.path.join(out_dir, name)
            os.replace(tmp, path)
            placed.append(path)
    except OSError as e:
        for leftover in staged + placed:
            with contextlib.suppress(OSError):
                os.remove(leftover)
        raise ConfigError(f"output directory: [Errno {e.errno}] "
                          f"{e.strerror}: {path!r}") from e


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_trajectory_csv(traj, path):
    """Rows (t, loss, error, ratio); ratio at row t is error_t / error_{t-1}."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "loss", "error", "ratio"])
        ratios = traj.contraction_ratios
        for t, loss in enumerate(traj.loss_values):
            err = traj.error_to_target[t] if traj.error_to_target else ""
            ratio = ratios[t - 1] if 1 <= t <= len(ratios) else ""
            w.writerow([t, _fmt(loss), _fmt(err), _fmt(ratio)])


def _fmt(v):
    return repr(float(v)) if v != "" else ""


def _write_rate_csv(table, path):
    """Rows (n, trials, median_error, q25, q75, predicted, ratio);
    ratio = median_error / predicted measures the fit of the rate curve."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "trials", "median_error", "q25", "q75",
                    "predicted", "ratio"])
        for r in table.rows:
            ratio = r.median_error / r.predicted if r.predicted > 0 else float("nan")
            w.writerow([r.n, r.trials, repr(r.median_error), repr(r.q25),
                        repr(r.q75), repr(r.predicted), repr(ratio)])


def _threads(args):
    """Worker count from --threads, in [1, cpu count]."""
    return min(max(1, args.threads), os.cpu_count() or 1)


if __name__ == "__main__":
    sys.exit(main())
