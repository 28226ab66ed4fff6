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
    "solver": {"kind": _Key(STR, True, ("pgd_glasso", "pgd_nlasso", "csgm")),
               "step_size": _Key(NUM), "iterations": _Key(INT),
               "x0_mode": _Key(STR, False, solvers.X0_MODES),
               "projection": _Key(OBJ)},
    "solver.projection": {
        "steps": _Key(INT), "restarts": _Key(INT),
        "init": _Key(STR, False, projection.INITS),
        "ball_handling": _Key(STR, False, projection.BALL_HANDLING),
        "method": _Key(STR, False, projection.METHODS)},
    "experiment": {"observation": _Key(STR, False, ("sim", "known", "auto")),
                   "delta": _Key(NUM), "grid": _Key(INTS),
                   "trials": _Key(INT)},
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except UnsupportedOperationError as e:
        print(f"inapplicable method: {e}", file=sys.stderr)
        return EXIT_INAPPLICABLE


def _build_parser():
    p = argparse.ArgumentParser(prog="genprior")
    sub = p.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one configured reconstruction")
    _common_flags(solve, config_required=True)
    solve.set_defaults(func=cmd_solve)

    rate = sub.add_parser("rate", help="error vs measurement-count grid")
    _common_flags(rate, config_required=True)
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
    mnew = msub.add_parser("new")
    mnew.add_argument("--out", default=None, help="output path (default stdout)")
    mnew.add_argument("--k", type=int, default=20)
    mnew.add_argument("--hidden", default="500,500",
                      help="comma-separated hidden dims, empty for linear")
    mnew.add_argument("--p", type=int, default=784)
    mnew.add_argument("--r", type=float, default=3.0)
    mnew.add_argument("--activation", default="tanh",
                      choices=genmodel.ACTIVATIONS)
    mnew.add_argument("--scale", type=float, default=1.0)
    mnew.add_argument("--family", default="mlp", choices=SCHEMA["decoder"][2])
    mnew.add_argument("--seed", type=int, default=0)
    mnew.set_defaults(func=cmd_model_new)
    minfo = msub.add_parser("info")
    minfo.add_argument("path")
    minfo.set_defaults(func=cmd_model_info)

    return p


def _common_flags(sp, config_required):
    sp.add_argument("--config", required=config_required, help="JSON config path")
    sp.add_argument("--out", default=None, help="output directory override")
    sp.add_argument("--seed", type=int, default=None, help="master seed override")
    sp.add_argument("--threads", type=int, default=1)
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
    result = analysis.solve_instance(setup, n, derive_seed(master, "solve"))
    metrics = {
        "n": n,
        "p": setup.decoder.ambient_dim,
        "k": setup.decoder.latent_dim,
        "solver": setup.solver_kind,
        "link": setup.link.kind,
        "mu": setup.link.mu,
        "lipschitz_bound": genmodel.lipschitz_bound(setup.decoder),
        "final_loss": result.record.loss,
        "l2_error": None if not result.matched else result.record.error,
        "cosine_similarity": result.record.cosine,
    }
    with _reported("output directory", OSError):
        os.makedirs(out_dir, exist_ok=True)
    solvers.trajectory_to_csv(result.trajectory,
                              os.path.join(out_dir, "trajectory.csv"))
    _write_json(os.path.join(out_dir, "metrics.json"), metrics)
    _write_json(os.path.join(out_dir, "instance.json"),
                _instance_doc(cfg, setup, n, master))
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
    with _reported("output directory", OSError):
        os.makedirs(out_dir, exist_ok=True)
    analysis.rate_table_to_csv(table, os.path.join(out_dir, "rate.csv"))
    _write_json(os.path.join(out_dir, "rate.json"),
                analysis.rate_table_to_json(table))
    if not args.quiet:
        for row in table.rows:
            print(f"n={row.n}: median={row.median_error:.4g} "
                  f"predicted={row.predicted:.4g}")
        print(f"fitted constant: {table.fitted_constant:.4g} -> {out_dir}")
    return EXIT_OK


# ----------------------------------------------------------------- check

def cmd_check(args):
    if args.n is not None and args.n < 1:
        raise ConfigError(f"check {args.suite}: --n must be >= 1, got {args.n}")
    with _reported(f"check {args.suite}"):
        reports = _run_suite(args.suite, args.seed, args.n)
    passed = all(r.passed for r in reports)
    if args.json and not args.quiet:
        print(json.dumps([analysis.report_to_json(r) for r in reports],
                         indent=2))
    elif not args.quiet:
        for r in reports:
            print(r.summary())
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _check_decoder(seed):
    return genmodel.decoder_new(seed, k=4, hidden_dims=[16], p=64, r=3.0,
                                activation="tanh", weight_scale=1.0)


def _calibrated_n(decoder, factor, eps, delta):
    lr = genmodel.lipschitz_bound(decoder) * decoder.latent_radius
    return max(1, math.ceil(factor * decoder.latent_dim / eps ** 2
                            * math.log(lr / delta)))


def _run_suite(suite, seed, n_override):
    def size(n):
        return n if n_override is None else n_override

    reports = []
    if suite == "adjoint":
        cases = [("dense_gaussian", 50, 80), ("dense_gaussian", 200, 120),
                 ("partial_circulant", 5, 8), ("partial_circulant", 37, 64)]
        for i, (kind, n, p) in enumerate(cases):
            op = sensing.sensing_new(kind, size(n), p,
                                     derive_seed(seed, "adjoint-op", i))
            reports.append(analysis.adjoint_check(
                op, trials=100, seed=derive_seed(seed, "adjoint", i)))
    elif suite == "tsrec":
        dec = _check_decoder(derive_seed(seed, "decoder"))
        # frozen: C = 8 at eps = 0.5 (the eps^2 factor is folded into C)
        n = size(_calibrated_n(dec, 8 * 0.5 ** 2, 0.5, 0.01))
        for i in range(CHECK_REPEATS):
            op = sensing.sensing_new("dense_gaussian", n, dec.ambient_dim,
                                     derive_seed(seed, "tsrec-op", i))
            reports.append(analysis.tsrec_check(
                op, dec, eps=0.5, delta=0.01, pairs=1000,
                seed=derive_seed(seed, "tsrec", i)))
    elif suite == "jle":
        p = 64
        n = size(200)
        for i in range(CHECK_REPEATS):
            op = sensing.sensing_new("dense_gaussian", n, p,
                                     derive_seed(seed, "jle-op", i))
            pts = np.random.default_rng(
                derive_seed(seed, "jle-points", i)).standard_normal((100, p))
            reports.append(analysis.jle_check(op, pts, eps=0.5))
    elif suite == "wnu":
        dec = _check_decoder(derive_seed(seed, "decoder"))
        n = size(_calibrated_n(dec, 1.0, 0.3, 1e-3))
        for i in range(CHECK_REPEATS):
            op = sensing.sensing_new("dense_gaussian", n, dec.ambient_dim,
                                     derive_seed(seed, "wnu-op", i))
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
    else:
        raise ConfigError(f"unknown check suite {suite!r}")
    return reports


# ----------------------------------------------------------------- model

def cmd_model_new(args):
    with _reported("--hidden"):
        hidden = [int(h) for h in args.hidden.split(",") if h.strip()]
    with _reported("model new"):
        dec = genmodel.decoder_from_json({
            "family": args.family, "seed": args.seed, "k": args.k,
            "layer_dims": hidden, "p": args.p, "r": args.r,
            "activation": args.activation, "weight_scale": args.scale})
    doc = genmodel.decoder_to_json(dec)
    doc["lipschitz_bound"] = genmodel.lipschitz_bound(dec)
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if args.out:
        with _reported("--out", OSError), open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_model_info(args):
    doc = _load_config(args.path)
    try:
        dec = genmodel.decoder_from_json(doc)
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"{args.path}: {e}") from e
    print(f"family={dec.family} k={dec.latent_dim} p={dec.ambient_dim} "
          f"r={dec.latent_radius} activation={dec.activation} "
          f"layers={len(dec.layers)} L={genmodel.lipschitz_bound(dec):.6g}")
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
        decoder = genmodel.decoder_from_json(
            {"seed": derive_seed(master, "decoder"), **cfg["decoder"]})
    link_args = dict(cfg["link"])
    with _reported("link"):
        link = getattr(measurement, link_args.pop("kind") + "_link")(**link_args)
    nlasso = solver["kind"] == "pgd_nlasso"
    if nlasso and not link.differentiable:
        raise UnsupportedOperationError("pgd_nlasso needs a differentiable link")
    with _reported("solver"):
        scfg = solvers.SolverConfig(
            step_size=solver.get("step_size", solvers.ZETA_DEFAULT if nlasso
                                 else solvers.NU_DEFAULT),
            projection=projection.projection_from_json(
                solver.get("projection", {})),
            **_args(solver, iterations="iterations", x0_mode="x0_mode"))
    setup = analysis.TrialSetup(
        decoder=decoder, link=link, solver_kind=solver["kind"],
        solver_cfg=scfg, **_args(sense, kind="sensing_kind"),
        **_args(exp, observation="observation", delta="delta"))
    return setup, sense.get("n"), master, out_dir


def _instance_doc(cfg, setup, n, master):
    return {
        "master_seed": master,
        "decoder": genmodel.decoder_to_json(setup.decoder),
        "sensing": {"kind": setup.sensing_kind, "n": n,
                    "seed": derive_seed(derive_seed(master, "solve"), "sensing")},
        "link": cfg.get("link"),
        "solver": {
            "kind": setup.solver_kind,
            "step_size": setup.solver_cfg.step_size,
            "iterations": setup.solver_cfg.iterations,
            "x0_mode": setup.solver_cfg.x0_mode,
            "projection": projection.projection_to_json(
                setup.solver_cfg.projection),
        },
        "observation": setup.resolved_observation(),
    }


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _threads(args):
    """Worker count from GENPRIOR_THREADS or --threads, in [1, cpu count]."""
    env = os.environ.get("GENPRIOR_THREADS")
    with _reported("GENPRIOR_THREADS"):
        n = int(env) if env else args.threads
    return min(max(1, n), os.cpu_count() or 1)


if __name__ == "__main__":
    sys.exit(main())
