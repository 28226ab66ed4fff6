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

# The config keys each section may hold: exactly the keys the CLI reads.
CONFIG_KEYS = {
    "config": ("master_seed", "out_dir", "decoder", "sensing", "link",
               "solver", "experiment"),
    "sensing": ("kind", "n"),
    "solver": ("kind", "step_size", "iterations", "x0_mode", "projection"),
    "solver.projection": ("steps", "lr", "restarts", "optimizer", "init",
                          "ball_handling", "method"),
    "experiment": ("observation", "delta", "grid", "trials"),
}
DECODER_KEYS = {  # per family
    "mlp": ("family", "seed", "k", "p", "r", "activation", "layer_dims",
            "weight_scale"),
    "orthonormal_linear": ("family", "seed", "k", "p", "r"),
    "identity": ("family", "k", "r"),
}
LINK_KEYS = {  # per kind
    "linear": ("kind", "sigma", "tau"),
    "shifted_cosine": ("kind", "sigma", "tau"),
    "sign_dithered": ("kind", "sigma_d", "tau"),
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
    mnew.add_argument("--family", default="mlp",
                      choices=("mlp", "orthonormal_linear", "identity"))
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
    grid = exp.get("grid")
    trials = exp.get("trials", 30)
    if not grid:
        raise ConfigError("experiment.grid is required for the rate command")
    try:
        table = analysis.rate_experiment(grid, trials, setup,
                                         derive_seed(master, "rate"),
                                         threads=_threads(args))
    except ValueError as e:
        raise ConfigError(str(e)) from e
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
    try:
        reports = _run_suite(args.suite, args.seed, args.n)
    except ValueError as e:
        raise ConfigError(f"check {args.suite}: {e}") from e
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
    reports = []
    if suite == "adjoint":
        cases = [("dense_gaussian", 50, 80), ("dense_gaussian", 200, 120),
                 ("partial_circulant", 5, 8), ("partial_circulant", 37, 64)]
        for i, (kind, n, p) in enumerate(cases):
            op = sensing.sensing_new(kind, n_override or n, p,
                                     derive_seed(seed, "adjoint-op", i))
            reports.append(analysis.adjoint_check(
                op, trials=100, seed=derive_seed(seed, "adjoint", i)))
    elif suite == "tsrec":
        dec = _check_decoder(derive_seed(seed, "decoder"))
        # frozen: C = 8 at eps = 0.5 (the eps^2 factor is folded into C)
        n = n_override or _calibrated_n(dec, 8 * 0.5 ** 2, 0.5, 0.01)
        for i in range(CHECK_REPEATS):
            op = sensing.sensing_new("dense_gaussian", n, dec.ambient_dim,
                                     derive_seed(seed, "tsrec-op", i))
            reports.append(analysis.tsrec_check(
                op, dec, eps=0.5, delta=0.01, pairs=1000,
                seed=derive_seed(seed, "tsrec", i)))
    elif suite == "jle":
        p = 64
        n = n_override or 200
        for i in range(CHECK_REPEATS):
            op = sensing.sensing_new("dense_gaussian", n, p,
                                     derive_seed(seed, "jle-op", i))
            pts = np.random.default_rng(
                derive_seed(seed, "jle-points", i)).standard_normal((100, p))
            reports.append(analysis.jle_check(op, pts, eps=0.5))
    elif suite == "wnu":
        dec = _check_decoder(derive_seed(seed, "decoder"))
        n = n_override or _calibrated_n(dec, 1.0, 0.3, 1e-3)
        for i in range(CHECK_REPEATS):
            op = sensing.sensing_new("dense_gaussian", n, dec.ambient_dim,
                                     derive_seed(seed, "wnu-op", i))
            reports.append(analysis.wnu_check(
                op, dec, nu=1.0, eps=0.3, pairs=500,
                seed=derive_seed(seed, "wnu", i)))
        op = sensing.sensing_new("dense_gaussian", n_override or 48, 32,
                                 derive_seed(seed, "polar-op"))
        reports.append(analysis.polarization_check(
            op, pairs=100, seed=derive_seed(seed, "polar")))
    elif suite == "mvt":
        op = sensing.sensing_new("dense_gaussian", n_override or 60, 40,
                                 derive_seed(seed, "mvt-op"))
        links = (measurement.linear_link(), measurement.shifted_cosine_link())
        for i, link in enumerate(links):
            reports.append(analysis.mvt_check(
                op, link, triples=100, seed=derive_seed(seed, "mvt", i)))
    elif suite == "gradients":
        dec = genmodel.decoder_new(derive_seed(seed, "decoder"), k=4,
                                   hidden_dims=[8], p=24, r=3.0,
                                   activation="tanh", weight_scale=1.0)
        op = sensing.sensing_new("dense_gaussian", n_override or 40, 24,
                                 derive_seed(seed, "grad-op"))
        reports.append(analysis.gradient_check(
            op, measurement.shifted_cosine_link(), dec, points=50,
            seed=derive_seed(seed, "grad")))
    else:
        raise ConfigError(f"unknown check suite {suite!r}")
    return reports


# ----------------------------------------------------------------- model

def cmd_model_new(args):
    hidden = [int(h) for h in args.hidden.split(",") if h.strip()]
    try:
        if args.family == "mlp":
            dec = genmodel.decoder_new(args.seed, args.k, hidden, args.p,
                                       args.r, args.activation, args.scale)
        elif args.family == "orthonormal_linear":
            dec = genmodel.orthonormal_linear_decoder(args.seed, args.k,
                                                      args.p, args.r)
        else:
            dec = genmodel.identity_decoder(args.k, args.r)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    doc = genmodel.decoder_to_json(dec)
    doc["lipschitz_bound"] = genmodel.lipschitz_bound(dec)
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
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
    except FileNotFoundError as e:
        raise ConfigError(str(e)) from e
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"{path}: line {e.lineno}, column {e.colno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: the top level must be a JSON object")
    return doc


def _require(cfg, key, path):
    if key not in cfg:
        raise ConfigError(f"missing required key {path}.{key}")
    return cfg[key]


def _section(cfg, key, path="config", required=True):
    """The JSON object at cfg[key]; an absent optional section is {}.
    Its keys are checked when CONFIG_KEYS lists the section."""
    if not required and key not in cfg:
        return {}
    doc = _require(cfg, key, path)
    name = key if path == "config" else f"{path}.{key}"
    if not isinstance(doc, dict):
        raise ConfigError(f"{name}: expected a JSON object, "
                          f"got {type(doc).__name__}")
    if name in CONFIG_KEYS:
        _known_keys(doc, CONFIG_KEYS[name], name)
    return doc


def _known_keys(doc, keys, name):
    """Reject the first key of doc, in sorted order, that is not in keys."""
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        where = unknown[0] if name == "config" else f"{name}.{unknown[0]}"
        raise ConfigError(f"{where}: unknown key (known: {', '.join(keys)})")


def _build_setup(cfg, args):
    _known_keys(cfg, CONFIG_KEYS["config"], "config")
    master = args.seed if args.seed is not None else cfg.get("master_seed", 0)
    out_dir = args.out or cfg.get("out_dir", "genprior-out")

    dec_cfg = _section(cfg, "decoder")
    family = dec_cfg.get("family", "mlp")
    if isinstance(family, str) and family in DECODER_KEYS:
        _known_keys(dec_cfg, DECODER_KEYS[family], "decoder")
    try:
        dec_doc = dict(dec_cfg)
        dec_doc.setdefault("seed", derive_seed(master, "decoder"))
        decoder = genmodel.decoder_from_json(dec_doc)
    except (KeyError, ValueError, TypeError) as e:
        raise ConfigError(f"decoder: {e}") from e

    link = _build_link(_section(cfg, "link"))

    sense_cfg = _section(cfg, "sensing")
    kind = sense_cfg.get("kind", "dense_gaussian")
    if kind not in sensing.KINDS:
        raise ConfigError(f"sensing.kind: unknown kind {kind!r}")
    n = _require(sense_cfg, "n", "sensing")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ConfigError("sensing.n must be a positive integer")
    if kind == "partial_circulant" and n > decoder.ambient_dim:
        raise ConfigError("sensing.n must be <= decoder p for partial_circulant")

    solver_cfg = _section(cfg, "solver")
    solver_kind = _require(solver_cfg, "kind", "solver")
    if solver_kind not in ("pgd_glasso", "pgd_nlasso", "csgm"):
        raise ConfigError(f"solver.kind: unknown kind {solver_kind!r}")
    if solver_kind == "pgd_nlasso" and not link.differentiable:
        raise UnsupportedOperationError(
            "pgd_nlasso needs a differentiable link")
    try:
        proj = projection.projection_from_json(
            _section(solver_cfg, "projection", "solver", required=False))
        default_step = (solvers.ZETA_DEFAULT if solver_kind == "pgd_nlasso"
                        else solvers.NU_DEFAULT)
        scfg = solvers.SolverConfig(
            step_size=solver_cfg.get("step_size", default_step),
            iterations=solver_cfg.get("iterations", solvers.ITERATIONS_DEFAULT),
            projection=proj,
            x0_mode=solver_cfg.get("x0_mode", "zero"),
            seed=0)
    except (ValueError, TypeError) as e:
        raise ConfigError(f"solver: {e}") from e

    exp = _section(cfg, "experiment", required=False)
    observation = exp.get("observation", "auto")
    if observation not in ("sim", "known", "auto"):
        raise ConfigError(f"experiment.observation: unknown mode {observation!r}")
    setup = analysis.TrialSetup(
        decoder=decoder, link=link, solver_kind=solver_kind,
        solver_cfg=scfg, sensing_kind=kind, observation=observation,
        delta=exp.get("delta", 1e-3))
    return setup, n, master, out_dir


def _build_link(link_cfg):
    kind = _require(link_cfg, "kind", "link")
    if isinstance(kind, str) and kind in LINK_KEYS:
        _known_keys(link_cfg, LINK_KEYS[kind], "link")
    sigma = link_cfg.get("sigma", 0.0)
    tau = link_cfg.get("tau", 0.0)
    try:
        if kind == "linear":
            return measurement.linear_link(sigma=sigma, tau=tau)
        if kind == "shifted_cosine":
            return measurement.shifted_cosine_link(sigma=sigma, tau=tau)
        if kind == "sign_dithered":
            return measurement.sign_dithered_link(
                sigma_d=link_cfg.get("sigma_d", 0.0), tau=tau)
    except (ValueError, TypeError) as e:
        raise ConfigError(f"link: {e}") from e
    raise ConfigError(f"link.kind: unknown kind {kind!r} "
                      "(custom links are library-only)")


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
    try:
        n = int(env) if env else args.threads
    except ValueError as e:
        raise ConfigError(f"GENPRIOR_THREADS: {e}") from e
    return min(max(1, n), os.cpu_count() or 1)


if __name__ == "__main__":
    sys.exit(main())
