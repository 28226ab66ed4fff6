import argparse
import copy
import json
import os
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from genprior import analysis, cli, sensing


def write_config(path, **overrides):
    cfg = {
        "master_seed": 7,
        "out_dir": str(path.parent / "out"),
        "decoder": {"family": "orthonormal_linear", "k": 3, "p": 32, "r": 3.0,
                    "seed": 5},
        "sensing": {"kind": "dense_gaussian", "n": 40},
        "link": {"kind": "linear"},
        "solver": {"kind": "pgd_glasso", "step_size": 1.0, "iterations": 8,
                   "projection": {"method": "exact_linear"}},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg


def set_key(cfg, name, value):
    """Set the config key called name, such as "solver.projection.steps", to
    value, or delete it when value is ABSENT; sections are created as needed,
    and nothing is set below a section that is not an object."""
    *sections, key = name.split(".")
    for section in sections:
        cfg = cfg.setdefault(section, {})
        if not isinstance(cfg, dict):
            return
    if value is ABSENT:
        cfg.pop(key, None)
    else:  # a copy, so later edits never write into a shared value
        cfg[key] = copy.deepcopy(value)


ABSENT = object()


def schema_keys():
    """Every key the config schema names, as section.key."""
    keys = []
    for name, table in cli.SCHEMA.items():
        if isinstance(table, tuple):  # keys per variant
            key, _, tables = table
            table = {key: None, **{k: None for t in tables.values() for k in t}}
        keys += [k if name == "config" else f"{name}.{k}" for k in table]
    return keys


def read_tree(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


class TestSolve:
    def test_minimal_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        out = tmp_path / "run1"
        code = cli.main(["solve", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert -1.0 <= metrics["cosine_similarity"] <= 1.0
        assert metrics["final_loss"] >= 0.0
        lines = (out / "trajectory.csv").read_text().strip().splitlines()
        assert lines[0] == "t,loss,error,ratio"
        assert len(lines) == 10  # header + T+1 iterates
        assert (out / "instance.json").exists()

    def test_sign_link_with_nlasso_is_inapplicable(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path,
                     link={"kind": "sign_dithered", "sigma_d": 0.1},
                     solver={"kind": "pgd_nlasso", "step_size": 0.2,
                             "iterations": 3})
        out = tmp_path / "run"
        code = cli.main(["solve", "--config", str(cfg_path), "--out", str(out)])
        assert code == 3
        assert not out.exists()  # no partial artifacts

    def test_byte_identical_rerun(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path,
                     decoder={"family": "mlp", "k": 3, "layer_dims": [6],
                              "p": 32, "r": 3.0, "activation": "tanh",
                              "weight_scale": 1.0},
                     solver={"kind": "pgd_nlasso", "step_size": 0.23,
                             "iterations": 4,
                             "projection": {"steps": 40, "restarts": 2}},
                     link={"kind": "shifted_cosine", "sigma": 0.1})
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["solve", "--config", str(cfg_path), "--out", str(a),
                         "--quiet"]) == 0
        assert cli.main(["solve", "--config", str(cfg_path), "--out", str(b),
                         "--quiet"]) == 0
        assert read_tree(a) == read_tree(b)

    def test_seed_flag_changes_outputs(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path,
                     decoder={"family": "mlp", "k": 3, "layer_dims": [6],
                              "p": 32, "r": 3.0},
                     solver={"kind": "pgd_glasso", "step_size": 1.0,
                             "iterations": 4,
                             "projection": {"steps": 30}})
        a, b = tmp_path / "a", tmp_path / "b"
        cli.main(["solve", "--config", str(cfg_path), "--out", str(a), "--quiet"])
        cli.main(["solve", "--config", str(cfg_path), "--out", str(b),
                  "--seed", "99", "--quiet"])
        assert read_tree(a) != read_tree(b)


class TestRate:
    def test_two_row_csv_and_determinism(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, experiment={"grid": [40, 80], "trials": 10})
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["rate", "--config", str(cfg_path), "--out", str(a),
                         "--quiet"]) == 0
        lines = (a / "rate.csv").read_text().strip().splitlines()
        assert lines[0] == "n,trials,median_error,q25,q75,predicted,ratio"
        assert len(lines) == 3
        assert cli.main(["rate", "--config", str(cfg_path), "--out", str(b),
                         "--quiet"]) == 0
        assert read_tree(a) == read_tree(b)

    # rate draws its measurement counts from experiment.grid alone
    @pytest.mark.parametrize("sensing_section", [
        {"kind": "dense_gaussian"}, {"kind": "partial_circulant", "n": 33}])
    def test_sensing_n_is_not_read(self, tmp_path, capsys, sensing_section):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, sensing=sensing_section,
                     experiment={"grid": [16, 32], "trials": 10})
        assert cli.main(["rate", "--config", str(cfg_path), "--out",
                         str(tmp_path / "o"), "--quiet"]) == 0
        assert capsys.readouterr().err == ""

    def test_solve_requires_sensing_n(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, sensing={"kind": "dense_gaussian"})
        out = tmp_path / "o"
        assert cli.main(["solve", "--config", str(cfg_path), "--out", str(out),
                         "--quiet"]) == 2
        assert (capsys.readouterr().err
                == "config error: sensing.n: required by the solve command\n")
        assert not out.exists()

    def test_missing_grid_is_config_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        code = cli.main(["rate", "--config", str(cfg_path), "--out",
                         str(tmp_path / "o"), "--quiet"])
        assert code == 2

    def test_threads_env_override(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, experiment={"grid": [40], "trials": 10})
        monkeypatch.setenv("GENPRIOR_THREADS", "2")
        a = tmp_path / "a"
        assert cli.main(["rate", "--config", str(cfg_path), "--out", str(a),
                         "--quiet"]) == 0
        monkeypatch.delenv("GENPRIOR_THREADS")
        b = tmp_path / "b"
        assert cli.main(["rate", "--config", str(cfg_path), "--out", str(b),
                         "--quiet"]) == 0
        assert read_tree(a) == read_tree(b)

    @pytest.mark.parametrize("command", ["solve", "rate"])
    def test_out_is_an_existing_file(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, experiment={"grid": [40], "trials": 10})
        out = tmp_path / "taken"
        out.write_text("keep")
        assert cli.main([command, "--config", str(cfg_path), "--out",
                         str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: output directory:")
        assert str(out) in err and err.count("\n") == 1
        assert out.read_text() == "keep"

    def test_threads_capped_at_cpu_count(self, monkeypatch):
        # _threads only computes the worker count; no pool is started
        cap = os.cpu_count() or 1
        monkeypatch.delenv("GENPRIOR_THREADS", raising=False)
        assert cli._threads(argparse.Namespace(threads=10**6)) == cap
        monkeypatch.setenv("GENPRIOR_THREADS", str(10**6))
        assert cli._threads(argparse.Namespace(threads=1)) == cap


# (argv after "check", exit code, stdout lines) of `genprior check`
CHECK_GOLDEN = [
    (["adjoint"], 0, [
        "[PASS] adjoint: 0/100 violations, worst margin 3.428e-15",
        "[PASS] adjoint: 0/100 violations, worst margin 5.337e-14",
        "[PASS] adjoint: 0/100 violations, worst margin 3.001e-13",
        "[PASS] adjoint: 0/100 violations, worst margin 7.264e-15",
    ]),
    (["tsrec"], 0, [
        "[PASS] tsrec: 0/1000 violations, worst margin 1.204e-01",
        "[PASS] tsrec: 0/1000 violations, worst margin 1.702e-01",
        "[PASS] tsrec: 0/1000 violations, worst margin 1.110e-01",
        "[PASS] tsrec: 0/1000 violations, worst margin 1.186e-01",
        "[PASS] tsrec: 0/1000 violations, worst margin 9.975e-02",
        "[PASS] tsrec: 0/1000 violations, worst margin 1.377e-01",
        "[PASS] tsrec: 0/1000 violations, worst margin 1.413e-01",
        "[PASS] tsrec: 0/1000 violations, worst margin 1.202e-01",
        "[PASS] tsrec: 0/1000 violations, worst margin 1.343e-01",
        "[PASS] tsrec: 0/1000 violations, worst margin 1.043e-01",
    ]),
    (["jle"], 0, [
        "[PASS] jle: 0/100 violations, worst margin 4.558e-01",
        "[PASS] jle: 0/100 violations, worst margin 2.254e-01",
        "[PASS] jle: 0/100 violations, worst margin 3.122e-01",
        "[PASS] jle: 0/100 violations, worst margin 2.397e-01",
        "[PASS] jle: 0/100 violations, worst margin 2.545e-01",
        "[PASS] jle: 0/100 violations, worst margin 2.210e-01",
        "[PASS] jle: 0/100 violations, worst margin 2.538e-01",
        "[PASS] jle: 0/100 violations, worst margin 3.426e-01",
        "[PASS] jle: 0/100 violations, worst margin 2.649e-01",
        "[PASS] jle: 0/100 violations, worst margin 3.068e-01",
    ]),
    (["wnu"], 0, [
        "[PASS] wnu: 0/500 violations, worst margin 1.761e+00",
        "[PASS] wnu: 0/500 violations, worst margin 4.693e-01",
        "[PASS] wnu: 0/500 violations, worst margin 1.886e+00",
        "[PASS] wnu: 0/500 violations, worst margin 1.616e+00",
        "[PASS] wnu: 0/500 violations, worst margin 2.440e+00",
        "[PASS] wnu: 0/500 violations, worst margin 1.700e+00",
        "[PASS] wnu: 0/500 violations, worst margin 1.759e+00",
        "[PASS] wnu: 0/500 violations, worst margin 2.519e+00",
        "[PASS] wnu: 0/500 violations, worst margin 1.689e+00",
        "[PASS] wnu: 0/500 violations, worst margin 1.435e+00",
        "[PASS] polarization: 0/100 violations, worst margin 5.640e-14",
    ]),
    (["mvt"], 0, [
        "[PASS] mvt: 0/100 violations, worst margin 0.000e+00",
        "[PASS] mvt: 0/100 violations, worst margin 2.266e+01",
    ]),
    (["gradients"], 0, [
        "[PASS] gradients: 0/50 violations, worst margin 2.989e-06",
    ]),
    (["tsrec", "--n", "1"], 1, [
        "[FAIL] tsrec: 550/1000 violations, worst margin 1.489e+00",
        "[FAIL] tsrec: 529/1000 violations, worst margin 1.439e+00",
        "[FAIL] tsrec: 532/1000 violations, worst margin 2.382e+00",
        "[FAIL] tsrec: 497/1000 violations, worst margin 1.722e+00",
        "[FAIL] tsrec: 826/1000 violations, worst margin 9.996e-01",
        "[FAIL] tsrec: 659/1000 violations, worst margin 9.991e-01",
        "[FAIL] tsrec: 503/1000 violations, worst margin 2.051e+00",
        "[FAIL] tsrec: 474/1000 violations, worst margin 1.262e+00",
        "[FAIL] tsrec: 450/1000 violations, worst margin 1.056e+00",
        "[FAIL] tsrec: 561/1000 violations, worst margin 9.988e-01",
    ]),
    (["wnu", "--n", "1"], 1, [
        "[FAIL] wnu: 446/500 violations, worst margin -8.093e+02",
        "[FAIL] wnu: 403/500 violations, worst margin -3.312e+02",
        "[FAIL] wnu: 356/500 violations, worst margin -1.834e+02",
        "[FAIL] wnu: 331/500 violations, worst margin -1.339e+02",
        "[FAIL] wnu: 354/500 violations, worst margin -1.391e+02",
        "[FAIL] wnu: 393/500 violations, worst margin -4.000e+02",
        "[FAIL] wnu: 386/500 violations, worst margin -3.231e+02",
        "[FAIL] wnu: 258/500 violations, worst margin -6.720e+01",
        "[FAIL] wnu: 378/500 violations, worst margin -3.438e+02",
        "[FAIL] wnu: 270/500 violations, worst margin -7.187e+01",
        "[PASS] polarization: 0/100 violations, worst margin 9.968e-15",
    ]),
]



class TestCheck:
    @pytest.mark.parametrize("argv, code, lines", CHECK_GOLDEN)
    def test_stdout_and_exit_code_golden(self, capsys, argv, code, lines):
        assert cli.main(["check", *argv]) == code
        assert capsys.readouterr().out == "".join(f"{ln}\n" for ln in lines)

    @pytest.mark.parametrize("argv, code, lines", [
        case for case in CHECK_GOLDEN
        if case[0] in (["mvt"], ["gradients"], ["tsrec", "--n", "1"])])
    def test_json_lists_the_reports(self, capsys, argv, code, lines):
        assert cli.main(["check", *argv, "--json"]) == code
        docs = json.loads(capsys.readouterr().out)
        assert [set(d) for d in docs] == [
            {"name", "trials", "violations", "worst_margin", "params",
             "passed"}] * len(lines)
        assert [analysis.CheckReport(
            d["name"], d["trials"], d["violations"], d["worst_margin"],
            d["params"], d["passed"]).summary() for d in docs] == lines

    def test_json_quiet_prints_nothing(self, capsys):
        assert cli.main(["check", "mvt", "--json", "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_mvt_passes(self, capsys):
        assert cli.main(["check", "mvt"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_adjoint_passes(self):
        assert cli.main(["check", "adjoint", "--quiet"]) == 0

    def test_gradients_pass(self):
        assert cli.main(["check", "gradients", "--quiet"]) == 0

    def test_tsrec_undersampled_fails(self, capsys):
        assert cli.main(["check", "tsrec", "--n", "1"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_jle_undersampled_fails(self):
        assert cli.main(["check", "jle", "--n", "1", "--quiet"]) == 1

    def test_adjoint_n_above_circulant_p_is_config_error(self, capsys):
        # the partial circulant cases have p = 8 and p = 64
        assert cli.main(["check", "adjoint", "--n", "100"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: check adjoint:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_nonpositive_n_rejected(self, capsys, n):
        assert cli.main(["check", "tsrec", "--n", n]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"config error: check tsrec: --n must be >= 1, got {n}\n"

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["check", "nonexistent"])


class TestModel:
    def test_new_default_k20_preset(self, capsys):
        assert cli.main(["model", "new"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["k"] == 20 and doc["p"] == 784
        assert doc["layer_dims"] == [500, 500]
        assert doc["lipschitz_bound"] > 0

    def test_identity_family_reports_unit_lipschitz(self, tmp_path, capsys):
        path = tmp_path / "dec.json"
        assert cli.main(["model", "new", "--family", "identity", "--k", "4",
                         "--out", str(path)]) == 0
        assert cli.main(["model", "info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "L=1" in out

    def test_round_trip(self, tmp_path, capsys):
        path = tmp_path / "dec.json"
        assert cli.main(["model", "new", "--k", "5", "--hidden", "8,6",
                         "--p", "16", "--out", str(path)]) == 0
        assert cli.main(["model", "info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "k=5" in out and "p=16" in out

    def test_info_on_missing_file(self, capsys):
        assert cli.main(["model", "info", "/nonexistent/decoder.json"]) == 2

    @pytest.mark.parametrize("argv, prefix", [
        (["--r", "nan"], "config error: model new: r must be finite"),
        (["--family", "identity", "--r", "-1"],
         "config error: model new: r must be finite"),
        (["--hidden", "a"], "config error: --hidden:"),
    ])
    def test_new_bad_flag(self, capsys, argv, prefix):
        assert cli.main(["model", "new", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(prefix) and err.count("\n") == 1

    def test_new_out_in_missing_directory(self, tmp_path, capsys):
        path = tmp_path / "missing" / "dec.json"
        assert cli.main(["model", "new", "--k", "2", "--hidden", "",
                         "--p", "4", "--out", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --out:")
        assert str(path) in err and err.count("\n") == 1

    def test_info_on_mistyped_field(self, tmp_path, capsys):
        path = tmp_path / "dec.json"
        path.write_text(json.dumps({"family": "mlp", "k": "a", "p": 8,
                                    "r": 1.0, "seed": 0}))
        assert cli.main(["model", "info", str(path)]) == 2
        assert capsys.readouterr().err.count("\n") == 1


class TestConfigErrors:
    def test_missing_file(self, tmp_path):
        assert cli.main(["solve", "--config", str(tmp_path / "nope.json"),
                         "--quiet"]) == 2

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text('{\n  "decoder": {\n}')
        assert cli.main(["solve", "--config", str(cfg_path), "--quiet"]) == 2
        assert "line" in capsys.readouterr().err

    def test_unknown_solver_kind(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, solver={"kind": "newton"})
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg_path), "--out",
                         str(out), "--quiet"]) == 2
        assert not out.exists()

    def test_missing_decoder_section(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path)
        del cfg["decoder"]
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["solve", "--config", str(cfg_path), "--quiet"]) == 2

    def test_bad_sensing_n(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, sensing={"kind": "dense_gaussian", "n": 0})
        assert cli.main(["solve", "--config", str(cfg_path), "--quiet"]) == 2

    @staticmethod
    def _rejected(tmp_path, capsys, command="solve", **overrides):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, **overrides)
        out = tmp_path / "out"
        code = cli.main([command, "--config", str(cfg_path), "--out", str(out),
                         "--quiet"])
        err = capsys.readouterr().err
        assert not out.exists()
        return code, err

    @pytest.mark.parametrize("kind, field", [
        ("linear", "sigma"), ("linear", "tau"), ("sign_dithered", "sigma_d")])
    def test_negative_link_noise(self, tmp_path, capsys, kind, field):
        code, err = self._rejected(tmp_path, capsys,
                                   link={"kind": kind, field: -0.1})
        assert code == 2
        assert err == f"config error: link: {field} must be nonnegative\n"

    def test_boolean_sensing_n(self, tmp_path, capsys):
        code, err = self._rejected(tmp_path, capsys,
                                   sensing={"kind": "dense_gaussian", "n": True})
        assert code == 2 and err.count("\n") == 1

    def test_unknown_observation_mode(self, tmp_path, capsys):
        code, err = self._rejected(tmp_path, capsys,
                                   experiment={"observation": "bogus"})
        assert code == 2
        assert err.startswith("config error: experiment.observation:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("section, value", [
        ("decoder", 3), ("sensing", 5), ("link", []), ("solver", "x"),
        ("experiment", [1]), ("experiment", None)])
    def test_section_not_an_object(self, tmp_path, capsys, section, value):
        code, err = self._rejected(tmp_path, capsys, **{section: value})
        assert code == 2
        assert err.startswith(f"config error: {section}: expected a JSON object")
        assert err.count("\n") == 1

    def test_projection_section_not_an_object(self, tmp_path, capsys):
        code, err = self._rejected(
            tmp_path, capsys, solver={"kind": "pgd_glasso", "projection": 7})
        assert code == 2
        assert err.startswith("config error: solver.projection: expected")
        assert err.count("\n") == 1

    def test_top_level_not_an_object(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("[1, 2]")
        assert cli.main(["solve", "--config", str(cfg_path), "--quiet"]) == 2
        assert capsys.readouterr().err.count("\n") == 1


    @pytest.mark.parametrize("overrides, name", [
        ({"decoder": {"family": "mlp", "k": 3, "hidden_dims": [16], "p": 32,
                      "r": 3.0}}, "decoder.hidden_dims"),
        ({"decoder": {"family": "identity", "k": 3, "r": 3.0, "seed": 1}},
         "decoder.seed"),
        ({"link": {"kind": "sign_dithered", "sigma": 0.1}}, "link.sigma"),
        ({"link": {"kind": "linear", "sigma_d": 0.1}}, "link.sigma_d"),
        ({"experiment": {"mode": "rate", "grid": [40]}}, "experiment.mode"),
        ({"sensing": {"kind": "dense_gaussian", "n": 40, "m": 1}},
         "sensing.m"),
        ({"solver": {"kind": "pgd_glasso", "steps": 3}}, "solver.steps"),
        ({"solver": {"kind": "pgd_glasso", "projection": {"step": 3}}},
         "solver.projection.step"),
        ({"seed": 3}, "seed"),
        # the keys of the deleted first-order optimizers
        ({"solver": {"kind": "pgd_glasso",
                     "projection": {"optimizer": "gauss_newton"}}},
         "solver.projection.optimizer"),
        ({"solver": {"kind": "pgd_glasso", "projection": {"lr": 0.03}}},
         "solver.projection.lr"),
    ])
    def test_unknown_key(self, tmp_path, capsys, overrides, name):
        code, err = self._rejected(tmp_path, capsys, **overrides)
        assert code == 2
        assert err.startswith(f"config error: {name}: unknown key")
        assert err.count("\n") == 1

    # Values the schema's types reject name the key as section.key; range
    # errors from a library constructor are prefixed with their section.
    @pytest.mark.parametrize("command, keys, prefix", [
        ("rate", {"experiment.trials": "x"}, "experiment.trials: expected"),
        ("rate", {"experiment.trials": 10.5}, "experiment.trials: expected"),
        ("rate", {"experiment.delta": "x"}, "experiment.delta: expected"),
        ("rate", {"experiment.grid": 40}, "experiment.grid: expected"),
        ("rate", {"experiment.grid": "ab"}, "experiment.grid: expected"),
        ("solve", {"solver.iterations": 2.5}, "solver.iterations: expected"),
        ("solve", {"solver.projection.steps": 2.5},
         "solver.projection.steps: expected"),
        ("solve", {"solver.projection.restarts": 1.5},
         "solver.projection.restarts: expected"),
        ("solve", {"out_dir": 5}, "out_dir: expected"),
        ("solve", {"master_seed": "abc"}, "master_seed: expected"),
        ("solve", {"master_seed": 1.5}, "master_seed: expected"),
        ("solve", {"solver.projection.steps": True},
         "solver.projection.steps: expected"),
        ("solve", {"decoder.r": "3"}, "decoder.r: expected"),
        ("solve", {"decoder.r": float("nan")}, "decoder.r: expected"),
        ("solve", {"decoder.r": 10 ** 400}, "decoder.r: expected"),
        ("solve", {"decoder.r": -1}, "decoder: r must be finite and positive"),
        ("solve", {"decoder": {"family": "identity", "k": 3, "r": -1}},
         "decoder: r must be finite and positive"),
        ("rate", {"experiment.delta": -1}, "experiment: delta must be in"),
        ("rate", {"experiment.delta": 5000}, "experiment: delta must be in"),
    ])
    def test_bad_value(self, tmp_path, capsys, command, keys, prefix):
        cfg = write_config(tmp_path / "cfg.json",
                           experiment={"grid": [40], "trials": 10})
        for name, value in keys.items():
            set_key(cfg, name, value)
        code, err = self._rejected(tmp_path, capsys, command, **cfg)
        assert code == 2
        assert err.startswith(f"config error: {prefix}")
        assert err.count("\n") == 1

    # Sizes a constructor cannot take are rejected before any weight or
    # operator is drawn, with a message that names the key.
    @pytest.mark.parametrize("command, keys, message", [
        ("solve", {"decoder": {"family": "mlp", "k": 3, "layer_dims": [6],
                               "p": -1, "r": 3.0}},
         "decoder: need 1 <= k <= p, got k = 3, p = -1"),
        ("solve", {"decoder.k": -1},
         "decoder: need 1 <= k <= p, got k = -1, p = 32"),
        ("solve", {"decoder": {"family": "identity", "k": -1, "r": 3.0}},
         "decoder: need 1 <= k <= p, got k = -1, p = -1"),
        ("solve", {"sensing.n": 10 ** 7},
         "sensing: n: need 1 <= n <= 100000, got 10000000"),
        ("solve", {"sensing": {"kind": "partial_circulant", "n": 33}},
         "sensing: n: need 1 <= n <= 32, got 33"),
        ("rate", {"experiment.grid": [0, 20]},
         "experiment: grid: need 1 <= n <= 100000, got 0"),
        ("rate", {"experiment.grid": [40, 100_001]},
         "experiment: grid: need 1 <= n <= 100000, got 100001"),
        ("rate", {"decoder": {"family": "identity", "k": 3, "r": 3.0},
                  "sensing": {"kind": "partial_circulant", "n": 3},
                  "experiment.grid": [3, 50]},
         "experiment: grid: need 1 <= n <= 3, got 50"),
    ])
    def test_size_rejected_before_any_draw(self, tmp_path, capsys,
                                           monkeypatch, command, keys,
                                           message):
        def no_draw(*args):
            raise AssertionError("an operator was drawn")
        monkeypatch.setattr(sensing, "sensing_new", no_draw)
        cfg = write_config(tmp_path / "cfg.json",
                           experiment={"grid": [40], "trials": 10})
        for name, value in keys.items():
            set_key(cfg, name, value)
        code, err = self._rejected(tmp_path, capsys, command, **cfg)
        assert (code, err) == (2, f"config error: {message}\n")

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(
        st.sampled_from(schema_keys()),
        st.sampled_from([None, True, -1, 0, 0.5, 2, float("nan"), "x", [], {},
                         [1], ABSENT])), min_size=1, max_size=3))
    def test_fuzzed_config(self, tmp_path, capsys, edits):
        # the pool holds no large number, so no draw starts a long run, and
        # --out keeps a fuzzed out_dir from writing anywhere
        cfg = write_config(tmp_path / "cfg.json")
        for name, value in edits:
            set_key(cfg, name, value)
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        with tempfile.TemporaryDirectory(dir=tmp_path) as out, \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["solve", "--config", str(tmp_path / "cfg.json"),
                             "--out", out, "--quiet"])
        err = capsys.readouterr().err
        assert code in (0, 2, 3)
        if code == 2:
            assert err.startswith("config error: ") and err.count("\n") == 1
            assert not caught

    def test_readme_lists_every_schema_key(self):
        readme = open(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "README.md")).read()
        section = readme[readme.index("### Config schema"):]
        section = section[:section.index("\n## ")]
        missing = [k for k in schema_keys() if f"`{k}`" not in section]
        assert not missing

    def test_readme_config_example_loads(self):
        readme = open(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "README.md")).read()
        section = readme[readme.index("### Config schema"):]
        start = section.index("```json\n") + len("```json\n")
        cfg = json.loads(section[start:section.index("```", start)])
        setup, n, master, out_dir = cli._build_setup(
            cfg, argparse.Namespace(seed=None, out=None))
        assert (n, master, out_dir) == (250, 7, "runs/demo")
        assert setup.decoder.hidden_dims == (32,)


class TestEntryPoint:
    def test_console_script_runs(self):
        proc = subprocess.run([sys.executable, "-m", "genprior.cli", "check",
                               "mvt", "--quiet"], capture_output=True)
        assert proc.returncode == 0
        assert proc.stderr == b""

    def test_stdout_determinism(self):
        cmd = [sys.executable, "-m", "genprior.cli", "check", "mvt"]
        a = subprocess.run(cmd, capture_output=True)
        b = subprocess.run(cmd, capture_output=True)
        assert a.stdout == b.stdout and a.returncode == b.returncode == 0
