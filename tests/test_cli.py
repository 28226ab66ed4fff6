import argparse
import copy
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from genprior import analysis, cli, derive_seed, sensing


def write_config(path, **overrides):
    cfg = {
        "master_seed": 7,
        "out_dir": str(path.parent / "out"),
        "decoder": {"family": "orthonormal_linear", "k": 3, "p": 32, "r": 3.0,
                    "seed": 5},
        "sensing": {"kind": "dense_gaussian", "n": 40},
        "link": {"kind": "linear"},
        "solver": {"kind": "pgd_glasso", "step_size": 1.0, "iterations": 8},
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


def schema_choices():
    """The allowed values of every config key that has a list of them, by
    section.key; a variant key's values are its variants."""
    out = {}
    for name, table in cli.SCHEMA.items():
        at = "" if name == "config" else f"{name}."
        if isinstance(table, tuple):
            key, _, tables = table
            out[at + key] = tuple(tables)
            table = {k: spec for t in tables.values() for k, spec in t.items()}
        out.update((at + k, spec.choices) for k, spec in table.items()
                   if spec.choices)
    return out


def readme_schema_section():
    """The README's config schema section, up to the next section."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir,
                           "README.md")) as fh:
        readme = fh.read()
    section = readme[readme.index("### Config schema"):]
    return section[:section.index("\n## ")]


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

    def test_threads_is_a_usage_error(self, tmp_path, capsys):
        # solve runs one instance in one process; only rate takes --threads
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--config", str(cfg_path), "--out", str(out),
                      "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("section, recorded", [
        ({"steps": 77, "restarts": 3}, {"steps": 77, "restarts": 3}),
        ({}, {"steps": 200, "restarts": 1})])  # ProjectionConfig defaults
    def test_instance_records_the_resolved_instance(self, tmp_path, section,
                                                    recorded):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, solver={"kind": "pgd_glasso", "iterations": 2,
                                       "projection": section})
        out = tmp_path / "run"
        assert cli.main(["solve", "--config", str(cfg_path), "--out", str(out),
                         "--quiet"]) == 0
        doc = json.loads((out / "instance.json").read_text())
        assert doc["solver"]["projection"] == recorded
        assert doc["sensing"] == {
            "kind": "dense_gaussian", "n": 40,
            "seed": derive_seed(derive_seed(7, "solve"), "sensing")}


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

    def test_json_holds_the_csv_table(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, experiment={"grid": [40, 80], "trials": 10})
        out = tmp_path / "run"
        assert cli.main(["rate", "--config", str(cfg_path), "--out", str(out),
                         "--quiet"]) == 0
        doc = json.loads((out / "rate.json").read_text())
        rows = doc.pop("rows")
        assert doc == {"k": 3, "p": 32, "lipschitz": pytest.approx(1.0),
                       "r": 3.0, "delta": 1e-3, "link_kind": "linear",
                       "solver_kind": "pgd_glasso",
                       "fitted_constant": doc["fitted_constant"]}
        lines = (out / "rate.csv").read_text().strip().splitlines()[1:]
        assert [(row["n"], row["trials"], row["median_error"], row["predicted"])
                for row in rows] == [
            (int(n), int(t), float(med), float(pred))
            for n, t, med, _, _, pred, _ in (ln.split(",") for ln in lines)]

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

    def test_threads_flag_leaves_the_output_unchanged(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, experiment={"grid": [40], "trials": 10})
        a = tmp_path / "a"
        assert cli.main(["rate", "--config", str(cfg_path), "--out", str(a),
                         "--quiet", "--threads", "2"]) == 0
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

    @pytest.mark.parametrize("command, name", [
        ("solve", "trajectory.csv"), ("solve", "metrics.json"),
        ("solve", "instance.json"), ("rate", "rate.csv"),
        ("rate", "rate.json")])
    def test_output_file_is_a_directory(self, tmp_path, capsys, command,
                                        name):
        # a write that fails is reported as the output directory's error,
        # as a failed makedirs is, and leaves none of the command's files
        # and no temporary file behind
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, experiment={"grid": [40], "trials": 10})
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert cli.main([command, "--config", str(cfg_path), "--out",
                         str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: output directory:")
        assert str(out / name) in err and err.count("\n") == 1
        assert [p.name for p in out.iterdir()] == [name]
        assert (out / name).is_dir()

    def test_threads_capped_at_cpu_count(self):
        # _threads only computes the worker count; no pool is started
        cap = os.cpu_count() or 1
        assert cli._threads(argparse.Namespace(threads=10**6)) == cap

    @pytest.mark.parametrize("command", ["solve", "rate"])
    def test_diverging_steps_do_not_crash(self, tmp_path, capsys, command):
        # a step size of 1e200 sends the first gradient step past the
        # largest float, so no row of the projection batch is finite
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path,
                     decoder={"family": "mlp", "k": 4, "layer_dims": [12],
                              "p": 48, "r": 3.0},
                     sensing={"kind": "dense_gaussian", "n": 32},
                     solver={"kind": "pgd_nlasso", "step_size": 1e200,
                             "iterations": 5},
                     experiment={"grid": [32], "trials": 10})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = cli.main([command, "--config", str(cfg_path), "--out",
                             str(tmp_path / "o"), "--quiet"])
        err = capsys.readouterr().err
        assert code in (0, 2, 3)
        assert "reshape" not in err and err.count("\n") == (code != 0)

    @pytest.mark.parametrize("command", ["solve", "rate"])
    def test_diverged_pgd_is_an_error(self, tmp_path, capsys, command):
        # the first gradient step overflows at every trial: no result is
        # reported, no file is written, and no overflow warning is raised
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path,
                     decoder={"family": "mlp", "k": 4, "layer_dims": [12],
                              "p": 48, "r": 3.0, "activation": "tanh",
                              "weight_scale": 1.0, "seed": 3},
                     sensing={"kind": "dense_gaussian", "n": 32},
                     link={"kind": "shifted_cosine", "sigma": 0.1},
                     solver={"kind": "pgd_nlasso", "step_size": 1e200,
                             "iterations": 5,
                             "projection": {"steps": 200, "restarts": 2}},
                     experiment={"grid": [32], "trials": 10})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main([command, "--config", str(cfg_path), "--out",
                             str(tmp_path / "o"), "--quiet"])
        err = capsys.readouterr().err
        assert code == 2 and not (tmp_path / "o").exists()
        assert err == ("config error: experiment: PGD diverged at iteration "
                       "0: the gradient step at step_size 1e+200 overflows\n")


# (argv after "check", exit code, stdout lines) of `genprior check`
CHECK_GOLDEN = [
    (["adjoint"], 0, [
        "[PASS] adjoint: 0/100 violations, worst margin 3.428e-15",
        "[PASS] adjoint: 0/100 violations, worst margin 5.337e-14",
        "[PASS] adjoint: 0/100 violations, worst margin 3.001e-13",
        "[PASS] adjoint: 0/100 violations, worst margin 7.264e-15",
    ]),
    (["tsrec"], 0, [
        "[PASS] tsrec: 0/1000 violations, worst margin 1.173e-01",
        "[PASS] tsrec: 0/1000 violations, worst margin 1.503e-01",
        "[PASS] tsrec: 0/1000 violations, worst margin 1.096e-01",
        "[PASS] tsrec: 0/1000 violations, worst margin 1.228e-01",
        "[PASS] tsrec: 0/1000 violations, worst margin 1.029e-01",
        "[PASS] tsrec: 0/1000 violations, worst margin 1.199e-01",
        "[PASS] tsrec: 0/1000 violations, worst margin 1.204e-01",
        "[PASS] tsrec: 0/1000 violations, worst margin 1.277e-01",
        "[PASS] tsrec: 0/1000 violations, worst margin 1.430e-01",
        "[PASS] tsrec: 0/1000 violations, worst margin 1.090e-01",
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
        "[PASS] wnu: 0/500 violations, worst margin 1.806e+00",
        "[PASS] wnu: 0/500 violations, worst margin 1.359e+00",
        "[PASS] wnu: 0/500 violations, worst margin 1.510e+00",
        "[PASS] wnu: 0/500 violations, worst margin 1.238e+00",
        "[PASS] wnu: 0/500 violations, worst margin 1.550e+00",
        "[PASS] wnu: 0/500 violations, worst margin 1.388e+00",
        "[PASS] wnu: 0/500 violations, worst margin 6.961e-01",
        "[PASS] wnu: 0/500 violations, worst margin 9.173e-01",
        "[PASS] wnu: 0/500 violations, worst margin 8.103e-01",
        "[PASS] wnu: 0/500 violations, worst margin 2.302e+00",
        "[PASS] polarization: 0/100 violations, worst margin 7.614e-14",
    ]),
    (["mvt"], 0, [
        "[PASS] mvt: 0/100 violations, worst margin 0.000e+00",
        "[PASS] mvt: 0/100 violations, worst margin 2.266e+01",
    ]),
    (["gradients"], 0, [
        "[PASS] gradients: 0/50 violations, worst margin 1.910e-09",
    ]),
    (["tsrec", "--n", "1"], 1, [
        "[FAIL] tsrec: 568/1000 violations, worst margin 1.632e+00",
        "[FAIL] tsrec: 514/1000 violations, worst margin 1.398e+00",
        "[FAIL] tsrec: 555/1000 violations, worst margin 2.461e+00",
        "[FAIL] tsrec: 462/1000 violations, worst margin 1.831e+00",
        "[FAIL] tsrec: 808/1000 violations, worst margin 1.000e+00",
        "[FAIL] tsrec: 647/1000 violations, worst margin 1.000e+00",
        "[FAIL] tsrec: 517/1000 violations, worst margin 2.026e+00",
        "[FAIL] tsrec: 422/1000 violations, worst margin 1.523e+00",
        "[FAIL] tsrec: 437/1000 violations, worst margin 9.998e-01",
        "[FAIL] tsrec: 553/1000 violations, worst margin 9.998e-01",
    ]),
    (["wnu", "--n", "1"], 1, [
        "[FAIL] wnu: 432/500 violations, worst margin -8.021e+02",
        "[FAIL] wnu: 413/500 violations, worst margin -4.935e+02",
        "[FAIL] wnu: 368/500 violations, worst margin -1.815e+02",
        "[FAIL] wnu: 330/500 violations, worst margin -1.046e+02",
        "[FAIL] wnu: 360/500 violations, worst margin -1.749e+02",
        "[FAIL] wnu: 395/500 violations, worst margin -3.297e+02",
        "[FAIL] wnu: 371/500 violations, worst margin -3.306e+02",
        "[FAIL] wnu: 253/500 violations, worst margin -5.913e+01",
        "[FAIL] wnu: 374/500 violations, worst margin -2.757e+02",
        "[FAIL] wnu: 277/500 violations, worst margin -7.155e+01",
        "[PASS] polarization: 0/100 violations, worst margin 7.739e-15",
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

    def test_json_report_fields(self, capsys):
        assert cli.main(["check", "adjoint", "--json"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert [(d["name"], d["trials"], d["violations"], d["passed"])
                for d in docs] == [("adjoint", 100, 0, True)] * 4
        assert [d["params"]["kind"] for d in docs] == [
            "dense_gaussian", "dense_gaussian", "partial_circulant",
            "partial_circulant"]

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

    @pytest.mark.parametrize("n", [9, 64])
    def test_adjoint_n_above_circulant_p_names_the_flag_and_bound(
            self, capsys, n):
        # the first partial circulant case has p = 8; --n 8 is accepted
        assert cli.main(["check", "adjoint", "--n", str(n)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"config error: check adjoint: --n must be <= 8 (a "
                       f"partial_circulant case has p = 8), got {n}\n")
        assert cli.main(["check", "adjoint", "--n", "8", "--quiet"]) == 0

    @pytest.mark.parametrize("n", [9, analysis.N_CAP])
    def test_adjoint_n_above_circulant_p_rejected_before_any_draw(
            self, capsys, monkeypatch, n):
        # the dense cases come first, but no case is drawn at an --n that
        # a later case rejects
        def no_draw(*args):
            raise AssertionError("an operator was drawn")
        monkeypatch.setattr(sensing, "sensing_new", no_draw)
        assert cli.main(["check", "adjoint", "--n", str(n)]) == 2
        assert capsys.readouterr().err == (
            f"config error: check adjoint: --n must be <= 8 (a "
            f"partial_circulant case has p = 8), got {n}\n")

    def test_check_json_does_not_depend_on_blas_threads(self, capsys,
                                                         blas_threads):
        # every suite runs with one BLAS thread, whatever the count it finds
        outputs = []
        for threads in (1, 2):
            blas_threads(threads)
            for suite in cli.CHECK_SUITES:
                assert cli.main(["check", suite, "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("argv, code", [(["jle"], 0), (["adjoint"], 2)])
    def test_check_restores_the_blas_thread_count(self, monkeypatch,
                                                  two_blas_threads, argv,
                                                  code):
        # a suite draws its operators with one thread; the count found is
        # back after it, also when it raises after a draw (code 2: the
        # first draw raises a ValueError, reported as a config error)
        if not two_blas_threads:
            pytest.skip("no OpenBLAS loaded")
        counts = []
        real = sensing.sensing_new

        def spy(*args):
            counts.append([get() for get, _ in two_blas_threads])
            if code:
                raise ValueError("a draw failed")
            return real(*args)

        monkeypatch.setattr(sensing, "sensing_new", spy)
        assert cli.main(["check", *argv, "--quiet"]) == code
        assert counts and all(set(c) == {1} for c in counts)
        assert [get() for get, _ in two_blas_threads] == [2] * len(
            two_blas_threads)

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_nonpositive_n_rejected(self, capsys, n):
        assert cli.main(["check", "tsrec", "--n", n]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"config error: check tsrec: --n must be >= 1, got {n}\n"

    @pytest.mark.parametrize("suite", cli.CHECK_SUITES)
    def test_n_above_cap_rejected_before_any_draw(self, capsys, monkeypatch,
                                                  suite):
        def no_draw(*args):
            raise AssertionError("an operator was drawn")
        monkeypatch.setattr(sensing, "sensing_new", no_draw)
        n = analysis.N_CAP + 1
        assert cli.main(["check", suite, "--n", str(n)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"config error: check {suite}: --n must be "
                       f"<= {analysis.N_CAP}, got {n}\n")

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["check", "nonexistent"])

    def test_cached_parser_keeps_no_flag_between_calls(self, capsys):
        # one parser serves every call; a flag given to one call is not
        # a default of the next
        assert cli._build_parser() is cli._build_parser()
        sizes = []
        for argv in (["jle", "--n", "50"], ["jle"]):
            assert cli.main(["check", *argv, "--json"]) in (0, 1)
            docs = json.loads(capsys.readouterr().out)
            sizes.append({d["params"]["n"] for d in docs})
        assert sizes == [{50}, {200}]


class TestModel:
    def test_new_flag_is_not_kept_by_the_cached_parser(self, capsys):
        # a decoder flag left out of a later call takes its preset value
        ks = []
        for argv in (["--k", "3"], []):
            assert cli.main(["model", "new", *argv]) == 0
            ks.append(json.loads(capsys.readouterr().out)["k"])
        assert ks == [3, cli.MODEL_PRESET["k"]]

    def test_new_default_k20_preset(self, tmp_path, capsys):
        path = tmp_path / "dec.json"
        assert cli.main(["model", "new", "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["k"] == 20 and doc["p"] == 784
        assert doc["layer_dims"] == [500, 500]
        # L is computed from the weights, so the file does not carry it
        assert "lipschitz_bound" not in doc
        assert cli.main(["model", "info", str(path)]) == 0
        assert float(capsys.readouterr().out.split("L=")[1]) > 0

    # a model new file is a config's decoder section, and instance.json
    # records it unchanged
    @pytest.mark.parametrize("family, keys", [
        ("mlp", {"family", "seed", "k", "p", "r", "activation", "layer_dims",
                 "weight_scale"}),
        ("orthonormal_linear", {"family", "seed", "k", "p", "r"}),
        ("identity", {"family", "k", "r"})])
    def test_new_file_is_a_config_decoder_section(self, tmp_path, capsys,
                                                 family, keys):
        path = tmp_path / "dec.json"
        flags = {"k": ["--k", "3"], "layer_dims": ["--hidden", "6"],
                 "p": ["--p", "32"], "seed": ["--seed", "4"]}
        argv = [a for key, pair in flags.items() if key in keys for a in pair]
        assert cli.main(["model", "new", "--family", family, *argv,
                         "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert set(doc) == keys
        assert cli.main(["model", "info", str(path)]) == 0
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, decoder=doc)
        out = tmp_path / "run"
        assert cli.main(["solve", "--config", str(cfg_path), "--out", str(out),
                         "--quiet"]) == 0
        assert json.loads((out / "instance.json").read_text())["decoder"] == doc
        assert capsys.readouterr().err == ""

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
        # a flag the family does not read is named, not dropped
        (["--family", "identity", "--k", "4", "--hidden", "8,6", "--p", "16"],
         "config error: --hidden: not read by the identity family"),
        (["--family", "identity", "--p", "16"],
         "config error: --p: not read by the identity family"),
        (["--family", "identity", "--seed", "3"],
         "config error: --seed: not read by the identity family"),
        (["--family", "orthonormal_linear", "--hidden", ""],
         "config error: --hidden: not read by the orthonormal_linear family"),
        (["--family", "orthonormal_linear", "--activation", "relu"],
         "config error: --activation: not read by the orthonormal_linear "
         "family"),
        (["--family", "orthonormal_linear", "--scale", "1.0"],
         "config error: --scale: not read by the orthonormal_linear family"),
        # layers of more than WEIGHT_CAP weights, in every family
        (["--k", "4", "--hidden", "100000", "--p", "10000000"],
         "config error: model new: layer widths [4, 100000, 10000000] (k, "
         "hidden dims, p) hold 1000000400000 weights, above the cap of "
         "134217728\n"),
        (["--family", "orthonormal_linear", "--k", "20", "--p", "10000000"],
         "config error: model new: layer widths [20, 10000000] (k, hidden "
         "dims, p) hold 200000000 weights, above the cap of 134217728\n"),
        (["--family", "identity", "--k", "20000"],
         "config error: model new: layer widths [20000, 20000] (k, hidden "
         "dims, p) hold 400000000 weights, above the cap of 134217728\n"),
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

    # sizes that a config's decoder section rejects are not truncated
    @pytest.mark.parametrize("field, message", [
        ({"k": 2.5}, "decoder.k: expected an integer, got 2.5"),
        ({"layer_dims": "12"},
         'decoder.layer_dims: expected a list of integers, got "12"'),
        ({"layer_dims": [3.7]},
         "decoder.layer_dims: expected a list of integers, got [3.7]")])
    def test_info_rejects_non_integral_sizes(self, tmp_path, capsys, field,
                                             message):
        path = tmp_path / "dec.json"
        path.write_text(json.dumps({"family": "mlp", "k": 2, "p": 8, "r": 1.0,
                                    "seed": 0, "layer_dims": [4], **field}))
        assert cli.main(["model", "info", str(path)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"config error: {path}: {message}\n")

    # model info checks a file by the config's decoder rules; a file has no
    # master seed, so a family that takes a seed needs it in the file
    @pytest.mark.parametrize("doc, key", [
        ({"family": "mlp", "k": 2, "p": 8, "r": 1.0, "seed": 0,
          "layer_dim": [4]}, "layer_dim"),
        ({"family": "mlp", "k": 2, "p": 8, "r": 1.0, "seed": True}, "seed"),
        ({"family": "orthonormal_linear", "k": 2, "p": 8, "r": True,
          "seed": 0}, "r"),
        ({"family": "identity", "k": 2, "r": 1.0, "p": 99,
          "weight_scale": -4}, "p"),
        ({"family": "mlp", "k": 2, "p": 8, "r": 1.0, "layer_dims": [4]},
         "seed")])
    def test_info_applies_the_config_decoder_rules(self, tmp_path, capsys,
                                                   doc, key):
        path = tmp_path / "dec.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["model", "info", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"config error: {path}: decoder.{key}: ")
        assert err.count("\n") == 1

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
        # the deleted closed-form projection option
        ({"solver": {"kind": "pgd_glasso",
                     "projection": {"method": "exact_linear"}}},
         "solver.projection.method"),
        # the deleted start and ball rules
        ({"solver": {"kind": "pgd_glasso", "projection": {"init": "zero"}}},
         "solver.projection.init"),
        ({"solver": {"kind": "pgd_glasso",
                     "projection": {"ball_handling": "project_at_end"}}},
         "solver.projection.ball_handling"),
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
        # library-only: the CLI has no way to pass an x0
        ("solve", {"solver.x0_mode": "given"},
         'solver.x0_mode: "given" is not one of zero, random_range_point'),
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

    @pytest.mark.parametrize("command, link, solver", [
        pytest.param("solve", "linear", "pgd_glasso", id="solve"),
        pytest.param("rate", "linear", "pgd_glasso", id="rate"),
        pytest.param("solve", "shifted_cosine", "pgd_nlasso", id="solve-known"),
        pytest.param("rate", "shifted_cosine", "pgd_nlasso", id="rate-known")])
    def test_signal_planted_at_a_zero_output(self, tmp_path, capsys, command,
                                             link, solver):
        # one relu hidden unit: the decoder output at the latent that master
        # seed 6 plants is zero, so there is no signal to plant, whether sim
        # mode would scale it to unit norm or known mode would observe it
        code, err = self._rejected(
            tmp_path, capsys, command, master_seed=6,
            decoder={"family": "mlp", "k": 2, "layer_dims": [1], "p": 8,
                     "r": 3.0, "activation": "relu", "seed": 4},
            sensing={"kind": "dense_gaussian", "n": 8},
            link={"kind": link},
            solver={"kind": solver, "iterations": 3},
            experiment={"grid": [8], "trials": 10})
        assert (code, err) == (2, "config error: experiment: decoder output "
                                  "at the planted latent is zero\n")

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
        # a decoder within its cap, but a dense operator of n * p cells
        # above DENSE_CAP: n <= 2**27 // p
        ("solve", {"decoder": {"family": "mlp", "k": 1, "p": 10 ** 6,
                               "r": 1.0}, "sensing.n": 100_000},
         "sensing: n: need 1 <= n <= 134, got 100000"),
        ("rate", {"decoder": {"family": "mlp", "k": 1, "p": 10 ** 6,
                              "r": 1.0}, "experiment.grid": [40, 100_000]},
         "experiment: grid: need 1 <= n <= 134, got 100000"),
        # the descents' Jacobians, restarts * k * p floats, above
        # JACOBIAN_CAP: 2000000 * 3 * 32
        *((command, {"solver.projection.restarts": 2_000_000},
           "solver.projection.restarts: restarts * k * p = 192000000, above "
           "the cap of 134217728") for command in ("solve", "rate")),
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
        section = readme_schema_section()
        missing = [k for k in schema_keys() if f"`{k}`" not in section]
        assert not missing

    def test_readme_lists_every_schema_choice(self):
        # a key's "allowed values" cell names exactly its choices, in
        # backticks, before any "; note"
        cells = {}
        for line in readme_schema_section().splitlines():
            if line.startswith("| `"):
                row = [c.strip() for c in line.strip("|").split("|")]
                cells[row[0].strip("`")] = row[3].split(";")[0]
        for key, choices in schema_choices().items():
            named = re.findall(r"`([^`]*)`", cells[key])
            assert sorted(named) == sorted(choices), key

    def test_readme_config_example_loads(self):
        section = readme_schema_section()
        start = section.index("```json\n") + len("```json\n")
        cfg = json.loads(section[start:section.index("```", start)])
        setup, n, master, out_dir = cli._build_setup(
            cfg, argparse.Namespace(seed=None, out=None))
        assert (n, master, out_dir) == (250, 7, "runs/demo")
        assert setup.decoder.hidden_dims == (32,)


def child_env():
    """The environment with the repository's src first on PYTHONPATH, so a
    child interpreter imports genprior without an install."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": src + (os.pathsep + path if path else "")}


class TestEntryPoint:
    def test_console_script_runs(self):
        proc = subprocess.run([sys.executable, "-m", "genprior.cli", "check",
                               "mvt", "--quiet"], capture_output=True,
                              env=child_env())
        assert proc.returncode == 0
        assert proc.stderr == b""

    def test_import_leaves_the_process_pool_unloaded(self):
        # rate imports it only when it starts workers
        code = ("import sys, genprior, genprior.cli; "
                "print('concurrent.futures.process' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, env=child_env())
        assert proc.returncode == 0 and proc.stdout == b"False\n"

    def test_stdout_determinism(self):
        cmd = [sys.executable, "-m", "genprior.cli", "check", "mvt"]
        a = subprocess.run(cmd, capture_output=True, env=child_env())
        b = subprocess.run(cmd, capture_output=True, env=child_env())
        assert a.stdout == b.stdout and a.returncode == b.returncode == 0
