import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lrcs_cdti import cli, dti, encoding, recon
from lrcs_cdti import datamodel as dm
from lrcs_cdti import phantom as ph

FLAGS = ["--threads", "1", "--log-level", "warning"]


def _read(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_eval_reproduces_run_stats(study, tmp_path):
    plan, _ = study
    out = Path(plan.output_dir)
    rc = cli.main(["eval", "--summary", str(out / "summary.csv"),
                   "--out", str(tmp_path / "eval.csv"), *FLAGS])
    assert rc == 0
    assert _read(tmp_path / "eval.csv") == _read(out / "stats.csv")
    # summary.csv carries no regional values, so eval writes no p-maps
    assert not list(tmp_path.glob("pmap_*.csv"))


def test_eval_skips_group_with_failed_cell(study, tmp_path):
    plan, _ = study
    rows = _read(Path(plan.output_dir) / "summary.csv")
    # a fourth subject, so that every group keeps 3 good subjects
    rows += [{**r, "subject": "3"} for r in rows if r["subject"] == "0"]
    failed = next(r for r in rows if (r["method"], r["phase_mode"]) == ("lr", "none"))
    failed.update(ok="False", hat="nan", md="nan")
    summary = tmp_path / "summary.csv"
    with open(summary, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    assert cli.main(["eval", "--summary", str(summary),
                     "--out", str(tmp_path / "eval.csv"), *FLAGS]) == 0
    groups = {(r["method"], r["phase_mode"]) for r in _read(tmp_path / "eval.csv")}
    assert ("lr", "none") not in groups
    assert len(groups) == 8


@pytest.fixture(scope="module")
def recon_inputs(tmp_path_factory):
    cfg = ph.PhantomConfig(grid=(16, 16, 3), r_endo=3, r_epi=6, n_coils=2, seed=1)
    gt = ph.build_phantom(cfg)
    labels = gt.clean_series.column_labels
    kgrid = encoding.coil_kspace(gt.clean_series, gt.coils, gt.phase)
    mask = encoding.make_sampling_mask(16, 3, labels, R=2, seed=0,
                                       scheme="lowres-lattice")
    root = tmp_path_factory.mktemp("recon_inputs")
    encoding.save_kspace(root / "kspace", encoding.extract_samples(kgrid, mask))
    dm.save_coils(root / "coils", gt.coils)
    return cfg, root


@pytest.mark.parametrize("method, phase, rank", [
    ("lrcs", "proposed", None), ("lr", "lowres", "3"), ("cs", "none", None)])
def test_recon_command_on_saved_containers(recon_inputs, tmp_path, method, phase, rank):
    cfg, root = recon_inputs
    argv = ["recon", "--kspace", str(root / "kspace"), "--coils", str(root / "coils"),
            "--method", method, "--phase", phase, "--iters", "2",
            "--out", str(tmp_path / "out"), *FLAGS]
    if rank is not None:
        argv += ["--rank", rank]
    assert cli.main(argv) == 0
    series = dm.load_series(tmp_path / "out")
    assert series.spatial_dims == cfg.grid
    assert np.isfinite(series.data).all() and np.abs(series.data).max() > 0
    report = json.loads((tmp_path / "out" / "run_report.json").read_text())
    assert report["method"] == method
    if rank is not None:
        assert report["rank"] == int(rank)


def test_recon_lambda_grid_keeps_the_winning_solve(recon_inputs, tmp_path):
    # with --iters the grid search runs the command's own solver config,
    # and cs returns the winning candidate's solve
    cfg, root = recon_inputs
    assert cli.main(["recon", "--kspace", str(root / "kspace"),
                     "--coils", str(root / "coils"), "--method", "cs",
                     "--phase", "none", "--iters", "2", "--lambda-grid",
                     "--out", str(tmp_path / "out"), *FLAGS]) == 0
    d = encoding.load_kspace(root / "kspace")
    model = encoding.EncodingModel(dm.load_coils(root / "coils"), d.mask, None)
    lam, prelim, _ = recon.select_lambda(d, model, recon.default_lambda_grid(d, model),
                                         recon.SolverConfig(max_iters=2))
    report = json.loads((tmp_path / "out" / "run_report.json").read_text())
    assert report["lambda"] == lam
    series = dm.load_series(tmp_path / "out")
    want = prelim.series.data
    np.testing.assert_allclose(series.data, want, atol=1e-6 * np.abs(want).max())


def test_recon_lambda_grid_with_the_default_solver_config(recon_inputs, tmp_path):
    # no --iters: the grid and the solve run the default SolverConfig,
    # whose CG tolerance complex64 arithmetic can reach
    cfg, root = recon_inputs
    assert cli.main(["recon", "--kspace", str(root / "kspace"),
                     "--coils", str(root / "coils"), "--method", "lrcs",
                     "--lambda-grid", "--out", str(tmp_path / "out"), *FLAGS]) == 0
    report = json.loads((tmp_path / "out" / "run_report.json").read_text())
    assert report["stop_reason"] == "iteration cap K = 25"
    assert np.isfinite(dm.load_series(tmp_path / "out").data).all()


@pytest.fixture(scope="module")
def ground_truth(tmp_path_factory):
    root = tmp_path_factory.mktemp("phantom")
    params = root / "params.json"
    params.write_text(json.dumps({"grid": [16, 16, 3], "r_endo": 3, "r_epi": 6,
                                  "n_coils": 2, "seed": 1}))
    assert cli.main(["phantom", "--params", str(params),
                     "--out", str(root / "gt"), *FLAGS]) == 0
    return root / "gt"


@pytest.mark.parametrize("command, found, expected", [
    (["fit", "--series", "{gt}", "--mask", "{gt}"], "ground_truth", "casorati_series"),
    (["metrics", "--tensors", "{gt}"], "ground_truth", "tensor_field")])
def test_wrong_container_kind_is_a_named_error(ground_truth, tmp_path, capsys,
                                               command, found, expected):
    argv = [a.format(gt=ground_truth) for a in command]
    assert cli.main([*argv, "--out", str(tmp_path / "out"), *FLAGS]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error [{argv[0]}]: ")
    assert str(ground_truth) in err
    assert repr(found) in err and repr(expected) in err
    assert "Traceback" not in err


def test_fit_takes_the_mask_of_a_ground_truth(ground_truth, tmp_path):
    gt = ph.load_ground_truth(ground_truth)
    dm.save_series(tmp_path / "series", gt.clean_series)
    assert cli.main(["fit", "--series", str(tmp_path / "series"),
                     "--mask", str(ground_truth), "--out", str(tmp_path / "t"),
                     *FLAGS]) == 0
    field = dti.load_tensors(tmp_path / "t")
    np.testing.assert_array_equal(field.mask, gt.myocardium_mask)


def test_fit_mask_container_without_mask(ground_truth, tmp_path, capsys):
    gt = ph.load_ground_truth(ground_truth)
    dm.save_series(tmp_path / "series", gt.clean_series)
    assert cli.main(["fit", "--series", str(tmp_path / "series"),
                     "--mask", str(tmp_path / "series"), "--out", str(tmp_path / "t"),
                     *FLAGS]) == 1
    assert "no 'mask' array" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, content, message", [
    ("run", "--plan", '{"n_subjects": 1, "bogus": 3}',
     "unknown ExperimentPlan key(s): 'bogus'"),
    ("run", "--plan", '{"n_subjects": 1,', "cannot read plan"),
    ("run", "--plan", '{"n_subjects": 1, "R_list": [0.5], "output_dir": "{out}"}',
     "R_list entries must be >= 1, got [0.5]"),
    ("run", "--plan", '{"n_subjects": 1, "base_config": {"bogus": 1}, '
     '"output_dir": "{out}"}', "unknown PhantomConfig key(s): 'bogus'"),
    ("phantom", "--params", '{"grid": [16, 16, 3], "bogus": 3}',
     "unknown PhantomConfig key(s): 'bogus'"),
    ("phantom", "--params", "not json", "cannot read params"),
    ("run", "--plan", '{"n_subjects": "2", "output_dir": "{out}"}',
     "ExperimentPlan key 'n_subjects' must be int, got \"2\""),
    ("run", "--plan", '{"n_subjects": 1, "solver": {"max_iters": 2.5}, '
     '"output_dir": "{out}"}', "SolverConfig key 'max_iters' must be int, got 2.5"),
    ("phantom", "--params", '{"grid": 5}',
     "PhantomConfig key 'grid' must be tuple[int, int, int], got 5"),
    ("run", "--plan", '{"n_subjects": 1, "solver": {"rank": 3}, "output_dir": "{out}"}',
     "unknown SolverConfig key(s): 'rank'"),
    ("run", "--plan", '{"n_subjects": 1, "solver": {"method": "lr"}, '
     '"output_dir": "{out}"}', "unknown SolverConfig key(s): 'method'"),
    ("run", "--plan", '{"n_subjects": 1, "solver": {"tol": 1e-6}, '
     '"output_dir": "{out}"}', "unknown SolverConfig key(s): 'tol'"),
    ("run", "--plan", '{"n_subjects": 1, "solver": {"lam": 0.1}, '
     '"output_dir": "{out}"}', "solver key 'lam' is set per cell"),
    ("run", "--plan", '{"n_subjects": 1, "solver": {"max_iters": 0}, '
     '"output_dir": "{out}"}', "max_iters must be >= 1, got 0"),
    ("run", "--plan", '{"n_subjects": 1, "rank": 0, "output_dir": "{out}"}',
     "rank must be >= 1 or null, got 0"),
    ("run", "--plan", '{"n_subjects": 1, "methods": ["lrx"], "output_dir": "{out}"}',
     "'lrx' is not a valid Method"),
    ("run", "--plan", '{"n_subjects": 1, "base_config": {"r_epi": 40}, '
     '"output_dir": "{out}"}', "need 0 < r_endo < r_epi"),
])
def test_bad_plan_or_params_is_a_named_error(tmp_path, capsys, command, flag,
                                             content, message):
    # rejected before any work: no study or ground truth is written
    out = tmp_path / "out"
    path = tmp_path / "input.json"
    path.write_text(content.replace("{out}", str(out)))
    argv = [command, flag, str(path), *FLAGS]
    if command == "phantom":
        argv += ["--out", str(out)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error [{command}]: ")
    assert str(path) in err and message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("config, message", [
    ({"threads": "x"}, "key 'threads' must be int, got \"x\""),
    ({"seed": 1.5}, "key 'seed' must be int, got 1.5"),
])
def test_config_value_of_the_wrong_type_is_a_named_error(tmp_path, capsys, config,
                                                         message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "gt"
    assert cli.main(["phantom", "--out", str(out), "--config", str(path),
                     "--log-level", "warning"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [phantom]: ")
    assert f"config {path} {message}" in err
    assert not out.exists()


def test_config_key_of_no_command_is_a_named_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 3, "sead": 3}))
    out = tmp_path / "gt"
    assert cli.main(["phantom", "--out", str(out), "--config", str(path),
                     "--log-level", "warning"]) == 1
    assert capsys.readouterr().err == (
        f"error [phantom]: config {path}: key(s) 'sead' name no flag of any "
        f"command\n")
    assert not out.exists()


def test_config_keys_of_other_commands_are_ignored(tmp_path):
    # one config serves several commands: phantom takes its seed and
    # leaves the keys of recon, sample and run alone
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"grid": [16, 16, 3], "r_endo": 3, "r_epi": 6,
                                  "n_coils": 2}))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 4, "iters": 3, "lambda-scale": 0.1,
                                "R": 2, "plan": "plan.json", "log_level": "warning"}))
    assert cli.main(["phantom", "--params", str(params), "--out", str(tmp_path / "gt"),
                     "--config", str(path)]) == 0
    assert ph.load_ground_truth(tmp_path / "gt").config.seed == 4


def test_zero_flag_values_are_values(ground_truth, recon_inputs, tmp_path, capsys):
    # 0 is not "unset": each command rejects it with a named error
    dm.save_series(tmp_path / "series", ph.load_ground_truth(ground_truth).clean_series)
    _, root = recon_inputs
    runs = [(["sample", "--series", str(tmp_path / "series"), "--R", "0"],
             "acceleration factor must be >= 1, got 0.0"),
            (["recon", "--kspace", str(root / "kspace"), "--coils", str(root / "coils"),
              "--iters", "0"], "max_iters must be >= 1, got 0")]
    for argv, message in runs:
        out = tmp_path / argv[0]
        assert cli.main([*argv, "--out", str(out), *FLAGS]) == 1
        assert capsys.readouterr().err == f"error [{argv[0]}]: {message}\n"
        assert not out.exists()


def test_threads_variable_that_is_not_an_integer_is_a_named_error(tmp_path, capsys,
                                                                  monkeypatch):
    monkeypatch.setenv("LRCS_CDTI_THREADS", "abc")
    out = tmp_path / "gt"
    assert cli.main(["phantom", "--out", str(out), "--log-level", "warning"]) == 1
    assert capsys.readouterr().err == (
        "error [phantom]: environment variable LRCS_CDTI_THREADS must be an "
        "integer, got 'abc'\n")
    assert not out.exists()


def test_import_leaves_scipy_stats_out():
    # the ICC interval takes its F quantiles from scipy.special, so the
    # CLI does not pay for importing scipy.stats
    code = "import sys, lrcs_cdti.cli; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert done.stdout.strip() == "False"
