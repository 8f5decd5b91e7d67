import csv
import json
import logging
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lrcs_cdti import cli, dti, encoding, pipeline, recon
from lrcs_cdti import datamodel as dm
from lrcs_cdti import phantom as ph
from lrcs_cdti.errors import NumericalError
from treediff import differing_files

FLAGS = ["--threads", "1", "--log-level", "warning"]


def _read(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _write(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _study_tables(study, tmp_path):
    """A copy of the study's stats.csv and p-maps in tmp_path / "run", and
    of its summary.csv and regional.csv in tmp_path / "tables"."""
    plan, _ = study
    out = Path(plan.output_dir)
    for name, pattern in (("run", "stats.csv"), ("run", "pmap_*.csv"),
                          ("tables", "summary.csv"), ("tables", "regional.csv")):
        (tmp_path / name).mkdir(exist_ok=True)
        for path in out.glob(pattern):
            shutil.copy(path, tmp_path / name / path.name)
    return tmp_path / "run", tmp_path / "tables"


def test_eval_reproduces_run_stats(study, tmp_path):
    # the run and eval build stats.csv and every p-map by one function,
    # from the same summary.csv and regional.csv
    plan, _ = study
    run, _ = _study_tables(study, tmp_path)
    rc = cli.main(["eval", "--summary", str(Path(plan.output_dir) / "summary.csv"),
                   "--out", str(tmp_path / "eval" / "stats.csv"), *FLAGS])
    assert rc == 0
    assert len(list(run.glob("pmap_*.csv"))) == 12
    assert differing_files(run, tmp_path / "eval", ignore=()) == []
    for path in run.iterdir():
        assert (tmp_path / "eval" / path.name).read_bytes() == path.read_bytes()


def test_eval_of_a_nan_segment_drops_that_groups_pmap(study, tmp_path):
    run, tables = _study_tables(study, tmp_path)
    rows = _read(tables / "regional.csv")
    row = next(r for r in rows if (r["subject"], r["method"], r["phase_mode"],
                                   r["metric"]) == ("1", "lr", "none", "md"))
    row["7"] = "nan"
    _write(tables / "regional.csv", rows)
    assert cli.main(["eval", "--summary", str(tables / "summary.csv"),
                     "--out", str(tmp_path / "eval" / "stats.csv"), *FLAGS]) == 0
    assert differing_files(run, tmp_path / "eval", ignore=()) \
        == ["pmap_md_R2_lr_none.csv"]
    assert not (tmp_path / "eval" / "pmap_md_R2_lr_none.csv").exists()


def test_eval_of_a_reanalysis_summary_writes_no_pmap(tmp_path):
    # the columns eval reads and no more, methods and phase modes that no
    # plan runs, and no regional.csv
    rng = np.random.default_rng(0)
    rows = [{"subject": s, "R": 1.0, "method": "reference", "phase_mode": "",
             "ok": True, "hat": 0.5 + 0.01 * s, "md": 1e-3} for s in range(4)]
    rows += [{**r, "method": "fit", "phase_mode": mode,
              "hat": r["hat"] * (1 + 0.1 * rng.random()),
              "md": r["md"] * (1 + 0.1 * rng.random())}
             for mode in ("snr8", "snr40") for r in rows[:4]]
    _write(tmp_path / "summary.csv", rows)
    assert cli.main(["eval", "--summary", str(tmp_path / "summary.csv"),
                     "--out", str(tmp_path / "eval.csv"), *FLAGS]) == 0
    assert [(r["R"], r["method"], r["phase_mode"], r["metric"])
            for r in _read(tmp_path / "eval.csv")] == [
        ("1.0", "fit", mode, metric) for mode in ("snr40", "snr8")
        for metric in ("hat", "md")]
    assert not list(tmp_path.glob("pmap_*.csv"))


def test_eval_of_a_bad_regional_table_is_a_named_error(study, tmp_path, capsys):
    _, tables = _study_tables(study, tmp_path)
    rows = _read(tables / "regional.csv")
    rows[2]["12"] = "abc"
    _write(tables / "regional.csv", rows)
    assert cli.main(["eval", "--summary", str(tables / "summary.csv"),
                     "--out", str(tmp_path / "eval" / "stats.csv"), *FLAGS]) == 1
    err = capsys.readouterr().err
    assert err == (f"error [eval]: {tables / 'regional.csv'} row 3, column '12': "
                   f"cannot read 'abc' as float\n")
    assert not (tmp_path / "eval").exists()


def test_eval_skips_group_with_failed_cell(study, tmp_path):
    plan, _ = study
    rows = _read(Path(plan.output_dir) / "summary.csv")
    # a fourth subject, so that every group keeps 3 good subjects
    rows += [{**r, "subject": "3"} for r in rows if r["subject"] == "0"]
    failed = next(r for r in rows if (r["method"], r["phase_mode"]) == ("lr", "none"))
    failed.update(ok="False", hat="nan", md="nan")
    summary = tmp_path / "summary.csv"
    _write(summary, rows)
    assert cli.main(["eval", "--summary", str(summary),
                     "--out", str(tmp_path / "eval.csv"), *FLAGS]) == 0
    groups = {(r["method"], r["phase_mode"]) for r in _read(tmp_path / "eval.csv")}
    assert ("lr", "none") not in groups
    assert len(groups) == 5


@pytest.mark.parametrize("column, value, message", [
    ("ok", None, "row 1, column 'ok': no value"),
    ("hat", "abc", "row 2, column 'hat': cannot read 'abc' as float"),
], ids=["missing-column", "non-numeric"])
def test_eval_of_a_bad_summary_is_a_named_error(study, tmp_path, capsys, column,
                                                value, message):
    # value None drops the column; else it replaces the second row's entry
    plan, _ = study
    rows = _read(Path(plan.output_dir) / "summary.csv")
    if value is None:
        for row in rows:
            del row[column]
    else:
        rows[1][column] = value
    summary = tmp_path / "summary.csv"
    _write(summary, rows)
    assert cli.main(["eval", "--summary", str(summary),
                     "--out", str(tmp_path / "eval.csv"), *FLAGS]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error [eval]: {summary} {message}")
    assert "Traceback" not in err
    assert not (tmp_path / "eval.csv").exists()


@pytest.fixture(scope="module")
def recon_inputs(tmp_path_factory):
    cfg = ph.PhantomConfig(grid=(16, 16, 3), r_endo=3, r_epi=6, n_coils=2, seed=1)
    gt = ph.build_phantom(cfg)
    labels = gt.clean_series.column_labels
    kgrid = encoding.coil_kspace(gt.clean_series, gt.coils, gt.phase)
    mask = encoding.make_sampling_mask(16, 3, labels, R=2, seed=0)
    root = tmp_path_factory.mktemp("recon_inputs")
    encoding.save_kspace(root / "kspace", encoding.extract_samples(kgrid, mask))
    dm.save_coils(root / "coils", gt.coils)
    return cfg, root


@pytest.mark.parametrize("method, phase, rank", [
    ("lrcs", "proposed", None), ("lr", "none", "3"), ("cs", "none", None)])
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
    # no --rank is rank 7; cs solves on the identity subspace of all 13
    # columns, whatever the rank
    assert report["rank"] == (13 if method == "cs" else int(rank or 7))


def test_default_recon_of_the_cli_chain_is_rank_7(tmp_path):
    # phantom -> simulate -> recon with no --rank solves at recon.RANK,
    # the same solve as --rank 7
    params, gt, sim = tmp_path / "params.json", tmp_path / "gt", tmp_path / "sim"
    params.write_text(json.dumps({"grid": [24, 24, 3], "r_endo": 4, "r_epi": 9,
                                  "n_coils": 2, "seed": 1}))
    assert cli.main(["phantom", "--params", str(params), "--out", str(gt), *FLAGS]) == 0
    assert cli.main(["simulate", "--truth", str(gt), "--R", "6", "--out", str(sim),
                     *FLAGS]) == 0
    for out, rank in ((tmp_path / "default", []), (tmp_path / "rank7", ["--rank", "7"])):
        assert cli.main(["recon", "--kspace", str(sim / "kspace"),
                         "--coils", str(sim / "coils"), "--iters", "3", *rank,
                         "--out", str(out), *FLAGS]) == 0
        report = json.loads((out / "run_report.json").read_text())
        assert (report["method"], report["rank"]) == ("lrcs", 7)
    np.testing.assert_array_equal(dm.load_series(tmp_path / "default").data,
                                  dm.load_series(tmp_path / "rank7").data)


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
    (["metrics", "--tensors", "{gt}"], "ground_truth", "tensor_field"),
    (["simulate", "--truth", "{series}"], "casorati_series", "ground_truth")])
def test_wrong_container_kind_is_a_named_error(ground_truth, tmp_path, capsys,
                                               command, found, expected):
    series = tmp_path / "series"
    dm.save_series(series, ph.load_ground_truth(ground_truth).clean_series)
    argv = [a.format(gt=ground_truth, series=series) for a in command]
    assert cli.main([*argv, "--out", str(tmp_path / "out"), *FLAGS]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error [{argv[0]}]: ")
    assert str(ground_truth if found == "ground_truth" else series) in err
    assert repr(found) in err and repr(expected) in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_stages_compose_to_the_pipeline_cells(tmp_path):
    # phantom -> simulate -> recon -> fit -> metrics on the subject of a
    # one-subject plan gives the plan's cells up to the complex64 storage
    # of the containers in between (measured: at most 6.5e-6 relative on
    # HAT and 1.4e-7 on MD; a mask seed off by one moves lr's HAT by 29%)
    plan = pipeline.ExperimentPlan(
        n_subjects=1, R_list=(4.0,), methods=("lr", "cs", "lrcs"),
        phase_modes=("proposed",), rank=7, lambda_scale=1e-2, save_arrays=False,
        base_config={"grid": [32, 32, 3], "r_endo": 6, "r_epi": 12},
        output_dir=str(tmp_path / "study"))
    cells = {c.method: c for c in pipeline.run_experiment(plan)["cells"]}
    cfg = pipeline.subject_config(plan, 0)
    params, gt, sim = tmp_path / "params.json", tmp_path / "gt", tmp_path / "sim"
    params.write_text(json.dumps(dm.config_to_json(cfg)))
    assert cli.main(["phantom", "--params", str(params), "--out", str(gt), *FLAGS]) == 0
    assert cli.main(["simulate", "--truth", str(gt), "--R", "4", "--out", str(sim),
                     *FLAGS]) == 0
    # simulate starts from the study's own samples and coil maps, up to
    # the maps' complex64 storage
    inputs = pipeline.prepare_subject(plan, 0)
    np.testing.assert_array_equal(encoding.load_kspace(sim / "kspace").samples,
                                  inputs.noisy_kspace[4.0].samples)
    np.testing.assert_array_equal(dm.load_coils(sim / "coils").maps,
                                  inputs.coil_maps.maps.astype(np.complex64))
    for method in plan.methods:
        recon_dir, tensors, metrics = (tmp_path / method / stage
                                       for stage in ("recon", "tensors", "metrics"))
        assert cli.main(["recon", "--kspace", str(sim / "kspace"),
                         "--coils", str(sim / "coils"), "--method", method,
                         "--rank", "7", "--lambda-scale", "1e-2",
                         "--out", str(recon_dir), *FLAGS]) == 0
        assert cli.main(["fit", "--series", str(recon_dir), "--mask", str(gt),
                         "--out", str(tensors), *FLAGS]) == 0
        assert cli.main(["metrics", "--tensors", str(tensors), "--out", str(metrics),
                         *FLAGS]) == 0
        hat = float(_read(metrics / "hat.csv")[-1]["slope"])
        maps, _ = dm.read_container(metrics / "maps", names=("md", "mask"))
        md = float(maps["md"][maps["mask"]].mean())
        want = cells[method].metrics
        assert abs(hat - want.hat) <= 1e-4 * abs(want.hat), method
        assert abs(md - want.md) <= 1e-5 * abs(want.md), method


def test_simulate_of_a_truth_whose_mask_is_not_its_configs(ground_truth, tmp_path,
                                                            capsys):
    gt = tmp_path / "gt"
    ph.save_ground_truth(gt, ph.load_ground_truth(ground_truth))
    f = gt / "mask.bin"
    f.write_bytes((~np.frombuffer(f.read_bytes(), dtype=bool)).tobytes())
    assert cli.main(["simulate", "--truth", str(gt), "--R", "2",
                     "--out", str(tmp_path / "sim"), *FLAGS]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error [simulate]: {gt}: ")
    assert "mask" in err and "Traceback" not in err
    assert not (tmp_path / "sim").exists()


def _drop_spatial_dims(header):
    del header["metadata"]["spatial_dims"]


def _two_spatial_dims(header):
    header["metadata"]["spatial_dims"] = header["metadata"]["spatial_dims"][:2]


def _drop_dtype(header):
    del header["arrays"]["data"]["dtype"]


@pytest.mark.parametrize("edit, message", [
    (_drop_spatial_dims, "{series} metadata: no key 'spatial_dims'"),
    (_two_spatial_dims, "{series} metadata key 'spatial_dims' must be "
                        "tuple[int, int, int], got [16, 16]"),
    (_drop_dtype, "{header} array 'data': no key 'dtype'"),
], ids=["no-spatial-dims", "two-spatial-dims", "no-dtype"])
def test_malformed_container_header_is_a_named_error(ground_truth, tmp_path, capsys,
                                                     edit, message):
    series = tmp_path / "series"
    dm.save_series(series, ph.load_ground_truth(ground_truth).clean_series)
    header = json.loads((series / "header.json").read_text())
    edit(header)
    (series / "header.json").write_text(json.dumps(header))
    assert cli.main(["fit", "--series", str(series), "--mask", str(ground_truth),
                     "--out", str(tmp_path / "t"), *FLAGS]) == 1
    assert capsys.readouterr().err == "error [fit]: " + message.format(
        series=series, header=series / "header.json") + "\n"
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("rank", ["0", "14"])
def test_recon_rank_outside_the_column_count_is_a_named_error(recon_inputs, tmp_path,
                                                              capsys, rank):
    # rejected before the preliminary solve
    _, root = recon_inputs
    assert cli.main(["recon", "--kspace", str(root / "kspace"),
                     "--coils", str(root / "coils"), "--rank", rank,
                     "--out", str(tmp_path / "out"), *FLAGS]) == 1
    assert capsys.readouterr().err == (
        f"error [recon]: rank must be in [1, 13], got {rank}\n")
    assert not (tmp_path / "out").exists()


def test_fit_takes_the_mask_of_a_ground_truth(ground_truth, tmp_path):
    gt = ph.load_ground_truth(ground_truth)
    dm.save_series(tmp_path / "series", gt.clean_series)
    assert cli.main(["fit", "--series", str(tmp_path / "series"),
                     "--mask", str(ground_truth), "--out", str(tmp_path / "t"),
                     *FLAGS]) == 0
    field = dti.load_tensors(tmp_path / "t")
    np.testing.assert_array_equal(field.mask, gt.myocardium_mask)


def test_fit_of_a_non_finite_series_is_a_numerical_failure(ground_truth, tmp_path,
                                                           capsys):
    gt = ph.load_ground_truth(ground_truth)
    data = gt.clean_series.data.copy()
    inside = np.flatnonzero(gt.myocardium_mask.ravel(order="F"))
    data[inside[0], 2] = np.nan
    dm.save_series(tmp_path / "series", gt.clean_series.with_data(data))
    assert cli.main(["fit", "--series", str(tmp_path / "series"),
                     "--mask", str(ground_truth), "--out", str(tmp_path / "t"),
                     *FLAGS]) == 2
    err = capsys.readouterr().err
    assert err == (f"numerical failure [fit]: tensor fit: 1 non-finite sample(s) "
                   f"of {inside.size * data.shape[1]} in the masked series\n")
    assert not (tmp_path / "t").exists()


def test_fit_mask_of_another_grid_is_a_named_error(ground_truth, tmp_path, capsys):
    gt = ph.load_ground_truth(ground_truth)
    dm.save_series(tmp_path / "series", gt.clean_series)
    wide = ph.PhantomConfig(grid=(20, 16, 3), r_endo=3, r_epi=6, n_coils=2, seed=1)
    ph.save_ground_truth(tmp_path / "wide", ph.build_phantom(wide))
    assert cli.main(["fit", "--series", str(tmp_path / "series"),
                     "--mask", str(tmp_path / "wide"), "--out", str(tmp_path / "t"),
                     *FLAGS]) == 1
    err = capsys.readouterr().err
    assert err == ("error [fit]: mask shape (20, 16, 3) does not match the series "
                   "grid (16, 16, 3)\n")
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("shape, found", [((2, 20, 16, 3), "(20, 16, 3) with 2"),
                                          ((3, 16, 16, 3), "(16, 16, 3) with 3")])
def test_recon_with_coils_of_another_grid_is_a_named_error(recon_inputs, tmp_path,
                                                           capsys, shape, found):
    cfg, root = recon_inputs
    dm.save_coils(tmp_path / "coils", dm.CoilMaps(np.ones(shape, complex)))
    assert cli.main(["recon", "--kspace", str(root / "kspace"),
                     "--coils", str(tmp_path / "coils"),
                     "--out", str(tmp_path / "out"), *FLAGS]) == 1
    err = capsys.readouterr().err
    assert err == ("error [recon]: k-space of grid (16, 16, 3) with 2 coil(s) does "
                   f"not match coil maps of grid {found}\n")
    assert not (tmp_path / "out").exists()


def _drop_array(container, name):
    """``container`` with the header entry of its array ``name`` removed."""
    header = json.loads((container / "header.json").read_text())
    del header["arrays"][name]
    (container / "header.json").write_text(json.dumps(header))


@pytest.mark.parametrize("command, name", [
    ("fit", "data"), ("metrics", "e1"), ("recon", "kept")])
def test_container_without_an_array_is_a_named_error(ground_truth, recon_inputs,
                                                     tmp_path, capsys, command, name):
    _, root = recon_inputs
    gt = ph.load_ground_truth(ground_truth)
    container = tmp_path / "in"
    if command == "fit":
        dm.save_series(container, gt.clean_series)
        argv = ["--series", str(container), "--mask", str(ground_truth)]
    elif command == "metrics":
        dti.save_tensors(container, dti.fit_tensors(gt.clean_series, gt.myocardium_mask))
        argv = ["--tensors", str(container)]
    else:
        encoding.save_kspace(container, encoding.load_kspace(root / "kspace"))
        argv = ["--kspace", str(container), "--coils", str(root / "coils")]
    _drop_array(container, name)
    assert cli.main([command, *argv, "--out", str(tmp_path / "out"), *FLAGS]) == 1
    assert capsys.readouterr().err == (
        f"error [{command}]: {container}: no '{name}' array in container\n")
    assert not (tmp_path / "out").exists()


def test_fit_mask_container_without_mask(ground_truth, tmp_path, capsys):
    gt = ph.load_ground_truth(ground_truth)
    dm.save_series(tmp_path / "series", gt.clean_series)
    assert cli.main(["fit", "--series", str(tmp_path / "series"),
                     "--mask", str(tmp_path / "series"), "--out", str(tmp_path / "t"),
                     *FLAGS]) == 1
    assert "no 'mask' array" in capsys.readouterr().err


def test_fit_mask_that_is_not_bool_is_a_named_error(ground_truth, tmp_path, capsys):
    # float ones would select every voxel of the grid as the mask
    gt = ph.load_ground_truth(ground_truth)
    dm.save_series(tmp_path / "series", gt.clean_series)
    dm.write_container(tmp_path / "ones",
                       {"mask": np.ones(gt.myocardium_mask.shape, np.float32)},
                       {"kind": "metric_maps"})
    assert cli.main(["fit", "--series", str(tmp_path / "series"),
                     "--mask", str(tmp_path / "ones"), "--out", str(tmp_path / "t"),
                     *FLAGS]) == 1
    assert capsys.readouterr().err == (
        f"error [fit]: {tmp_path / 'ones'}: 'mask' must be a bool array, got float32\n")
    assert not (tmp_path / "t").exists()


def test_metrics_tables_are_those_of_the_written_maps(ground_truth, tmp_path):
    # segments.csv holds the AHA means of the MD map and hat.csv the ray
    # slopes of the HA map, as plain numbers
    gt = ph.load_ground_truth(ground_truth)
    dti.save_tensors(tmp_path / "t", dti.fit_tensors(gt.clean_series,
                                                     gt.myocardium_mask))
    assert cli.main(["metrics", "--tensors", str(tmp_path / "t"),
                     "--out", str(tmp_path / "m"), *FLAGS]) == 0
    maps, _ = dm.read_container(tmp_path / "m" / "maps", names=("ha", "md", "mask"))
    mask = maps["mask"]
    rows = _read(tmp_path / "m" / "segments.csv")
    assert [int(r["segment"]) for r in rows] == list(range(1, 17))
    assert sum(int(r["n_voxels"]) for r in rows) == np.count_nonzero(mask)
    want = dti.regional_means(np.where(mask, maps["md"], np.nan),
                              dti.segment_aha16(mask))
    np.testing.assert_array_equal([float(r["mean_md"]) for r in rows], want)
    hat = dti.compute_hat(maps["ha"], mask)
    rows = _read(tmp_path / "m" / "hat.csv")
    np.testing.assert_array_equal([float(r["slope"]) for r in rows[:-1]],
                                  hat.ray_slopes.ravel())
    assert float(rows[-1]["slope"]) == hat.global_hat


def test_metrics_of_a_field_with_no_fitted_ray_is_a_numerical_failure(tmp_path,
                                                                      capsys):
    # a wall too thin for any ray: the study fails such a cell by the
    # same check, and the command writes nothing
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"grid": [16, 16, 3], "r_endo": 1, "r_epi": 2.2,
                                  "snr": None}))
    gt = tmp_path / "gt"
    assert cli.main(["phantom", "--params", str(params), "--out", str(gt), *FLAGS]) == 0
    dm.save_series(tmp_path / "series", ph.load_ground_truth(gt).clean_series)
    assert cli.main(["fit", "--series", str(tmp_path / "series"), "--mask", str(gt),
                     "--out", str(tmp_path / "t"), *FLAGS]) == 0
    capsys.readouterr()
    field = dti.load_tensors(tmp_path / "t")
    md = float(dti.mean_diffusivity(field)[field.mask].mean())
    out = tmp_path / "m"
    assert cli.main(["metrics", "--tensors", str(tmp_path / "t"), "--out", str(out),
                     *FLAGS]) == 2
    assert capsys.readouterr().err == (
        f"numerical failure [metrics]: non-finite metrics: HAT nan, MD {md} "
        f"(75 of 75 rays skipped)\n")
    assert not out.exists()
    with pytest.raises(NumericalError, match=r"\(75 of 75 rays skipped\)"):
        pipeline._series_metrics(dm.load_series(tmp_path / "series"), field.mask, None)


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
    ("run", "--plan", '{"n_subjects": 1, "solver": {"cg_max_iters": 0}, '
     '"output_dir": "{out}"}', "cg_max_iters must be >= 1, got 0"),
    ("run", "--plan", '{"n_subjects": 1, "solver": {"cg_tol": 1e-6}, '
     '"output_dir": "{out}"}', "unknown SolverConfig key(s): 'cg_tol'"),
    ("run", "--plan", '{"n_subjects": 1, "solver": {"alpha_decay": 1.2}, '
     '"output_dir": "{out}"}', "unknown SolverConfig key(s): 'alpha_decay'"),
    ("run", "--plan", '{"n_subjects": 1, "lambda_scale": -0.01, "output_dir": "{out}"}',
     "lambda_scale must be >= 0 or null, got -0.01"),
    ("phantom", "--params", '{"md_true": -1e-3}', "md_true must be positive"),
    ("phantom", "--params", '{"n_coils": 0}', "n_coils must be >= 1, got 0"),
    ("phantom", "--params", '{"b_values": [1000]}',
     "b_values must hold 0 exactly once, got [1000.0]"),
    ("phantom", "--params", '{"b_values": [0]}',
     "b_values must hold a nonzero b value, got [0.0]"),
    ("run", "--plan", '{"n_subjects": 1, "base_config": {"b_values": [0, 0, 1000]}, '
     '"output_dir": "{out}"}', "b_values must hold 0 exactly once, got [0.0, 0.0, 1000.0]"),
    ("run", "--plan", '{"n_subjects": 1, "rank": 0, "output_dir": "{out}"}',
     "rank must be >= 1, got 0"),
    ("run", "--plan", '{"n_subjects": 1, "rank": null, "output_dir": "{out}"}',
     "ExperimentPlan key 'rank' must be int, got null"),
    ("run", "--plan", '{"n_subjects": 1, "lambda_scale": NaN, "output_dir": "{out}"}',
     "ExperimentPlan key 'lambda_scale' must be float | None, got NaN"),
    ("run", "--plan", '{"n_subjects": 1, "R_list": [NaN], "output_dir": "{out}"}',
     "ExperimentPlan key 'R_list' must be tuple[float, ...], got [NaN]"),
    ("phantom", "--params", '{"phase_coef_range": Infinity}',
     "PhantomConfig key 'phase_coef_range' must be float, got Infinity"),
    ("run", "--plan", '{"n_subjects": 1, "methods": ["lrx"], "output_dir": "{out}"}',
     "'lrx' is not a valid Method"),
    ("run", "--plan", '{"n_subjects": 1, "phase_modes": ["lowres"], '
     '"output_dir": "{out}"}', "'lowres' is not a valid PhaseMode"),
    ("run", "--plan", '{"n_subjects": 1, "base_config": {"r_epi": 40}, '
     '"output_dir": "{out}"}', "need 0 < r_endo < r_epi"),
    ("run", "--plan", '{"n_subjects": 1, "geom_jitter_vox": -1, "output_dir": "{out}"}',
     "geom_jitter_vox must be >= 0, got -1"),
    ("run", "--plan", '{"n_subjects": 1, "ha_jitter_deg": -5, "output_dir": "{out}"}',
     "ha_jitter_deg must be >= 0, got -5"),
    ("run", "--plan", '{"n_subjects": 1, "md_jitter_frac": -0.1, "output_dir": "{out}"}',
     "md_jitter_frac must be >= 0, got -0.1"),
    ("run", "--plan", '{"n_subjects": 1, "threads": -3, "output_dir": "{out}"}',
     "threads must be >= 1, got -3"),
    ("run", "--plan", '{"n_subjects": 1, "rank": 20, "output_dir": "{out}"}',
     "rank 20 exceeds the column count 13"),
    ("run", "--plan", '{"n_subjects": 1, "R_list": [2, 2.0], "output_dir": "{out}"}',
     "R_list has a repeated entry: [2.0, 2.0]"),
    ("run", "--plan", '{"n_subjects": 1, "methods": ["lr", "cs", "lr"], '
     '"output_dir": "{out}"}', "methods has a repeated entry: ['lr', 'cs', 'lr']"),
    ("run", "--plan", '{"n_subjects": 1, "phase_modes": ["none", "none"], '
     '"output_dir": "{out}"}', "phase_modes has a repeated entry: ['none', 'none']"),
    ("run", "--plan", '{"n_subjects": 1, "methods": [], "output_dir": "{out}"}',
     "methods is empty: the plan has no cell"),
    ("run", "--plan", '{"n_subjects": 1, "R_list": [], "output_dir": "{out}"}',
     "R_list is empty: the plan has no cell"),
    ("phantom --seed -1", "--params", '{"grid": [16, 16, 3], "r_endo": 3, "r_epi": 6}',
     "seed must be >= 0, got -1"),
    ("phantom", "--params", '{"seed": -3}', "seed must be >= 0, got -3"),
    ("phantom", "--config", '{"seed": -1}', "key 'seed': seed must be >= 0, got -1"),
    ("run", "--plan", '{"n_subjects": 1, "master_seed": -1, "output_dir": "{out}"}',
     "master_seed must be >= 0, got -1"),
])
def test_bad_plan_or_params_is_a_named_error(tmp_path, capsys, command, flag,
                                             content, message):
    # rejected before any work: no study or ground truth is written;
    # ``command`` may carry flags after the command's name
    out = tmp_path / "out"
    path = tmp_path / "input.json"
    path.write_text(content.replace("{out}", str(out)))
    argv = [*command.split(), flag, str(path), *FLAGS]
    if argv[0] == "phantom":
        argv += ["--out", str(out)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error [{argv[0]}]: ")
    # a bad value is named by its source: the flag that set it, or the file
    if "--seed" in command:
        assert f"--seed: {message}" in err and str(path) not in err
    else:
        assert str(path) in err and message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_negative_seed_flag_without_params_is_a_named_error(tmp_path, capsys):
    assert cli.main(["phantom", "--seed", "-1", "--out", str(tmp_path / "gt"),
                     *FLAGS]) == 1
    assert capsys.readouterr().err == "error [phantom]: --seed: seed must be >= 0, got -1\n"
    assert not (tmp_path / "gt").exists()


@pytest.mark.parametrize("case, reason", [
    ("eval-of-a-binary-file", "not a text table ('utf-8' codec can't decode"),
    ("eval-of-a-directory", "Is a directory"),
    ("phantom-under-a-file", "Not a directory"),
    ("run-into-a-file", "File exists"),
])
def test_file_system_error_is_a_named_error(tmp_path, capsys, case, reason):
    # the reason and the path, exit 1 and no traceback
    file = tmp_path / "file"
    file.write_bytes(b"\xff\xfe\x00 not a table")
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"n_subjects": 1, "output_dir": str(file)}))
    argv = {"eval-of-a-binary-file": ["eval", "--summary", str(file)],
            "eval-of-a-directory": ["eval", "--summary", str(tmp_path)],
            "phantom-under-a-file": ["phantom", "--out", str(file / "gt")],
            "run-into-a-file": ["run", "--plan", str(plan)]}[case]
    if argv[0] == "eval":
        argv += ["--out", str(tmp_path / "eval" / "stats.csv")]
    assert cli.main([*argv, *FLAGS]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error [{argv[0]}]: ")
    assert reason in err and str(argv[2] if argv[0] != "run" else file) in err
    assert "Traceback" not in err
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("config, message, command", [
    ({"threads": "x"}, "key 'threads' must be int, got \"x\"", "phantom"),
    ({"seed": 1.5}, "key 'seed' must be int, got 1.5", "phantom"),
    ({"phase": "lowres"},
     "key 'phase' must be one of 'none', 'proposed', got \"lowres\"", "recon"),
])
def test_config_value_of_the_wrong_type_is_a_named_error(recon_inputs, tmp_path,
                                                         capsys, config, message,
                                                         command):
    _, root = recon_inputs
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = {"phantom": ["phantom"],
            "recon": ["recon", "--kspace", str(root / "kspace"),
                      "--coils", str(root / "coils")]}[command]
    assert cli.main([*argv, "--out", str(out), "--config", str(path),
                     "--log-level", "warning"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error [{command}]: ")
    assert f"config {path} {message}" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["recon", "--kspace", "k", "--coils", "c", "--phase", "lowres", "--out", "o"],
     "argument --phase: invalid choice: 'lowres'"),
    (["simulate", "--truth", "t", "--out", "o", "--scheme", "proposed"],
     "unrecognized arguments: --scheme proposed"),
    (["recon", "--kspace", "k", "--coils", "c", "--lambda-grid", "--out", "o"],
     "unrecognized arguments: --lambda-grid"),
    (["recon", "--kspace", "k", "--out", "o"],
     "the following arguments are required: --coils"),
], ids=["bad-choice", "removed-flag", "removed-lambda-grid", "missing-required"])
def test_usage_error_exits_one(capsys, argv, message):
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: lrcs-cdti ")
    assert message in err


def test_help_exits_zero(capsys):
    assert cli.main(["recon", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--phase {none,proposed}" in out
    words = " ".join(out.split())
    assert ("--rank RANK subspace rank of lr and lrcs (default 7: S0 and the six "
            "tensor entries)") in words
    assert ("--lambda-scale LAMBDA_SCALE weight as a fraction of max |Psi A*(d)| "
            "(default 0.01)") in words


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
    # leaves the keys of recon, simulate and run alone
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"grid": [16, 16, 3], "r_endo": 3, "r_epi": 6,
                                  "n_coils": 2}))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 4, "iters": 3, "lambda-scale": 0.1,
                                "R": 2, "plan": "plan.json", "log_level": "warning"}))
    assert cli.main(["phantom", "--params", str(params), "--out", str(tmp_path / "gt"),
                     "--config", str(path)]) == 0
    assert ph.load_ground_truth(tmp_path / "gt").config.seed == 4


def test_consecutive_calls_do_not_share_config_values(ground_truth, tmp_path):
    # main parses every call with one parser, built once per process; a
    # config's values fill that call's namespace alone
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    first.write_text(json.dumps({"R": 3, "seed": 4}))
    second.write_text(json.dumps({"log-level": "warning"}))
    for config, R in ((first, 3.0), (second, 1.0), (first, 3.0)):
        out = tmp_path / f"sim_{config.stem}"
        assert cli.main(["simulate", "--truth", str(ground_truth), "--out", str(out),
                         "--config", str(config), *FLAGS]) == 0
        assert encoding.load_kspace(out / "kspace").mask.R_nominal == R
    for config, seed in ((first, 4), (second, 0)):
        out = tmp_path / f"gt_{config.stem}"
        assert cli.main(["phantom", "--out", str(out), "--config", str(config),
                         *FLAGS]) == 0
        assert ph.load_ground_truth(out).config.seed == seed
    assert cli._parser() is cli._parser()


def test_zero_flag_values_are_values(ground_truth, recon_inputs, tmp_path, capsys):
    # 0 is not "unset": each command rejects it with a named error
    _, root = recon_inputs
    runs = [(["simulate", "--truth", str(ground_truth), "--R", "0"],
             "acceleration factor must be >= 1, got 0.0"),
            (["recon", "--kspace", str(root / "kspace"), "--coils", str(root / "coils"),
              "--iters", "0"], "max_iters must be >= 1, got 0")]
    for argv, message in runs:
        out = tmp_path / argv[0]
        assert cli.main([*argv, "--out", str(out), *FLAGS]) == 1
        assert capsys.readouterr().err == f"error [{argv[0]}]: {message}\n"
        assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["recon", "--lambda", "nan"], "lambda must be finite and >= 0, got nan"),
    (["recon", "--lambda", "inf"], "lambda must be finite and >= 0, got inf"),
    (["recon", "--lambda-scale", "nan"], "lambda must be finite and >= 0, got nan"),
    (["simulate", "--R", "nan"], "acceleration factor must be >= 1, got nan"),
], ids=["lambda-nan", "lambda-inf", "lambda-scale-nan", "R-nan"])
def test_non_finite_flag_values_are_named_errors(ground_truth, recon_inputs, tmp_path,
                                                 capsys, monkeypatch, argv, message):
    # rejected before any CG solve
    def no_solve(*args):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(recon, "first_solve", no_solve)
    _, root = recon_inputs
    command, *flags = argv
    inputs = {"recon": ["--kspace", str(root / "kspace"), "--coils", str(root / "coils")],
              "simulate": ["--truth", str(ground_truth)]}[command]
    out = tmp_path / "out"
    assert cli.main([command, *inputs, *flags, "--out", str(out), *FLAGS]) == 1
    assert capsys.readouterr().err == f"error [{command}]: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag, config, message", [
    (["--threads", "0"], None, "--threads must be >= 1, got 0"),
    ([], {"threads": 0}, "--threads must be >= 1, got 0"),
])
def test_thread_count_below_one_is_a_named_error(tmp_path, capsys, flag, config,
                                                 message):
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        flag = ["--config", str(tmp_path / "config.json")]
    out = tmp_path / "gt"
    assert cli.main(["phantom", "--out", str(out), *flag, "--log-level", "warning"]) == 1
    assert capsys.readouterr().err == f"error [phantom]: {message}\n"
    assert not out.exists()


def test_import_leaves_scipy_stats_out(study, ground_truth, recon_inputs, tmp_path):
    # encoding transforms with numpy.fft and smooths with a numpy
    # Gaussian, and CG updates its iterate and residual with numpy in
    # place, so no command loads a scipy module, recon included
    plan, _ = study
    _, root = recon_inputs
    dm.save_series(tmp_path / "series", ph.load_ground_truth(ground_truth).clean_series)
    commands = [
        ["phantom", "--out", str(tmp_path / "gt")],
        ["fit", "--series", str(tmp_path / "series"), "--mask", str(ground_truth),
         "--out", str(tmp_path / "tensors")],
        ["metrics", "--tensors", str(tmp_path / "tensors"), "--out", str(tmp_path / "m")],
        ["eval", "--summary", str(Path(plan.output_dir) / "summary.csv"),
         "--out", str(tmp_path / "eval.csv")],
        ["recon", "--kspace", str(root / "kspace"), "--coils", str(root / "coils"),
         "--iters", "1", "--out", str(tmp_path / "recon")]]
    code = ("import json, sys\n"
            "from lrcs_cdti import cli\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "loaded = [scipy_modules()]\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert cli.main(argv) == 0, argv\n"
            "    loaded.append(scipy_modules())\n"
            "print(json.dumps(loaded))\n")
    argvs = [[*argv, *FLAGS] for argv in commands]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, check=True)
    *no_solve, after_recon = json.loads(done.stdout)
    assert no_solve == [[]] * 5   # import, phantom, fit, metrics, eval
    assert after_recon == []


def test_log_level_is_set_on_every_call(tmp_path):
    # logging.basicConfig sets no level once the root logger has a
    # handler, so a second call in one process must set it itself
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"grid": [16, 16, 3], "r_endo": 3, "r_epi": 6,
                                  "n_coils": 2}))
    root = logging.getLogger()
    before = root.level
    try:
        for level in ("warning", "debug"):
            assert cli.main(["phantom", "--params", str(params),
                             "--out", str(tmp_path / level), "--threads", "1",
                             "--log-level", level]) == 0
            assert root.level == getattr(logging, level.upper())
    finally:
        root.setLevel(before)
