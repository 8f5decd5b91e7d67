import csv
import gc
import json
import logging
import re
import threading
import tracemalloc
import weakref
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lrcs_cdti import datamodel as dm
from lrcs_cdti import dti, encoding, pipeline
from lrcs_cdti import phantom as ph
from lrcs_cdti.errors import NumericalError, ValidationError
from treediff import differing_files

# Mean bias over the three subjects of the ``study`` fixture, per
# (method, phase mode); re-recorded when CG began updating its iterate
# and residual with BLAS axpy and the ADMM began adding its (rho/2)
# shift inside the normal operator, which changes the float32
# rounding of the solves (each value moved by at most 4.7e-7
# absolute, 1.8e-6 relative; bit-identical under 1 and 2 BLAS
# threads); re-recorded again when the complex64 adjoint moved to
# numpy.fft, whose per-axis scaling rounds about 1 ulp differently
# on the 32x32 grid (at most 1.8e-6 absolute, 7.0e-6 relative, in
# the lrcs/proposed HAT bias; bit-identical per cell with a scipy.fft
# adjoint); re-recorded again when CG moved from BLAS axpy to numpy
# in-place updates, which round step * (H p) and then subtract where
# OpenBLAS caxpy fuses the multiply-add (at most 1.1e-6 absolute,
# 4.3e-6 relative, in the lrcs/proposed HAT bias, every other value
# at most 6.9e-8 absolute; bit-identical under 1 and 2 BLAS threads);
# re-recorded again when the reference became the closed-form coil
# combination (encoding.coil_combine) in place of a complex64 CG solve
# capped at 30 steps: every cell's HAT and MD are unchanged, and only
# the reference moved (each value at most 1.1e-8 absolute); re-recorded
# again when the lrcs ADMM moved its wavelet side (transform, shrink,
# dual, back-projection) from X's N columns to U's L columns, exact for
# V with orthonormal rows and rounded differently in complex64: only the
# lrcs values moved, lrcs/none by -3.06e-8 (HAT) and -3.6e-9 (MD),
# lrcs/proposed by +3.14e-8 (HAT) and +3.8e-10 (MD); no cell moved by
# more than 1.4e-7 absolute; re-recorded again when the phased model
# began keeping its phase map P once, in complex64, so that the
# returned X = P o (U V) of lr and lrcs takes P at float32 rounding:
# only the proposed cells of lr and lrcs moved, lr by +1.26e-8 (HAT)
# and -3.6e-10 (MD), lrcs by +3.61e-9 (HAT) and -3.4e-10 (MD).
PINNED = {
    ("cs", "none"): (0.1498297501696131, 0.05284452104450287),
    ("cs", "proposed"): (0.1498297501696131, 0.05284452104450287),
    ("lr", "none"): (0.6546175041526913, 0.21573429020640833),
    ("lr", "proposed"): (0.20974463778024297, 0.05350957238217313),
    ("lrcs", "none"): (0.6098281575259447, 0.30193324387381854),
    ("lrcs", "proposed"): (0.2586290075815172, 0.050836875887244726),
}


def _cells(result):
    return [r for r in result["summary"] if r["method"] != "reference"]


def test_dispatch_covers_every_method_and_phase_mode(study):
    plan, result = study
    cells = _cells(result)
    assert all(r["ok"] for r in cells), [r["error"] for r in cells if not r["ok"]]
    combos = {(r["method"], r["phase_mode"]) for r in cells}
    assert combos == {(m, p) for m in plan.methods for p in plan.phase_modes}
    assert len(cells) == plan.n_subjects * len(combos)
    reports = {(c.method, c.report["method"]) for c in result["cells"]}
    assert reports == {("lr", "lr"), ("cs", "cs"), ("lrcs", "lrcs")}


def test_coil_maps_come_from_the_zero_filled_b0_column(study):
    # the maps are taken from the complex128 coil grids, of which the R=1
    # mask keeps the whole b=0 column
    plan, _ = study
    for i in range(plan.n_subjects):
        inputs = pipeline.prepare_subject(plan, i)
        cfg = pipeline.subject_config(plan, i)
        kspace = list(pipeline.coil_grids(
            *pipeline.acquisition_inputs(ph.build_phantom(cfg))))
        _, ny, nz = cfg.grid
        mask = encoding.make_sampling_mask(ny, nz, cfg.column_labels, R=1, seed=cfg.seed)
        kept = mask.kept.transpose(2, 1, 0)[:, :, :, None]
        grid = np.stack([np.where(np.broadcast_to(kept, k_c.shape), k_c, 0)
                         for k_c in kspace])
        want = encoding.estimate_coil_maps(
            encoding.ifft2c(grid[:, 0]).transpose(0, 3, 2, 1))
        np.testing.assert_array_equal(inputs.coil_maps.maps, want.maps)


def _arrays(obj, found=None) -> dict[int, np.ndarray]:
    """Every numpy array that ``obj`` reaches through its attributes,
    containers and the arrays' bases, by id."""
    found = {} if found is None else found
    if isinstance(obj, np.ndarray):
        if id(obj) not in found:
            found[id(obj)] = obj
            if obj.base is not None:
                _arrays(obj.base, found)
    elif isinstance(obj, dict):
        for value in obj.values():
            _arrays(value, found)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            _arrays(value, found)
    elif hasattr(obj, "__dict__"):
        _arrays(vars(obj), found)
    return found


def test_a_prepared_subject_holds_its_samples_not_its_grid(study):
    # per R of the plan, the kept entries of the complex128 coil grids in
    # the solver's precision, 8 bytes each, and no full grid of any coil
    plan, _ = study
    plan = replace(plan, R_list=(6.0, 2.0))
    inputs = pipeline.prepare_subject(plan, 0)
    cfg = pipeline.subject_config(plan, 0)
    nx, ny, nz = cfg.grid
    n_cols = len(cfg.column_labels)
    kspace = list(pipeline.coil_grids(*pipeline.acquisition_inputs(ph.build_phantom(cfg))))
    assert list(inputs.noisy_kspace) == [6.0, 2.0]
    for R, d in inputs.noisy_kspace.items():
        mask = encoding.make_sampling_mask(ny, nz, cfg.column_labels, R=R,
                                           seed=cfg.seed)
        np.testing.assert_array_equal(d.mask.kept, mask.kept)
        kept = mask.kept.transpose(2, 1, 0)[None, :, :, :, None]
        want = np.stack(kspace)[np.broadcast_to(kept, (cfg.n_coils, n_cols, nz, ny, nx))]
        assert d.samples.dtype == encoding.EncodingModel.dtype
        assert d.samples.nbytes == cfg.n_coils * nx * np.count_nonzero(mask.kept) * 8
        np.testing.assert_array_equal(d.samples,
                                      want.astype(encoding.EncodingModel.dtype))
    shapes = {a.shape for a in _arrays(inputs).values()}
    assert not shapes & {(cfg.n_coils, n_cols, nz, ny, nx), (n_cols, nz, ny, nx)}


def test_acquire_is_one_noise_draw_of_the_whole_grid(study):
    # each coil's grid is its slice of the whole grid noised in one draw,
    # and a second run replays the same grids
    plan, _ = study
    gt = ph.build_phantom(pipeline.subject_config(plan, 1))
    scan = pipeline.acquisition_inputs(gt)
    whole = ph.add_noise(encoding.coil_kspace(gt.clean_series, gt.coils, gt.phase),
                         gt.config.snr, ph.mean_s0(gt), seed=gt.config.seed)
    for _ in range(2):
        kspace = list(pipeline.coil_grids(*scan))
        assert [k_c.dtype for k_c in kspace] == [np.complex128] * gt.config.n_coils
        assert np.array_equal(np.stack(kspace).view(np.uint64), whole.view(np.uint64))


@pytest.mark.parametrize("snr", [30.0, None])
def test_the_acquisition_matches_a_list_of_grids_oracle(snr):
    # the two passes of prepare_subject against the whole grid noised in
    # one draw and kept in full: the coil maps, the reference series and
    # each R's packed samples are byte-identical
    plan = pipeline.ExperimentPlan(
        n_subjects=1, R_list=(2.0, 3.0), save_arrays=False,
        base_config={"grid": [16, 16, 3], "r_endo": 3, "r_epi": 6, "snr": snr})
    refs = []
    real_combine = pipeline.encoding.coil_combine

    def watched_combine(kgrids, coils):
        refs.append(real_combine(kgrids, coils))
        return refs[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline.encoding, "coil_combine", watched_combine)
        inputs = pipeline.prepare_subject(plan, 0)
    gt = ph.build_phantom(pipeline.subject_config(plan, 0))
    whole = ph.add_noise(encoding.coil_kspace(gt.clean_series, gt.coils, gt.phase),
                         gt.config.snr, ph.mean_s0(gt), seed=gt.config.seed)
    grids = list(whole)
    maps = encoding.estimate_coil_maps(
        encoding.ifft2c(whole[:, 0]).transpose(0, 3, 2, 1))

    def same_bytes(a, b):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    assert same_bytes(inputs.coil_maps.maps, maps.maps)
    [ref] = refs
    assert same_bytes(ref, encoding.coil_combine(grids, maps))
    assert list(inputs.noisy_kspace) == [2.0, 3.0]
    for R, d in inputs.noisy_kspace.items():
        want = encoding.extract_samples(grids, pipeline.sampling_mask(gt.config, R))
        assert same_bytes(d.samples, want.samples)
        np.testing.assert_array_equal(d.mask.kept, want.mask.kept)
        assert (d.spatial_dims, d.n_coils) == (want.spatial_dims, want.n_coils)


def test_prepare_subject_drops_the_grids_before_the_reference_metrics(
        study, monkeypatch):
    # the reference's tensor fit is the first, and the coil grids of both
    # passes (the noise draws they are views of) are gone when it starts
    real_grids, real_fit = pipeline.coil_grids, pipeline.dti.fit_tensors
    grids, alive_at_fit = [], []

    def watched_grids(*args):
        for k_c in real_grids(*args):
            grids.append(weakref.ref(k_c.base))
            yield k_c
            del k_c

    def watched_fit(series, mask):
        gc.collect()
        alive_at_fit.append([ref() is not None for ref in grids])
        return real_fit(series, mask)

    monkeypatch.setattr(pipeline, "coil_grids", watched_grids)
    monkeypatch.setattr(pipeline.dti, "fit_tensors", watched_fit)
    plan, _ = study
    pipeline.prepare_subject(plan, 0)
    assert alive_at_fit == [[False] * 8]


def test_prepare_subject_drops_the_truth_before_the_coil_grids(study, monkeypatch):
    # the truth's clean series and phase (and the arrays they are views
    # of) are dead once the first coil grid exists; the phased series
    # that acquire reads is made of them before
    real_build, real_coil_kspace = pipeline.phantom.build_phantom, encoding.coil_kspace
    truth, alive_at_grid = [], []

    def watched_build(cfg):
        gt = real_build(cfg)
        for arr in (gt.clean_series.data, gt.phase.values):
            truth.extend(weakref.ref(a) for a in (arr, arr.base) if a is not None)
        truth.extend([weakref.ref(gt.clean_series), weakref.ref(gt.phase)])
        return gt

    def watched_coil_kspace(*args):
        grid = real_coil_kspace(*args)
        gc.collect()
        alive_at_grid.append([ref() is not None for ref in truth])
        return grid

    monkeypatch.setattr(pipeline.phantom, "build_phantom", watched_build)
    monkeypatch.setattr(pipeline.encoding, "coil_kspace", watched_coil_kspace)
    plan, _ = study
    pipeline.prepare_subject(plan, 0)
    assert len(truth) >= 4
    assert alive_at_grid[0] == [False] * len(truth)


def test_the_acquisition_holds_one_coils_grids_and_the_reference():
    # prepare_subject's two passes, traced from the phased series they
    # read: above the start, they hold what they return (the packed
    # samples, the coil maps and the reference series) and two grids of
    # one coil at a time (its clean grid and noise draw, or its noisy
    # grid and image), besides per-column arrays under half a grid in
    # all; holding every coil's grid at once, as one pass over kept grids
    # does, is at least two grids more
    gt = ph.build_phantom(ph.PhantomConfig())
    nx, ny, nz = gt.config.grid
    coil_bytes = (len(gt.config.column_labels) * nx * ny * nz
                  * np.dtype(np.complex128).itemsize)
    scan = pipeline.acquisition_inputs(gt)
    masks = [pipeline.sampling_mask(gt.config, R) for R in (2.0, 6.0)]
    del gt
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        samples, coils = pipeline.acquire(*scan, masks)
        ref = encoding.coil_combine(pipeline.coil_grids(*scan), coils)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = sum(d.samples.nbytes for d in samples) + coils.maps.nbytes
    assert ref.nbytes == coil_bytes
    assert peak - start <= kept + ref.nbytes + 2 * coil_bytes + coil_bytes // 2


def test_a_one_subject_study_peaks_below_eleven_series(study, tmp_path):
    # the conftest solver settings on one subject at R=2, traced on its
    # second run in the process (the first fills numpy's and the
    # allocator's caches); the peak above the start counts every array
    # the study makes, in units of its complex128 (M, N) series
    plan, _ = study
    plan = replace(plan, n_subjects=1, phase_modes=("proposed",),
                   output_dir=str(tmp_path / "first"))
    nx, ny, nz = plan.base_phantom.grid
    series_bytes = (nx * ny * nz * len(plan.base_phantom.column_labels)
                    * np.dtype(np.complex128).itemsize)
    pipeline.run_experiment(plan)
    plan = replace(plan, output_dir=str(tmp_path / "second"))
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        result = pipeline.run_experiment(plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(c.ok for c in result["cells"])
    assert (peak - start) / series_bytes <= 11


def test_biases_pinned(study):
    _, result = study
    cells = _cells(result)
    for (method, mode), (hat, md) in PINNED.items():
        group = [r for r in cells if (r["method"], r["phase_mode"]) == (method, mode)]
        assert len(group) == 3
        assert abs(np.mean([r["hat_bias"] for r in group]) - hat) <= 1e-9
        assert abs(np.mean([r["md_bias"] for r in group]) - md) <= 1e-9


def test_stats_rows_and_pmaps(study):
    plan, result = study
    out = Path(plan.output_dir)
    with open(out / "stats.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * len(PINNED)
    for row in rows:
        hat, md = PINNED[(row["method"], row["phase_mode"])]
        assert float(row["bias_mean"]) == pytest.approx(
            hat if row["metric"] == "hat" else md, abs=1e-9)
    assert len(list(out.glob("pmap_*.csv"))) == 2 * len(PINNED)


def test_stats_csv_of_a_group_with_no_variance(tmp_path):
    # every subject has the same reference and reconstruction values: the
    # ICC is undefined and no difference is left for the Wilcoxon test
    dm.write_table(tmp_path / "summary.csv",
                   ["subject", "R", "method", "phase_mode", "ok", "hat", "md"],
                   [(s, R, method, mode, True, 0.5, 1e-3) for s in range(3)
                    for R, method, mode in ((1.0, "reference", ""),
                                            (2.0, "lrcs", "proposed"))])
    rows = pipeline.evaluate(tmp_path / "summary.csv", tmp_path / "stats.csv")
    with open(tmp_path / "stats.csv", newline="") as fh:
        written = list(csv.DictReader(fh))
    assert len(rows) == len(written) == 2
    for row in written:
        assert (row["bias_mean"], row["bias_std"]) == ("0.0", "0.0")
        assert (row["icc"], row["icc_band"], row["p"]) == ("nan", "Undefined", "1.0")
    assert not list(tmp_path.glob("pmap_*.csv"))


def test_summary_says_how_each_cell_was_solved(study):
    plan, result = study
    with open(Path(plan.output_dir) / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    reports = {(c.subject, c.method, c.phase_mode): c.report for c in result["cells"]}
    for row in rows:
        if row["method"] == "reference":
            assert [row[k] for k in pipeline.SOLVE_FIELDS] == [""] * 5
            continue
        report = reports[(int(row["subject"]), row["method"], row["phase_mode"])]
        assert float(row["lambda"]) == report["lambda"]
        assert row["stop_reason"] == report["stop_reason"]
        assert int(row["cg_iters"]) == sum(report["cg_iterations"])
        assert float(row["solve_s"]) == report["wall_time_s"] > 0
        # lr is the lambda = 0 limit: one CG solve, no ADMM iteration
        if row["method"] == "lr":
            assert float(row["lambda"]) == 0.0 and int(row["admm_iters"]) == 0
        else:
            assert float(row["lambda"]) > 0
            assert int(row["admm_iters"]) == plan.solver["max_iters"]
            assert row["stop_reason"] == "iteration cap K = 5"


def _tiny_plan(tmp_path, r_epi):
    return pipeline.ExperimentPlan(
        n_subjects=3, master_seed=0, R_list=(2.0,), methods=("cs",),
        phase_modes=("proposed",), lambda_scale=1e-2, rank=7,
        solver={"max_iters": 2, "cg_max_iters": 4}, save_arrays=False,
        base_config={"grid": [24, 24, 3], "r_endo": 4, "r_epi": r_epi},
        output_dir=str(tmp_path))


@pytest.mark.parametrize("first, second, stale", [
    # a study of fewer R values would leave the old R's p-maps
    ({"R_list": (2.0, 4.0)}, {"R_list": (2.0,)}, "pmap_*_R4_*.csv"),
    # one whose R=20 cells succeed on a wider grid would leave the
    # tracebacks of their failure on this one
    ({"n_subjects": 1, "R_list": (20.0,)},
     {"n_subjects": 1, "R_list": (20.0,),
      "base_config": {"grid": [24, 80, 3], "r_endo": 4, "r_epi": 9}},
     "subject00/R20/*/error.txt"),
])
def test_a_study_is_not_written_over_another(tmp_path, first, second, stale):
    plan = replace(_tiny_plan(tmp_path, 9), geom_jitter_vox=0)
    pipeline.run_experiment(replace(plan, **first))
    tree = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert list(tmp_path.glob(stale))
    with pytest.raises(ValidationError, match=f"output_dir {re.escape(str(tmp_path))} "
                                              "already holds a study"):
        pipeline.run_experiment(replace(plan, **second))
    # refused before anything was written, and nothing deleted
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == tree


@pytest.mark.parametrize("r_epi, error", [
    # subject 2 jitters to r_endo 6, r_epi 7: a one-voxel wall where every
    # HAT ray is skipped, so the reference HAT is NaN
    (9, "NumericalError"),
    # subject 2 jitters to r_endo 6, r_epi 4, which PhantomConfig rejects
    (6, "ValidationError"),
])
def test_failed_subject_is_recorded_not_fatal(tmp_path, r_epi, error):
    plan = _tiny_plan(tmp_path, r_epi)
    result = pipeline.run_experiment(plan)
    refs = [r for r in result["summary"] if r["method"] == "reference"]
    assert [r["ok"] for r in refs] == [True, True, False]
    rows = [r for r in result["summary"] if r["subject"] == 2]
    assert [r["method"] for r in rows] == ["reference", "cs"]
    for row in rows:
        assert row["ok"] is False
        assert all(row[k] == "" for k in pipeline.SOLVE_FIELDS)
        assert row["error"].startswith(f"lrcs_cdti.errors.{error}")
        assert np.isnan(row["hat"])
    assert all(np.isfinite(r["hat"]) and r["error"] == "" for r in refs[:2])
    cells = [c for c in result["cells"] if c.subject != 2]
    assert cells and all(c.ok and np.isfinite(c.metrics.hat) for c in cells)
    # a group with a failed cell gives no statistics
    assert result["stats"] == []
    # the full traceback is on disk, down to the frame that raised
    text = (tmp_path / "subject02" / "error.txt").read_text()
    assert text.startswith("Traceback (most recent call last)")
    assert text.rstrip().splitlines()[-1] == rows[0]["error"]
    frame = {"NumericalError": "_series_metrics",
             "ValidationError": "__post_init__"}[error]
    assert f"in {frame}" in text
    assert sorted(p.relative_to(tmp_path).as_posix()
                  for p in tmp_path.rglob("error.txt")) == ["subject02/error.txt"]


@pytest.mark.parametrize("changes, message", [
    ({"lambda_scale": float("nan")}, "lambda_scale must be >= 0 or null, got nan"),
    ({"R_list": (float("nan"),)}, "R_list entries must be >= 1, got [nan]"),
    ({"ha_jitter_deg": float("nan")}, "ha_jitter_deg must be >= 0, got nan"),
    ({"master_seed": -1}, "master_seed must be >= 0, got -1"),
    ({"R_list": ()}, "R_list is empty: the plan has no cell"),
    ({"methods": ()}, "methods is empty: the plan has no cell"),
    ({"phase_modes": []}, "phase_modes is empty: the plan has no cell"),
], ids=["lambda-scale-nan", "R-nan", "ha-jitter-nan", "master-seed-negative",
        "no-R", "no-method", "no-phase-mode"])
def test_a_plan_no_subject_can_run_is_rejected_when_built(changes, message):
    # a plan built in Python meets no JSON codec, which rejects NaN
    with pytest.raises(ValidationError, match=re.escape(message)):
        pipeline.ExperimentPlan(**changes)


@pytest.mark.parametrize("plan", [
    pipeline.ExperimentPlan(),
    pipeline.ExperimentPlan(base_config={"grid": [32, 32, 3], "r_endo": 6, "r_epi": 12}),
], ids=["default", "32x32x3"])
def test_every_subject_mask_is_centered_on_its_config_center(plan):
    # HA, HAT and the AHA sectors turn about the mask centroid; on the
    # default plan and the 32x32x3 base it is exactly the phantom's own
    # center, so their studies measure about the true LV center
    for index in range(plan.n_subjects):
        cfg = pipeline.subject_config(plan, index)
        mask = ph.build_phantom(cfg).myocardium_mask
        assert (dti.mask_centroids(mask) == cfg.center).all(), index


@pytest.mark.parametrize("threads", [1, 2])
def test_finished_subjects_free_their_arrays(tmp_path, monkeypatch, threads):
    # a subject's truth and reference series die in prepare_subject (once
    # saved), before its first cell starts, and only its reference
    # metrics outlive its cells: its samples and coil maps are freed as
    # soon as the cells finish
    real_build, real_combine = pipeline.phantom.build_phantom, pipeline.encoding.coil_combine
    real_cells = pipeline.run_subject_cells
    # the truth's and the reference's arrays, by the subject's seed; a
    # subject is prepared on one thread, so the thread names its seed
    prepared, arrays, alive_at_start = defaultdict(list), [], []
    seed_of_thread = {}

    def watched_build(cfg):
        gt = real_build(cfg)
        seed_of_thread[threading.get_ident()] = cfg.seed
        prepared[cfg.seed] += [weakref.ref(gt.clean_series.data),
                               weakref.ref(gt.phase.values)]
        return gt

    def watched_combine(kgrid, coils):
        # the reference series' data is this array itself
        ref = real_combine(kgrid, coils)
        prepared[seed_of_thread[threading.get_ident()]].append(weakref.ref(ref))
        return ref

    def watched_cells(plan, index, subject):
        gc.collect()
        seed = pipeline.subject_config(plan, index).seed
        assert [ref() is None for ref in prepared[seed]] == [True] * 3
        alive_at_start.append((index, [ref() is not None for ref in arrays]))
        [d] = subject.noisy_kspace.values()
        arrays.extend([weakref.ref(d.samples), weakref.ref(subject.coil_maps.maps)])
        return real_cells(plan, index, subject)

    monkeypatch.setattr(pipeline.phantom, "build_phantom", watched_build)
    monkeypatch.setattr(pipeline.encoding, "coil_combine", watched_combine)
    monkeypatch.setattr(pipeline, "run_subject_cells", watched_cells)
    plan = replace(_tiny_plan(tmp_path, 9), geom_jitter_vox=0, threads=threads,
                   save_arrays=True)
    result = pipeline.run_experiment(plan)
    assert all(r["ok"] for r in result["summary"])
    assert len(arrays) == 2 * plan.n_subjects and len(prepared) == plan.n_subjects
    # the saved truth and reference of every subject
    assert all((tmp_path / f"subject{i:02d}" / name / "header.json").is_file()
               for i in range(plan.n_subjects) for name in ("ground_truth", "reference"))
    gc.collect()
    assert [ref() for ref in arrays] == [None] * len(arrays)
    if threads == 1:
        assert alive_at_start == [(0, []), (1, [False] * 2), (2, [False] * 4)]


def test_the_samples_of_an_r_die_before_the_next_r_starts(tmp_path, monkeypatch):
    # the cells of an R take its samples out of the subject's inputs, so
    # they die with its preliminary solve, before the next R's starts
    real_preliminary = pipeline.recon.preliminary
    samples, alive = [], []

    def watched(d, *args, **kwargs):
        alive.append([ref() is not None for ref in samples])
        samples.append(weakref.ref(d.samples))
        return real_preliminary(d, *args, **kwargs)

    monkeypatch.setattr(pipeline.recon, "preliminary", watched)
    plan = replace(_tiny_plan(tmp_path, 9), n_subjects=1, R_list=(2.0, 4.0))
    result = pipeline.run_experiment(plan)
    assert [c.R for c in result["cells"] if c.ok] == [2.0, 4.0]
    assert alive == [[], [False]]


def test_the_samples_of_an_r_die_once_its_preliminary_returns(tmp_path, monkeypatch):
    # every solve after the preliminary reads the samples only through
    # its adjoint A*(d), so no cell's solve holds them
    real_preliminary, real_recon = pipeline.recon.preliminary, pipeline.recon.recon
    samples, alive = [], []

    def watched_preliminary(d, *args, **kwargs):
        samples.append(weakref.ref(d.samples))
        return real_preliminary(d, *args, **kwargs)

    def watched_recon(*args):
        gc.collect()
        alive.append(samples[-1]() is not None)
        return real_recon(*args)

    monkeypatch.setattr(pipeline.recon, "preliminary", watched_preliminary)
    monkeypatch.setattr(pipeline.recon, "recon", watched_recon)
    plan = _every_cell_plan(tmp_path, n_subjects=1, R_list=(2.0, 4.0))
    result = pipeline.run_experiment(plan)
    assert all(c.ok for c in result["cells"])
    assert len(samples) == 2 and alive == [False] * 12


def _every_cell_plan(tmp_path, **changes):
    return replace(_tiny_plan(tmp_path, 9), methods=("lr", "cs", "lrcs"),
                   phase_modes=("proposed", "none"), **changes)


def test_a_studys_files_do_not_depend_on_threads(tmp_path):
    # the subject pool changes when each subject runs, not what it writes
    for threads in (1, 2):
        pipeline.run_experiment(_every_cell_plan(
            tmp_path / f"threads{threads}", geom_jitter_vox=0, R_list=(2.0, 6.0),
            threads=threads, save_arrays=True))
    files = list((tmp_path / "threads1").rglob("*"))
    assert len([p for p in files if p.name == "run_report.json"]) == 3 * 2 * 6
    assert differing_files(tmp_path / "threads1", tmp_path / "threads2") \
        == ["plan.json"]


def test_the_plan_rank_reaches_every_solve(tmp_path):
    plan = _every_cell_plan(tmp_path, n_subjects=1, rank=5, save_arrays=True)
    result = pipeline.run_experiment(plan)
    assert all(c.ok for c in result["cells"])
    reports = [json.loads(path.read_text())
               for path in tmp_path.glob("subject00/R2/*/run_report.json")]
    assert len(reports) == 6
    assert sorted(r["rank"] for r in reports if r["method"] != "cs") == [5] * 4
    with open(tmp_path / "summary.csv", newline="") as fh:
        ranks = [row["rank"] for row in csv.DictReader(fh)]
    assert ranks == ["5"] * 7    # the reference row and the six cells


def test_each_distinct_solve_runs_once(tmp_path, monkeypatch):
    # every A*A product is a CG step of a solve that runs once: cs (the
    # preliminary), and per phase mode lrcs, whose first solve is lr;
    # one adjoint serves each (subject, R), and the reference, a coil
    # combination, applies neither operator
    calls = {"normal_matrix": 0, "adjoint_matrix": 0}
    reference_calls = []

    def counted(name):
        real = getattr(pipeline.recon, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    real_prepare = pipeline.prepare_subject

    def prepare(plan, index):
        before = dict(calls)
        inputs = real_prepare(plan, index)
        reference_calls.append({k: calls[k] - before[k] for k in calls})
        return inputs

    for name in calls:
        monkeypatch.setattr(pipeline.recon, name, counted(name))
    monkeypatch.setattr(pipeline, "prepare_subject", prepare)
    plan = _every_cell_plan(tmp_path, n_subjects=2, R_list=(2.0, 6.0))
    result = pipeline.run_experiment(plan)
    cells = {(c.subject, c.R, c.method, c.phase_mode): c for c in result["cells"]}
    assert all(c.ok for c in cells.values())
    assert reference_calls == [dict.fromkeys(calls, 0)] * plan.n_subjects
    distinct = 0
    for (s, R, method, mode), c in cells.items():
        iters = c.report["cg_iterations"]
        if method == "lr":
            assert iters == cells[(s, R, "lrcs", mode)].report["cg_iterations"][:1]
        elif method == "lrcs" or mode == "proposed":
            distinct += sum(iters)
        if method == "cs":
            assert c.metrics is cells[(s, R, "cs", "proposed")].metrics
    assert calls["normal_matrix"] == distinct
    assert calls["adjoint_matrix"] == plan.n_subjects * len(plan.R_list)


def test_an_r_frees_what_its_cells_share_before_the_next_r_starts(tmp_path,
                                                                  monkeypatch):
    real_prelim, real_first = pipeline.recon.preliminary, pipeline.recon.first_solve
    shared, alive_at_start = [], []

    def watched_prelim(*args, **kwargs):
        gc.collect()
        alive_at_start.append([ref() is not None for ref in shared])
        prelim = real_prelim(*args, **kwargs)
        shared.extend([weakref.ref(prelim), weakref.ref(prelim.adj)])
        return prelim

    def watched_first(*args):
        start = real_first(*args)
        shared.append(weakref.ref(start))
        return start

    monkeypatch.setattr(pipeline.recon, "preliminary", watched_prelim)
    monkeypatch.setattr(pipeline.recon, "first_solve", watched_first)
    plan = _every_cell_plan(tmp_path, n_subjects=1, R_list=(2.0, 6.0))
    result = pipeline.run_experiment(plan)
    assert all(c.ok for c in result["cells"])
    # nothing before R=2 (the reference runs no solve), then R=2's: the
    # cs start, the preliminary and its adjoint, and a start per phase mode
    assert alive_at_start == [[], [False] * 5]


def test_failed_first_solve_fails_lr_and_lrcs_of_its_mode(tmp_path, monkeypatch):
    real = pipeline.recon.normal_matrix

    def nan_when_phased(model, x, shift=0.0, out=None):
        out = real(model, x, shift, out)
        if model.phase is not None:
            out[...] = np.nan
        return out

    monkeypatch.setattr(pipeline.recon, "normal_matrix", nan_when_phased)
    result = pipeline.run_experiment(_every_cell_plan(tmp_path, n_subjects=1))
    failed = [c for c in result["cells"] if not c.ok]
    assert {(c.method, c.phase_mode) for c in failed} == {("lr", "proposed"),
                                                          ("lrcs", "proposed")}
    for c in failed:
        text = (tmp_path / "subject00" / "R2" / f"{c.method}_proposed"
                / "error.txt").read_text()
        assert text == c.error and "in first_solve" in text
        assert text.rstrip().endswith("NumericalError: NaN/Inf in ADMM iterate")
    assert len(list(tmp_path.rglob("error.txt"))) == 2


def test_failed_cell_writes_its_traceback(tmp_path, monkeypatch):
    def fail(prelim, method, mode):
        raise NumericalError(f"{method} failed")

    monkeypatch.setattr(pipeline.recon, "recon", fail)
    plan = replace(_tiny_plan(tmp_path, 9), n_subjects=2)
    result = pipeline.run_experiment(plan)
    rows = [r for r in result["summary"] if r["method"] == "cs"]
    assert len(rows) == 2 and not any(r["ok"] for r in rows)
    for row in rows:
        path = tmp_path / f"subject{row['subject']:02d}" / "R2" / "cs_proposed"
        text = (path / "error.txt").read_text()
        assert text.startswith("Traceback (most recent call last)")
        assert "in fail" in text
        assert text.rstrip().splitlines()[-1] == row["error"] \
            == "lrcs_cdti.errors.NumericalError: cs failed"
    assert len(list(tmp_path.rglob("error.txt"))) == 2


def test_non_finite_reconstruction_fails_its_cell_by_name(tmp_path, monkeypatch):
    real = pipeline.recon.recon

    def nan_series(*args):
        result = real(*args)
        data = result.series.data.copy()
        data[:, 1] = np.nan
        return replace(result, series=result.series.with_data(data))

    monkeypatch.setattr(pipeline.recon, "recon", nan_series)
    plan = replace(_tiny_plan(tmp_path, 9), n_subjects=1)
    result = pipeline.run_experiment(plan)
    [row] = [r for r in result["summary"] if r["method"] == "cs"]
    assert row["ok"] is False
    text = (tmp_path / "subject00" / "R2" / "cs_proposed" / "error.txt").read_text()
    assert "in fit_tensors" in text
    last = text.rstrip().splitlines()[-1]
    assert last == row["error"]
    assert re.fullmatch(r"lrcs_cdti\.errors\.NumericalError: tensor fit: \d+ "
                        r"non-finite sample\(s\) of \d+ in the masked series", last)


def test_failed_preliminary_fails_every_cell_of_its_R(tmp_path, monkeypatch):
    real = pipeline.recon.preliminary

    def fail_at_r6(d, *args, **kwargs):
        if d.mask.R_nominal == 6.0:
            raise NumericalError("preliminary failed")
        return real(d, *args, **kwargs)

    monkeypatch.setattr(pipeline.recon, "preliminary", fail_at_r6)
    plan = replace(_tiny_plan(tmp_path, 9), n_subjects=1, R_list=(2.0, 6.0),
                   methods=("lr", "cs"), phase_modes=("proposed", "none"))
    result = pipeline.run_experiment(plan)
    assert {(c.R, c.ok) for c in result["cells"]} == {(2.0, True), (6.0, False)}
    failed = [c for c in result["cells"] if not c.ok]
    assert len(failed) == 4
    for c in failed:
        text = (tmp_path / "subject00" / "R6" / f"{c.method}_{c.phase_mode}"
                / "error.txt").read_text()
        assert text == c.error and "in fail_at_r6" in text
        assert text.rstrip().endswith("NumericalError: preliminary failed")
    assert len(list(tmp_path.rglob("error.txt"))) == 4


def test_a_cells_reconstruction_is_freed_before_the_next_solve(tmp_path,
                                                              monkeypatch):
    real = pipeline.recon.recon
    series, alive_at_solve = [], []

    def watched(prelim, method, mode):
        gc.collect()
        alive_at_solve.append([ref() is not None for ref in series])
        res = real(prelim, method, mode)
        # cs returns the preliminary, which lives through its R
        if res is not prelim:
            series.append(weakref.ref(res.series.data))
        return res

    monkeypatch.setattr(pipeline.recon, "recon", watched)
    result = pipeline.run_experiment(_every_cell_plan(tmp_path, n_subjects=1,
                                                      save_arrays=True))
    assert [(c.method, c.phase_mode) for c in result["cells"]] == [
        (m, p) for m in ("lr", "cs", "lrcs") for p in ("proposed", "none")]
    assert all(c.ok for c in result["cells"])
    # lr at each mode, then cs twice, then lrcs at each mode
    assert alive_at_solve == [[], [False], [False] * 2, [False] * 2, [False] * 2,
                              [False] * 3]


def test_an_r_whose_mask_cannot_be_made_fails_its_cells_alone(tmp_path):
    # 24 phase-encode lines at R 9 keep ceil(24 / 9) = 3, fewer than the 4
    # center lines; the mask is made when the subject is prepared
    plan = _every_cell_plan(tmp_path / "with", n_subjects=1, R_list=(2.0, 9.0),
                            save_arrays=True)
    result = pipeline.run_experiment(plan)
    message = ("lrcs_cdti.errors.ValidationError: cannot honor center lines: "
               "ceil(n_pe/R) = 3 < 4")
    bad = [c for c in result["cells"] if c.R == 9.0]
    good = [c for c in result["cells"] if c.R == 2.0]
    assert len(bad) == len(good) == 6
    assert all(c.ok for c in good) and not any(c.ok for c in bad)
    for c in bad:
        text = (tmp_path / "with" / "subject00" / "R9" / f"{c.method}_{c.phase_mode}"
                / "error.txt").read_text()
        assert text == c.error and text.rstrip().splitlines()[-1] == message
    assert [r["error"] for r in result["summary"] if r["R"] == 9.0] == [message] * 6
    assert len(list(tmp_path.rglob("error.txt"))) == 6
    # R 2's cells are those of the plan without R 9, file for file
    without = pipeline.run_experiment(replace(plan, R_list=(2.0,),
                                              output_dir=str(tmp_path / "without")))
    assert all(name in ("plan.json", "summary.csv") or name.startswith("subject00/R9/")
               for name in differing_files(tmp_path / "with", tmp_path / "without"))

    def rows(summary):
        return [{k: v for k, v in r.items() if k != "solve_s"}
                for r in summary if r["R"] != 9.0]
    assert rows(result["summary"]) == rows(without["summary"])


def test_each_finished_cell_logs_one_line(tmp_path, caplog):
    # subject 2's preparation fails (see above), and R 9's mask cannot be
    # made (see above): their cells log too
    plan = replace(_tiny_plan(tmp_path, 9), R_list=(2.0, 9.0))
    with caplog.at_level(logging.INFO, logger="lrcs_cdti.pipeline"):
        result = pipeline.run_experiment(plan)
    records = [r for r in caplog.records if r.name == "lrcs_cdti.pipeline"]
    assert [r.levelno for r in records] == [logging.INFO] * len(result["cells"]) == \
        [logging.INFO] * 6
    for cell, record in zip(result["cells"], records):
        solve_s = cell.report["wall_time_s"] if cell.ok else ""
        assert record.getMessage() == (f"subject {cell.subject} R {cell.R:g} "
                                       f"{cell.method} {cell.phase_mode}: "
                                       f"ok {cell.ok}, solve_s {solve_s}")
    assert [c.ok for c in result["cells"]] == [True, False, True, False, False, False]
