"""Experiment orchestration: multi-subject phantom cohorts swept over
acceleration factors, reconstruction methods, and phase-correction
modes, with reference metrics, per-cell reports, and cohort statistics.

The reference for every subject is the least-squares reconstruction of
the fully sampled noisy data k.  On a full grid that is the coil
combination sum_c conj(S_c) F^H k_c / sum_c |S_c|^2
(:func:`encoding.coil_combine`), so no solver runs for it.  The
noiseless truth is recorded alongside for oracle checks.  Coil maps are
estimated once per subject from the fully sampled b=0 column and shared
by the reference and all reconstructions.  A prepared subject is its
cells' inputs and its reference metrics
(:class:`SubjectInputs`): :func:`prepare_subject` saves the truth and
the reference series, when the plan saves arrays, and drops them.  The
truth goes first: of it, only the myocardium mask and what
:func:`coil_grids` reads (:func:`acquisition_inputs`: the phased series
x o P, made once, the coil maps and the noise scale) outlive the save,
so its clean series, phase and tensors are dead while the coils are
simulated.

:func:`coil_grids` simulates a subject's k-space in complex128 one coil
at a time, and adds each coil's noise into that coil's draw of the
phantom's noise stream, replayed from its seed on every run.
:func:`prepare_subject` runs it twice and holds one coil's grid at a
time in each pass.  The first (:func:`acquire`) packs each grid's
samples for every R of the plan, in the solver's precision
``EncodingModel.dtype`` (complex64), keeps its b=0 column for the coil
maps, and drops it; the second adds each replayed grid into the
reference (:func:`encoding.coil_combine`).  So no pass holds every
coil's grid, and a subject holds what its solves read, the kept share
of the grid per R.

Per acceleration factor, one problem (the k-space of its sampling mask,
the coil maps, the weight and the plan's rank) is one
:class:`recon.Preliminary`, shared by every method and phase mode with
what the methods make from it: the adjoint A*(d), the subspace, and per
phase mode the solve model and the first CG solve, of which lr is the
whole solve and lrcs the start.  cs returns the preliminary itself, so
its cells of every phase mode share one tensor fit.  Its samples die
once :func:`recon.preliminary` returns (later solves read only A*(d)),
the rest when the acceleration factor's cells finish, and each cell's
reconstruction before the next cell's solve starts.  Each finished cell
logs one INFO line to the ``lrcs_cdti.pipeline`` logger.
The cohort statistics are :func:`evaluate` of the study's two row
tables, for the study and ``cli eval`` alike.
"""

from __future__ import annotations

import csv
import json
import logging
import traceback
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import datamodel as dm
from . import dti, encoding, phantom, recon, stats
from .errors import ValidationError

log = logging.getLogger(__name__)

METRICS = ("hat", "md")
SEGMENTS = tuple(map(str, range(1, 17)))    # regional.csv's AHA columns


@dataclass(frozen=True)
class ExperimentPlan:
    """A study: subjects x R x methods x phase modes.  A phase mode is a
    :class:`recon.PhaseMode` value, ``proposed`` (the preliminary's
    phase) or ``none`` (no correction); cs ignores it."""

    n_subjects: int = 6
    master_seed: int = 0
    R_list: tuple[float, ...] = (2.0, 6.0)
    methods: tuple[str, ...] = ("lr", "cs", "lrcs")
    phase_modes: tuple[str, ...] = ("proposed",)
    output_dir: str = "study_out"
    # per-subject jitter around the base phantom
    ha_jitter_deg: float = 10.0
    md_jitter_frac: float = 0.10
    geom_jitter_vox: int = 2
    base_config: dict = field(default_factory=dict)
    # solver configuration
    rank: int = recon.RANK          # of every lr and lrcs solve
    lambda_scale: float | None = recon.LAMBDA_SCALE   # None -> nuclear-norm grid
    solver: dict = field(default_factory=dict)
    # the subject pool's size; its threads share the interpreter lock, so
    # on small grids a second one gains little (the benchmark's
    # cohort_small plan on 2 vCPUs: 1.37-1.53 s on 1 thread, 1.13-1.43 s on 2)
    threads: int = 1
    save_arrays: bool = True

    def __post_init__(self):
        try:
            for m in self.methods:
                recon.Method(m)
            for p in self.phase_modes:
                recon.PhaseMode(p)
        except ValueError as exc:
            raise ValidationError(str(exc)) from None
        if self.n_subjects < 1:
            raise ValidationError("need at least one subject")
        if self.rank < 1:
            raise ValidationError(f"rank must be >= 1, got {self.rank}")
        # "not x >= 0" so that NaN fails too
        if self.lambda_scale is not None and not self.lambda_scale >= 0:
            raise ValidationError(
                f"lambda_scale must be >= 0 or null, got {self.lambda_scale}")
        for key in ("master_seed", "ha_jitter_deg", "md_jitter_frac",
                    "geom_jitter_vox"):
            if not getattr(self, key) >= 0:
                raise ValidationError(f"{key} must be >= 0, got {getattr(self, key)}")
        if self.threads < 1:
            raise ValidationError(f"threads must be >= 1, got {self.threads}")
        # the base phantom and the solver settings, before any subject runs
        n_columns = len(self.base_phantom.column_labels)
        if self.rank > n_columns:
            raise ValidationError(
                f"rank {self.rank} exceeds the column count {n_columns}")
        self.solver_config
        if "lam" in self.solver:
            raise ValidationError("solver key 'lam' is set per cell, from lambda_scale")
        object.__setattr__(self, "R_list", tuple(float(r) for r in self.R_list))
        if any(not r >= 1 for r in self.R_list):
            raise ValidationError(
                f"R_list entries must be >= 1, got {list(self.R_list)}")
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "phase_modes", tuple(self.phase_modes))
        # no entry would leave no cell to run, and a repeated entry would
        # write its cells' directories and rows twice
        for key in ("R_list", "methods", "phase_modes"):
            values = getattr(self, key)
            if not values:
                raise ValidationError(f"{key} is empty: the plan has no cell")
            if len(set(values)) != len(values):
                raise ValidationError(f"{key} has a repeated entry: {list(values)}")

    @property
    def base_phantom(self) -> phantom.PhantomConfig:
        return dm.config_from_json(phantom.PhantomConfig, self.base_config)

    @property
    def solver_config(self) -> recon.SolverConfig:
        return dm.config_from_json(recon.SolverConfig, self.solver)


def subject_config(plan: ExperimentPlan, index: int) -> phantom.PhantomConfig:
    """Deterministic per-subject jitter of the base phantom."""
    base = plan.base_phantom
    rng = np.random.default_rng([plan.master_seed, index])
    g = plan.geom_jitter_vox
    return replace(
        base,
        ha_endo=base.ha_endo + rng.uniform(-plan.ha_jitter_deg, plan.ha_jitter_deg),
        ha_epi=base.ha_epi + rng.uniform(-plan.ha_jitter_deg, plan.ha_jitter_deg),
        md_true=base.md_true * (1 + rng.uniform(-plan.md_jitter_frac,
                                                plan.md_jitter_frac)),
        r_endo=base.r_endo + int(rng.integers(-g, g + 1)),
        r_epi=base.r_epi + int(rng.integers(-g, g + 1)),
        seed=int(np.random.default_rng([plan.master_seed, index, 1]).integers(2 ** 31)),
    )


@dataclass
class SubjectMetrics:
    hat: float
    md: float
    regional_hat: np.ndarray | None
    regional_md: np.ndarray | None


def _series_metrics(series: dm.CasoratiSeries, mask: np.ndarray,
                    segmentation) -> SubjectMetrics:
    field_ = dti.fit_tensors(series, mask)
    ha = dti.helix_angle(field_)
    hat = dti.compute_hat(ha, mask)
    md_map = dti.mean_diffusivity(field_)
    md = float(md_map[mask].mean())
    dti.check_finite_metrics(hat, md)
    reg_hat = reg_md = None
    if segmentation is not None:
        reg_hat = dti.regional_hat(hat, segmentation)
        reg_md = dti.regional_means(np.where(mask, md_map, np.nan), segmentation)
    return SubjectMetrics(hat.global_hat, md, reg_hat, reg_md)


@dataclass
class CellResult:
    subject: int
    R: float
    method: str
    phase_mode: str
    ok: bool
    metrics: SubjectMetrics | None = None
    error: str = ""
    report: dict = field(default_factory=dict)


@dataclass
class SubjectInputs:
    """What the cells of one subject read, and the metrics of its
    reference, against which their biases are taken.  ``noisy_kspace``
    maps each R of the plan to its packed samples in
    ``EncodingModel.dtype`` (:func:`acquire`), or to the traceback of
    the failure to make its mask, which fails that R's cells alone; the
    cells of an R take its entry out.  No full k-space grid is held."""

    myocardium_mask: np.ndarray
    coil_maps: dm.CoilMaps
    noisy_kspace: dict[float, encoding.KSpaceData | str]
    segmentation: dti.AhaSegmentation | None
    reference: SubjectMetrics


def acquisition_inputs(truth: phantom.GroundTruth) -> tuple[
        phantom.PhantomConfig, dm.CasoratiSeries, dm.CoilMaps, float]:
    """What :func:`coil_grids` reads of ``truth``: its config, its phased
    series x o P, made once here, its coil maps and its mean b=0
    magnitude (:func:`phantom.mean_s0`), the noise scale.  None of it
    holds the clean series, the phase or the tensors, so the truth can
    die before the coils are simulated."""
    clean = truth.clean_series
    # x o P, in the operand order of encoding.coil_kspace's phase product
    return (truth.config, clean.with_data(clean.data * truth.phase.values),
            truth.coils, phantom.mean_s0(truth))


def coil_grids(cfg: phantom.PhantomConfig, signal: dm.CasoratiSeries,
               coils: dm.CoilMaps, s0: float) -> Iterator[np.ndarray]:
    """The noisy fully sampled k-space of the phantom of ``cfg``, one
    complex128 (N, nz, ny, nx) grid per coil in coil order, each made
    when it is asked for.  ``signal``, ``coils`` and ``s0`` are its
    phased series, coil maps and noise scale (:func:`acquisition_inputs`).
    Each coil's grid is :func:`encoding.coil_kspace` of ``signal`` on
    that coil's map, with its noise added into that coil's draw of the
    phantom's one noise stream (:func:`phantom.add_noise`).  So the grids
    are the coil slices of the whole grid noised in one draw, bit for
    bit, and every run replays the stream from the phantom's seed and
    yields the same grids.  While a grid is made, two grids of its coil
    are alive (its clean grid and its noise draw)."""
    rng = phantom.noise_rng(cfg.seed)
    for maps_c in coils.maps:
        # one expression: the clean grid dies once its noise is added
        yield phantom.add_noise(
            encoding.coil_kspace(signal, dm.CoilMaps(maps_c[None])),
            cfg.snr, s0, rng)[0]


def acquire(cfg: phantom.PhantomConfig, signal: dm.CasoratiSeries,
            coils: dm.CoilMaps, s0: float, masks: list[dm.SamplingMask]
            ) -> tuple[list[encoding.KSpaceData], dm.CoilMaps]:
    """The samples that each of ``masks`` keeps of the phantom's noisy
    k-space, packed in ``EncodingModel.dtype`` (one
    :class:`encoding.KSpaceData` per mask, in order), and the coil maps of
    its b=0 column.  The arguments before ``masks`` are those of
    :func:`coil_grids`, whose grids are taken one coil at a time: each
    gives its samples under every mask, its share of the coil-major
    packed vector (:func:`encoding.extract_samples`), and its b=0
    column, and is dropped before the next coil's is made.
    So at most two grids of one coil are alive, beside the packed samples
    and the coils' b=0 columns."""
    parts = [[] for _ in masks]
    b0 = []
    for k_c in coil_grids(cfg, signal, coils, s0):
        for part, mask in zip(parts, masks):
            part.append(encoding.extract_samples([k_c], mask).samples)
        b0.append(k_c[0].copy())
        # dead before the next coil's grid is made
        del k_c
    samples = []
    for part, mask in zip(parts, masks):
        samples.append(encoding.KSpaceData(np.concatenate(part), mask, cfg.grid,
                                           coils.n_coils))
        # one mask's samples are held twice at a time, not every mask's
        part.clear()
    # the grids are full: the b=0 column's coil images need no zero fill
    b0_images = encoding.ifft2c(np.stack(b0))
    return samples, encoding.estimate_coil_maps(b0_images.transpose(0, 3, 2, 1))


def sampling_mask(cfg: phantom.PhantomConfig, R: float) -> dm.SamplingMask:
    """The sampling mask of acceleration ``R`` for the phantom of ``cfg``,
    seeded by it."""
    _, ny, nz = cfg.grid
    return encoding.make_sampling_mask(ny, nz, cfg.column_labels, R=R, seed=cfg.seed)


def _mask_or_error(cfg: phantom.PhantomConfig, R: float) -> dm.SamplingMask | str:
    """:func:`sampling_mask` at ``R``, or the traceback of its failure,
    which fails the cells of ``R`` alone."""
    try:
        return sampling_mask(cfg, R)
    except Exception:
        return traceback.format_exc()


def prepare_subject(plan: ExperimentPlan, index: int) -> SubjectInputs:
    """The inputs of one subject's cells.  Its truth is saved first, when
    the plan saves arrays, and of it only the myocardium mask and what
    :func:`coil_grids` reads are kept, so it is dead while the coils are
    simulated.  The coils are then simulated twice, one at a time:
    :func:`acquire` packs the samples of every R of the plan and takes
    the coil maps, and the replayed grids give the reference series, the
    least squares of the fully sampled noisy k-space k on the estimated
    coil maps S, sum_c conj(S_c) F^H k_c / sum_c |S_c|^2 per voxel and
    column (:func:`encoding.coil_combine`), taken in complex128.  Neither
    pass holds every coil's grid.  The reference series is saved, when
    the plan saves arrays, and dies on return."""
    cfg = subject_config(plan, index)
    sdir = Path(plan.output_dir) / f"subject{index:02d}"
    gt = phantom.build_phantom(cfg)
    if plan.save_arrays:
        phantom.save_ground_truth(sdir / "ground_truth", gt)
    mask, scan = gt.myocardium_mask, acquisition_inputs(gt)
    del gt
    masks = {R: _mask_or_error(cfg, R) for R in plan.R_list}
    packed, coil_maps = acquire(
        *scan, [m for m in masks.values() if not isinstance(m, str)])
    packed = iter(packed)
    samples = {R: m if isinstance(m, str) else next(packed) for R, m in masks.items()}
    ref = dm.CasoratiSeries(encoding.coil_combine(coil_grids(*scan), coil_maps),
                            cfg.grid, cfg.column_labels)
    del scan
    segmentation = None
    if cfg.grid[2] >= 3:
        segmentation = dti.segment_aha16(mask)
    ref_metrics = _series_metrics(ref, mask, segmentation)
    if plan.save_arrays:
        dm.save_series(sdir / "reference", ref)
    return SubjectInputs(mask, coil_maps, samples, segmentation, ref_metrics)


def run_subject_cells(plan: ExperimentPlan, index: int,
                      subject: SubjectInputs) -> list[CellResult]:
    """Every (R, method, phase mode) cell of one subject, one R at a time
    (see :func:`_r_cells`)."""
    return [cell for R in plan.R_list for cell in _r_cells(plan, index, subject, R)]


def _r_cells(plan: ExperimentPlan, index: int, subject: SubjectInputs,
             R: float) -> list[CellResult]:
    """The cells of one R.  Its samples die as soon as its preliminary
    solve returns; that solve, and all that the methods share from it,
    live in this call alone, so they are freed before the next R starts;
    a cell's reconstruction dies before the next cell's solve.  A failed
    mask or preliminary solve fails every cell of the R."""
    d = subject.noisy_kspace.pop(R)
    # the samples, or the traceback of the mask that could not be made
    prep_error = d if isinstance(d, str) else ""
    if not prep_error:
        try:
            prelim = recon.preliminary(d, subject.coil_maps, plan.solver_config,
                                       plan.rank, scale=plan.lambda_scale)
        except Exception:
            prep_error = traceback.format_exc()
    del d
    results: list[CellResult] = []
    # cs returns the preliminary itself: one fit serves its every phase mode
    prelim_metrics = None
    for method in plan.methods:
        for mode in plan.phase_modes:
            cell = CellResult(index, R, method, mode, ok=False, error=prep_error)
            results.append(cell)
            out = (Path(plan.output_dir) / f"subject{index:02d}"
                   / f"R{R:g}" / f"{method}_{mode}")
            if not prep_error:
                try:
                    res = recon.recon(prelim, method, mode)
                    cell.report = res.report.to_json()
                    if res is prelim and prelim_metrics is not None:
                        cell.metrics = prelim_metrics
                    else:
                        cell.metrics = _series_metrics(
                            res.series, subject.myocardium_mask, subject.segmentation)
                    if res is prelim:
                        prelim_metrics = cell.metrics
                    cell.ok = True
                    if plan.save_arrays:
                        dm.save_series(out / "recon", res.series)
                        (out / "run_report.json").write_text(
                            json.dumps(cell.report, indent=1))
                except Exception:
                    cell.error = traceback.format_exc()
                # the reconstruction dies here, not when the next solve returns
                res = None
            if cell.error:
                _write_error(out, cell.error)
            _log_cell(cell)
    return results


def _log_cell(cell: CellResult) -> None:
    """One INFO line for a finished cell; its solve_s is blank, as in
    summary.csv, when its solve failed."""
    log.info("subject %d R %g %s %s: ok %s, solve_s %s", cell.subject, cell.R,
             cell.method, cell.phase_mode, cell.ok, cell.report.get("wall_time_s", ""))


def _write_error(directory: Path, error: str) -> None:
    """The full traceback of a failure, as ``error.txt`` in ``directory``
    (summary.csv keeps its last line)."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "error.txt").write_text(error)


def run_experiment(plan: ExperimentPlan) -> dict:
    """Execute the full study and write the report tree under
    ``plan.output_dir``.

    Returns a dict of the study's :class:`CellResult` list (``"cells"``)
    and the rows written to ``summary.csv`` (``"summary"``) and
    ``stats.csv`` (``"stats"``, by :func:`evaluate`).  A subject's truth
    and reference series die in :func:`prepare_subject`, before its cells
    start, and of a finished subject only its reference metrics are kept
    past its cells: its coil maps are freed as soon as they finish, and
    the packed samples of an R once its preliminary solve returns.

    A subject whose preparation fails (a jitter the phantom rejects, a
    reference with non-finite metrics) is recorded with the error on its
    reference row and on ``ok=False`` cells; the other subjects run on.
    Every failure leaves its full traceback in ``error.txt``: in the
    subject's directory when the preparation failed, else in the failed
    cell's.

    An ``output_dir`` that holds a study (``plan.json`` or ``summary.csv``)
    is a ValidationError, raised before anything is written or deleted.
    """
    out_root = Path(plan.output_dir)
    if any((out_root / name).exists() for name in ("plan.json", "summary.csv")):
        raise ValidationError(f"output_dir {out_root} already holds a study")
    out_root.mkdir(parents=True, exist_ok=True)
    (out_root / "plan.json").write_text(json.dumps(dm.config_to_json(plan), indent=1))

    def one_subject(i: int):
        # the reference metrics or None, the cells and the error: the
        # subject's inputs die with this frame
        try:
            inputs = prepare_subject(plan, i)
        except Exception:
            error = traceback.format_exc()
            _write_error(out_root / f"subject{i:02d}", error)
            cells = [CellResult(i, R, method, mode, ok=False, error=error)
                     for R in plan.R_list for method in plan.methods
                     for mode in plan.phase_modes]
            for cell in cells:
                _log_cell(cell)
            return None, cells, error
        return inputs.reference, run_subject_cells(plan, i, inputs), ""

    if plan.threads > 1:
        with ThreadPoolExecutor(max_workers=plan.threads) as pool:
            subject_runs = list(pool.map(one_subject, range(plan.n_subjects)))
    else:
        subject_runs = [one_subject(i) for i in range(plan.n_subjects)]

    refs = [ref for ref, _, _ in subject_runs]
    errors = [e for _, _, e in subject_runs]
    cells = [c for _, cs, _ in subject_runs for c in cs]
    summary_rows = _write_tables(refs, errors, cells, plan.rank, out_root)
    stats_rows = evaluate(out_root / "summary.csv", out_root / "stats.csv")
    return {"cells": cells, "summary": summary_rows, "stats": stats_rows}


# how a cell was solved, from its RunReport; blank on reference rows
# and on cells whose solve failed.  lr is the first CG solve of lrcs at
# its phase mode, solved once: an lr row's solve_s is that shared
# solve's time, and an lrcs row's includes it too.
SOLVE_FIELDS = ("lambda", "stop_reason", "admm_iters", "cg_iters", "solve_s")


def _write_tables(refs, errors, cells, rank: int, out_root: Path) -> list[dict]:
    """``summary.csv``, whose rows are returned, and ``regional.csv``, one
    row per metric of each ok summary row with segments.  ``refs`` holds
    each subject's reference metrics, None for a subject whose
    preparation failed; the rows of a prepared subject carry the plan's
    ``rank``.  Every summary row, the references' too, comes from one
    builder, whose keys are the table's columns."""

    def row(subject, R, method, mode, ok, metrics, error, report, ref=None):
        # an ok row's biases are taken against ``ref``; the reference row's
        # own (no ref) are 0.0, as normalized_bias raises on a zero value
        out = {"subject": subject, "R": R, "method": method, "phase_mode": mode,
               "ok": ok, "rank": rank if refs[subject] is not None else "",
               "hat": np.nan, "md": np.nan, "hat_bias": np.nan, "md_bias": np.nan,
               "error": error.splitlines()[-1] if error else "",
               **dict.fromkeys(SOLVE_FIELDS, "")}
        if ok:
            out.update(hat=metrics.hat, md=metrics.md,
                       hat_bias=0.0 if ref is None
                       else stats.normalized_bias(ref.hat, metrics.hat),
                       md_bias=0.0 if ref is None
                       else stats.normalized_bias(ref.md, metrics.md))
        if report:
            out.update(zip(SOLVE_FIELDS, (
                report["lambda"], report["stop_reason"], len(report["delta_u"]),
                sum(report["cg_iterations"]), report["wall_time_s"])))
        return out

    entries = [(i, 1.0, "reference", "", ref is not None, ref, error, {})
               for i, (ref, error) in enumerate(zip(refs, errors))]
    entries += [(c.subject, c.R, c.method, c.phase_mode, c.ok, c.metrics, c.error,
                 c.report, refs[c.subject]) for c in cells]
    rows = [row(*entry) for entry in entries]
    dm.write_table(out_root / "summary.csv", list(rows[0]), rows)
    dm.write_table(out_root / "regional.csv",
                   ["subject", "R", "method", "phase_mode", "metric", *SEGMENTS], [
        (subject, R, method, mode, metric, *values)
        for subject, R, method, mode, ok, m, *_ in entries
        if ok and m.regional_hat is not None
        for metric, values in (("hat", m.regional_hat), ("md", m.regional_md))])
    return rows


def _csv_value(path, index: int, row: dict, column: str, convert=str):
    """``row[column]`` of the CSV file ``path`` as ``convert`` makes it; a
    missing or unreadable value is a ValidationError naming the file, the
    column and the row (``index``, counted from 1 below the header)."""
    where = f"{path} row {index}, column {column!r}"
    value = row.get(column)
    if value is None:
        raise ValidationError(f"{where}: no value")
    try:
        return convert(value)
    except ValueError:
        raise ValidationError(
            f"{where}: cannot read {value!r} as {convert.__name__}") from None


def evaluate(summary_path, stats_path) -> list[dict]:
    """Cohort statistics per (R, method, phase_mode, metric): bias, ICC and
    Wilcoxon p in ``stats_path``, whose rows are returned, and regional
    p-maps beside it.  Of ``summary_path``, subject, R, method, phase_mode,
    ok, hat and md are read; a ``reference`` row is its subject's reference.
    A group of fewer than 3 subjects, or with a failed cell or reference, is
    skipped.  A p-map needs finite values of its group's every reference and
    cell in the ``regional.csv`` beside ``summary_path``.  A malformed value
    is a ValidationError naming its place (:func:`_csv_value`), a non-text
    table one naming the file."""

    def table(path):
        try:
            with open(path, newline="") as fh:
                return [partial(_csv_value, path, i, row)
                        for i, row in enumerate(csv.DictReader(fh), start=1)]
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not a text table ({exc})") from None

    # (subject, R, method, phase_mode) -> {metric: value}, None if failed
    metrics = {}
    for value in table(summary_path):
        key = (value("subject", int), value("R", float), value("method"),
               value("phase_mode"))
        metrics[key] = ({m: value(m, float) for m in METRICS}
                        if value("ok") in ("True", "true") else None)
    regional, regional_path = {}, Path(summary_path).with_name("regional.csv")
    if regional_path.is_file():
        for value in table(regional_path):
            key = (value("subject", int), value("R", float), value("method"),
                   value("phase_mode"), value("metric"))
            regional[key] = [value(s, float) for s in SEGMENTS]

    refs = {key[0]: key for key in metrics if key[2] == "reference"}
    groups = {}
    for key in metrics:
        groups.setdefault(key[1:], []).append(key)
    rows = []
    out_dir = Path(stats_path).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    for (R, method, mode), keys in sorted(groups.items()):
        # (reference, cell) keys, by subject
        pairs = [(refs.get(key[0]), key) for key in sorted(keys)]
        if method == "reference" or len(pairs) < 3 or any(
                metrics.get(ref) is None or metrics[key] is None for ref, key in pairs):
            continue
        for metric in METRICS:
            ref, rec = (np.array([metrics[p[side]][metric] for p in pairs])
                        for side in (0, 1))
            try:
                summary = stats.summarize(ref, rec)
            except ValidationError:
                continue
            rows.append({"R": R, "method": method, "phase_mode": mode,
                         "metric": metric, **summary})
            segments = [regional.get((*key, metric)) for pair in pairs for key in pair]
            if all(s is not None and np.isfinite(s).all() for s in segments):
                pmap = stats.regional_pmap(np.array(segments[0::2]).T,
                                           np.array(segments[1::2]).T)
                dm.write_table(out_dir / f"pmap_{metric}_R{R:g}_{method}_{mode}.csv",
                               ["segment", "p", "significant"],
                               [(s, *p_sig) for s, p_sig in enumerate(pmap, start=1)])
    dm.write_table(stats_path, ["R", "method", "phase_mode", "metric", "bias_mean",
                                "bias_std", "icc", "icc_band", "p"], rows)
    return rows
