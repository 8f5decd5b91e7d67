"""Experiment orchestration: multi-subject phantom cohorts swept over
acceleration factors, reconstruction methods, and phase-correction
modes, with reference metrics, per-cell reports, and cohort statistics.

The reference for every subject is the least-squares reconstruction of
the fully sampled noisy data (the noiseless truth is recorded alongside
for oracle checks).  Coil maps are estimated once per subject from the
fully sampled b=0 column and shared by all reconstructions, as is the
regularization weight.
"""

from __future__ import annotations

import csv
import json
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import datamodel as dm
from . import dti, encoding, phantom, recon, stats
from .errors import NumericalError, ValidationError

METRICS = ("hat", "md")


@dataclass(frozen=True)
class ExperimentPlan:
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
    rank: int | None = 7            # None -> elbow of the reference
    lambda_scale: float | None = 1e-2   # None -> nuclear-norm grid selection
    solver: dict = field(default_factory=dict)
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
        if self.rank is not None and self.rank < 1:
            raise ValidationError(f"rank must be >= 1 or null, got {self.rank}")
        # the base phantom and the solver settings, before any subject runs
        self.base_phantom
        self.solver_config
        if "lam" in self.solver:
            raise ValidationError("solver key 'lam' is set per cell, from lambda_scale")
        object.__setattr__(self, "R_list", tuple(float(r) for r in self.R_list))
        if any(r < 1 for r in self.R_list):
            raise ValidationError(
                f"R_list entries must be >= 1, got {list(self.R_list)}")
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "phase_modes", tuple(self.phase_modes))

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


def _series_metrics(series: dm.CasoratiSeries, mask: np.ndarray, center,
                    segmentation) -> SubjectMetrics:
    field_ = dti.fit_tensors(series, mask)
    ha = dti.helix_angle(field_, lv_center=center)
    hat = dti.compute_hat(ha, mask, lv_center=center)
    md_map = dti.mean_diffusivity(field_)
    md = float(md_map[mask].mean())
    if not (np.isfinite(hat.global_hat) and np.isfinite(md)):
        raise NumericalError(
            f"non-finite metrics: HAT {hat.global_hat}, MD {md} "
            f"({hat.n_skipped} of {hat.ray_slopes.size} rays skipped)")
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
class SubjectArtifacts:
    """Everything shared across cells of one subject."""

    config: phantom.PhantomConfig
    truth: phantom.GroundTruth
    coil_maps: dm.CoilMaps
    reference: dm.CasoratiSeries
    reference_metrics: SubjectMetrics
    rank: int
    segmentation: dti.AhaSegmentation | None
    noisy_kspace: np.ndarray


def prepare_subject(plan: ExperimentPlan, index: int) -> SubjectArtifacts:
    cfg = subject_config(plan, index)
    gt = phantom.build_phantom(cfg)
    labels = gt.clean_series.column_labels
    _, ny, nz = cfg.grid
    kclean = encoding.coil_kspace(gt.clean_series, gt.coils, gt.phase)
    knoisy = phantom.add_noise(kclean, cfg.snr, phantom.mean_s0(gt), seed=cfg.seed)
    full_mask = encoding.make_sampling_mask(ny, nz, labels, R=1, seed=cfg.seed)
    d_full = encoding.extract_samples(knoisy, full_mask)
    coil_maps = encoding.estimate_coil_maps(encoding.coil_images(d_full, 0))
    model_full = encoding.EncodingModel(coil_maps, full_mask, None)
    # at lambda = 0 the sparsity-only solve is plain least squares
    ref = recon.reconstruct_cs_only(
        d_full, model_full, replace(plan.solver_config, lam=0.0, cg_max_iters=30))
    segmentation = None
    if cfg.grid[2] >= 3:
        segmentation = dti.segment_aha16(gt.myocardium_mask, lv_center=cfg.center)
    ref_metrics = _series_metrics(ref.series, gt.myocardium_mask, cfg.center,
                                  segmentation)
    rank = plan.rank if plan.rank is not None else recon.select_rank(
        ref.series, recon.estimate_phase_map(ref.series))
    return SubjectArtifacts(cfg, gt, coil_maps, ref.series, ref_metrics, rank,
                            segmentation, knoisy)


def run_subject_cells(plan: ExperimentPlan, index: int,
                      art: SubjectArtifacts) -> list[CellResult]:
    cfg = art.config
    labels = art.truth.clean_series.column_labels
    _, ny, nz = cfg.grid
    scheme_of = {mode: "lowres-lattice" if mode == "lowres" else "proposed"
                 for mode in plan.phase_modes}
    solver = plan.solver_config
    results: list[CellResult] = []
    for R in plan.R_list:
        # one sampling pattern, weight and preliminary solve per scheme,
        # shared by every cell that samples with it
        prepared = {}
        for scheme in dict.fromkeys(scheme_of.values()):
            try:
                smask = encoding.make_sampling_mask(
                    ny, nz, labels, R=R, seed=cfg.seed, scheme=scheme)
                d = encoding.extract_samples(art.noisy_kspace, smask)
                model = encoding.EncodingModel(art.coil_maps, smask, None)
                prepared[scheme] = (d, model, *recon.preliminary(
                    d, model, solver, scale=plan.lambda_scale))
            except Exception:
                prepared[scheme] = traceback.format_exc()
        for method in plan.methods:
            for mode in plan.phase_modes:
                cell = CellResult(index, R, method, mode, ok=False)
                results.append(cell)
                out = (Path(plan.output_dir) / f"subject{index:02d}"
                       / f"R{R:g}" / f"{method}_{mode}")
                prep = prepared[scheme_of[mode]]
                if isinstance(prep, str):
                    cell.error = prep
                    _write_error(out, cell.error)
                    continue
                d, model, scfg, prelim = prep
                try:
                    res = recon.recon(d, model, prelim, method, mode, art.rank, scfg)
                    cell.report = res.report.to_json()
                    cell.metrics = _series_metrics(
                        res.series, art.truth.myocardium_mask, cfg.center,
                        art.segmentation)
                    cell.ok = True
                    if plan.save_arrays:
                        dm.save_series(out / "recon", res.series)
                        (out / "run_report.json").write_text(
                            json.dumps(cell.report, indent=1))
                except Exception:
                    cell.error = traceback.format_exc()
                    _write_error(out, cell.error)
    return results


def _write_error(directory: Path, error: str) -> None:
    """The full traceback of a failure, as ``error.txt`` in ``directory``
    (summary.csv keeps its last line)."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "error.txt").write_text(error)


def run_experiment(plan: ExperimentPlan) -> dict:
    """Execute the full study; returns the summary structure and writes
    the report tree under ``plan.output_dir``.

    A subject whose preparation fails (a jitter the phantom rejects, a
    reference with non-finite metrics) is recorded with the error on its
    reference row and on ``ok=False`` cells; the other subjects run on.
    Every failure leaves its full traceback in ``error.txt``: in the
    subject's directory when the preparation failed, else in the failed
    cell's.
    """
    out_root = Path(plan.output_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    (out_root / "plan.json").write_text(json.dumps(dm.config_to_json(plan), indent=1))

    def one_subject(i: int):
        try:
            art = prepare_subject(plan, i)
        except Exception:
            error = traceback.format_exc()
            _write_error(out_root / f"subject{i:02d}", error)
            cells = [CellResult(i, R, method, mode, ok=False, error=error)
                     for R in plan.R_list for method in plan.methods
                     for mode in plan.phase_modes]
            return None, cells, error
        if plan.save_arrays:
            sdir = out_root / f"subject{i:02d}"
            phantom.save_ground_truth(sdir / "ground_truth", art.truth)
            dm.save_series(sdir / "reference", art.reference)
        return art, run_subject_cells(plan, i, art), ""

    if plan.threads > 1:
        with ThreadPoolExecutor(max_workers=plan.threads) as pool:
            subject_runs = list(pool.map(one_subject, range(plan.n_subjects)))
    else:
        subject_runs = [one_subject(i) for i in range(plan.n_subjects)]

    arts = [a for a, _, _ in subject_runs]
    errors = [e for _, _, e in subject_runs]
    cells = [c for _, cs, _ in subject_runs for c in cs]
    summary_rows = _write_summary(arts, errors, cells, out_root)
    groups = {}
    for c in cells:
        pair = (arts[c.subject].reference_metrics, c.metrics) if c.ok else (None, None)
        groups.setdefault((c.R, c.method, c.phase_mode), {})[c.subject] = pair
    stats_rows = write_stats(groups, out_root / "stats.csv")
    return {"cells": cells, "artifacts": arts, "summary": summary_rows,
            "stats": stats_rows}


# how a cell was solved, from its RunReport; blank on reference rows
# and on cells whose solve failed
SOLVE_FIELDS = ("lambda", "stop_reason", "admm_iters", "cg_iters", "solve_s")


def _solve_columns(report: dict) -> dict:
    if not report:
        return dict.fromkeys(SOLVE_FIELDS, "")
    return {"lambda": report["lambda"], "stop_reason": report["stop_reason"],
            "admm_iters": len(report["delta_u"]),
            "cg_iters": sum(report["cg_iterations"]),
            "solve_s": report["wall_time_s"]}


def _write_summary(arts, errors, cells, out_root: Path) -> list[dict]:
    rows = []
    for i, (art, error) in enumerate(zip(arts, errors)):
        row = {"subject": i, "R": 1.0, "method": "reference", "phase_mode": "",
               "ok": art is not None, "rank": "", "hat": np.nan, "md": np.nan,
               "hat_bias": np.nan, "md_bias": np.nan,
               "error": error.splitlines()[-1] if error else "",
               **_solve_columns({})}
        if art is not None:
            row.update(rank=art.rank, hat=art.reference_metrics.hat,
                       md=art.reference_metrics.md, hat_bias=0.0, md_bias=0.0)
        rows.append(row)
    for c in cells:
        art = arts[c.subject]
        row = {"subject": c.subject, "R": c.R, "method": c.method,
               "phase_mode": c.phase_mode, "ok": c.ok,
               "rank": art.rank if art is not None else "",
               "hat": np.nan, "md": np.nan, "hat_bias": np.nan,
               "md_bias": np.nan, "error": c.error.splitlines()[-1] if c.error else "",
               **_solve_columns(c.report)}
        if c.ok:
            row["hat"] = c.metrics.hat
            row["md"] = c.metrics.md
            row["hat_bias"] = stats.normalized_bias(art.reference_metrics.hat,
                                                    c.metrics.hat)
            row["md_bias"] = stats.normalized_bias(art.reference_metrics.md,
                                                   c.metrics.md)
        rows.append(row)
    fields = ["subject", "R", "method", "phase_mode", "ok", "rank", "hat", "md",
              "hat_bias", "md_bias", "error", *SOLVE_FIELDS]
    with open(out_root / "summary.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows({k: _fmt(v) for k, v in row.items()} for row in rows)
    return rows


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return v


def write_stats(groups: dict, stats_path: Path) -> list[dict]:
    """Cohort statistics per (R, method, phase_mode, metric): bias, ICC
    and Wilcoxon p in ``stats_path``, plus regional p-maps beside it.

    ``groups`` maps (R, method, phase_mode) to {subject: (reference,
    reconstruction)} pairs of :class:`SubjectMetrics`; None on either
    side marks a failed cell.  A group with fewer than 3 subjects or any
    failed cell is skipped.  A p-map is written when every pair carries
    finite regional values.
    """
    rows = []
    out_dir = Path(stats_path).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    for (R, method, mode), by_subject in sorted(groups.items()):
        pairs = [by_subject[s] for s in sorted(by_subject)]
        if len(pairs) < 3 or any(ref is None or rec is None for ref, rec in pairs):
            continue
        for metric in METRICS:
            ref = np.array([getattr(p[0], metric) for p in pairs])
            rec = np.array([getattr(p[1], metric) for p in pairs])
            try:
                summary = stats.summarize(ref, rec)
            except ValidationError:
                continue
            rows.append({"R": R, "method": method, "phase_mode": mode,
                         "metric": metric,
                         "bias_mean": summary.bias_mean,
                         "bias_std": summary.bias_std,
                         "icc": summary.icc.r, "icc_band": summary.icc.band,
                         "p": summary.wilcoxon.p})
            reg_ref = [getattr(p[0], f"regional_{metric}") for p in pairs]
            reg_rec = [getattr(p[1], f"regional_{metric}") for p in pairs]
            if all(r is not None and np.isfinite(r).all()
                   for r in reg_ref + reg_rec):
                pmap = stats.regional_pmap(np.array(reg_ref).T, np.array(reg_rec).T)
                pmap_path = out_dir / f"pmap_{metric}_R{R:g}_{method}_{mode}.csv"
                with open(pmap_path, "w", newline="") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(["segment", "p", "significant"])
                    for s, (p, sig) in enumerate(pmap, start=1):
                        writer.writerow([s, repr(p), sig])
    fields = ["R", "method", "phase_mode", "metric", "bias_mean", "bias_std",
              "icc", "icc_band", "p"]
    with open(stats_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows({k: _fmt(v) for k, v in row.items()} for row in rows)
    return rows
