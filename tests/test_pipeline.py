import csv
from pathlib import Path

import numpy as np
import pytest

from lrcs_cdti import pipeline

# Mean bias over the three subjects of the ``study`` fixture, per
# (method, phase mode); re-recorded when the solver moved to complex64
# arithmetic with a CG tolerance of 1e-6 (each value moved by at most
# 6.8e-7; bit-identical under 1 and 2 BLAS threads).
PINNED = {
    ("cs", "lowres"): (0.12019853292296974, 0.05005029410315839),
    ("cs", "none"): (0.1498295724209148, 0.052844497715161254),
    ("cs", "proposed"): (0.1498295724209148, 0.052844497715161254),
    ("lr", "lowres"): (0.33606136219608446, 0.14562516333944356),
    ("lr", "none"): (0.6546173328365329, 0.21573420668271526),
    ("lr", "proposed"): (0.20974456378388728, 0.053509544479256155),
    ("lrcs", "lowres"): (0.267428494009458, 0.22476073026684307),
    ("lrcs", "none"): (0.6098283325870799, 0.30193311943669005),
    ("lrcs", "proposed"): (0.2586298430782468, 0.050836850095942944),
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


def _tiny_plan(tmp_path, r_epi):
    return pipeline.ExperimentPlan(
        n_subjects=3, master_seed=0, R_list=(2.0,), methods=("cs",),
        phase_modes=("proposed",), lambda_scale=1e-2, rank=7,
        solver={"max_iters": 2, "cg_max_iters": 4}, save_arrays=False,
        base_config={"grid": [24, 24, 3], "r_endo": 4, "r_epi": r_epi},
        output_dir=str(tmp_path))


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
    assert result["artifacts"][2] is None
    rows = [r for r in result["summary"] if r["subject"] == 2]
    assert [r["method"] for r in rows] == ["reference", "cs"]
    for row in rows:
        assert row["ok"] is False
        assert row["error"].startswith(f"lrcs_cdti.errors.{error}")
        assert np.isnan(row["hat"])
    assert result["artifacts"][0] is not None and result["artifacts"][1] is not None
    cells = [c for c in result["cells"] if c.subject != 2]
    assert cells and all(c.ok and np.isfinite(c.metrics.hat) for c in cells)
    # a group with a failed cell gives no statistics
    assert result["stats"] == []
