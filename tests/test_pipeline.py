import csv
from pathlib import Path

import numpy as np
import pytest

from lrcs_cdti import pipeline

# Mean bias over the three subjects of the ``study`` fixture, per
# (method, phase mode); recorded before the method dispatch, the cohort
# statistics and the centered DFT were each reduced to one code path.
PINNED = {
    ("cs", "lowres"): (0.12019859904975348, 0.05005029809390427),
    ("cs", "none"): (0.14982970872963963, 0.05284449303258998),
    ("cs", "proposed"): (0.14982970872963963, 0.05284449303258998),
    ("lr", "lowres"): (0.3360616040061581, 0.14562512383935658),
    ("lr", "none"): (0.6546175064335938, 0.21573418799754995),
    ("lr", "proposed"): (0.20974416678621255, 0.05350954128957732),
    ("lrcs", "lowres"): (0.2674286899845589, 0.22476073057053947),
    ("lrcs", "none"): (0.6098288960589096, 0.3019331488346055),
    ("lrcs", "proposed"): (0.25862916803319674, 0.050836848346533625),
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
