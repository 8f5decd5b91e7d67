from lrcs_cdti import pipeline
from rss_stages import stage_rss


def test_every_stage_of_a_small_plan_reports_the_rising_mark():
    # single_r6's plan on a 16x16x2 grid, at R=2 and 2 ADMM iterations
    plan = pipeline.ExperimentPlan(
        n_subjects=1, R_list=(2.0,), methods=("lr", "cs", "lrcs"),
        phase_modes=("proposed",), lambda_scale=1e-2, solver={"max_iters": 2},
        save_arrays=False, base_config={"grid": [16, 16, 2], "r_endo": 3, "r_epi": 6})
    rows = stage_rss(plan, units=2)
    per_unit = ["metrics reference", "prepare", "preliminary",
                "setup proposed", "solve lr", "metrics lr", "solve cs", "metrics cs",
                "setup proposed", "solve lrcs", "metrics lrcs"]
    assert [(unit, stage) for unit, stage, _ in rows] == \
        [(unit, stage) for unit in (1, 2) for stage in per_unit]
    marks = [mb for _, _, mb in rows]
    assert marks[0] > 0 and marks == sorted(marks)
