import pytest

from lrcs_cdti import pipeline


@pytest.fixture(scope="session")
def study(tmp_path_factory):
    """One small study shared by the pipeline and CLI tests: 3 subjects on
    a 32x32x3 grid, R=2, every method x phase mode, fixed lambda."""
    out = tmp_path_factory.mktemp("study")
    plan = pipeline.ExperimentPlan(
        n_subjects=3, master_seed=0, R_list=(2.0,), methods=("lr", "cs", "lrcs"),
        phase_modes=("proposed", "none"), lambda_scale=1e-2, rank=7,
        solver={"max_iters": 5, "cg_max_iters": 6}, threads=1, save_arrays=False,
        base_config={"grid": [32, 32, 3], "r_endo": 6, "r_epi": 12},
        output_dir=str(out))
    return plan, pipeline.run_experiment(plan)
