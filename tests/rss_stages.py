"""Peak resident memory of a study, stage by stage.  Run as
``python tests/rss_stages.py [--units N]`` it runs the plan of the
benchmark's ``single_r6`` workload, as ``perfbench/workloads.py``
defines it (one 64x64x4 subject at R=6; lr, cs and lrcs at the proposed
phase; a fixed weight; 25 ADMM iterations), N times in this
process, and prints the process's ru_maxrss, its resident high-water
mark, after each stage of the study's own path: the subject's
preparation (acquisition, reference and reference metrics), the
preliminary solve, the phased model's setup, and each cell's solve and
metrics.  The mark only rises, so the stage after which it rises is the
one that set it; the benchmark's ``peak_rss_mb`` is the mark after its
last unit, a maximum over stages and units."""

import argparse
import os
import resource
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def max_rss_mb() -> float:
    """The process's ru_maxrss in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def stage_rss(plan, units: int = 1) -> list[tuple[int, str, float]]:
    """(unit, stage, ru_maxrss MB) after each stage of ``units`` runs of
    ``plan``, each into its own temporary ``output_dir``.  The stages
    are the study's own calls, wrapped while it runs: ``prepare``,
    ``preliminary``, ``setup <mode>`` (inside each lr and lrcs solve,
    made on the first and read back after), ``solve <method>`` and
    ``metrics <method>`` (``metrics reference`` inside ``prepare``)."""
    from lrcs_cdti import pipeline, recon
    rows, unit, method = [], 0, ["reference"]

    def wrap(owner, name, label):
        real = getattr(owner, name)

        def staged(*args, **kwargs):
            out = real(*args, **kwargs)
            rows.append((unit, label(*args), max_rss_mb()))
            return out
        return owner, name, real, staged

    def solve_label(prelim, name, mode):
        method[0] = recon.Method(name).value
        return f"solve {method[0]}"

    wrapped = [wrap(pipeline, "prepare_subject", lambda *a: "prepare"),
               wrap(recon, "preliminary", lambda *a: "preliminary"),
               wrap(recon.Preliminary, "setup",
                    lambda prelim, mode: f"setup {recon.PhaseMode(mode).value}"),
               wrap(recon, "recon", solve_label),
               wrap(pipeline, "_series_metrics", lambda *a: f"metrics {method[0]}")]
    try:
        for owner, name, _, staged in wrapped:
            setattr(owner, name, staged)
        for unit in range(1, units + 1):
            method[0] = "reference"
            with tempfile.TemporaryDirectory() as out:
                pipeline.run_experiment(replace(plan, output_dir=str(Path(out) / "study")))
    finally:
        for owner, name, real, _ in wrapped:
            setattr(owner, name, real)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--units", type=int, default=1,
                        help="runs of the plan in this process (default 1)")
    args = parser.parse_args(argv)
    # one BLAS thread, as the benchmark sets before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from lrcs_cdti import pipeline
    from workloads import WORKLOADS
    plan = pipeline.ExperimentPlan(**WORKLOADS["single_r6"].plan)
    for unit, stage, mb in stage_rss(plan, args.units):
        print(f"unit {unit}  {stage:<20} {mb:8.2f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
