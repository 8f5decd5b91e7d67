#!/usr/bin/env python3
"""Benchmark of lrcs-cdti, run from the root of a source checkout:

    python3 perfbench/run.py --workload single_r6 --seed 1 --seconds 10 --trace 0

One run measures one workload (see ``workloads.py`` and README.md).  It
sets up the workload's inputs several times in fresh processes (the
median is ``setup_s``), repeats the workload's unit of work until
``--seconds`` have passed (the median is ``wall_s``), and checks every
unit's outputs against ``expected.json``.  With ``--trace 1`` it adds an
untraced baseline and one traced unit and reports the per-layer metrics
instead.  The last line of stdout is the JSON result; the exit code is 1
when an output check fails.
"""

import os

# One BLAS/OpenMP thread per process, set before numpy loads and
# inherited by every child; the FFT workers are pinned by --threads 1.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio",
              "hat_bias": "ratio", "md_bias": "ratio"}
# accuracy value whose bias is reported end to end, per workload
HEADLINE = {"single_r6": "lrcs", "cohort_small": "lrcs", "reanalysis": "fit"}
# wrapped functions each workload's timed section must call; every other
# wrapped function must read zero calls there
_RECON_PATH = {
    "cli.main", "pipeline.prepare_subject", "pipeline.run_subject_cells",
    "phantom.build_phantom", "phantom.add_noise", "encoding.coil_kspace",
    "encoding.estimate_coil_maps", "encoding.make_sampling_mask",
    "encoding.EncodingModel", "encoding.normal_matrix", "encoding.adjoint_matrix",
    "transforms.series_forward", "transforms.series_adjoint",
    "transforms.group_shrink", "recon.admm_solve", "recon.cg_solve",
    "recon.reconstruct_cs_only", "recon.reconstruct_lrcs", "recon.lambda_base",
    "recon.estimate_phase_map", "recon.estimate_subspace", "dti.fit_tensors",
    "dti.helix_angle", "dti.compute_hat", "dti.segment_aha16", "dti.regional_means",
}
ON_PATH = {
    "single_r6": _RECON_PATH,
    "cohort_small": _RECON_PATH | {
        "recon.select_lambda", "datamodel.write_container",
        "phantom.save_ground_truth", "stats.summarize", "stats.regional_pmap"},
    "reanalysis": {
        "cli.main", "datamodel.read_container", "datamodel.write_container",
        "dti.fit_tensors", "dti.helix_angle", "dti.compute_hat",
        "dti.segment_aha16", "dti.regional_means", "dti.save_tensors",
        "dti.load_tensors", "pgm.write_map_previews", "stats.summarize"},
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(HEADLINE))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR",
                        help="import the program, write the inputs to DIR and exit "
                             "(one set-up sample)")
    return parser.parse_args(argv)


def import_program():
    """Import lrcs_cdti from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import lrcs_cdti.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import lrcs_cdti from {SRC}: {exc}")
    if SRC.resolve() not in Path(lrcs_cdti.__file__).resolve().parents:
        sys.exit(f"perfbench: lrcs_cdti resolved to {lrcs_cdti.__file__}, "
                 f"not under {SRC}")
    return lrcs_cdti


def measure_setup(args, root: Path) -> list[float]:
    """Wall time of fresh processes that start the interpreter, import
    the program and write the workload's inputs; the last one's inputs
    stay in ``root`` for the timed section."""
    samples = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(root, ignore_errors=True)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--workload", args.workload, "--seed", str(args.seed),
                        "--setup-only", str(root)], check=True, timeout=170)
        samples.append(time.perf_counter() - t0)
        # flush the inputs now, so their write-back does not slow what follows
        os.sync()
    return samples


class Units:
    """Repeats a workload's unit of work and keeps what each one gave."""

    def __init__(self, workload, root: Path):
        self.workload = workload
        self.root = root
        self.times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.values: dict[str, float] = {}
        self.problems: list[str] = []

    def run_one(self, baseline: bool = False, tracer=None) -> float:
        self.workload.reset(self.root)
        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            attempted, failed = self.workload.run(self.root, baseline=baseline)
            elapsed = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.attempted += attempted
        self.failed += failed
        values, problems = self.workload.outputs(self.root)
        self.problems += problems
        if self.values and values != self.values:
            self.problems.append("outputs differ between units of the same inputs")
        self.values = self.values or values
        return elapsed

    def run_for(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while True:
            self.times.append(self.run_one())
            if time.perf_counter() >= deadline:
                break


def check_outputs(workload: str, values: dict, bounds: dict) -> list[str]:
    """Each accuracy value must sit within its metric's bound (a share of
    the recorded value) of the value recorded in expected.json."""
    expected = json.loads((HERE / "expected.json").read_text())[workload]
    problems = []
    for name in sorted(set(values) | set(expected)):
        if name not in values or name not in expected:
            problems.append(f"{name}: measured {values.get(name)}, "
                            f"recorded {expected.get(name)}")
            continue
        tol = bounds[name.split(".")[0]] * abs(expected[name])
        ok = abs(values[name] - expected[name]) <= tol
        print(f"check {name:<22} {values[name]:.6f} recorded {expected[name]:.6f}"
              f" +/- {tol:.6f} {'ok' if ok else 'FAILED'}")
        if not ok:
            problems.append(f"{name} = {values[name]!r} is outside "
                            f"{expected[name]!r} +/- {tol!r}")
    return problems


def run_info(args, workload) -> dict:
    import numpy as np
    import scipy
    from lrcs_cdti import encoding

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "fft_workers": encoding.get_fft_workers(),
            "plan_threads": workload.plan_threads,
            "baseline_plan_threads": workload.baseline_threads,
            "thread_env": {v: os.environ[v] for v in
                           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "commit": commit}


def end_to_end(args, workload, root: Path):
    setup = measure_setup(args, root)
    units = Units(workload, root)
    units.run_for(args.seconds)
    head = HEADLINE[args.workload]
    metrics = {
        "wall_s": statistics.median(units.times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (units.attempted - units.failed) / units.attempted,
        "hat_bias": units.values.get(f"hat_bias.{head}", 0.0),
        "md_bias": units.values.get(f"md_bias.{head}", 0.0),
    }
    print(f"units {len(units.times)}: wall_s samples "
          + " ".join(f"{t:.4f}" for t in units.times))
    print("setup_s samples " + " ".join(f"{t:.4f}" for t in setup))
    return units, metrics


def per_layer(args, workload, root: Path):
    import layertrace

    workload.generate(root, args.seed)
    units = Units(workload, root)
    units.run_for(args.seconds)
    untraced = statistics.median(units.times)
    speedup = 0.0
    if workload.baseline_threads is not None:
        speedup = units.run_one(baseline=True) / untraced
    tracer = layertrace.layer_tracer()
    traced = units.run_one(tracer=tracer)
    stats = layertrace.aggregate(tracer.spans)
    metrics = layertrace.span_values(stats)
    for name, _, _ in layertrace.COUNTERS:
        metrics[name] = tracer.counters.get(name, 0)

    spans = tracer.spans
    cs = [s for s in spans if s.name == "recon.reconstruct_cs_only"]
    useful = [s for s in cs if s.parent != "recon.select_lambda"]
    metrics["recon.cs_only.useful_ratio"] = len(useful) / len(cs) if cs else 0.0
    starts = [s.start for s in spans if s.name == "cli.main"]
    metrics["pipeline.subject_wait_s"] = sum(
        s.start - min(starts) for s in spans if s.name == "pipeline.prepare_subject")
    main = threading.main_thread().ident
    pooled = [s for s in spans if s.parent is None and s.thread != main]
    if pooled:
        window = max(s.end for s in pooled) - min(s.start for s in pooled)
        metrics["pipeline.pool_busy_ratio"] = (
            sum(s.end - s.start for s in pooled) / (workload.plan_threads * window))
    metrics["pipeline.pool_speedup"] = speedup
    metrics["trace.overhead_s"] = traced - untraced

    on_path = ON_PATH[args.workload]
    for name, entry in sorted(stats.items()):
        if (entry.calls > 0) != (name in on_path):
            units.problems.append(
                f"{name}: {entry.calls} calls, expected "
                f"{'some' if name in on_path else 'none'} on {args.workload}")
    for thread in {s.thread for s in spans}:
        busy = sum(s.self_s for s in spans if s.thread == thread)
        if busy > traced + 1e-3:
            units.problems.append(f"self times of thread {thread} sum to "
                                  f"{busy:.4f} s > traced wall {traced:.4f} s")
    print(f"untraced units {len(units.times)}: median {untraced:.4f} s; "
          f"traced unit {traced:.4f} s")
    return units, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        workload.generate(Path(args.setup_only), args.seed)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    root = WORK / args.workload
    if args.trace:
        import layertrace
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        produced = {name: unit for name, unit, _ in layertrace.per_layer_spec()}
        units, metrics = per_layer(args, workload, root)
    else:
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        produced = END_TO_END
        units, metrics = end_to_end(args, workload, root)
    if declared != produced or set(metrics) != set(produced):
        sys.exit("perfbench: metrics produced do not match BENCHMARK.json")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    problems = units.problems + check_outputs(args.workload, units.values, bounds)
    if units.failed:
        problems.append(f"{units.failed} of {units.attempted} operations failed")
    for name, value in metrics.items():
        if not math.isfinite(value):
            problems.append(f"{name} is {value}")
            metrics[name] = 0.0
    info = run_info(args, workload)
    print("run_info " + json.dumps(info))
    for name, value in units.values.items():
        print(f"output {name:<28} {value:.6f} ratio")
    for name, value in metrics.items():
        print(f"metric {name:<44} {value:.6g} {declared[name]}")
    for problem in problems:
        print(f"problem: {problem}")
    correct = not problems
    root.mkdir(parents=True, exist_ok=True)
    (root / f"result_trace{args.trace}.json").write_text(json.dumps(
        {"info": info, "outputs": units.values, "metrics": metrics,
         "unit_times": units.times, "problems": problems}, indent=1))
    print(json.dumps({
        "correct": correct, "attempted": units.attempted, "failed": units.failed,
        "metrics": {name: {"value": value, "unit": declared[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
