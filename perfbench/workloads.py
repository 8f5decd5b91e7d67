"""The benchmark's workloads.

Each workload writes its inputs from a seed (:meth:`generate`), runs one
unit of work through the public entry points (:meth:`run`, the only
timed call) and reads its outputs back (:meth:`outputs`) as accuracy
values plus a list of failed structural checks.

Every workload works on the subjects its accuracy references were
recorded on (``master_seed`` 0), so its outputs can be checked against
expected.json to a tight tolerance and a change of results cannot pass
as a change of speed.  The seed sets the order of the work: the order of
the plan's R values, methods and phase modes for the studies, and the
order of the series for the re-analysis.  It changes which solve or fit
runs after which, not their results.
"""

from __future__ import annotations

import csv
import json
import random
import shutil
from pathlib import Path

CLI_FLAGS = ["--threads", "1", "--log-level", "warning"]


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


class StudyWorkload:
    """``lrcs-cdti run`` on one experiment plan."""

    def __init__(self, plan: dict, baseline_threads: int | None = None):
        self.plan = plan
        # plan threads of the extra untraced run that gives pool_speedup
        self.baseline_threads = baseline_threads

    @property
    def plan_threads(self) -> int:
        return self.plan["threads"]

    def generate(self, root: Path, seed: int) -> None:
        rng = random.Random(seed)
        plan = dict(self.plan)
        for key in ("R_list", "methods", "phase_modes"):
            plan[key] = rng.sample(list(plan[key]), len(plan[key]))
        plan["output_dir"] = str(root / "study")
        root.mkdir(parents=True, exist_ok=True)
        (root / "plan.json").write_text(json.dumps(plan, indent=1))
        if self.baseline_threads is not None:
            (root / "plan_baseline.json").write_text(
                json.dumps({**plan, "threads": self.baseline_threads}, indent=1))

    def reset(self, root: Path) -> None:
        shutil.rmtree(root / "study", ignore_errors=True)

    def run(self, root: Path, baseline: bool = False) -> tuple[int, int]:
        from lrcs_cdti import cli
        plan = root / ("plan_baseline.json" if baseline else "plan.json")
        rc = cli.main(["run", "--plan", str(plan), *CLI_FLAGS])
        rows = self._cells(root)
        if not rows:
            return 1, 1
        failed = sum(1 for r in rows if r["ok"] != "True") + (rc != 0)
        return len(rows), min(failed, len(rows))

    @staticmethod
    def _cells(root: Path) -> list[dict]:
        path = root / "study" / "summary.csv"
        if not path.is_file():
            return []
        with open(path, newline="") as fh:
            return [r for r in csv.DictReader(fh) if r["method"] != "reference"]

    def outputs(self, root: Path) -> tuple[dict[str, float], list[str]]:
        rows = self._cells(root)
        groups: dict[str, list[dict]] = {}
        for r in rows:
            key = r["method"] if r["phase_mode"] == "proposed" \
                else f"{r['method']}-{r['phase_mode']}"
            groups.setdefault(key, []).append(r)
        values = {}
        for key, group in sorted(groups.items()):
            for metric in ("hat_bias", "md_bias"):
                values[f"{metric}.{key}"] = _mean([float(r[metric]) for r in group])
        problems = []
        n_cells = (self.plan["n_subjects"] * len(self.plan["R_list"])
                   * len(self.plan["methods"]) * len(self.plan["phase_modes"]))
        if len(rows) != n_cells:
            problems.append(f"summary.csv has {len(rows)} cells, plan has {n_cells}")
        study = root / "study"
        if self.plan["save_arrays"]:
            n_recon = len(list(study.glob("subject*/R*/*/recon/header.json")))
            if n_recon != n_cells:
                problems.append(f"{n_recon} reconstructions written, expected {n_cells}")
        if self.plan["n_subjects"] >= 3:
            n_groups = n_cells // self.plan["n_subjects"]
            with open(study / "stats.csv", newline="") as fh:
                n_stats = sum(1 for _ in csv.DictReader(fh))
            n_pmaps = len(list(study.glob("pmap_*.csv")))
            if n_stats != 2 * n_groups or n_pmaps != 2 * n_groups:
                problems.append(f"{n_stats} stats rows and {n_pmaps} p-maps, "
                                f"expected {2 * n_groups} each")
        return values, problems


class ReanalysisWorkload:
    """Solver-free pass over a generated study tree: ``fit`` and
    ``metrics`` per series, then ``eval`` on a summary built from their
    outputs, all through in-process ``cli.main``.

    Series are written with ``datamodel.save_series`` because the CLI
    ``phantom`` container cannot feed ``fit`` (its series array is named
    ``clean``, not ``data``).
    """

    plan_threads = 1
    baseline_threads = None

    def __init__(self, n_subjects: int, snrs: tuple[float, ...]):
        self.n_subjects = n_subjects
        self.snrs = snrs

    def generate(self, root: Path, seed: int) -> None:
        from lrcs_cdti import datamodel as dm
        from lrcs_cdti import phantom, pipeline

        plan = pipeline.ExperimentPlan(n_subjects=self.n_subjects, master_seed=0)
        tree = root / "tree"
        truth = {}
        for i in range(self.n_subjects):
            cfg = pipeline.subject_config(plan, i)
            gt = phantom.build_phantom(cfg)
            sdir = tree / f"subject{i:02d}"
            phantom.save_ground_truth(sdir / "ground_truth", gt)
            signal = gt.phase.values * gt.clean_series.data
            s0 = phantom.mean_s0(gt)
            for k, snr in enumerate(self.snrs):
                noisy = phantom.add_noise(signal, snr, s0, seed=cfg.seed + k)
                dm.save_series(sdir / f"snr{snr:g}", gt.clean_series.with_data(noisy))
            truth[i] = {"hat": gt.hat_global,
                        "md": float(gt.md_map[gt.myocardium_mask].mean())}
        (tree / "truth.json").write_text(json.dumps(truth))
        order = [[i, snr] for i in range(self.n_subjects) for snr in self.snrs]
        random.Random(seed).shuffle(order)
        (tree / "order.json").write_text(json.dumps(order))

    def reset(self, root: Path) -> None:
        shutil.rmtree(root / "analysis", ignore_errors=True)

    def run(self, root: Path, baseline: bool = False) -> tuple[int, int]:
        import numpy as np
        from lrcs_cdti import cli
        from lrcs_cdti import datamodel as dm

        tree, out = root / "tree", root / "analysis"
        out.mkdir(parents=True, exist_ok=True)
        truth = json.loads((tree / "truth.json").read_text())
        rows = [{"subject": int(i), "R": 1.0, "method": "reference",
                 "phase_mode": "", "ok": True, "hat": t["hat"], "md": t["md"]}
                for i, t in truth.items()]
        attempted = failed = 0
        for i, snr in json.loads((tree / "order.json").read_text()):
            sdir = tree / f"subject{i:02d}"
            work = out / f"subject{i:02d}" / f"snr{snr:g}"
            rc_fit = cli.main(["fit", "--series", str(sdir / f"snr{snr:g}"),
                               "--mask", str(sdir / "ground_truth"),
                               "--out", str(work / "tensors"), *CLI_FLAGS])
            rc_metrics = cli.main(["metrics", "--tensors", str(work / "tensors"),
                                   "--out", str(work / "metrics"), *CLI_FLAGS])
            attempted += 2
            failed += (rc_fit != 0) + (rc_metrics != 0)
            if rc_fit or rc_metrics:
                continue
            with open(work / "metrics" / "hat.csv", newline="") as fh:
                hat = float(list(csv.reader(fh))[-1][2])
            maps, _ = dm.read_container(work / "metrics" / "maps")
            md = float(np.mean(maps["md"][maps["mask"]]))
            rows.append({"subject": i, "R": 1.0, "method": "fit",
                         "phase_mode": f"snr{snr:g}", "ok": True,
                         "hat": hat, "md": md})
        with open(out / "summary.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows({k: repr(v) if isinstance(v, float) else v
                              for k, v in r.items()} for r in rows)
        rc_eval = cli.main(["eval", "--summary", str(out / "summary.csv"),
                            "--out", str(out / "eval.csv"), *CLI_FLAGS])
        return attempted + 1, failed + (rc_eval != 0)

    def outputs(self, root: Path) -> tuple[dict[str, float], list[str]]:
        out = root / "analysis"
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        ref = {r["subject"]: r for r in rows if r["method"] == "reference"}
        fits = [r for r in rows if r["method"] == "fit"]
        problems = []
        if len(fits) != self.n_subjects * len(self.snrs):
            problems.append(f"{len(fits)} fitted series, expected "
                            f"{self.n_subjects * len(self.snrs)}")
        biases = {m: {} for m in ("hat", "md")}
        for r in fits:
            for m in biases:
                truth = float(ref[r["subject"]][m])
                biases[m].setdefault(r["phase_mode"], []).append(
                    abs((float(r[m]) - truth) / truth))
        values = {f"{m}_bias.fit": _mean([b for g in biases[m].values() for b in g])
                  for m in biases}
        # eval's bias means must agree with the ones computed here
        with open(out / "eval.csv", newline="") as fh:
            evals = list(csv.DictReader(fh))
        if len(evals) != 2 * len(self.snrs):
            problems.append(f"eval.csv has {len(evals)} rows, "
                            f"expected {2 * len(self.snrs)}")
        for e in evals:
            mine = _mean(biases[e["metric"]][e["phase_mode"]])
            if abs(float(e["bias_mean"]) - mine) > 1e-9 * max(1.0, mine):
                problems.append(f"eval bias_mean {e['bias_mean']} for "
                                f"{e['phase_mode']}/{e['metric']} != {mine!r}")
        return values, problems


WORKLOADS = {
    # compute-bound solver case: 64x64x4 grid, one subject, fixed lambda
    "single_r6": StudyWorkload({
        "n_subjects": 1, "master_seed": 0, "R_list": [6.0],
        "methods": ["lr", "cs", "lrcs"], "phase_modes": ["proposed"],
        "lambda_scale": 1e-2, "rank": 7, "solver": {"max_iters": 25},
        "threads": 1, "save_arrays": False}),
    # small-grid cohort: lambda grid, subject pool, container writes, stats
    "cohort_small": StudyWorkload({
        "n_subjects": 4, "master_seed": 0, "R_list": [2.0],
        "methods": ["lr", "cs", "lrcs"], "phase_modes": ["proposed", "none"],
        "lambda_scale": None, "rank": 7,
        "solver": {"max_iters": 5, "cg_max_iters": 6},
        "threads": 2, "save_arrays": True,
        "base_config": {"grid": [32, 32, 3], "r_endo": 6, "r_epi": 12}},
        baseline_threads=1),
    # solver-free re-analysis: dti, container reads, pgm, stats
    "reanalysis": ReanalysisWorkload(n_subjects=6, snrs=(8.0, 12.0, 20.0, 40.0)),
}
