"""Command-line interface: phantom | sample | recon | fit | metrics |
eval | run.

All array inputs and outputs use the container format; configs are JSON;
tables are CSV; previews are PGM.  Every flag can also be given in a
JSON config file (--config); explicit command-line values win.  Exit
codes: 0 success, 1 validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from pathlib import Path
from typing import Literal

import numpy as np

from . import datamodel as dm
from . import dti, encoding, pgm, phantom, pipeline, recon
from .errors import NumericalError, ValidationError

log = logging.getLogger("lrcs_cdti")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file with defaults for any flag")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--threads", type=int, default=None,
                        help="bound on internal parallelism "
                             "(default: LRCS_CDTI_THREADS or 1)")
    parser.add_argument("--log-level", default=None,
                        choices=["debug", "info", "warning", "error"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrcs-cdti",
        description="Phase-corrected low-rank + group-sparse reconstruction "
                    "for cardiac diffusion tensor imaging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="build the synthetic LV phantom")
    p.add_argument("--params", help="PhantomConfig JSON file")
    p.add_argument("--out", required=True, help="ground-truth container directory")
    _add_common(p)

    p = sub.add_parser("sample", help="generate a sampling mask")
    p.add_argument("--series", required=True,
                   help="series container supplying dims and column labels")
    p.add_argument("--R", type=float, default=None)
    p.add_argument("--scheme", choices=["proposed", "lowres-lattice"], default=None)
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("recon", help="reconstruct undersampled k-space")
    p.add_argument("--kspace", required=True, help="k-space container")
    p.add_argument("--coils", required=True, help="coil-map container")
    p.add_argument("--method", choices=[m.value for m in recon.Method], default=None)
    p.add_argument("--phase", choices=[m.value for m in recon.PhaseMode], default=None)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="absolute regularization weight")
    p.add_argument("--lambda-scale", type=float, default=None,
                   help="weight as a fraction of max |Psi A*(d)|")
    p.add_argument("--lambda-grid", action="store_true", default=None,
                   help="select the weight by the nuclear-norm criterion")
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("fit", help="fit diffusion tensors")
    p.add_argument("--series", required=True)
    p.add_argument("--mask", required=True, help="container with a 'mask' array")
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("metrics", help="HA/MD/FA maps, HAT table, AHA segments")
    p.add_argument("--tensors", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("eval", help="cohort statistics from metric CSVs")
    p.add_argument("--summary", required=True, help="summary.csv from a run")
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("run", help="run a full experiment plan")
    p.add_argument("--plan", required=True, help="ExperimentPlan JSON")
    _add_common(p)
    return parser


def _flags(parser: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """The flags of ``parser`` by every name a config key may use: the
    option name (``lambda-scale``) and the attribute (``lambda_scale``)."""
    return {name: a for a in parser._actions
            if not isinstance(a, (argparse._HelpAction, argparse._SubParsersAction))
            for name in (a.dest, *(o.lstrip("-") for o in a.option_strings))}


def _read_json(path, what: str) -> dict:
    """The JSON object in ``path``.  Unreadable or malformed content is a
    ValidationError naming the file; a missing file stays
    FileNotFoundError."""
    try:
        obj = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} {path} does not hold a JSON object")
    return obj


# values of the flags that neither the command line nor the config sets
_DEFAULTS = {"sample": {"R": 1.0, "seed": 0, "scheme": "proposed"},
             "recon": {"method": "lrcs", "phase": "proposed", "lambda_scale": 1e-2}}


def _merge_config(args: argparse.Namespace,
                  parser: argparse.ArgumentParser) -> argparse.Namespace:
    """Fill unset (None) flags of the command from the JSON config file,
    if given, then from ``_DEFAULTS``.

    Every key must name a flag of some command; keys of other commands
    are ignored, so one config can serve several commands.  A value must
    fit its flag: one of the choices, a number for a numeric flag, a
    boolean for a switch, a string otherwise.
    """
    overrides = {} if args.config is None else _read_json(args.config, "config")
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    known = set().union(*map(_flags, commands.values()))
    unknown = sorted(set(overrides) - known)
    if unknown:
        raise ValidationError(f"config {args.config}: key(s) "
                              f"{', '.join(map(repr, unknown))} name no flag "
                              f"of any command")
    flags = _flags(commands[args.command])
    for key, value in overrides.items():
        action = flags.get(key)
        if action is None or value is None or getattr(args, action.dest) is not None:
            continue
        setattr(args, action.dest,
                _config_value(action, value, f"config {args.config} key {key!r}"))
    for dest, value in _DEFAULTS.get(args.command, {}).items():
        if getattr(args, dest) is None:
            setattr(args, dest, value)
    return args


def _config_value(action: argparse.Action, value, where: str):
    """``value`` from a JSON config, checked against the flag it fills."""
    if action.choices is not None:
        hint = Literal[tuple(action.choices)]
    elif action.nargs == 0:
        hint = bool
    else:
        hint = action.type or str
    value = dm.json_value(value, hint, where)
    return action.type(value) if action.type else value


def _setup(args: argparse.Namespace) -> None:
    level = ("info" if args.log_level is None else args.log_level).upper()
    logging.basicConfig(level=getattr(logging, level),
                        format="%(levelname)s %(name)s: %(message)s")
    threads = args.threads
    if threads is None:
        env = os.environ.get("LRCS_CDTI_THREADS", "1")
        try:
            threads = int(env)
        except ValueError:
            raise ValidationError(f"environment variable LRCS_CDTI_THREADS "
                                  f"must be an integer, got {env!r}") from None
    encoding.set_fft_workers(threads)
    args.threads = threads


def cmd_phantom(args) -> int:
    params = _read_json(args.params, "params") if args.params is not None else {}
    if args.seed is not None:
        params["seed"] = args.seed
    try:
        cfg = dm.config_from_json(phantom.PhantomConfig, params)
    except ValidationError as exc:
        raise ValidationError(f"params {args.params}: {exc}") from exc
    truth = phantom.build_phantom(cfg)
    phantom.save_ground_truth(args.out, truth)
    log.info("phantom written to %s", args.out)
    return 0


def cmd_sample(args) -> int:
    series = dm.load_series(args.series)
    _, ny, nz = series.spatial_dims
    mask = encoding.make_sampling_mask(
        ny, nz, series.column_labels, R=args.R, seed=args.seed, scheme=args.scheme)
    dm.save_mask(args.out, mask)
    log.info("mask written to %s (R_true = %.4f)", args.out, mask.r_true)
    return 0


def cmd_recon(args) -> int:
    d = encoding.load_kspace(args.kspace)
    coils = dm.load_coils(args.coils)
    model = encoding.EncodingModel(coils, d.mask, None)

    cfg = (recon.SolverConfig() if args.iters is None
           else recon.SolverConfig(max_iters=args.iters))
    # an absolute --lambda wins, then --lambda-grid, then the scale
    cfg, prelim = recon.preliminary(d, model, cfg, lam=args.lam,
                                    scale=None if args.lambda_grid else args.lambda_scale)
    result = recon.recon(d, model, prelim, args.method, args.phase, args.rank, cfg)
    out = Path(args.out)
    dm.save_series(out, result.series)
    (out / "run_report.json").write_text(json.dumps(result.report.to_json(),
                                                    indent=1))
    log.info("reconstruction written to %s", out)
    return 0


def cmd_fit(args) -> int:
    series = dm.load_series(args.series)
    # any container with a 'mask' array will do (a ground truth, say)
    arrays, _ = dm.read_container(args.mask, names=("mask",))
    field = dti.fit_tensors(series, arrays["mask"])
    dti.save_tensors(args.out, field)
    log.info("tensors written to %s (%d clamped voxels)", args.out, field.n_clamped)
    return 0


def cmd_metrics(args) -> int:
    field = dti.load_tensors(args.tensors)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    mask = field.mask
    ha = dti.helix_angle(field)
    md = dti.mean_diffusivity(field)
    fa = dti.fractional_anisotropy(field)
    dm.write_container(out / "maps",
                       {"ha": ha.astype(np.float64), "md": md.astype(np.float64),
                        "fa": fa.astype(np.float64), "mask": mask},
                       {"kind": "metric_maps"})
    pgm.write_map_previews(out / "previews", "ha", ha)
    pgm.write_map_previews(out / "previews", "md", md)
    pgm.write_map_previews(out / "previews", "fa", fa)

    hat = dti.compute_hat(ha, mask)
    with open(out / "hat.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slice", "ray", "slope", "r2"])
        nz, n_rays = hat.ray_slopes.shape
        for z in range(nz):
            for j in range(n_rays):
                writer.writerow([z, j, repr(hat.ray_slopes[z, j]),
                                 repr(hat.ray_r2[z, j])])
        writer.writerow(["global", "", repr(hat.global_hat), ""])

    if mask.shape[2] >= 3:
        seg = dti.segment_aha16(mask)
        reg_md = dti.regional_means(np.where(mask, md, np.nan), seg)
        with open(out / "segments.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["segment", "mean_md", "n_voxels"])
            for s in range(1, 17):
                writer.writerow([s, repr(reg_md[s - 1]),
                                 int(np.count_nonzero(seg.segments == s))])
    log.info("metrics written to %s (global HAT %.4f)", out, hat.global_hat)
    return 0


def cmd_eval(args) -> int:
    """Cohort statistics from a run's summary.csv; the table carries no
    regional values, so no p-maps are written."""
    with open(args.summary, newline="") as fh:
        rows = list(csv.DictReader(fh))

    def metrics(row):
        if row["ok"] not in ("True", "true"):
            return None
        return pipeline.SubjectMetrics(float(row["hat"]), float(row["md"]),
                                       None, None)

    refs = {int(r["subject"]): metrics(r) for r in rows
            if r["method"] == "reference"}
    groups = {}
    for row in rows:
        if row["method"] == "reference":
            continue
        subject = int(row["subject"])
        key = (float(row["R"]), row["method"], row["phase_mode"])
        groups.setdefault(key, {})[subject] = (refs.get(subject), metrics(row))
    out_rows = pipeline.write_stats(groups, Path(args.out))
    log.info("evaluation written to %s (%d rows)", args.out, len(out_rows))
    return 0


def cmd_run(args) -> int:
    plan_obj = _read_json(args.plan, "plan")
    if args.threads is not None and "threads" not in plan_obj:
        plan_obj["threads"] = args.threads
    try:
        plan = dm.config_from_json(pipeline.ExperimentPlan, plan_obj)
    except ValidationError as exc:
        raise ValidationError(f"plan {args.plan}: {exc}") from exc
    result = pipeline.run_experiment(plan)
    n_fail = sum(1 for c in result["cells"] if not c.ok)
    log.info("experiment finished: %d cells, %d failed; outputs in %s",
             len(result["cells"]), n_fail, plan.output_dir)
    return 0


_COMMANDS = {"phantom": cmd_phantom, "sample": cmd_sample, "recon": cmd_recon,
             "fit": cmd_fit, "metrics": cmd_metrics, "eval": cmd_eval,
             "run": cmd_run}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args, parser)
        _setup(args)
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error [{args.command}]: missing file {exc.filename}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure [{args.command}]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
