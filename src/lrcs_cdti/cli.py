"""Command-line interface: phantom | simulate | recon | fit | metrics |
eval | run.

The stages compose: ``phantom`` writes a ground truth (its phantom
config and myocardium mask); ``simulate`` rebuilds the phantom from it
and turns it into the undersampled noisy k-space and estimated coil maps
that ``recon`` reads; ``fit`` takes the reconstruction and the ground
truth's mask to tensors, and ``metrics`` takes the tensors to HA/MD/FA
maps and the HAT table.  ``run`` is the whole chain over a cohort, and
``eval`` rebuilds its statistics from its ``summary.csv`` and
``regional.csv``, by the run's own :func:`pipeline.evaluate`.

All array inputs and outputs use the container format; configs are JSON;
tables are CSV, as the pipeline's (:func:`datamodel.write_table`);
previews are PGM.  Every flag can also be given in a JSON config file
(--config); explicit command-line values win.
``--threads`` (default 1) sizes the subject pool of ``run`` when the
plan sets no ``threads``.  Exit codes: 0 success, 1 validation, usage or
file error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from functools import cache
from pathlib import Path
from typing import Literal

import numpy as np

from . import datamodel as dm
from . import dti, encoding, pgm, phantom, pipeline, recon
from .errors import NumericalError, ValidationError

log = logging.getLogger("lrcs_cdti")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file with defaults for any flag")
    parser.add_argument("--threads", type=int, default=None,
                        help="threads of the run command's subject pool when "
                             "the plan sets none; other commands run on one "
                             "(default 1)")
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
    p.add_argument("--seed", type=int, default=None,
                   help="phantom seed, which also seeds the noise and the masks "
                        "of simulate (default: the params' seed)")
    _add_common(p)

    p = sub.add_parser("simulate", help="noisy undersampled k-space and coil maps")
    p.add_argument("--truth", required=True, help="ground-truth container")
    p.add_argument("--R", type=float, default=None, help="acceleration (default 1)")
    p.add_argument("--out", required=True, help="directory for kspace/ and coils/")
    _add_common(p)

    p = sub.add_parser("recon", help="reconstruct undersampled k-space")
    p.add_argument("--kspace", required=True, help="k-space container")
    p.add_argument("--coils", required=True, help="coil-map container")
    p.add_argument("--method", choices=[m.value for m in recon.Method], default=None)
    p.add_argument("--phase", choices=[m.value for m in recon.PhaseMode], default=None)
    p.add_argument("--rank", type=int, default=None,
                   help=f"subspace rank of lr and lrcs (default {recon.RANK}: S0 "
                        f"and the six tensor entries)")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="absolute regularization weight, in place of the scale")
    p.add_argument("--lambda-scale", type=float, default=None,
                   help=f"weight as a fraction of max |Psi A*(d)| (default "
                        f"{recon.LAMBDA_SCALE:g})")
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

    p = sub.add_parser("eval", help="cohort statistics and p-maps of a run")
    p.add_argument("--summary", required=True,
                   help="summary.csv from a run, with regional.csv beside it")
    p.add_argument("--out", required=True, help="stats.csv; p-maps go beside it")
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
    """The JSON object in ``path``.  Content that is not JSON text is a
    ValidationError naming the file; an unreadable file raises its OSError."""
    try:
        obj = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} {path} does not hold a JSON object")
    return obj


# values of the flags that neither the command line nor the config sets
_DEFAULTS = {"simulate": {"R": 1.0},
             "recon": {"method": "lrcs", "phase": "proposed", "rank": recon.RANK,
                       "lambda_scale": recon.LAMBDA_SCALE}}


def _merge_config(args: argparse.Namespace,
                  parser: argparse.ArgumentParser) -> argparse.Namespace:
    """Fill unset (None) flags of the command from the JSON config file,
    if given, then from ``_DEFAULTS``.  ``args.sources`` maps the dest of
    each flag that the config filled to where its value came from, for
    error messages.

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
    args.sources = {}
    for key, value in overrides.items():
        action = flags.get(key)
        if action is None or value is None or getattr(args, action.dest) is not None:
            continue
        where = f"config {args.config} key {key!r}"
        setattr(args, action.dest, _config_value(action, value, where))
        args.sources[action.dest] = where
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
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    # basicConfig sets no level once the root logger has a handler, as on
    # a second call in one process
    logging.getLogger().setLevel(level)
    if args.threads is None:
        args.threads = 1
    if args.threads < 1:
        raise ValidationError(f"--threads must be >= 1, got {args.threads}")


def cmd_phantom(args) -> int:
    params = _read_json(args.params, "params") if args.params is not None else {}
    if args.seed is not None:
        # the flag's (or the config's) seed replaces the file's; an error
        # names its source
        params.pop("seed", None)
    try:
        cfg = dm.config_from_json(phantom.PhantomConfig, params)
    except ValidationError as exc:
        if args.params is None:
            raise
        raise ValidationError(f"params {args.params}: {exc}") from exc
    if args.seed is not None:
        try:
            cfg = replace(cfg, seed=args.seed)
        except ValidationError as exc:
            raise ValidationError(
                f"{args.sources.get('seed', '--seed')}: {exc}") from exc
    truth = phantom.build_phantom(cfg)
    phantom.save_ground_truth(args.out, truth)
    log.info("phantom written to %s", args.out)
    return 0


def cmd_simulate(args) -> int:
    truth = phantom.load_ground_truth(args.truth)
    mask = pipeline.sampling_mask(truth.config, args.R)
    [d], coils = pipeline.acquire(*pipeline.acquisition_inputs(truth), [mask])
    encoding.save_kspace(Path(args.out) / "kspace", d)
    dm.save_coils(Path(args.out) / "coils", coils)
    log.info("k-space and coils written to %s (R_true = %.4f)", args.out, d.mask.r_true)
    return 0


def cmd_recon(args) -> int:
    d = encoding.load_kspace(args.kspace)
    coils = dm.load_coils(args.coils)
    cfg = (recon.SolverConfig() if args.iters is None
           else recon.SolverConfig(max_iters=args.iters))
    prelim = recon.preliminary(d, coils, cfg, args.rank, lam=args.lam,
                               scale=args.lambda_scale)
    result = recon.recon(prelim, args.method, args.phase)
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
    if arrays["mask"].dtype != bool:
        raise ValidationError(f"{args.mask}: 'mask' must be a bool array, got "
                              f"{arrays['mask'].dtype}")
    field = dti.fit_tensors(series, arrays["mask"])
    dti.save_tensors(args.out, field)
    log.info("tensors written to %s (%d clamped voxels)", args.out, field.n_clamped)
    return 0


def cmd_metrics(args) -> int:
    field = dti.load_tensors(args.tensors)
    mask = field.mask
    ha = dti.helix_angle(field)
    md = dti.mean_diffusivity(field)
    fa = dti.fractional_anisotropy(field)
    hat = dti.compute_hat(ha, mask)
    dti.check_finite_metrics(hat, float(md[mask].mean()))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dm.write_container(out / "maps",
                       {"ha": ha.astype(np.float64), "md": md.astype(np.float64),
                        "fa": fa.astype(np.float64), "mask": mask},
                       {"kind": "metric_maps"})
    pgm.write_map_previews(out / "previews", "ha", ha)
    pgm.write_map_previews(out / "previews", "md", md)
    pgm.write_map_previews(out / "previews", "fa", fa)

    dm.write_table(out / "hat.csv", ["slice", "ray", "slope", "r2"],
                   [(z, j, hat.ray_slopes[z, j], hat.ray_r2[z, j])
                    for z, j in np.ndindex(hat.ray_slopes.shape)]
                   + [("global", "", hat.global_hat, "")])

    if mask.shape[2] >= 3:
        seg = dti.segment_aha16(mask)
        reg_md = dti.regional_means(np.where(mask, md, np.nan), seg)
        dm.write_table(out / "segments.csv", ["segment", "mean_md", "n_voxels"],
                       [(s, reg_md[s - 1], np.count_nonzero(seg.segments == s))
                        for s in range(1, 17)])
    log.info("metrics written to %s (global HAT %.4f)", out, hat.global_hat)
    return 0


def cmd_eval(args) -> int:
    rows = pipeline.evaluate(args.summary, args.out)
    log.info("evaluation written to %s (%d rows)", args.out, len(rows))
    return 0


def cmd_run(args) -> int:
    plan_obj = _read_json(args.plan, "plan")
    plan_obj.setdefault("threads", args.threads)
    try:
        plan = dm.config_from_json(pipeline.ExperimentPlan, plan_obj)
    except ValidationError as exc:
        raise ValidationError(f"plan {args.plan}: {exc}") from exc
    result = pipeline.run_experiment(plan)
    n_fail = sum(1 for c in result["cells"] if not c.ok)
    log.info("experiment finished: %d cells, %d failed; outputs in %s",
             len(result["cells"]), n_fail, plan.output_dir)
    return 0


_COMMANDS = {"phantom": cmd_phantom, "simulate": cmd_simulate, "recon": cmd_recon,
             "fit": cmd_fit, "metrics": cmd_metrics, "eval": cmd_eval,
             "run": cmd_run}


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process: parsing
    leaves it unchanged, and each parse makes a fresh namespace."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its message; its usage-error code, 2, would
        # read as a numerical failure
        return 1 if exc.code else 0
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
    except OSError as exc:
        where = "" if exc.filename is None else f": {exc.filename}"
        print(f"error [{args.command}]: {exc.strerror or exc}{where}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure [{args.command}]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
