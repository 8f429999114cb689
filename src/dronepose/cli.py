"""Command-line front end: run scenarios, recompute metrics, sweep parameters."""

from __future__ import annotations

import argparse
import os
import sys

from .pipeline import run
from .report import compute_metrics, export, record_from_csv
from .scenario import ScenarioError, load_scenario


def _parse_overrides(pairs):
    overrides = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ScenarioError(f"override {pair!r} must look like key=value")
        key, _, value = pair.partition("=")
        overrides[key.strip()] = value.strip()
    return overrides


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario, overrides=_parse_overrides(args.overrides),
                             seed=args.seed)
    record = run(scenario)
    report = compute_metrics(record)
    paths = export(record, report, args.out, scenario)
    sys.stdout.write(report.to_text())
    sys.stdout.write(f"wrote {paths['trajectory']}\n")
    return 0


def _cmd_metrics(args) -> int:
    record = record_from_csv(args.record)
    sys.stdout.write(compute_metrics(record).to_text())
    return 0


# metrics.txt names; mean_frame_time is left out so that a sweep table is reproducible.
SWEEP_COLUMNS = ("pos_rmse_x", "pos_rmse_y", "pos_rmse_z",
                 "rot_rmse_deg_x", "rot_rmse_deg_y", "rot_rmse_deg_z", "n_frames", "k_init")


def _cmd_sweep(args) -> int:
    values = [v for v in args.values.split(",") if v]
    if not values:
        raise ScenarioError("sweep needs at least one value")
    rows = [",".join(("param", "value") + SWEEP_COLUMNS)]
    for value in values:
        overrides = _parse_overrides(args.overrides)
        overrides[args.param] = value
        scenario = load_scenario(args.scenario, overrides=overrides, seed=args.seed)
        metrics = compute_metrics(run(scenario)).as_dict()
        rows.append(",".join([args.param, value] + [metrics[c] for c in SWEEP_COLUMNS]))
    table = "\n".join(rows) + "\n"
    sys.stdout.write(table)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "sweep.csv"), "w", encoding="utf-8") as fh:
            fh.write(table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dronepose",
        description="Drone / ground-vehicle relative pose estimation on synthetic LiDAR data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and export trajectory + metrics")
    p_run.add_argument("--scenario", required=True, help="scenario file path")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--overrides", nargs="*", default=None, metavar="KEY=VALUE",
                       help="scenario key overrides")
    p_run.set_defaults(func=_cmd_run)

    p_metrics = sub.add_parser("metrics", help="recompute metrics from a trajectory CSV")
    p_metrics.add_argument("--record", required=True, help="trajectory.csv path")
    p_metrics.set_defaults(func=_cmd_metrics)

    p_sweep = sub.add_parser("sweep", help="run a scenario across parameter values")
    p_sweep.add_argument("--scenario", required=True)
    p_sweep.add_argument("--param", required=True, help="scenario key to vary")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--out", default=None, help="optional output directory")
    p_sweep.add_argument("--overrides", nargs="*", default=None, metavar="KEY=VALUE")
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
