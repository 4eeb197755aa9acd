"""Command-line front end: run, sweep, and validate scenario files."""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from .errors import Se3SlamError
from .runner import run, summary_lines, sweep, write_csv, write_summary
from .scenario import load_scenario, set_parameter


def _int_at_least(minimum: int):
    """argparse type: an integer >= minimum, else a usage error (exit 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="se3slam",
        description="Simulate the SE(3) landmark observer described by a scenario file.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario, write CSV and summary")
    p_run.add_argument("scenario", type=Path)
    p_run.add_argument("--out", type=Path, default=Path("."), help="output directory")
    p_run.add_argument(
        "--seed", type=_int_at_least(0), default=None, help="override scenario seed"
    )
    p_run.add_argument(
        "--decimate",
        type=_int_at_least(1),
        default=1,
        help="keep every Nth record plus the final one",
    )

    p_sweep = sub.add_parser("sweep", help="run the scenario once per parameter value")
    p_sweep.add_argument("scenario", type=Path)
    p_sweep.add_argument("--param", required=True, help="dotted field path, e.g. gains.k1")
    p_sweep.add_argument(
        "--values", required=True, help="comma-separated numeric values"
    )
    p_sweep.add_argument("--out", type=Path, default=Path("."))
    p_sweep.add_argument("--decimate", type=_int_at_least(1), default=1)

    p_val = sub.add_parser("validate", help="check a scenario file and exit")
    p_val.add_argument("scenario", type=Path)
    return parser


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", text)


def _cmd_run(args) -> int:
    scenario, digest = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = set_parameter(scenario, "seed", args.seed)
    result = run(scenario, scenario_hash=digest)
    args.out.mkdir(parents=True, exist_ok=True)
    csv_path = args.out / f"{scenario.name}.csv"
    write_csv(result.records, csv_path, args.decimate)
    write_summary(result, args.out / f"{scenario.name}_summary.txt")
    for line in summary_lines(result):
        print(line)
    print(f"wrote {csv_path}")
    return 0


def _cmd_sweep(args) -> int:
    scenario, _ = load_scenario(args.scenario)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        print("error: --values must be comma-separated numbers", file=sys.stderr)
        return 2
    if not values:
        print("error: --values is empty", file=sys.stderr)
        return 2
    results = sweep(scenario, args.param, values)
    args.out.mkdir(parents=True, exist_ok=True)
    for value, result in zip(values, results):
        stem = f"{scenario.name}__{_slug(args.param)}_{value:g}"
        write_csv(result.records, args.out / f"{stem}.csv", args.decimate)
        write_summary(result, args.out / f"{stem}_summary.txt")
        print(
            f"{args.param}={value:g}: final_V={result.summary.final.lyapunov:.6g} "
            f"final_att_err={result.summary.final.attitude_error_angle:.6g}"
        )
    return 0


def _cmd_validate(args) -> int:
    scenario, digest = load_scenario(args.scenario)
    print(f"{args.scenario}: OK (name={scenario.name}, sha256={digest[:12]}...)")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "sweep": _cmd_sweep, "validate": _cmd_validate}
    try:
        return handlers[args.command](args)
    except Se3SlamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
