"""Command-line front end: run, sweep, and validate scenario files."""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from .errors import ConfigInvalid, Se3SlamError
from .runner import run, sweep, write_csv, write_summary
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

    p_run = sub.add_parser("run", help="run one or more scenarios, write CSV and summary")
    p_run.add_argument("scenarios", type=Path, nargs="+")
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


def _value_text(value: float) -> str:
    """``value`` in %g form with as many digits as it takes to read back exactly."""
    for digits in range(6, 17):
        text = f"{value:.{digits}g}"
        if float(text) == value:
            return text
    return f"{value:.17g}"


def _check_outputs(labels, stems) -> None:
    """Reject two runs, named by their labels, whose outputs share a file stem."""
    seen = {}
    for label, stem in zip(labels, stems):
        if stem in seen:
            raise ConfigInvalid(
                f"{seen[stem]} and {label} would both write {stem}.csv and {stem}_summary.txt"
            )
        seen[stem] = label


def _write(result, stem: str, args) -> None:
    """Write a run's CSV and summary under ``args.out`` and report them on stdout."""
    args.out.mkdir(parents=True, exist_ok=True)
    csv_path = args.out / f"{stem}.csv"
    write_csv(result.records, csv_path, args.decimate)
    print(write_summary(result, args.out / f"{stem}_summary.txt"), end="")
    print(f"wrote {csv_path}")


def _cmd_run(args) -> int:
    # Load every file first, so a bad file or a name clash stops before any run.
    loaded = [load_scenario(path) for path in args.scenarios]
    _check_outputs(args.scenarios, [scenario.name for scenario, _ in loaded])
    for scenario, digest in loaded:
        if args.seed is not None:
            scenario = set_parameter(scenario, "seed", args.seed)
        _write(run(scenario, scenario_hash=digest), scenario.name, args)
    return 0


def _cmd_sweep(args) -> int:
    scenario, digest = load_scenario(args.scenario)
    tokens = [v.strip() for v in args.values.split(",") if v.strip()]
    try:
        values = [float(v) for v in tokens]
    except ValueError:
        raise ConfigInvalid("--values must be comma-separated numbers") from None
    if not values:
        raise ConfigInvalid("--values is empty")
    stems = [f"{scenario.name}__{_slug(args.param)}_{_value_text(v)}" for v in values]
    _check_outputs([f"{args.param}={v}" for v in tokens], stems)
    for stem, result in zip(stems, sweep(scenario, args.param, values, digest)):
        _write(result, stem, args)
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
    except (Se3SlamError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
