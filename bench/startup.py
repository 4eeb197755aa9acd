"""Child process timed for ``setup_s``: a fresh interpreter up to its first step.

    python3 bench/startup.py <scenario file> <seed>

It imports se3slam, loads the scenario, sets its seed and calls
``initial_conditions``, then prints ``ready``; the parent times it from spawn to
that line. It imports nothing of the benchmark, so only se3slam's own start-up
is timed.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def import_package():
    """(runner, scenario) modules of the se3slam under src/, never an installed copy."""
    import se3slam

    if Path(se3slam.__file__).resolve().parent != ROOT / "src" / "se3slam":
        raise SystemExit(f"se3slam imported from {se3slam.__file__}, not from {ROOT / 'src'}")
    from se3slam import runner, scenario

    return runner, scenario


def main(scenario_path: str, seed: str) -> None:
    runner, scenario = import_package()
    base, _ = scenario.load_scenario(scenario_path)
    runner.initial_conditions(scenario.set_parameter(base, "seed", int(seed)))
    print("ready", flush=True)


if __name__ == "__main__":
    main(*sys.argv[1:])
