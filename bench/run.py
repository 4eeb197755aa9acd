"""se3slam benchmark: µs per simulated step end to end, and a traced per-layer split.

    python3 bench/run.py --workload scenario_true --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

Each measurement runs in a fresh child interpreter, one workload at a time
and one process at a time: ``bench/startup.py`` for ``setup_s`` and
``bench/job.py`` for everything else. With ``--trace 0`` the last line
of standard output is a JSON object holding the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics. ``--workload all`` runs every
workload both ways and prints a table of every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKDIR = ROOT / ".bench_tmp"

# Fresh interpreters timed per run for setup_s, half before and half after the
# measuring child so that they see two moments of the machine's load. One more,
# untimed, comes first so that compiling the package's bytecode is not counted.
SETUP_SAMPLES = 10
CHILD_TIMEOUT_S = 170
# No thread pools: the children run numpy's BLAS single-threaded, so that a
# fresh interpreter's start-up does not depend on whether the other cores of a
# shared machine are free. The step loop's 3x3 and l x 3 products never use
# more than one thread anyway.
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def setup_samples(scenario_path: Path, seed: int, count: int) -> list[float]:
    """Wall seconds from spawning an interpreter to its first step being ready."""
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "startup.py"), str(scenario_path), str(seed)],
            stdout=subprocess.PIPE,
            text=True,
            env=CHILD_ENV,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"setup child failed (exit {code})")
        samples.append(elapsed)
    return samples


def measure(workload: str, seed: int, seconds: float, trace: bool, scenario_path: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "job.py"), workload, str(scenario_path), str(seed),
         str(seconds), "1" if trace else "0", str(WORKDIR)],
        stdout=subprocess.PIPE,
        text=True,
        env=CHILD_ENV,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"measure child failed (exit {proc.returncode})")
    return json.loads(proc.stdout.splitlines()[-1])


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(result line, provenance) for one run of one workload."""
    WORKDIR.mkdir(exist_ok=True)
    spec = WORKLOADS[workload]
    scenario_path = spec.scenario_path(ROOT, seed, WORKDIR)
    if not trace:
        setup = setup_samples(scenario_path, spec.reference_seed, 1 + SETUP_SAMPLES // 2)[1:]
    child = measure(workload, seed, seconds, trace, scenario_path)
    if not trace:
        setup += setup_samples(scenario_path, spec.reference_seed, SETUP_SAMPLES - len(setup))
    for problem in child["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if trace:
        units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
        values = child["layers"]
    else:
        units = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
        values = {
            "step_us": statistics.median(child["run_step_us"]) if child["run_step_us"] else 0.0,
            "job_s": statistics.median(child["job_s"]) if child["job_s"] else 0.0,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": child["peak_rss_mb"],
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }
    provenance = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "scenario_sha256": child["scenario_sha256"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": child["numpy"],
        "git_commit": git_commit(),
    }
    return result, provenance


def _table(workload: str, result: dict) -> list[str]:
    lines = [f"{workload}: attempted {result['attempted']}, failed {result['failed']}, "
             f"failed_frac {result['failed'] / result['attempted']:.4g} (1)"]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:<46} {m['value']:>14.6g} {m['unit']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if args.workload == "all":
        report = {}
        for name in WORKLOADS:
            for trace in (False, True):
                result, provenance = run_workload(name, args.seed, args.seconds, trace)
                report.setdefault(name, {"provenance": provenance})[
                    "per_layer" if trace else "end_to_end"] = result
                print("\n".join(_table(name, result)), flush=True)
        print(json.dumps(report))
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    result, provenance = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
