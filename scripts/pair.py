"""Paired benchmark of the checkout's se3slam against a parent commit, in one process.

    python3 scripts/pair.py --parent REV --pairs N --out FILE

Both trees are copied under ``.bench_tmp/``, REV's ``src/`` with ``git
archive`` and the checkout's ``src/se3slam`` as it stands, and both copies are
loaded in one interpreter under alias package names. Neither side runs from
the checkout in place: in A/A runs (both sides the same code) the in-place
tree ran about 0.4 % faster than its copy. Each pair runs one job of every
benchmark workload on both sides. A job is ``bench/job.py``'s own
``run_job``, timed as ``bench/job.py`` times its untraced jobs, with only
``run()`` wrapped: load the scenario, set its seed, ``run()`` it (or
``sweep()`` it over the workload's seeds), then write the CSV and the
summary. ``bench/`` is put on ``sys.path``, as its own scripts expect,
and imported, not changed: the job, the tracer, the workloads with their seeds
and checks, and ``bench/run.py``'s ``CHILD_ENV``, the environment the
measuring interpreters run with.

Two metrics are paired: ``step_us`` of each ``run()`` call and ``job_s`` of each
job. Half the pairs run in a fresh interpreter that loads the parent first,
half in one that loads the change first, and both halves are reported, so
that a lean from the load order shows. Inside each interpreter the side that
runs first alternates from pair to pair, so N must be a multiple of 4 for
each interpreter to run each side first equally often; every job record names
the side that ``ran_first``. ``setup_s`` and ``peak_rss_mb`` need an
interpreter per measurement and are left to ``bench/run.py``.

FILE gets, per workload and metric, both sides' medians and quartiles, the
paired ratio (change / parent) with its median and IQR, the pairs the change
won, and whether a gain is shown, overall and per half; every job's check result; and the CPU
model, the Python and numpy versions and the thread variables the
interpreters ran with. The exit status is non-zero if a job raised or failed
its checks, or if a paired median is worse than the metric's
``BENCHMARK.json`` bound.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import io
import itertools
import json
import multiprocessing
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import zipfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))  # bench/'s modules import one another by name

import workloads  # noqa: E402
from job import run_job  # noqa: E402
from run import CHILD_ENV, cpu_model  # noqa: E402
from tracer import RUN, Tracer  # noqa: E402

WORKDIR = ROOT / ".bench_tmp"
SIDES = ("parent", "change")
METRICS = ("step_us", "job_s")
SEED = 1  # the benchmark seed CI runs; pair 0 runs each workload's reference seed


def load_tree(alias: str, package_dir: Path):
    """(runner, scenario) modules of the se3slam package in package_dir,
    imported as the package ``alias``."""
    spec = importlib.util.spec_from_file_location(
        alias, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[alias] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{alias}.runner"), importlib.import_module(f"{alias}.scenario")


def attempt(side, workload, path: Path, seed: int, out_dir: Path, reference=None) -> dict:
    """One bench/job.py job on the (runner, scenario) modules ``side``, timed as
    bench/job.py times its untraced jobs, with only ``run()`` wrapped. Returns
    the job's record: its timings and the problems the workload's checks found
    (against the ``reference`` values too, if given), or the traceback it raised."""
    runner, scenario = side
    tracer = Tracer([(runner.__name__, "run", RUN)])
    t0 = time.perf_counter()
    try:
        with tracer:
            results = run_job(workload, runner, scenario, tracer, path, seed, out_dir)
    except Exception:  # the job boundary: a raising job is a failed job
        return {"problems": ["raised: " + traceback.format_exc(limit=-3)], "correct": False}
    job_s = time.perf_counter() - t0
    spans = tracer.spans()
    run_s = spans.durations[spans.select(RUN)].tolist()
    step_us = [d * 1e6 / r.summary.steps for d, r in zip(run_s, results)]
    problems = [p for r in results for p in workloads.check_run(workload, r)]
    if reference is not None:
        problems += workloads.check_reference(results, reference)
    return {"problems": problems, "correct": not problems, "job_s": job_s, "step_us": step_us}


def measure_half(dirs: dict[str, Path], first: str, pair_indices: list[int]) -> dict:
    """The jobs of the given pairs in this interpreter, which loads side
    ``first`` first from its package directory in ``dirs``; the side that runs
    first alternates from one of these pairs to the next. Returns, per
    workload, each job's record; a warm-up job is recorded only if it failed."""
    order = (first, *(s for s in SIDES if s != first))
    sides = {name: load_tree(f"se3slam_{name}", dirs[name]) for name in order}
    reference = json.loads(workloads.REFERENCE_FILE.read_text())
    out = {}
    with tempfile.TemporaryDirectory(dir=WORKDIR) as tmp:
        tmp = Path(tmp)
        for name, workload in workloads.WORKLOADS.items():
            # a job sets its own seeds, whatever the seed in the scenario file
            path = workload.scenario_path(ROOT, SEED, tmp)
            seeds = list(itertools.islice(workload.job_seeds(SEED), max(pair_indices) + 1))
            jobs = out[name] = []
            for side_name, side in sides.items():  # untimed: first-call costs
                record = attempt(side, workload, path, seeds[0], tmp)
                if not record["correct"]:
                    record.update(pair="warm-up", first_loaded=first, side=side_name, seed=seeds[0])
                    jobs.append(record)
            for k, i in enumerate(pair_indices):
                expected = reference[name] if i == 0 else None  # pair 0 runs the reference seed
                run_order = SIDES[:: 1 if k % 2 == 0 else -1]
                for side_name in run_order:
                    record = attempt(sides[side_name], workload, path, seeds[i], tmp, expected)
                    record.update(
                        pair=i, first_loaded=first, ran_first=run_order[0], side=side_name, seed=seeds[i]
                    )
                    jobs.append(record)
    return out


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def paired(jobs: list[dict], metric: str) -> dict:
    """Both sides' quartiles, the change / parent ratio per pair (per run()
    call for step_us) with its median and IQR, the pairs the change won, and
    whether that shows a gain: the change won at least nine tenths of the pairs
    (a tie counts for neither side), and the parent's median exceeds the
    change's by more than the parent's interquartile range."""
    by_pair = {}
    for job in jobs:
        if job["correct"]:
            by_pair.setdefault(job["pair"], {})[job["side"]] = job[metric]
    values = {side: [] for side in SIDES}
    for both in by_pair.values():
        if len(both) == 2:
            for side in SIDES:
                x = both[side]
                values[side] += x if isinstance(x, list) else [x]
    if len(values["parent"]) < 2:
        return {"pairs": len(values["parent"])}
    ratios = [c / p for p, c in zip(values["parent"], values["change"])]
    ratio = quartiles(ratios)
    ratio["iqr"] = ratio["q3"] - ratio["q1"]
    parent, change = quartiles(values["parent"]), quartiles(values["change"])
    won = sum(r < 1.0 for r in ratios)
    return {
        "parent": parent,
        "change": change,
        "ratio": ratio,
        "won": won,
        "pairs": len(ratios),
        "shown": 10 * won >= 9 * len(ratios)
        and parent["median"] - change["median"] > parent["q3"] - parent["q1"],
    }


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout


def copy_trees(commit: str, dest: Path) -> dict[str, Path]:
    """Each side's se3slam package directory, both copies under dest: the
    commit's src/ from git archive (no worktree is made) and the checkout's
    src/se3slam as it stands, uncommitted edits included."""
    archive = subprocess.run(
        ["git", "archive", "--format=zip", commit, "src"], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with zipfile.ZipFile(io.BytesIO(archive)) as zf:
        zf.extractall(dest / "parent")
    change = dest / "change" / "se3slam"
    shutil.copytree(ROOT / "src" / "se3slam", change, ignore=shutil.ignore_patterns("__pycache__"))
    return {"parent": dest / "parent" / "src" / "se3slam", "change": change}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--pairs", type=int, required=True, help="pairs per workload, a multiple of 4")
    parser.add_argument("--out", required=True, type=Path, help="the JSON report to write")
    args = parser.parse_args(argv)
    if args.pairs < 4 or args.pairs % 4:
        parser.error("--pairs must be a positive multiple of 4: each side runs first equally often per load order")

    parent_commit = git("rev-parse", "--verify", f"{args.parent}^{{commit}}").strip()
    bounds = {m["name"]: m["bound"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    halves = {"parent": list(range(0, args.pairs, 2)), "change": list(range(1, args.pairs, 2))}
    WORKDIR.mkdir(exist_ok=True)
    os.environ.update(CHILD_ENV)
    spawn = multiprocessing.get_context("spawn")
    with tempfile.TemporaryDirectory(dir=WORKDIR) as tmp:
        dirs = copy_trees(parent_commit, Path(tmp))
        measured = {}
        for first, indices in halves.items():
            with spawn.Pool(1) as pool:  # a fresh interpreter per load order
                measured[first] = pool.apply(measure_half, (dirs, first, indices))

    report = {
        "parent": {"rev": args.parent, "commit": parent_commit},
        "change": {"commit": git("rev-parse", "HEAD").strip(), "dirty": bool(git("status", "--porcelain"))},
        "pairs": args.pairs,
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "threads": {k: v for k, v in CHILD_ENV.items() if k.endswith("_NUM_THREADS")},
        },
        "bounds": {m: bounds[m] for m in METRICS},
        "workloads": {},
    }
    errors = []
    for name in measured["parent"]:
        jobs = measured["parent"][name] + measured["change"][name]
        entry = {"correct": all(job["correct"] for job in jobs)}
        for metric in METRICS:
            m = entry[metric] = paired(jobs, metric)
            m["halves"] = {f"{first}_loaded_first": paired(measured[first][name], metric) for first in SIDES}
            if "ratio" not in m:
                continue
            print(
                f"{name:<24} {metric:<8} parent {m['parent']['median']:.6g} change "
                f"{m['change']['median']:.6g} ratio {m['ratio']['median']:.4f} "
                f"(IQR {m['ratio']['iqr']:.4f}) won {m['won']}/{m['pairs']} "
                f"gain {'shown' if m['shown'] else 'not shown'}"
            )
            if m["ratio"]["median"] > 1.0 + bounds[metric]:
                errors.append(f"{name} {metric}: paired median ratio exceeds 1 + {bounds[metric]}")
        entry["jobs"] = jobs
        errors += [f"{name} pair {j['pair']} {j['side']}: {p}" for j in jobs for p in j["problems"]]
        report["workloads"][name] = entry
    report["errors"] = errors
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
