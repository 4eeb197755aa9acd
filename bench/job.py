"""Child process that measures one workload in a fresh interpreter.

    python3 bench/job.py <workload> <scenario file> <seed> <seconds> <trace> <workdir>

It runs jobs until ``seconds`` have passed (at least one) and prints one JSON
object. Untraced, only ``run()`` is wrapped, once per simulated run,
to time the loop. Traced, each job runs twice, untraced and then under the
full tracer, and the two CSV and summary files must be byte-identical.
"""

from __future__ import annotations

import json
import resource
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from startup import import_package
from tracer import FULL_TARGETS, RUN, TIMING_TARGETS, Tracer
from workloads import REFERENCE_FILE, WORKLOADS, check_reference, check_run

# Per-layer metric -> span name. Each is that span's self time inside run()
# calls per simulated step; for a span with no traced children the self time
# is the whole span.
LAYER_TIMES = {
    "liegroup.pose_validate.us_per_step": "liegroup.pose_validate",
    "liegroup.exp_se3.self_us_per_step": "liegroup.exp_se3",
    "liegroup.reorthonormalize.us_per_step": "liegroup.reorthonormalize",
    "liegroup.hat.us_per_step": "liegroup.hat",
    "liegroup.vee.us_per_step": "liegroup.vee",
    "liegroup.rotation_angle.us_per_step": "liegroup.rotation_angle",
    "simulator.truth_at.self_us_per_step": "simulator.truth_at",
    "simulator.measure.self_us_per_step": "simulator.measure",
    "attitude.solve_attitude.self_us_per_step": "attitude.solve_attitude",
    "attitude.collinearity_rank.us_per_step": "attitude.collinearity_rank",
    "observer.resolve_attitude.self_us_per_step": "observer.resolve_attitude",
    "observer.step.self_us_per_step": "observer.step",
    "metrics.evaluate.self_us_per_step": "metrics.evaluate",
    "runner.initial_conditions.self_us_per_step": "runner.initial_conditions",
    "runner.loop_self_us_per_step": RUN,
}
# Per-layer metric -> span name whose calls inside run() are counted per step.
LAYER_COUNTS = {
    "liegroup.pose_validations_per_step": "liegroup.pose_validate",
    "simulator.truth_at.calls_per_step": "simulator.truth_at",
}


def run_job(workload, runner, scenario, tracer, scenario_path, job_seed, out_dir):
    """One job as ``se3slam run`` (or ``sweep``) does it; returns the run results."""
    base, _ = tracer.call("scenario.load", scenario.load_scenario, scenario_path)
    if workload.sweep_size:
        seeds = [job_seed + i for i in range(workload.sweep_size)]
        results = tracer.call("runner.sweep", runner.sweep, base, "seed", seeds)
    else:
        results = [runner.run(scenario.set_parameter(base, "seed", job_seed))]
    for i, result in enumerate(results):
        runner.write_csv(result.records, out_dir / f"run{i}.csv")
        tracer.call("runner.write_summary", runner.write_summary, result, out_dir / f"run{i}.txt")
    return results


@dataclass(frozen=True)
class JobStats:
    run_steps: list[int]  # steps of each run() call, in call order
    records: int
    degenerate_frames: int
    span_range: tuple[int, int]  # the job's spans in its tracer
    seconds: float


class Measurement:
    """Runs the jobs of one workload and keeps their check results."""

    def __init__(self, workload, scenario_path: Path):
        self.runner, self.scenario = import_package()
        self.workload = workload
        self.scenario_path = scenario_path
        self.scenario_sha256 = self.scenario.load_scenario(scenario_path)[1]
        self.reference = json.loads(REFERENCE_FILE.read_text()).get(workload.name)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def job(self, tracer, job_index: int, job_seed: int, out_dir: Path) -> JobStats | None:
        """Run and check one job; None if it raised or failed a check.

        Only the stats are kept, so that peak memory is that of one job and
        does not grow with the number of jobs a run fits in.
        """
        start = tracer.mark()
        t0 = time.perf_counter()
        try:
            with tracer:
                results = run_job(
                    self.workload, self.runner, self.scenario, tracer,
                    self.scenario_path, job_seed, out_dir,
                )
        except Exception:  # the job boundary: a raising job is a failed job
            traceback.print_exc(file=sys.stderr)
            self.problems.append(f"job {job_index} (seed {job_seed}) raised")
            return None
        seconds = time.perf_counter() - t0
        problems = [p for r in results for p in check_run(self.workload, r)]
        if job_index == 0:
            if self.reference is None:
                problems.append("no reference values recorded for this workload")
            else:
                problems += check_reference(results, self.reference)
        if problems:
            self.problems += [f"job {job_index} (seed {job_seed}): {p}" for p in problems]
            return None
        return JobStats(
            [r.summary.steps for r in results],
            sum(len(r.records) for r in results),
            sum(r.summary.degenerate_frames for r in results),
            (start, tracer.mark()),
            seconds,
        )

    def same_files(self, job_index: int, a: Path, b: Path) -> bool:
        """The traced job must write exactly the bytes the untraced job wrote."""
        names = sorted(p.name for p in a.iterdir())
        if names != sorted(p.name for p in b.iterdir()):
            self.problems.append(f"job {job_index}: traced job wrote other files")
            return False
        for name in names:
            if (a / name).read_bytes() != (b / name).read_bytes():
                self.problems.append(f"job {job_index}: traced {name} differs from untraced")
                return False
        return True

    def count(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def run_step_us(spans, jobs) -> list[float]:
    """µs per step of each run() call of the given jobs."""
    is_run = spans.select(RUN)
    out = []
    for job in jobs:
        lo, hi = job.span_range
        durations = spans.durations[lo:hi][is_run[lo:hi]]
        out += [d * 1e6 / steps for d, steps in zip(durations, job.run_steps)]
    return out


def layer_metrics(spans, jobs, untraced_us: list[float]) -> dict:
    """The per-layer metrics of BENCHMARK.json from the traced jobs' spans."""
    steps = sum(sum(job.run_steps) for job in jobs) or 1
    layers = {}
    for metric, name in LAYER_TIMES.items():
        layers[metric] = float(spans.self_times[spans.select(name, True)].sum()) * 1e6 / steps
    for metric, name in LAYER_COUNTS.items():
        layers[metric] = int(spans.select(name, True).sum()) / steps
    solves = int(spans.select("attitude.solve_attitude").sum())
    degenerate = sum(job.degenerate_frames for job in jobs)
    layers["attitude.fallback_frac"] = degenerate / solves if solves else 0.0
    records = sum(job.records for job in jobs) or 1
    csv_s = float(spans.durations[spans.select("runner.write_csv")].sum())
    layers["runner.csv_us_per_record"] = csv_s * 1e6 / records
    for metric, name in (
        ("runner.initial_conditions_us", "runner.initial_conditions"),
        ("scenario.load_us", "scenario.load"),
    ):
        durations = spans.durations[spans.select(name)]
        layers[metric] = float(np.median(durations)) * 1e6 if len(durations) else 0.0
    layers["bench.traced_step_us"] = float(spans.durations[spans.select(RUN)].sum()) * 1e6 / steps
    traced_us = run_step_us(spans, jobs)
    layers["bench.trace_overhead_frac"] = (
        float(np.median(traced_us) / np.median(untraced_us)) - 1.0
        if traced_us and untraced_us
        else 0.0
    )
    return layers


def measure(workload_name, scenario_path, seed, seconds, trace, workdir) -> dict:
    workload = WORKLOADS[workload_name]
    m = Measurement(workload, Path(scenario_path))
    plain, full = Tracer(TIMING_TARGETS), Tracer(FULL_TARGETS)
    plain_jobs, full_jobs = [], []
    deadline = time.perf_counter() + seconds
    for index, job_seed in enumerate(workload.job_seeds(seed)):
        if index and time.perf_counter() >= deadline:
            break
        with tempfile.TemporaryDirectory(dir=workdir) as a, tempfile.TemporaryDirectory(dir=workdir) as b:
            done = m.job(plain, index, job_seed, Path(a))
            ok = done is not None
            if ok:
                plain_jobs.append(done)
            if trace and ok:
                traced = m.job(full, index, job_seed, Path(b))
                ok = traced is not None and m.same_files(index, Path(a), Path(b))
                if ok:
                    full_jobs.append(traced)
            m.count(ok)

    out = {
        "attempted": m.attempted,
        "failed": m.failed,
        "problems": m.problems,
        "scenario_sha256": m.scenario_sha256,
        "numpy": np.__version__,
    }
    untraced_us = run_step_us(plain.spans(), plain_jobs)
    if trace:
        spans = full.spans()
        out["layers"] = layer_metrics(spans, full_jobs, untraced_us)
        spans.save(Path(workdir) / f"spans_{workload_name}.npz")
    else:
        out["run_step_us"] = untraced_us
        out["job_s"] = [job.seconds for job in plain_jobs]
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


if __name__ == "__main__":
    name, path, seed, seconds, trace, workdir = sys.argv[1:]
    print(json.dumps(measure(name, path, int(seed), float(seconds), trace == "1", workdir)))
