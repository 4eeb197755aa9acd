"""Simulation loop: drives simulator -> observer -> metrics and writes outputs.

A run is a pure function of (scenario, seed): landmark placement, initial
estimate offsets, and measurement noise each draw from an independent child
stream of a single PCG64 seed sequence, so repeated runs are bit-identical.
A run keeps its errors as one stacked ``ErrorRecord``, one row per instant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import __version__, csvtext
from .errors import NonFiniteState
from .liegroup import exp_so3
from .metrics import ErrorRecord, evaluate
from .observer import ObserverState, step
from .observer import resolve_attitude  # noqa: F401  wrapped here by bench/tracer.py
from .scenario import RECONSTRUCTED, Scenario, set_parameter
from .simulator import measure, place_landmarks, truth_at

# Steps per block (see block_records). 2048 landmark rows of (l, 3)
# estimates are 48 kB, so a block's buffers and scoring temporaries stay small
# next to the run's record columns; 4096 rows ran no faster and raised the peak
# RSS of the 8-landmark runs by another 0.25 MB. A block also costs 300-390 us
# of calls whatever its length, so a large map takes at least 25 steps per
# block. On a 2-vCPU Xeon at 256 landmarks, 100 steps as 4 blocks of 25 ran
# 12 % faster than as 6 of 16 and one of 4; 3 or 2 blocks ran another 4 or 7 %
# faster, but raised the benchmark's dense job's peak RSS by another 0.6 or 1.3 MB.
BLOCK_LANDMARK_ROWS = 2048
MIN_BLOCK_RECORDS = 25
# Values formatted and written at a time (see csvtext): a block's slots, text
# and scratch arrays stay near 300 kB. 4096 values wrote dense_sweep's CSV
# about 10 % faster, but raised the peak RSS of the 8-landmark runs by 0.38 MB.
CSV_BLOCK_VALUES = 2560


@dataclass(frozen=True)
class RunSummary:
    initial: ErrorRecord
    final: ErrorRecord
    steps: int
    degenerate_frames: int

    def convergence_factor(self, metric: str) -> float:
        """initial/final ratio for 'lyapunov', 'attitude', 'position', 'map',
        or 'relative_map' (map metrics use the worst landmark)."""
        pick = {
            "lyapunov": lambda r: r.lyapunov,
            "attitude": lambda r: r.attitude_error_angle,
            "position": lambda r: r.position_error,
            "map": lambda r: np.max(r.map_error, initial=0.0),
            "relative_map": lambda r: np.max(r.relative_map_error, initial=0.0),
        }[metric]
        num, den = float(pick(self.initial)), float(pick(self.final))
        return np.inf if den == 0.0 else num / den


@dataclass(frozen=True)
class RunResult:
    records: ErrorRecord  # stacked, one row per instant
    summary: RunSummary
    provenance: dict


def initial_conditions(scenario: Scenario):
    """Landmarks, truth at t = 0, initial observer state and noise generator,
    from the seed; the truth and the state are 1-instant stacks. Numpy's error
    state is the caller's (``run`` turns overflow warnings off), so an estimate
    that overflows may warn before NonFiniteState."""
    lm_seq, init_seq, noise_seq = np.random.SeedSequence(scenario.seed).spawn(3)
    layout = scenario.landmarks
    if layout.positions is not None:
        landmarks = np.array(layout.positions, dtype=float)
    else:
        landmarks = place_landmarks(
            layout.count, layout.box.min, layout.box.max, np.random.default_rng(lm_seq)
        )

    truth0 = truth_at(scenario.trajectory, np.zeros(1), landmarks)
    est = scenario.initial_estimate
    axis = np.asarray(est.attitude_error_axis, dtype=float)
    norm = np.linalg.norm(axis)
    rotvec = est.attitude_error_rad * axis / norm if norm > 0.0 else np.zeros(3)
    dcm0 = exp_so3(rotvec) @ truth0.dcm
    scale = est.landmark_offset_scale
    offsets = np.random.default_rng(init_seq).uniform(-scale, scale, landmarks.shape)
    position0 = truth0.position + np.asarray(est.position_offset, dtype=float)
    estimates0 = (landmarks + offsets)[None]
    if not (np.isfinite(position0).all() and np.isfinite(estimates0).all()):
        raise NonFiniteState("initial_estimate: initial position or map is not finite")
    state0 = ObserverState(dcm0, position0, estimates0)
    return landmarks, truth0, state0, np.random.default_rng(noise_seq)


def block_records(num_landmarks: int) -> int:
    """Steps made, and records scored, per block: about BLOCK_LANDMARK_ROWS
    landmark rows, so a block's buffers and scoring temporaries stay the same
    size whatever the landmark count, and at least MIN_BLOCK_RECORDS."""
    return max(MIN_BLOCK_RECORDS, BLOCK_LANDMARK_ROWS // num_landmarks)


@np.errstate(over="ignore", invalid="ignore")
def run(scenario: Scenario, scenario_hash: str | None = None) -> RunResult:
    """Execute the full simulate/estimate/score loop for one scenario.

    Steps are made in blocks of ``block_records`` consecutive steps. Step k
    reads the measurement at k * dt and makes the state scored as record
    k + 1, against the truth at (k + 1) * dt. The measurements depend on the
    truth and the noise stream alone, never on the estimate, so a block of n
    steps from step ``start`` takes its truth at the n + 1 instants start ...
    start + n from one ``truth_at`` and the measurements of the first n from
    one stacked ``measure``. One ``step`` call makes the block's n steps in
    either attitude mode: with the true attitudes or, in reconstructed mode,
    solving each from the map the step before made and carrying the last good
    solve from block to block as the fallback of the next. One ``evaluate``
    scores the block's new states against truth rows 1 ... n, and the next
    block's ``step`` continues from the last of them. Record 0, the initial
    state against the truth at t = 0, is the first block, scored the same way
    with a True flag. The truth is the run's one clock: a record's time is its
    row's instant, exactly k * dt, and a step or solve error names the instant
    of the measurement it read, truth row k's. The run's record columns are
    allocated once, shaped from record 0's, and each block's scores are
    written into its rows. A block's measurements go before it is scored, and
    between blocks ``run`` keeps only the state's last instant, the one the
    next ``step`` reads.

    ``run`` owns numpy's error state: overflow and invalid never warn inside it,
    and every value it returns has passed a check. ``initial_conditions``,
    ``truth_at``, ``step`` and the solve check what they make, and the record's
    scores are checked finite once, after the steps, so a step's error comes
    before any score's; a blow-up is a Se3SlamError.
    """
    landmarks, truth0, state, rng_noise = initial_conditions(scenario)
    spec, noise, gains, dt = scenario.trajectory, scenario.noise, scenario.gains, scenario.dt
    n_steps = int(round(scenario.duration / dt))
    last_good = None

    record0 = evaluate(state, truth0, np.ones(1, bool)).columns()
    columns = [np.empty((n_steps + 1, *c.shape[1:]), c.dtype) for c in record0]
    for column, c in zip(columns, record0):
        column[0] = c[0]
    rows = block_records(len(landmarks))
    for start in range(0, n_steps, rows):
        n = min(rows, n_steps - start)
        truth = truth_at(spec, np.arange(start, start + n + 1) * dt, landmarks)
        meas = measure(truth.row(slice(0, n)), noise, rng_noise)
        c_ba = None if scenario.attitude_mode == RECONSTRUCTED else truth.dcm[:n]
        state, oks, last_good = step(state, meas, c_ba, gains, dt, fallback=last_good)
        del meas
        for column, c in zip(columns, evaluate(state, truth.row(slice(1, None)), oks).columns()):
            column[start + 1 : start + n + 1] = c
        # the last instant alone, copied so that the block's (n, l, 3) map can go
        state = ObserverState(state.dcm[-1:], state.position[-1:], state.landmarks[-1:].copy())

    records = ErrorRecord(*columns)
    ok = np.isfinite(records.lyapunov) & np.isfinite(records.position_error)
    ok &= np.isfinite(records.map_error).all(1) & np.isfinite(records.relative_map_error).all(1)
    if not ok.all():
        raise NonFiniteState(f"non-finite error metric at t={float(records.time[np.argmin(ok)])}")
    degenerate = np.count_nonzero(~records.attitude_source_ok)
    summary = RunSummary(records.row(0), records.row(-1), n_steps, degenerate)
    provenance = {
        "scenario": scenario.name,
        "seed": scenario.seed,
        "scenario_sha256": scenario_hash,
        "version": __version__,
    }
    return RunResult(records, summary, provenance)


def sweep(
    base: Scenario, param_path: str, values, scenario_hash: str | None = None
) -> list[RunResult]:
    """One deterministic run per value, index-aligned with the input list, each
    carrying ``scenario_hash`` (the base scenario file's sha256) as ``run`` does.

    Every value's scenario is built, and so checked, before the first run."""
    scenarios = [set_parameter(base, param_path, v) for v in values]
    return [run(scenario, scenario_hash) for scenario in scenarios]


# 17 significant digits round-trip every float64 exactly.
_fmt = "{:.17g}".format


def _csv_blocks(records: ErrorRecord, decimate: int):
    """The CSV's bytes in pieces: the header line, then the lines of about
    CSV_BLOCK_VALUES values' rows at a time. The decimate check comes first."""
    if decimate < 1:
        raise ValueError("decimate must be >= 1")
    n, n_lm = records.map_error.shape
    maps = [f"map_err_{i + 1}" for i in range(n_lm)]
    header = ["t", "V", "att_err_rad", "pos_err_m", *maps, *["rel_" + m for m in maps]]
    header.append("att_source_ok")
    columns = records.columns()  # the CSV's column order; the flags print as 0 and 1
    rows = max(1, CSV_BLOCK_VALUES // len(header))
    spans = [slice(i, min(i + rows * decimate, n), decimate) for i in range(0, n, rows * decimate)]
    if (n - 1) % decimate:
        spans.append(slice(n - 1, n))  # the final row is always kept
    buf = bytearray(rows * len(header) * csvtext.SLOT)

    def block(span):
        return csvtext.csv_text(np.column_stack([c[span] for c in columns]), buf)

    return itertools.chain([(",".join(header) + "\n").encode()], map(block, spans))


def csv_lines(records: ErrorRecord, decimate: int = 1) -> list[str]:
    """CSV serialization of a stacked record, one string per line: the header,
    then every ``decimate``-th row plus the final one, each value as
    ``'%.17g' % x`` (made by ``csvtext.csv_text``)."""
    return b"".join(_csv_blocks(records, decimate)).decode().split("\n")[:-1]


def write_csv(records: ErrorRecord, path, decimate: int = 1) -> None:
    """Write the bytes of ``csv_lines`` a block of rows at a time, never the
    whole text at once."""
    blocks = _csv_blocks(records, decimate)
    with open(path, "wb") as fh:
        fh.writelines(blocks)


def summary_lines(result: RunResult) -> list[str]:
    s = result.summary
    lines = [
        f"scenario: {result.provenance['scenario']}",
        f"seed: {result.provenance['seed']}",
        f"scenario_sha256: {result.provenance['scenario_sha256']}",
        f"version: {result.provenance['version']}",
        f"steps: {s.steps}",
        f"degenerate_frames: {s.degenerate_frames}",
        f"initial_V: {_fmt(s.initial.lyapunov)}",
        f"final_V: {_fmt(s.final.lyapunov)}",
        f"initial_att_err_rad: {_fmt(s.initial.attitude_error_angle)}",
        f"final_att_err_rad: {_fmt(s.final.attitude_error_angle)}",
        f"initial_pos_err_m: {_fmt(s.initial.position_error)}",
        f"final_pos_err_m: {_fmt(s.final.position_error)}",
    ]
    for metric in ("lyapunov", "attitude", "position", "map", "relative_map"):
        lines.append(f"convergence_factor_{metric}: {_fmt(s.convergence_factor(metric))}")
    return lines


def write_summary(result: RunResult, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(summary_lines(result)) + "\n")
