"""Span tracer that times calls into the se3slam layers from outside the package.

The tracer replaces a name at its import site (for example ``runner.step``,
the name the run loop actually looks up) with a wrapper that records one span
per call, and puts the original back on exit. No file of the package changes.

A span is (name, parent, start, end). Spans are kept in memory in flat lists
and turned into numpy arrays only when the run is over, so the cost inside the
timed region is a few list appends and two clock reads per call. A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

RUN = "runner.run"

# (module, attribute path, span name). The module is the import site the caller
# resolves the name through, which is not always the module that defines it.
FULL_TARGETS = (
    ("se3slam.runner", "run", RUN),
    ("se3slam.runner", "initial_conditions", "runner.initial_conditions"),
    ("se3slam.runner", "truth_at", "simulator.truth_at"),
    ("se3slam.runner", "measure", "simulator.measure"),
    ("se3slam.runner", "resolve_attitude", "observer.resolve_attitude"),
    ("se3slam.runner", "step", "observer.step"),
    ("se3slam.runner", "evaluate", "metrics.evaluate"),
    ("se3slam.runner", "write_csv", "runner.write_csv"),
    ("se3slam.observer", "exp_se3", "liegroup.exp_se3"),
    ("se3slam.observer", "reorthonormalize", "liegroup.reorthonormalize"),
    ("se3slam.observer", "hat", "liegroup.hat"),
    ("se3slam.observer", "vee", "liegroup.vee"),
    ("se3slam.attitude", "solve_attitude", "attitude.solve_attitude"),
    ("se3slam.attitude", "collinearity_rank", "attitude.collinearity_rank"),
    ("se3slam.metrics", "rotation_angle", "liegroup.rotation_angle"),
    ("se3slam.liegroup", "Pose.__post_init__", "liegroup.pose_validate"),
)

# The untraced run wraps only run(), once per simulated run, to time the loop.
TIMING_TARGETS = FULL_TARGETS[:1]


def _resolve(module: str, attr_path: str):
    """(owner, attribute) for a dotted attribute path inside a module."""
    owner = importlib.import_module(module)
    *outer, attr = attr_path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans for the wrapped names while used as a context manager."""

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids: list[int] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack = [-1]
        self._saved = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        name_id = self._id(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` under a span of the benchmark's own (e.g. a scenario load)."""
        return self._wrap(fn, name)(*args, **kwargs)

    def __enter__(self):
        for module, attr_path, name in self.targets:
            owner, attr = _resolve(module, attr_path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def mark(self) -> int:
        """Index of the next span; spans between two marks belong to one job."""
        return len(self.starts)

    def spans(self) -> "Spans":
        return Spans(
            list(self.names),
            np.asarray(self.name_ids, dtype=np.int64),
            np.asarray(self.parents, dtype=np.int64),
            np.asarray(self.starts, dtype=float),
            np.asarray(self.ends, dtype=float),
        )


class Spans:
    """Finished spans as arrays, with self time and run() ancestry derived."""

    def __init__(self, names, name_ids, parents, starts, ends):
        self.names = names
        self.name_ids = name_ids
        self.parents = parents
        self.starts = starts
        self.ends = ends
        self.durations = ends - starts
        has_parent = parents >= 0
        child_time = np.zeros(len(parents))
        np.add.at(child_time, parents[has_parent], self.durations[has_parent])
        self.self_times = self.durations - child_time
        # Spread "inside a run() call" down the tree one level per pass.
        run_id = names.index(RUN) if RUN in names else -1
        inside = name_ids == run_id
        while True:
            grown = inside | (has_parent & inside[parents])
            if np.array_equal(grown, inside):
                break
            inside = grown
        self.inside_run = inside

    def select(self, name: str, inside_run: bool | None = None) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.name_ids), dtype=bool)
        mask = self.name_ids == self.names.index(name)
        if inside_run is not None:
            mask &= self.inside_run == inside_run
        return mask

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_ids=self.name_ids,
            parents=self.parents,
            starts=self.starts,
            ends=self.ends,
        )
