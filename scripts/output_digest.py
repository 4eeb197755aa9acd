"""Print the sha256 of every output a run writes, one line per output.

The runs are every bundled scenario under ``scenarios/``, the bundled
reconstructed scenario with its landmarks moved into the circle's plane
(``in_plane``), the benchmark's generated dense scenario (``DENSE_SCENARIO``,
imported from ``bench/workloads.py`` with ``bench/`` put on ``sys.path``, as
``scripts/pair.py`` imports the benchmark) at seeds 0-3, and last the bundled
heavytail scenario with uniform, Gaussian and Student-t channels
(``mixed_noise``). For each run it prints the digest of the full CSV, of the
CSV at ``--decimate 10`` and of the summary: the bytes of the files that
``write_csv`` and ``write_summary`` write, as ``se3slam run`` writes them.
Two source trees give the same output bits exactly when they print the same
lines, so comparing them is one ``diff``:

    PYTHONPATH=src python scripts/output_digest.py > after.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
import tempfile
from pathlib import Path

import yaml

from se3slam.runner import run, write_csv, write_summary
from se3slam.scenario import LandmarkLayout, load_scenario, parse_scenario
from se3slam.simulator import ChannelNoise, NoiseSpec

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))  # bench/'s modules import one another by name

from workloads import DENSE_SCENARIO  # noqa: E402

DENSE_SEEDS = range(4)


def in_plane(scenario):
    """``scenario`` (the bundled reconstructed one) with its landmarks moved into
    the circle's plane z = 0.5, over 2000 steps. Once the map has converged the
    datum directions are coplanar, so the attitude solve ranks them both by its
    rank-3 certificate and by eigvalsh."""
    positions = tuple((x, y, 0.5) for x, y, _ in scenario.landmarks.positions)
    return dataclasses.replace(
        scenario, landmarks=LandmarkLayout(positions=positions), duration=2000 * scenario.dt
    )


def mixed_noise(scenario):
    """``scenario`` (the bundled heavytail one) with uniform angular-velocity
    noise, Gaussian velocity noise with a bias, and its Student-t landmark
    noise. Channels of mixed families draw one instant at a time, and no other
    run reaches that path or the uniform family's arithmetic."""
    noise = NoiseSpec(
        omega=ChannelNoise("uniform", scale=0.01),
        velocity=ChannelNoise("gaussian", scale=0.01, bias=(0.02, -0.01, 0.005)),
        landmark=scenario.noise.landmark,
    )
    return dataclasses.replace(scenario, noise=noise)


def _scenarios():
    """(label, scenario, sha256 of its file) for every run, in a fixed order."""
    for path in sorted((ROOT / "scenarios").glob("*.yaml")):
        scenario, digest = load_scenario(path)
        yield path.name, scenario, digest
        if path.name == "reconstructed.yaml":
            yield f"{path.name} in_plane", in_plane(scenario), digest
    for seed in DENSE_SEEDS:
        text = DENSE_SCENARIO.format(seed=seed)
        digest = hashlib.sha256(text.encode()).hexdigest()
        yield f"dense_sweep seed {seed}", parse_scenario(yaml.safe_load(text)), digest
    heavytail, digest = load_scenario(ROOT / "scenarios" / "heavytail.yaml")
    yield "heavytail.yaml mixed_noise", mixed_noise(heavytail), digest


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, summary_path = Path(tmp) / "out.csv", Path(tmp) / "out_summary.txt"
        for label, scenario, digest in _scenarios():
            result = run(scenario, scenario_hash=digest)
            write_csv(result.records, csv_path)
            print(f"{label} csv {_sha256(csv_path)}")
            write_csv(result.records, csv_path, 10)
            print(f"{label} csv_decimate_10 {_sha256(csv_path)}")
            write_summary(result, summary_path)
            print(f"{label} summary {_sha256(summary_path)}")


if __name__ == "__main__":
    main()
